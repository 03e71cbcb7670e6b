"""Per-user calibration: avatar scaling and exact tracker-to-joint offsets.

At the calibration frame (t = 0) the user stands in T-pose aligned with the
avatar, which is rendered in bind pose at a known placement. For the back and
foot trackers we store the world-frame displacement from tracker to joint and
both initial rotations; replaying those offsets later reproduces the joint
targets exactly for any tracker mounting orientation. The headset-to-back
vector drives the spine bend, and controller-to-wrist transforms anchor the
hands so each controller stays under its palm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .math3d import FormatError, Transform, floats_from_json, floats_to_json, quat_from_json, \
    quat_to_json, read_json_file, transform_from_obj, transform_to_obj, write_json_file
from .session import DeviceFrame, DeviceRole, Session, identify_roles
from .skeleton import SkeletonModel, scale_uniform

# Format 2 dropped the two per-part t=0 positions of format 1, which nothing read.
PROFILE_FORMAT = 2

# A correctly performed walk-in leaves every device near its joint.
MAX_WALK_IN_OFFSET = 0.5

# Body parts with stored positional offsets, and the devices/joints they pair.
PART_ROLES = {
    "root": (DeviceRole.TRACKER_ROOT, "root"),
    "foot_left": (DeviceRole.TRACKER_FOOT_LEFT, "ankle_l"),
    "foot_right": (DeviceRole.TRACKER_FOOT_RIGHT, "ankle_r"),
}


class MisalignmentError(ValueError):
    """A device is too far from its joint for a plausible walk-in."""


def _check_walk_in(error: type, device: str, offset) -> None:
    gap = float(np.linalg.norm(offset))
    if gap > MAX_WALK_IN_OFFSET:
        raise error(f"{device} is {gap:.2f} m from its joint; walk-in alignment failed")


@dataclass
class PartOffsets:
    """Initial offsets for one tracked body part, all in the t=0 world frame."""

    v0: np.ndarray          # joint position minus tracker position
    r0_tracker: np.ndarray  # tracker rotation at t=0
    r0_joint: np.ndarray    # joint rotation at t=0


@dataclass
class CalibrationProfile:
    scale: float
    parts: dict[str, PartOffsets]
    w0: np.ndarray  # headset position minus back-tracker position at t=0
    wrist_palm_offset_left: Transform   # controller frame -> wrist frame
    wrist_palm_offset_right: Transform
    role_map: dict[str, DeviceRole]

    def device_id(self, role: DeviceRole) -> str:
        for did, r in self.role_map.items():
            if r == role:
                return did
        raise KeyError(f"profile role map lacks {role.value}")


@dataclass
class ScaleResult:
    scale: float
    warnings: list[str]


def compute_scale(hmd_height: float, skeleton: SkeletonModel) -> ScaleResult:
    """Uniform avatar scale from the user's eye height (the headset height)."""
    if hmd_height <= 0.0:
        raise ValueError(f"headset height must be positive, got {hmd_height}")
    warnings = []
    if hmd_height < 0.5 or hmd_height > 2.5:
        warnings.append(
            f"headset height {hmd_height:.2f} m is implausible; "
            "check the calibration frame"
        )
    return ScaleResult(hmd_height / skeleton.eye_height_bind, warnings)


def capture_profile(
    frame: DeviceFrame,
    role_map: dict[str, DeviceRole],
    skeleton: SkeletonModel,
    placement: Transform | None = None,
    scale: float = 1.0,
) -> CalibrationProfile:
    """Record exact offsets between the devices and the posed avatar.

    `skeleton` must already be scaled; `placement` is a rigid motion applied
    to the whole bind pose (identity leaves the avatar at its authored spot,
    standing on the floor at the origin facing -Z).
    """
    placement = placement or Transform.identity()
    device = {role: frame.pose_of(did) for did, role in role_map.items()}
    if len(device) != 6:
        raise ValueError("role map must cover all six devices")

    world = [placement @ w for w in skeleton.bind_world()]

    parts: dict[str, PartOffsets] = {}
    for part, (dev_role, joint_role) in PART_ROLES.items():
        tracker = device[dev_role]
        joint = world[skeleton.role_index(joint_role)]
        v0 = joint.translation - tracker.translation
        _check_walk_in(MisalignmentError, f"{part}: tracker", v0)
        parts[part] = PartOffsets(
            v0=v0,
            r0_tracker=tracker.rotation.copy(),
            r0_joint=joint.rotation.copy(),
        )

    w0 = device[DeviceRole.HMD].translation - device[DeviceRole.TRACKER_ROOT].translation

    wrist_offsets = {}
    for side, dev_role, joint_role in (
        ("left", DeviceRole.CONTROLLER_LEFT, "wrist_l"),
        ("right", DeviceRole.CONTROLLER_RIGHT, "wrist_r"),
    ):
        controller = device[dev_role]
        wrist = world[skeleton.role_index(joint_role)]
        _check_walk_in(MisalignmentError, f"hand_{side}: controller",
                       wrist.translation - controller.translation)
        wrist_offsets[side] = controller.inverse() @ wrist

    return CalibrationProfile(
        scale=scale,
        parts=parts,
        w0=w0,
        wrist_palm_offset_left=wrist_offsets["left"],
        wrist_palm_offset_right=wrist_offsets["right"],
        role_map=dict(role_map),
    )


def calibrate_session(
    session: Session,
    skeleton: SkeletonModel,
    placement: Transform | None = None,
) -> tuple[CalibrationProfile, SkeletonModel, list[str]]:
    """Full calibration flow: identify roles, scale the avatar, capture offsets.

    Returns the profile, the scaled skeleton, and any warnings.
    """
    frame = session.calibration_frame()
    role_map = identify_roles(frame)
    hmd_id = next(did for did, role in role_map.items() if role == DeviceRole.HMD)
    hmd_height = float(frame.pose_of(hmd_id).translation[1])
    result = compute_scale(hmd_height, skeleton)
    scaled = scale_uniform(skeleton, result.scale)
    profile = capture_profile(frame, role_map, scaled, placement, scale=result.scale)
    return profile, scaled, result.warnings


# ---------------------------------------------------------------------------
# Profile JSON
# ---------------------------------------------------------------------------
# Values follow the input rule of `math3d.FormatError`, and a loaded profile
# passes the checks that every captured profile passes.

def profile_to_document(profile: CalibrationProfile) -> dict:
    parts = {}
    for name, off in profile.parts.items():
        parts[name] = {
            "v0": floats_to_json(off.v0),
            "r0_tracker": quat_to_json(off.r0_tracker),
            "r0_joint": quat_to_json(off.r0_joint),
        }
    return {
        "format": PROFILE_FORMAT,
        "scale": profile.scale,
        "parts": parts,
        "w0": floats_to_json(profile.w0),
        "wrist_palm_offset_left": transform_to_obj(profile.wrist_palm_offset_left),
        "wrist_palm_offset_right": transform_to_obj(profile.wrist_palm_offset_right),
        "role_map": {d: r.value for d, r in sorted(profile.role_map.items())},
    }


def profile_from_document(document: dict) -> CalibrationProfile:
    if document.get("format") != PROFILE_FORMAT:
        raise FormatError(f"unsupported profile format {document.get('format')!r}")
    try:
        if set(document["parts"]) != set(PART_ROLES):
            raise FormatError(f"parts must be exactly {sorted(PART_ROLES)}")
        parts = {}
        for name, obj in document["parts"].items():
            parts[name] = PartOffsets(
                v0=floats_from_json(obj["v0"], (3,), f"parts.{name}.v0"),
                r0_tracker=quat_from_json(obj["r0_tracker"], f"parts.{name}.r0_tracker"),
                r0_joint=quat_from_json(obj["r0_joint"], f"parts.{name}.r0_joint"),
            )
            _check_walk_in(FormatError, f"parts.{name}.v0: tracker", parts[name].v0)
        scale = float(floats_from_json(document["scale"], (), "scale"))
        if not scale > 0.0:
            raise FormatError(f"scale must be positive, got {scale}")
        role_map = {d: DeviceRole(r) for d, r in document["role_map"].items()}
        if len(role_map) != 6 or len(set(role_map.values())) != 6:
            raise FormatError("role_map must map six devices onto the six roles")
        return CalibrationProfile(
            scale=scale,
            parts=parts,
            w0=floats_from_json(document["w0"], (3,), "w0"),
            wrist_palm_offset_left=transform_from_obj(document["wrist_palm_offset_left"],
                                                      "wrist_palm_offset_left"),
            wrist_palm_offset_right=transform_from_obj(document["wrist_palm_offset_right"],
                                                       "wrist_palm_offset_right"),
            role_map=role_map,
        )
    except (KeyError, TypeError, AttributeError) as e:
        raise FormatError(f"malformed calibration profile ({e!r})") from e


def save_profile_file(profile: CalibrationProfile, path) -> None:
    write_json_file(path, profile_to_document(profile))


def load_profile_file(path) -> CalibrationProfile:
    return read_json_file(path, profile_from_document)

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

import json
from dataclasses import dataclass

import numpy as np

from .math3d import Transform, quat_canonical, quat_normalize, transform_from_obj, \
    transform_to_obj
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
        if float(np.linalg.norm(v0)) > MAX_WALK_IN_OFFSET:
            raise MisalignmentError(
                f"{part}: tracker is {float(np.linalg.norm(v0)):.2f} m from its joint; "
                "walk-in alignment failed"
            )
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
        gap = float(np.linalg.norm(wrist.translation - controller.translation))
        if gap > MAX_WALK_IN_OFFSET:
            raise MisalignmentError(
                f"hand_{side}: controller is {gap:.2f} m from the wrist; "
                "walk-in alignment failed"
            )
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


def validate_profile(profile: CalibrationProfile) -> list[str]:
    """Re-check profile invariants; returns human-readable diagnostics."""
    diagnostics = []
    if not profile.scale > 0.0:
        diagnostics.append(f"scale must be positive, got {profile.scale}")
    for part, off in profile.parts.items():
        n = float(np.linalg.norm(off.v0))
        if n > MAX_WALK_IN_OFFSET:
            diagnostics.append(
                f"{part}: offset norm {n:.3f} m exceeds the walk-in bound "
                f"{MAX_WALK_IN_OFFSET} m (misalignment)"
            )
        for label, q in (("tracker rotation", off.r0_tracker), ("joint rotation", off.r0_joint)):
            if abs(float(np.linalg.norm(q)) - 1.0) > 1e-6:
                diagnostics.append(f"{part}: {label} is not a unit quaternion")
    if not profile.w0[1] > 0.0:
        diagnostics.append("headset-to-back vector has no positive vertical component")
    roles = set(profile.role_map.values())
    if len(profile.role_map) != 6 or len(roles) != 6:
        diagnostics.append("role map is not a bijection onto the six device roles")
    return diagnostics


# ---------------------------------------------------------------------------
# Profile JSON
# ---------------------------------------------------------------------------

def profile_to_document(profile: CalibrationProfile) -> dict:
    parts = {}
    for name, off in profile.parts.items():
        parts[name] = {
            "v0": [float(v) for v in off.v0],
            "r0_tracker": [float(v) for v in quat_canonical(off.r0_tracker)],
            "r0_joint": [float(v) for v in quat_canonical(off.r0_joint)],
        }
    return {
        "format": PROFILE_FORMAT,
        "scale": profile.scale,
        "parts": parts,
        "w0": [float(v) for v in profile.w0],
        "wrist_palm_offset_left": transform_to_obj(profile.wrist_palm_offset_left),
        "wrist_palm_offset_right": transform_to_obj(profile.wrist_palm_offset_right),
        "role_map": {d: r.value for d, r in sorted(profile.role_map.items())},
    }


def profile_from_document(document: dict) -> CalibrationProfile:
    try:
        if document.get("format") != PROFILE_FORMAT:
            raise ValueError(f"unsupported profile format {document.get('format')!r}")
        parts = {}
        for name, obj in document["parts"].items():
            parts[name] = PartOffsets(
                v0=np.asarray(obj["v0"], dtype=np.float64),
                r0_tracker=quat_normalize(np.asarray(obj["r0_tracker"], dtype=np.float64)),
                r0_joint=quat_normalize(np.asarray(obj["r0_joint"], dtype=np.float64)),
            )
        return CalibrationProfile(
            scale=float(document["scale"]),
            parts=parts,
            w0=np.asarray(document["w0"], dtype=np.float64),
            wrist_palm_offset_left=transform_from_obj(document["wrist_palm_offset_left"]),
            wrist_palm_offset_right=transform_from_obj(document["wrist_palm_offset_right"]),
            role_map={d: DeviceRole(r) for d, r in document["role_map"].items()},
        )
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed calibration profile ({e})") from e


def save_profile_file(profile: CalibrationProfile, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(profile_to_document(profile), f, indent=2)
        f.write("\n")


def load_profile_file(path) -> CalibrationProfile:
    with open(path, "r", encoding="utf-8") as f:
        return profile_from_document(json.load(f))

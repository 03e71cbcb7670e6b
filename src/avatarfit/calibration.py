"""Per-user calibration: avatar scaling and exact tracker-to-joint offsets.

At the calibration frame (t = 0) the user stands in T-pose aligned with the
avatar, which is rendered in bind pose at a known placement. For each tracked
part (back, feet, hands) we store the joint's capture pose in its device's
frame, O = T0^-1 J0, and every later joint target is the composition T(t) O.
That is the paper's exact offset written as one rigid transform: with the
world-frame displacement v0 = p0(J) - p0(T), O has rotation R0(T)^-1 R0(J) and
translation R0(T)^-1 v0, so

    T(t) O = (R(T) R0(T)^-1 R0(J),  p(T) + R(T) R0(T)^-1 v0),

which reproduces the joint targets exactly for any tracker mounting
orientation and keeps each controller under its palm. The headset-to-back
vector drives the spine bend.
"""

from __future__ import annotations

from dataclasses import dataclass

from .math3d import IDENTITY, FormatError, compose_state, float_from_json, floats_from_json, \
    floats_to_json, invert_state, norm, read_json_file, transform_from_obj, transform_to_obj, \
    write_json_file
from .session import ROLE_TO_JOINT, DeviceFrame, DeviceRole, Session, identify_roles, \
    role_map_from_json
from .skeleton import SkeletonModel, scale_uniform

# Format 3 stores each part's offset as a transform in its device's frame.
PROFILE_FORMAT = 3

# A correctly performed walk-in leaves every device near its joint.
MAX_WALK_IN_OFFSET = 0.5

# Tracked body parts with stored offsets, in the profile's key order, and
# their devices; `session.ROLE_TO_JOINT` names each device's joint.
PART_ROLES = {
    "root": DeviceRole.TRACKER_ROOT,
    "foot_left": DeviceRole.TRACKER_FOOT_LEFT,
    "foot_right": DeviceRole.TRACKER_FOOT_RIGHT,
    "hand_left": DeviceRole.CONTROLLER_LEFT,
    "hand_right": DeviceRole.CONTROLLER_RIGHT,
}


class MisalignmentError(ValueError):
    """A device is too far from its joint for a plausible walk-in."""


def _check_walk_in(error: type, where: str, offset: tuple) -> None:
    gap = norm(offset[4:])
    if gap > MAX_WALK_IN_OFFSET:
        raise error(f"{where}: device is {gap:.2f} m from its joint; walk-in alignment failed")


@dataclass
class CalibrationProfile:
    scale: float
    offsets: dict[str, tuple]  # per PART_ROLES part: joint pose in its device's frame
    w0: tuple  # headset position minus back-tracker position at t=0, three floats
    role_map: dict[str, DeviceRole]


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
    placement: tuple | None = None,
    scale: float = 1.0,
) -> CalibrationProfile:
    """Record exact offsets between the devices and the posed avatar.

    `skeleton` must already be scaled; `placement` is a rigid motion applied
    to the whole bind pose (identity leaves the avatar at its authored spot,
    standing on the floor at the origin facing -Z).
    """
    placement = placement or IDENTITY
    device = {role: frame.devices[did] for did, role in role_map.items()}
    if len(device) != 6:
        raise ValueError("role map must cover all six devices")

    offsets = {}
    for part, dev_role in PART_ROLES.items():
        bind = skeleton.bind_states[skeleton.role_index(ROLE_TO_JOINT[dev_role])]
        joint = compose_state(placement, bind[:4], bind[4:])
        offsets[part] = compose_state(invert_state(device[dev_role]), joint[:4], joint[4:])
        _check_walk_in(MisalignmentError, part, offsets[part])

    w0 = tuple(h - b for h, b in zip(device[DeviceRole.HMD][4:],
                                     device[DeviceRole.TRACKER_ROOT][4:]))
    return CalibrationProfile(scale=scale, offsets=offsets, w0=w0, role_map=dict(role_map))


def calibrate_session(
    session: Session,
    skeleton: SkeletonModel,
) -> tuple[CalibrationProfile, SkeletonModel, list[str]]:
    """Full calibration flow: identify roles, scale the avatar, capture offsets.

    Returns the profile, the scaled skeleton, and any warnings.
    """
    frame = session.calibration_frame()
    role_map = identify_roles(frame)
    hmd_id = next(did for did, role in role_map.items() if role == DeviceRole.HMD)
    hmd_height = frame.devices[hmd_id][5]
    result = compute_scale(hmd_height, skeleton)
    scaled = scale_uniform(skeleton, result.scale)
    profile = capture_profile(frame, role_map, scaled, scale=result.scale)
    return profile, scaled, result.warnings


# ---------------------------------------------------------------------------
# Profile JSON
# ---------------------------------------------------------------------------
# Values follow the input rule of `math3d.FormatError`, and a loaded profile
# passes the checks that every captured profile passes.

def profile_to_document(profile: CalibrationProfile) -> dict:
    return {
        "format": PROFILE_FORMAT,
        "scale": profile.scale,
        "offsets": {part: transform_to_obj(o) for part, o in profile.offsets.items()},
        "w0": floats_to_json(profile.w0),
        "role_map": {d: r.value for d, r in sorted(profile.role_map.items())},
    }


def profile_from_document(document: dict) -> CalibrationProfile:
    if document.get("format") != PROFILE_FORMAT:
        raise FormatError(f"unsupported profile format {document.get('format')!r}")
    try:
        if set(document["offsets"]) != set(PART_ROLES):
            raise FormatError(f"offsets must be exactly {sorted(PART_ROLES)}")
        offsets = {}
        for part in PART_ROLES:
            offsets[part] = transform_from_obj(document["offsets"][part], f"offsets.{part}")
            _check_walk_in(FormatError, f"offsets.{part}.translation", offsets[part])
        scale = float_from_json(document["scale"], "scale")
        if not scale > 0.0:
            raise FormatError(f"scale must be positive, got {scale}")
        return CalibrationProfile(scale=scale, offsets=offsets,
                                  w0=floats_from_json(document["w0"], 3, "w0"),
                                  role_map=role_map_from_json(document["role_map"], "role_map"))
    except (KeyError, TypeError, AttributeError) as e:
        raise FormatError(f"malformed calibration profile ({e!r})") from e


def save_profile_file(profile: CalibrationProfile, path) -> None:
    write_json_file(path, profile_to_document(profile))


def load_profile_file(path) -> CalibrationProfile:
    return read_json_file(path, profile_from_document)

"""Tracker sessions: six-device frames, role identification, synthetic data.

A session is a recorded stream of frames, each holding the world poses of six
devices: one headset, two hand controllers, and three body trackers (lower
back and both feet). Sessions are files rather than live streams; the
calibration trigger press becomes `calibration_frame_index`.

Role identification fits a plane through the device positions of one T-pose
frame and classifies devices by height and lateral position on that plane.
The facing direction is recovered from the plane normal: the back tracker
sits behind the body plane while the feet trackers sit at or in front of it,
so forward points from the back tracker toward the feet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .math3d import (
    UP,
    FormatError,
    FormatError as SessionFormatError,
    Transform,
    fit_plane,
    floats_from_json,
    floats_to_json,
    normalize,
    pose_from_obj,
    pose_to_obj,
    quat_angle_between,
    quat_from_axis_angle,
    quat_mul,
    quat_to_json,
    read_jsonl,
    write_jsonl,
)
from .motion import ScriptError, ScriptPose, pose_from_script
from .skeleton import REQUIRED_ROLES, SkeletonModel, bind_pose, forward_kinematics


class DeviceRole(str, Enum):
    HMD = "hmd"
    CONTROLLER_LEFT = "controller_left"
    CONTROLLER_RIGHT = "controller_right"
    TRACKER_ROOT = "tracker_root"
    TRACKER_FOOT_LEFT = "tracker_foot_left"
    TRACKER_FOOT_RIGHT = "tracker_foot_right"


# Joint role each device drives.
ROLE_TO_JOINT = {
    DeviceRole.HMD: "head",
    DeviceRole.CONTROLLER_LEFT: "wrist_l",
    DeviceRole.CONTROLLER_RIGHT: "wrist_r",
    DeviceRole.TRACKER_ROOT: "root",
    DeviceRole.TRACKER_FOOT_LEFT: "ankle_l",
    DeviceRole.TRACKER_FOOT_RIGHT: "ankle_r",
}


class RoleAmbiguityError(ValueError):
    """Two devices are too close on a deciding axis to classify."""


class PostureError(ValueError):
    """Device layout does not look like a T-pose facing the mirror."""


@dataclass
class DeviceFrame:
    timestamp: float
    devices: list[tuple[str, Transform]]  # exactly six (device_id, pose)

    def pose_of(self, device_id: str) -> Transform:
        for did, pose in self.devices:
            if did == device_id:
                return pose
        raise KeyError(f"no device {device_id!r} in frame")


@dataclass
class Session:
    frames: list[DeviceFrame]
    role_map: dict[str, DeviceRole] | None = None
    calibration_frame_index: int | None = None

    def calibration_frame(self) -> DeviceFrame:
        if self.calibration_frame_index is None:
            raise FormatError("session has no calibration frame marker")
        return self.frames[self.calibration_frame_index]


@dataclass
class GroundTruth:
    """True joint world transforms of the generating skeleton, per frame."""

    joint_names: list[str]
    joint_roles: list[str]
    frames: list[list[Transform]]
    eye_height: float

    def by_role(self, frame_index: int, role: str) -> Transform:
        return self.frames[frame_index][self.joint_roles.index(role)]


# ---------------------------------------------------------------------------
# Role identification
# ---------------------------------------------------------------------------

# Controllers must sit within this fraction of the headset height.
CONTROLLER_HEIGHT_BAND = 0.35
# Two candidates closer than this (meters) on a deciding axis are ambiguous.
TIE_MARGIN = 0.02


def identify_roles(frame: DeviceFrame) -> dict[str, DeviceRole]:
    """Assign the six device roles from one T-pose frame.

    Classification: the highest device is the headset, the two lowest are
    the feet trackers, and of the remaining three the laterally extreme pair
    are the controllers, leaving the back tracker in the middle. Left/right
    follow the recovered facing direction.
    """
    if len(frame.devices) != 6:
        raise FormatError(f"expected 6 devices, got {len(frame.devices)}")
    ids = [did for did, _ in frame.devices]
    pos = {did: pose.translation for did, pose in frame.devices}

    plane = fit_plane(np.stack([pos[d] for d in ids]))
    centroid = np.stack([pos[d] for d in ids]).mean(axis=0)

    by_height = sorted(ids, key=lambda d: float(pos[d][1]), reverse=True)
    if pos[by_height[0]][1] - pos[by_height[1]][1] < TIE_MARGIN:
        raise RoleAmbiguityError(
            f"headset height is ambiguous between {by_height[0]!r} and {by_height[1]!r}"
        )
    hmd = by_height[0]

    lowest = sorted(ids, key=lambda d: float(pos[d][1]))
    if pos[lowest[2]][1] - pos[lowest[1]][1] < TIE_MARGIN:
        raise RoleAmbiguityError(
            f"foot tracker heights are ambiguous between {lowest[1]!r} and {lowest[2]!r}"
        )
    feet = lowest[:2]

    middle = [d for d in ids if d != hmd and d not in feet]

    # Lateral axis on the fitted plane; its sign is resolved after the root
    # is known, which only requires lateral *ordering*, not orientation.
    up_in_plane = normalize(UP - float(np.dot(UP, plane.normal)) * plane.normal)
    lateral_axis = np.cross(plane.normal, up_in_plane)
    lat = {d: float(np.dot(pos[d] - centroid, lateral_axis)) for d in ids}

    middle_sorted = sorted(middle, key=lambda d: lat[d])
    root = middle_sorted[1]
    controllers = [middle_sorted[0], middle_sorted[2]]
    for ctrl in controllers:
        if abs(lat[ctrl] - lat[root]) < TIE_MARGIN:
            raise RoleAmbiguityError(
                f"lateral positions of {ctrl!r} and {root!r} are ambiguous"
            )

    hmd_height = float(pos[hmd][1])
    for ctrl in controllers:
        h = float(pos[ctrl][1])
        if not ((1.0 - CONTROLLER_HEIGHT_BAND) * hmd_height <= h
                <= (1.0 + CONTROLLER_HEIGHT_BAND) * hmd_height):
            raise PostureError(
                f"device {ctrl!r} at height {h:.2f} is outside the controller band "
                f"around the headset height {hmd_height:.2f}"
            )
    root_h = float(pos[root][1])
    feet_top = max(float(pos[d][1]) for d in feet)
    ctrl_bottom = min(float(pos[d][1]) for d in controllers)
    if not feet_top < root_h < ctrl_bottom:
        raise PostureError(
            f"back tracker height {root_h:.2f} is not between the feet and the controllers"
        )

    # Forward points from the back tracker toward the feet across the plane.
    feet_mid = 0.5 * (pos[feet[0]] + pos[feet[1]])
    forward = plane.normal if float(np.dot(feet_mid - pos[root], plane.normal)) > 0 else -plane.normal
    left_axis = normalize(np.cross(UP, forward))
    side = {d: float(np.dot(pos[d] - centroid, left_axis)) for d in ids}

    ctrl_left, ctrl_right = sorted(controllers, key=lambda d: side[d], reverse=True)
    foot_left, foot_right = sorted(feet, key=lambda d: side[d], reverse=True)
    if abs(side[ctrl_left] - side[ctrl_right]) < TIE_MARGIN:
        raise RoleAmbiguityError(
            f"left/right is ambiguous between controllers {ctrl_left!r} and {ctrl_right!r}"
        )
    if abs(side[foot_left] - side[foot_right]) < TIE_MARGIN:
        raise RoleAmbiguityError(
            f"left/right is ambiguous between feet {foot_left!r} and {foot_right!r}"
        )

    return {
        hmd: DeviceRole.HMD,
        ctrl_left: DeviceRole.CONTROLLER_LEFT,
        ctrl_right: DeviceRole.CONTROLLER_RIGHT,
        root: DeviceRole.TRACKER_ROOT,
        foot_left: DeviceRole.TRACKER_FOOT_LEFT,
        foot_right: DeviceRole.TRACKER_FOOT_RIGHT,
    }


# ---------------------------------------------------------------------------
# Synthetic sessions
# ---------------------------------------------------------------------------

@dataclass
class NoiseModel:
    """Isotropic Gaussian position noise plus small-angle rotation noise."""

    position_sigma: float = 0.0
    rotation_sigma: float = 0.0
    seed: int = 0


def default_mount_offsets() -> dict[DeviceRole, Transform]:
    """Device pose relative to its body segment joint.

    The headset sits at eye level slightly in front of the head joint; the
    controllers hang just below the palms; the back tracker is strapped
    behind the waist; the foot trackers ride on the insteps.
    """
    ident = np.array([1.0, 0.0, 0.0, 0.0])
    return {
        DeviceRole.HMD: Transform(ident, np.array([0.0, 0.14, -0.08])),
        DeviceRole.CONTROLLER_LEFT: Transform(ident, np.array([0.0, -0.02, -0.05])),
        DeviceRole.CONTROLLER_RIGHT: Transform(ident, np.array([0.0, -0.02, -0.05])),
        DeviceRole.TRACKER_ROOT: Transform(ident, np.array([0.0, 0.0, 0.10])),
        DeviceRole.TRACKER_FOOT_LEFT: Transform(ident, np.array([0.0, 0.07, -0.04])),
        DeviceRole.TRACKER_FOOT_RIGHT: Transform(ident, np.array([0.0, 0.07, -0.04])),
    }


def rotated_mount_offsets() -> dict[DeviceRole, Transform]:
    """Mounts with deliberate non-identity rotations (straps at odd angles)."""
    mounts = default_mount_offsets()
    spins = {
        DeviceRole.CONTROLLER_LEFT: quat_from_axis_angle([0, 0, 1], math.radians(25)),
        DeviceRole.CONTROLLER_RIGHT: quat_from_axis_angle([0, 0, 1], math.radians(-25)),
        DeviceRole.TRACKER_ROOT: quat_from_axis_angle([0, 1, 0], math.pi),
        DeviceRole.TRACKER_FOOT_LEFT: quat_from_axis_angle([1, 0, 0], math.radians(30)),
        DeviceRole.TRACKER_FOOT_RIGHT: quat_from_axis_angle([1, 0, 0], math.radians(30)),
    }
    out = {}
    for role, mount in mounts.items():
        spin = spins.get(role)
        rot = mount.rotation if spin is None else quat_mul(spin, mount.rotation)
        out[role] = Transform(rot, mount.translation)
    return out


def _small_rotation(rng: np.random.Generator, sigma: float) -> np.ndarray:
    axis_angle = rng.normal(0.0, sigma, size=3)
    angle = float(np.linalg.norm(axis_angle))
    if angle < 1e-12:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return quat_from_axis_angle(axis_angle, angle)


def generate_synthetic_session(
    skeleton: SkeletonModel,
    script: list[ScriptPose],
    mount_offsets: dict[DeviceRole, Transform] | None = None,
    noise: NoiseModel | None = None,
) -> tuple[Session, GroundTruth]:
    """Simulate a six-device recording of `skeleton` performing `script`.

    Device poses are FK(segment) composed with the mount offset, optionally
    perturbed by the noise model. Frame 0 is the calibration frame and must
    be the bind T-pose (every scripted joint within 1 degree of bind).
    Returns the session plus the true joint transforms as ground truth.
    """
    mounts = mount_offsets or default_mount_offsets()
    noise = noise or NoiseModel()
    rng = np.random.default_rng(noise.seed)

    if not script:
        raise ScriptError("motion script is empty")
    first = pose_from_script(skeleton, script[0])
    bind = bind_pose(skeleton)
    for i in range(len(skeleton.joints)):
        delta = quat_angle_between(bind.local_rotations[i], first.local_rotations[i])
        if delta > math.radians(1.0):
            raise ScriptError(
                f"script must start in T-pose: joint {skeleton.joints[i].name!r} "
                f"is {math.degrees(delta):.2f} degrees from bind"
            )

    ids = [f"dev{i}" for i in range(6)]
    shuffled = list(DeviceRole)
    rng.shuffle(shuffled)
    role_map = {did: role for did, role in zip(ids, shuffled)}
    joint_for = {did: skeleton.role_index(ROLE_TO_JOINT[role]) for did, role in role_map.items()}

    frames: list[DeviceFrame] = []
    truth_frames: list[list[Transform]] = []
    for sp in script:
        world = forward_kinematics(skeleton, pose_from_script(skeleton, sp))
        truth_frames.append(world)
        devices = []
        for did in ids:
            pose = world[joint_for[did]] @ mounts[role_map[did]]
            if noise.position_sigma > 0.0:
                pose = Transform(pose.rotation,
                                 pose.translation + rng.normal(0.0, noise.position_sigma, 3))
            if noise.rotation_sigma > 0.0:
                pose = Transform(quat_mul(_small_rotation(rng, noise.rotation_sigma),
                                          pose.rotation),
                                 pose.translation)
            devices.append((did, pose))
        frames.append(DeviceFrame(sp.time, devices))

    session = Session(frames, role_map=dict(role_map), calibration_frame_index=0)
    truth = GroundTruth(
        joint_names=[j.name for j in skeleton.joints],
        joint_roles=[j.role for j in skeleton.joints],
        frames=truth_frames,
        eye_height=skeleton.eye_height_bind,
    )
    return session, truth


# ---------------------------------------------------------------------------
# Session files (JSONL)
# ---------------------------------------------------------------------------
# Optional header line: {"role_map": {...}, "calibration_frame": n}
# Frame lines: {"t": seconds, "devices": [{"id": str, "p": [x,y,z],
#                                          "q": [w,x,y,z]}, x6]}
# Values follow the input rule of `math3d.FormatError`; `t` strictly increases.

def write_session(session: Session, path) -> None:
    header: dict = {}
    if session.role_map is not None:
        header["role_map"] = {d: r.value for d, r in sorted(session.role_map.items())}
    if session.calibration_frame_index is not None:
        header["calibration_frame"] = session.calibration_frame_index
    frames = ({"t": frame.timestamp,
               "devices": [{"id": did, **pose_to_obj(pose)} for did, pose in frame.devices]}
              for frame in session.frames)
    write_jsonl(path, [header, *frames] if header else frames)


def read_session(path) -> Session:
    frames: list[DeviceFrame] = []
    role_map = None
    calibration_frame = None
    for lineno, obj in read_jsonl(path):
        where = f"{path}:{lineno}"
        if "devices" not in obj:
            if lineno == 1 and ("role_map" in obj or "calibration_frame" in obj):
                if "role_map" in obj:
                    try:
                        role_map = {d: DeviceRole(r) for d, r in obj["role_map"].items()}
                    except (AttributeError, ValueError) as e:
                        raise FormatError(f"{where}: bad role_map ({e})") from e
                    if len(set(role_map.values())) != 6:
                        raise FormatError(f"{where}: role_map must cover all six roles")
                calibration_frame = obj.get("calibration_frame")
                continue
            raise FormatError(f"{where}: frame line lacks 'devices'")
        devices = obj["devices"]
        if not isinstance(devices, list) or len(devices) != 6:
            raise FormatError(f"{where}: expected a list of 6 devices, got {devices!r:.60}")
        t = float(floats_from_json(obj.get("t"), (), f"{where} t"))
        if frames and t <= frames[-1].timestamp:
            raise FormatError(f"{where}: timestamps must be strictly increasing")
        parsed = []
        for k, dev in enumerate(devices):
            did = dev.get("id") if isinstance(dev, dict) else None
            if not isinstance(did, str) or not did:
                raise FormatError(f"{where}: device {k} lacks an id")
            if did in (d for d, _ in parsed):
                raise FormatError(f"{where}: duplicate device id {did!r}")
            parsed.append((did, pose_from_obj(dev, f"{where} device {did!r}")))
        frames.append(DeviceFrame(t, parsed))
    if not frames:
        raise FormatError(f"{path}: session contains no frames")
    # type() rather than isinstance(): JSON true/false must not pass as 1/0.
    if calibration_frame is not None and (
            type(calibration_frame) is not int or not 0 <= calibration_frame < len(frames)):
        raise FormatError(f"{path}: calibration_frame {calibration_frame!r} is not "
                          f"a frame index in 0..{len(frames) - 1}")
    return Session(frames, role_map=role_map, calibration_frame_index=calibration_frame)


# ---------------------------------------------------------------------------
# Ground-truth files (JSONL)
# ---------------------------------------------------------------------------
# Header: {"format": 1, "joints": [...], "roles": [...], "eye_height": m}
# Frames: {"t": s, "p": [[x,y,z] x J], "q": [[w,x,y,z] x J]}
# Values follow the input rule of `math3d.FormatError`.

def write_ground_truth(truth: GroundTruth, session: Session, path) -> None:
    header = {
        "format": 1,
        "joints": truth.joint_names,
        "roles": truth.joint_roles,
        "eye_height": truth.eye_height,
    }
    frames = ({"t": frame.timestamp,
               "p": [floats_to_json(w.translation) for w in world],
               "q": [quat_to_json(w.rotation) for w in world]}
              for frame, world in zip(session.frames, truth.frames))
    write_jsonl(path, [header, *frames])


def read_ground_truth(path) -> GroundTruth:
    lines = read_jsonl(path)
    lineno, header = next(lines, (0, {}))
    where = f"{path}:{lineno}"
    if header.get("format") != 1:
        raise FormatError(f"{where}: unsupported ground-truth format {header.get('format')!r}")
    names, roles = header.get("joints"), header.get("roles")
    if not (isinstance(names, list) and isinstance(roles, list) and len(names) == len(roles)):
        raise FormatError(f"{where}: joints and roles must be lists of equal length")
    if missing := REQUIRED_ROLES.difference(r for r in roles if isinstance(r, str)):
        raise FormatError(f"{where}: roles lack {sorted(missing)}")
    eye_height = float(floats_from_json(header.get("eye_height"), (), f"{where} eye_height"))
    frames = []
    for lineno, obj in lines:
        where = f"{path}:{lineno}"
        p = floats_from_json(obj.get("p"), (len(names), 3), f"{where} p")
        q = floats_from_json(obj.get("q"), (len(names), 4), f"{where} q")
        if np.abs(np.linalg.norm(q, axis=1) - 1.0).max() > 1e-6:
            raise FormatError(f"{where} q: not all unit quaternions")
        frames.append([Transform(qi, pi) for pi, qi in zip(p, q)])
    return GroundTruth(names, roles, frames, eye_height)

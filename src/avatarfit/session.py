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
    Transform,
    cross,
    dot,
    fit_plane,
    float_from_json,
    floats_from_json,
    normalize,
    pose_from_obj,
    pose_to_obj,
    qmul,
    quat_angle_between,
    quat_from_axis_angle,
    quat_to_json,
    read_jsonl,
    write_jsonl,
)
from .motion import ScriptError, ScriptPose, pose_from_script
from .skeleton import REQUIRED_ROLES, SkeletonModel, forward_kinematics


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
    devices: dict[str, Transform]  # exactly six: device id -> world pose, in file order


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
    follow the recovered facing direction, from the back tracker toward the
    feet across the devices' plane; a layout that puts the feet within
    TIE_MARGIN of the back tracker across that plane is a PostureError.
    """
    if len(frame.devices) != 6:
        raise FormatError(f"expected 6 devices, got {len(frame.devices)}")
    pos = {did: pose.state[4:] for did, pose in frame.devices.items()}

    normal = fit_plane(list(pos.values()))

    by_height = sorted(pos, key=lambda d: pos[d][1], reverse=True)
    if pos[by_height[0]][1] - pos[by_height[1]][1] < TIE_MARGIN:
        raise RoleAmbiguityError(
            f"headset height is ambiguous between {by_height[0]!r} and {by_height[1]!r}"
        )
    hmd = by_height[0]

    lowest = sorted(pos, key=lambda d: pos[d][1])
    if pos[lowest[2]][1] - pos[lowest[1]][1] < TIE_MARGIN:
        raise RoleAmbiguityError(
            f"foot tracker heights are ambiguous between {lowest[1]!r} and {lowest[2]!r}"
        )
    feet = lowest[:2]

    middle = [d for d in pos if d != hmd and d not in feet]

    # The lateral axis: horizontal and on the fitted plane. Only differences
    # and orderings along it are used, so positions need no centering, and
    # which way it points is resolved once forward is known.
    axis = normalize(cross(normal, UP))
    lat = {d: dot(p, axis) for d, p in pos.items()}

    middle_sorted = sorted(middle, key=lambda d: lat[d])
    root = middle_sorted[1]
    controllers = [middle_sorted[0], middle_sorted[2]]
    for ctrl in controllers:
        if abs(lat[ctrl] - lat[root]) < TIE_MARGIN:
            raise RoleAmbiguityError(
                f"lateral positions of {ctrl!r} and {root!r} are ambiguous"
            )

    hmd_height = pos[hmd][1]
    for ctrl in controllers:
        h = pos[ctrl][1]
        if not ((1.0 - CONTROLLER_HEIGHT_BAND) * hmd_height <= h
                <= (1.0 + CONTROLLER_HEIGHT_BAND) * hmd_height):
            raise PostureError(
                f"device {ctrl!r} at height {h:.2f} is outside the controller band "
                f"around the headset height {hmd_height:.2f}"
            )
    root_h = pos[root][1]
    feet_top = max(pos[d][1] for d in feet)
    ctrl_bottom = min(pos[d][1] for d in controllers)
    if not feet_top < root_h < ctrl_bottom:
        raise PostureError(
            f"back tracker height {root_h:.2f} is not between the feet and the controllers"
        )

    # Forward points from the back tracker toward the feet across the plane,
    # and left is UP x forward: -axis when forward is the normal, else axis.
    to_feet = [0.5 * (a + b) - r for a, b, r in zip(pos[feet[0]], pos[feet[1]], pos[root])]
    facing = dot(to_feet, normal)
    if abs(facing) < TIE_MARGIN:
        raise PostureError(f"facing is ambiguous: the feet are {abs(facing):.3f} m from the back "
                           f"tracker across the device plane")
    left = -1.0 if facing > 0 else 1.0

    # The controllers need no left/right tie check: the root lies between
    # them on the axis, at least TIE_MARGIN from each.
    ctrl_left, ctrl_right = sorted(controllers, key=lambda d: left * lat[d], reverse=True)
    foot_left, foot_right = sorted(feet, key=lambda d: left * lat[d], reverse=True)
    if abs(lat[foot_left] - lat[foot_right]) < TIE_MARGIN:
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
    ident = (1.0, 0.0, 0.0, 0.0)
    return {
        DeviceRole.HMD: Transform.of_state((*ident, 0.0, 0.14, -0.08)),
        DeviceRole.CONTROLLER_LEFT: Transform.of_state((*ident, 0.0, -0.02, -0.05)),
        DeviceRole.CONTROLLER_RIGHT: Transform.of_state((*ident, 0.0, -0.02, -0.05)),
        DeviceRole.TRACKER_ROOT: Transform.of_state((*ident, 0.0, 0.0, 0.10)),
        DeviceRole.TRACKER_FOOT_LEFT: Transform.of_state((*ident, 0.0, 0.07, -0.04)),
        DeviceRole.TRACKER_FOOT_RIGHT: Transform.of_state((*ident, 0.0, 0.07, -0.04)),
    }


def _small_rotation(rng: np.random.Generator, sigma: float) -> tuple:
    axis_angle = rng.normal(0.0, sigma, size=3)
    angle = float(np.linalg.norm(axis_angle))  # NumPy's norm: its bits reach the session
    if angle < 1e-12:
        return 1.0, 0.0, 0.0, 0.0
    # Floats, not NumPy scalars, which the session's pose states would keep.
    return quat_from_axis_angle(axis_angle.tolist(), angle)


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
    first, _ = pose_from_script(skeleton, script[0])
    for i, bind in enumerate(skeleton.bind_rotations):
        delta = quat_angle_between(bind, first[i])
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
        world = [Transform.of_state(s)
                 for s in forward_kinematics(skeleton, *pose_from_script(skeleton, sp))]
        truth_frames.append(world)
        devices = {}
        for did in ids:
            pose = world[joint_for[did]] @ mounts[role_map[did]]
            if noise.position_sigma > 0.0:
                dx, dy, dz = rng.normal(0.0, noise.position_sigma, 3).tolist()
                w, x, y, z, px, py, pz = pose.state
                pose = Transform.of_state((w, x, y, z, px + dx, py + dy, pz + dz))
            if noise.rotation_sigma > 0.0:
                q = qmul(_small_rotation(rng, noise.rotation_sigma), pose.state[:4])
                pose = Transform.of_state(q + pose.state[4:])
            devices[did] = pose
        frames.append(DeviceFrame(sp.time, devices))

    session = Session(frames, role_map=dict(role_map), calibration_frame_index=0)
    truth = GroundTruth(
        joint_names=[j.name for j in skeleton.joints],
        joint_roles=[j.role for j in skeleton.joints],
        frames=truth_frames,
    )
    return session, truth


# ---------------------------------------------------------------------------
# Session files (JSONL)
# ---------------------------------------------------------------------------
# Optional header line: {"role_map": {...}, "calibration_frame": n}
# Frame lines: {"t": seconds, "devices": [{"id": str, "p": [x,y,z],
#                                          "q": [w,x,y,z]}, x6]}
# Values follow the input rule of `math3d.FormatError`; `t` strictly increases.
# The ids of a frame are distinct; a DeviceFrame maps them to poses in file order.

def role_map_from_json(value, where: str) -> dict[str, DeviceRole]:
    """The role map of a session header or a profile: six device ids onto the six roles."""
    # str() makes values of every JSON type comparable; only role names match roles.
    if not isinstance(value, dict) or sorted(map(str, value.values())) != sorted(DeviceRole):
        raise FormatError(f"{where}: expected six device ids mapped onto the six roles, "
                          f"got {value!r:.60}")
    return {d: DeviceRole(r) for d, r in value.items()}


def write_session(session: Session, path) -> None:
    header: dict = {}
    if session.role_map is not None:
        header["role_map"] = {d: r.value for d, r in sorted(session.role_map.items())}
    if session.calibration_frame_index is not None:
        header["calibration_frame"] = session.calibration_frame_index
    frames = ({"t": frame.timestamp,
               "devices": [{"id": did, **pose_to_obj(p)} for did, p in frame.devices.items()]}
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
                    role_map = role_map_from_json(obj["role_map"], f"{where} role_map")
                calibration_frame = obj.get("calibration_frame")
                continue
            raise FormatError(f"{where}: frame line lacks 'devices'")
        devices = obj["devices"]
        if not isinstance(devices, list) or len(devices) != 6:
            raise FormatError(f"{where}: expected a list of 6 devices, got {devices!r:.60}")
        t = float_from_json(obj.get("t"), f"{where} t")
        if frames and t <= frames[-1].timestamp:
            raise FormatError(f"{where}: timestamps must be strictly increasing")
        parsed = {}
        for k, dev in enumerate(devices):
            did = dev.get("id") if isinstance(dev, dict) else None
            if not isinstance(did, str) or not did:
                raise FormatError(f"{where}: device {k} lacks an id")
            if did in parsed:
                raise FormatError(f"{where}: duplicate device id {did!r}")
            try:  # the device's label is formatted only for an error
                parsed[did] = pose_from_obj(dev, "")
            except FormatError as e:
                raise FormatError(f"{where} device {did!r}{e}") from None
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
# Header: {"format": 1, "joints": [...], "roles": [...]}; other header keys
# (an "eye_height" of older files) are ignored.
# Frames: {"t": s, "p": [[x,y,z] x J], "q": [[w,x,y,z] x J]}
# Values follow the input rule of `math3d.FormatError`.

def write_ground_truth(truth: GroundTruth, session: Session, path) -> None:
    header = {
        "format": 1,
        "joints": truth.joint_names,
        "roles": truth.joint_roles,
    }
    frames = ({"t": frame.timestamp,
               "p": [list(w.state[4:]) for w in world],
               "q": [quat_to_json(w.state[:4]) for w in world]}
              for frame, world in zip(session.frames, truth.frames))
    write_jsonl(path, [header, *frames])


def read_ground_truth(path) -> GroundTruth:
    lines = read_jsonl(path)
    lineno, header = next(lines, (0, {}))
    where = f"{path}:{lineno}"
    if header.get("format") != 1 or header["format"] is True:  # true == 1 in Python
        raise FormatError(f"{where}: unsupported ground-truth format {header.get('format')!r}")
    names, roles = header.get("joints"), header.get("roles")
    if not (isinstance(names, list) and isinstance(roles, list) and len(names) == len(roles)):
        raise FormatError(f"{where}: joints and roles must be lists of equal length")
    if missing := REQUIRED_ROLES.difference(r for r in roles if isinstance(r, str)):
        raise FormatError(f"{where}: roles lack {sorted(missing)}")
    frames = []
    for lineno, obj in lines:
        where = f"{path}:{lineno}"
        p, q = obj.get("p"), obj.get("q")
        if not (isinstance(p, list) and isinstance(q, list) and len(p) == len(q) == len(names)):
            raise FormatError(f"{where}: expected p and q of {len(names)} joints each")
        # The states share the file's floats, which the codec returns as they
        # are. Rotations are kept as written, so a plain sum's last bits in the
        # unit check move no output.
        wp, wq = f"{where} p", f"{where} q"
        states = [floats_from_json(qj, 4, wq) + floats_from_json(pj, 3, wp) for pj, qj in zip(p, q)]
        if any(abs(math.sqrt(w * w + x * x + y * y + z * z) - 1.0) > 1e-6
               for w, x, y, z, *_ in states):
            raise FormatError(f"{wq}: not all unit quaternions")
        frames.append([Transform.of_state(s) for s in states])
    return GroundTruth(names, roles, frames)

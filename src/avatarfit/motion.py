"""Parametric joint-space motion scripts for the synthetic session generator.

A script is a list of timed poses. Every built-in script starts in the bind
T-pose (required by the calibration flow) and is deterministic; `free` takes
a seed for its pseudo-random wiggle pattern.

Squat kinematics keep the feet planted: hip/knee/ankle pitch by
(+f/2, -f, +f/2) for knee flexion f, and the root translation compensates so
the ankle world transforms stay exactly at their bind values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .math3d import RIGHT, UP, float_from_json, pose_from_obj, qmul, \
    quat_from_axis_angle, quat_from_json, read_jsonl
from .skeleton import SkeletonModel

SCRIPT_NAMES = ("tpose", "squat", "arms", "free")

SQUAT_MAX_FLEXION = math.radians(60.0)  # knee flexion at the squat's bottom
ARMS_MAX_BEND = math.radians(75.0)      # elbow bend at the arms script's midpoint


class ScriptError(ValueError):
    """Motion script violates generator preconditions."""


@dataclass
class ScriptPose:
    """One timed pose: local-rotation overrides by joint name, optional root."""

    time: float
    rotations: dict = field(default_factory=dict)  # joint name -> (w, x, y, z) sequence
    root_world: tuple | None = None


def pose_from_script(skeleton: SkeletonModel, sp: ScriptPose) -> tuple[list[tuple], tuple]:
    """The `forward_kinematics` arguments of a script pose: (rotations, root state).

    Joints the script does not rotate keep their bind rotations, and the
    root keeps its bind placement unless the pose gives one.
    """
    rotations = list(skeleton.bind_rotations)
    for name, q in sp.rotations.items():
        try:
            rotations[skeleton.name_index[name]] = tuple(map(float, q))
        except KeyError:
            raise ScriptError(f"script rotates unknown joint {name!r}") from None
    root = _bind_root(skeleton) if sp.root_world is None else sp.root_world
    return rotations, root


def _bind_root(skeleton: SkeletonModel) -> tuple:
    return skeleton.joints[skeleton.role_index("root")].bind_local


def _times(duration: float, fps: float) -> list[float]:
    count = max(2, int(round(duration * fps)) + 1)
    return [i * duration / (count - 1) for i in range(count)]


def _bump(u: float) -> float:
    """Smooth 0 -> 1 -> 0 profile over u in [0, 1]."""
    return math.sin(math.pi * u) ** 2


def tpose_script(duration: float = 2.0, fps: float = 30.0) -> list[ScriptPose]:
    return [ScriptPose(t) for t in _times(duration, fps)]


def squat_script(skeleton: SkeletonModel, duration: float = 4.0,
                 fps: float = 30.0) -> list[ScriptPose]:
    bind = _bind_root(skeleton)
    l1 = skeleton.bone_lengths[skeleton.role_index("knee_l")]
    l2 = skeleton.bone_lengths[skeleton.role_index("ankle_l")]
    frames = []
    for t in _times(duration, fps):
        u = t / duration
        f = SQUAT_MAX_FLEXION * _bump(u)
        half = quat_from_axis_angle(RIGHT, 0.5 * f)
        rots = {}
        for side in ("l", "r"):
            rots[f"hip_{side}"] = half
            rots[f"knee_{side}"] = quat_from_axis_angle(RIGHT, -f)
            rots[f"ankle_{side}"] = half
        # Root compensation keeps the ankles (and so the feet) fixed in world.
        dy = (l1 + l2) * (math.cos(0.5 * f) - 1.0)
        dz = -(l2 - l1) * math.sin(0.5 * f)
        root = (*bind[:4], *(p + d for p, d in zip(bind[4:], (0.0, dy, dz))))
        frames.append(ScriptPose(t, rots, root))
    return frames


def arms_script(duration: float = 4.0, fps: float = 30.0) -> list[ScriptPose]:
    """Elbows swing the hands toward the chest and back out again."""
    frames = []
    for t in _times(duration, fps):
        u = t / duration
        psi = ARMS_MAX_BEND * _bump(u)
        rots = {
            "elbow_l": quat_from_axis_angle(UP, -psi),
            "elbow_r": quat_from_axis_angle(UP, psi),
        }
        frames.append(ScriptPose(t, rots))
    return frames


def free_script(skeleton: SkeletonModel, duration: float = 6.0, fps: float = 30.0,
                seed: int = 0) -> list[ScriptPose]:
    """Seeded mix of yaw, lean, arm and leg motion starting from T-pose."""
    import numpy as np
    rng = np.random.default_rng(seed)
    wiggled = ["spine", "elbow_l", "elbow_r", "hip_l", "hip_r", "knee_l", "knee_r"]
    amp = rng.uniform(0.05, 0.25, size=len(wiggled))
    freq = rng.integers(1, 4, size=len(wiggled))
    phase_axis = [rng.normal(size=3) for _ in wiggled]
    axes = []
    for a in phase_axis:
        n = np.linalg.norm(a)  # NumPy's norm: its bits reach the axes
        axes.append((a / n).tolist() if n > 1e-9 else UP)
    bind = _bind_root(skeleton)
    frames = []
    for t in _times(duration, fps):
        u = t / duration
        rots = {}
        for name, a, k, axis in zip(wiggled, amp, freq, axes):
            angle = a * math.sin(2.0 * math.pi * k * u)
            rots[name] = quat_from_axis_angle(axis, angle)
        yaw = quat_from_axis_angle(UP, 0.5 * math.sin(2.0 * math.pi * u))
        sway = (0.15 * math.sin(2.0 * math.pi * u),
                0.0,
                0.10 * math.sin(4.0 * math.pi * u))
        root = (*qmul(yaw, bind[:4]), *(p + d for p, d in zip(bind[4:], sway)))
        frames.append(ScriptPose(t, rots, root))
    return frames


def builtin_script(name: str, skeleton: SkeletonModel, duration: float = 4.0,
                   fps: float = 30.0, seed: int = 0) -> list[ScriptPose]:
    if name == "tpose":
        return tpose_script(duration, fps)
    if name == "squat":
        return squat_script(skeleton, duration, fps)
    if name == "arms":
        return arms_script(duration, fps)
    if name == "free":
        return free_script(skeleton, duration, fps, seed)
    raise ValueError(f"unknown script {name!r} (choose from {SCRIPT_NAMES})")


# ---------------------------------------------------------------------------
# Script files: one JSON object per line, e.g.
# {"t": 0.0, "rotations": {"knee_l": [w,x,y,z]}, "root": {"p": [...], "q": [...]}}
# Values follow the input rule of `math3d.FormatError`: quaternions are unit
# length, and `t` strictly increases from line to line.
# ---------------------------------------------------------------------------

def read_script_file(path) -> list[ScriptPose]:
    frames = []
    for lineno, obj in read_jsonl(path):
        where = f"{path}:{lineno}"
        t = float_from_json(obj.get("t"), f"{where} t")
        if frames and t <= frames[-1].time:
            raise ScriptError(f"{where}: times must be strictly increasing")
        rotations = obj.get("rotations", {})
        if not isinstance(rotations, dict):
            raise ScriptError(f"{where}: rotations must map joint names to quaternions")
        rots = {name: quat_from_json(q, f"{where} {name}") for name, q in rotations.items()}
        root = pose_from_obj(obj["root"], f"{where} root") if "root" in obj else None
        frames.append(ScriptPose(t, rots, root))
    if not frames:
        raise ScriptError(f"{path}: empty motion script")
    return frames

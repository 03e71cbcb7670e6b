"""Per-frame full-body solve from six device poses.

Pipeline per frame (exact mode):

1. Root joint placed from the back tracker through the captured offsets:
   p(J) = p(T) + R(T) R0(T)^-1 v0 and R(J) = R(T) R0(T)^-1 R0(J).
2. Spine bent by the angle between the initial and current back-to-head
   vectors. The bend is evaluated in the back tracker's delta frame so that
   a global rigid motion of all devices moves the solved pose rigidly.
3. Head joint receives the headset rotation directly.
4. Legs and arms solved by analytic two-bone IK toward the ankle targets
   (same offset equations) and the controller-anchored wrist targets. When a
   wrist target is out of reach the chain points at it and the frame is
   flagged detached, i.e. the virtual controller rides on the hand.

Fixed mode runs the identical pipeline with the per-part offsets replaced by
the ad-hoc zero-offset mapping (device pose used as the joint pose), which
reproduces the classic bent-legs artifact on avatars with longer legs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .calibration import CalibrationProfile, PartOffsets
from .math3d import (
    RIGHT,
    UP,
    FormatError,
    Transform,
    angle_between,
    normalize,
    pose_to_obj,
    quat_conjugate,
    quat_mul,
    quat_rotate,
    rotation_between,
    write_jsonl,
)
from .session import DeviceFrame, DeviceRole, GroundTruth, Session
from .skeleton import PoseState, SkeletonModel, bind_pose, forward_kinematics

# Deficits below this are float noise on an exactly-reachable target, not a
# detached controller.
DETACH_EPS = 1e-7

# Frames where the generating body has less knee flexion than this count as
# straight-legged for the summary metrics.
STRAIGHT_LEG_MAX = math.radians(0.5)

# Mid-joint swivel hints in the bind frame; rotated by the root delta.
KNEE_POLE_BIND = np.array([0.0, 0.0, -1.0])          # knees bend forward
ELBOW_POLE_BIND = np.array([0.0, -1.0, 1.0]) / math.sqrt(2.0)  # elbows back/down


class OffsetMode(str, Enum):
    EXACT = "exact"
    FIXED = "fixed"


def effector_position(p_t_tracker, r_t_tracker, part: PartOffsets) -> np.ndarray:
    """Current joint position from the tracker pose and captured offsets."""
    delta = quat_mul(r_t_tracker, quat_conjugate(part.r0_tracker))
    return np.asarray(p_t_tracker, dtype=np.float64) + quat_rotate(delta, part.v0)


def effector_rotation(r_t_tracker, part: PartOffsets) -> np.ndarray:
    """Current joint rotation from the tracker rotation and captured offsets."""
    delta = quat_mul(r_t_tracker, quat_conjugate(part.r0_tracker))
    return quat_mul(delta, part.r0_joint)


# ---------------------------------------------------------------------------
# Two-bone IK
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoBoneSolution:
    mid_position: np.ndarray
    end_position: np.ndarray
    reach_deficit: float
    degenerate: bool = False


def two_bone_ik(root_pos, l1: float, l2: float, target_pos, pole_dir) -> TwoBoneSolution:
    """Analytic two-bone solve: mid/end joint positions for a reach target.

    The mid joint bends toward `pole_dir`. Targets beyond l1 + l2 leave the
    chain pointing straight at the target with the shortfall reported as
    `reach_deficit`; targets closer than |l1 - l2| fold the chain fully. A
    target on the chain root is degenerate and leaves the pose untouched.
    """
    if l1 <= 0.0 or l2 <= 0.0:
        raise ValueError("bone lengths must be positive")
    root_pos = np.asarray(root_pos, dtype=np.float64)
    diff = np.asarray(target_pos, dtype=np.float64) - root_pos
    d = float(np.linalg.norm(diff))
    if d < 1e-6:
        return TwoBoneSolution(root_pos.copy(), root_pos.copy(), 0.0, degenerate=True)
    u = diff / d
    deficit = max(0.0, d - (l1 + l2))
    if deficit > 0.0:
        return TwoBoneSolution(root_pos + l1 * u, root_pos + (l1 + l2) * u, deficit)
    d_eff = max(d, abs(l1 - l2) + 1e-12)
    cos_root = (l1 * l1 + d_eff * d_eff - l2 * l2) / (2.0 * l1 * d_eff)
    phi = math.acos(min(1.0, max(-1.0, cos_root)))
    perp = np.asarray(pole_dir, dtype=np.float64) - float(np.dot(pole_dir, u)) * u
    if float(np.linalg.norm(perp)) <= 1e-9:
        perp = np.cross(u, UP)
        if float(np.linalg.norm(perp)) <= 1e-9:
            perp = np.cross(u, RIGHT)
    perp = normalize(perp)
    mid = root_pos + l1 * (math.cos(phi) * u + math.sin(phi) * perp)
    end = root_pos + min(d, l1 + l2) * u
    return TwoBoneSolution(mid, end, 0.0)


def _swing_to(carried_rot, bind_rot_of_joint, bind_dir, desired_dir) -> np.ndarray:
    """World rotation turning a joint's carried bone direction onto a target."""
    carried_dir = quat_rotate(quat_mul(carried_rot, quat_conjugate(bind_rot_of_joint)), bind_dir)
    return quat_mul(rotation_between(carried_dir, desired_dir), carried_rot)


# ---------------------------------------------------------------------------
# Frame and session solve
# ---------------------------------------------------------------------------

@dataclass
class FrameDiagnostics:
    alpha: float = 0.0
    knee_flexion_left: float = 0.0
    knee_flexion_right: float = 0.0
    elbow_flexion_left: float = 0.0
    elbow_flexion_right: float = 0.0
    reach_deficits: dict = field(default_factory=dict)
    controller_detached_left: bool = False
    controller_detached_right: bool = False
    degenerate_limbs: list = field(default_factory=list)


@dataclass
class SolvedPose:
    pose: PoseState
    world: list[Transform]
    diagnostics: FrameDiagnostics


_FIXED_PART = PartOffsets(v0=np.zeros(3), r0_tracker=np.array([1.0, 0.0, 0.0, 0.0]),
                          r0_joint=np.array([1.0, 0.0, 0.0, 0.0]))

_LIMBS = {
    # name: (upper role, mid role, end role, device, part key, pole, flexion diagnostic)
    "leg_l": ("hip_l", "knee_l", "ankle_l", DeviceRole.TRACKER_FOOT_LEFT, "foot_left",
              KNEE_POLE_BIND, "knee_flexion_left"),
    "leg_r": ("hip_r", "knee_r", "ankle_r", DeviceRole.TRACKER_FOOT_RIGHT, "foot_right",
              KNEE_POLE_BIND, "knee_flexion_right"),
    "arm_l": ("shoulder_l", "elbow_l", "wrist_l", DeviceRole.CONTROLLER_LEFT, None,
              ELBOW_POLE_BIND, "elbow_flexion_left"),
    "arm_r": ("shoulder_r", "elbow_r", "wrist_r", DeviceRole.CONTROLLER_RIGHT, None,
              ELBOW_POLE_BIND, "elbow_flexion_right"),
}


def _flexion(pa, pb, pc) -> float:
    """Bend angle at point b: 0 for a straight a-b-c chain."""
    return math.pi - angle_between(pa - pb, pc - pb)


def solve_frame(
    frame: DeviceFrame,
    profile: CalibrationProfile,
    skeleton: SkeletonModel,
    mode: OffsetMode = OffsetMode.EXACT,
) -> SolvedPose:
    """Solve one device frame into a full-body pose on `skeleton`.

    `skeleton` must be the one the profile was captured against (already
    scaled). See the module docstring for the pipeline and mode semantics.
    """
    device: dict[DeviceRole, Transform] = {}
    for did, role in profile.role_map.items():
        try:
            device[role] = frame.pose_of(did)
        except KeyError as e:
            raise ValueError(f"frame lacks device {did!r} for role {role.value}") from e
    if len(device) != 6:
        raise ValueError("profile role map does not resolve all six roles")
    for role, pose in device.items():
        if not (np.all(np.isfinite(pose.translation)) and np.all(np.isfinite(pose.rotation))):
            raise ValueError(f"device pose for {role.value} is not finite")

    exact = mode == OffsetMode.EXACT
    part_of = (lambda key: profile.parts[key]) if exact else (lambda key: _FIXED_PART)
    wrist_offset = {
        "arm_l": profile.wrist_palm_offset_left if exact else Transform.identity(),
        "arm_r": profile.wrist_palm_offset_right if exact else Transform.identity(),
    }

    bind_world = skeleton.bind_world()
    locals_ = bind_pose(skeleton).local_rotations.copy()
    diag = FrameDiagnostics()

    # 1. Root joint from the back tracker.
    root_tracker = device[DeviceRole.TRACKER_ROOT]
    root_world = Transform(
        effector_rotation(root_tracker.rotation, part_of("root")),
        effector_position(root_tracker.translation, root_tracker.rotation, part_of("root")),
    )

    def fk() -> list[Transform]:
        return forward_kinematics(skeleton, PoseState(locals_, root_world))

    world = fk()
    root_idx = skeleton.role_index("root")
    root_delta = quat_mul(world[root_idx].rotation, quat_conjugate(bind_world[root_idx].rotation))

    # 2. Spine bend, evaluated in the back tracker's delta frame so the solve
    # stays equivariant under global rigid motions of the device set.
    spine_idx = skeleton.role_index("spine")
    w_t = device[DeviceRole.HMD].translation - root_tracker.translation
    w_local = quat_rotate(quat_conjugate(root_delta), w_t)
    diag.alpha = angle_between(profile.w0, w_local)
    bend_local = rotation_between(profile.w0, w_local)
    bend_world = quat_mul(root_delta, quat_mul(bend_local, quat_conjugate(root_delta)))
    spine_parent = skeleton.joints[spine_idx].parent
    new_spine_rot = quat_mul(bend_world, world[spine_idx].rotation)
    locals_[spine_idx] = quat_mul(quat_conjugate(world[spine_parent].rotation), new_spine_rot)
    world = fk()

    # 3. Head rotation straight from the headset.
    head_idx = skeleton.role_index("head")
    head_parent = skeleton.joints[head_idx].parent
    locals_[head_idx] = quat_mul(
        quat_conjugate(world[head_parent].rotation), device[DeviceRole.HMD].rotation
    )

    # 4. Limbs. Parents (root, chest via spine) are final at this point.
    for limb, (upper_role, mid_role, end_role, dev_role, part_key, pole_bind, _) in _LIMBS.items():
        upper = skeleton.role_index(upper_role)
        mid = skeleton.role_index(mid_role)
        end = skeleton.role_index(end_role)
        if part_key is not None:
            tracker = device[dev_role]
            target_pos = effector_position(tracker.translation, tracker.rotation,
                                           part_of(part_key))
            target_rot = effector_rotation(tracker.rotation, part_of(part_key))
        else:
            anchored = device[dev_role] @ wrist_offset[limb]
            target_pos, target_rot = anchored.translation, anchored.rotation

        pole = quat_rotate(root_delta, pole_bind)
        l1 = skeleton.bone_length(mid)
        l2 = skeleton.bone_length(end)
        root_pos = world[upper].translation
        sol = two_bone_ik(root_pos, l1, l2, target_pos, pole)
        diag.reach_deficits[limb] = sol.reach_deficit
        if sol.degenerate:
            diag.degenerate_limbs.append(limb)
            continue

        dir1 = (sol.mid_position - root_pos) / l1
        dir2 = sol.end_position - sol.mid_position
        dir2 = dir2 / float(np.linalg.norm(dir2))
        u1_bind = (bind_world[mid].translation - bind_world[upper].translation) / l1
        u2_bind = (bind_world[end].translation - bind_world[mid].translation) / l2

        upper_rot = _swing_to(world[upper].rotation, bind_world[upper].rotation, u1_bind, dir1)
        parent_rot = world[skeleton.joints[upper].parent].rotation
        locals_[upper] = quat_mul(quat_conjugate(parent_rot), upper_rot)

        mid_carried = quat_mul(upper_rot, skeleton.joints[mid].bind_local.rotation)
        mid_rot = _swing_to(mid_carried, bind_world[mid].rotation, u2_bind, dir2)
        locals_[mid] = quat_mul(quat_conjugate(upper_rot), mid_rot)

        locals_[end] = quat_mul(quat_conjugate(mid_rot), target_rot)

    world = fk()
    diag.controller_detached_left = diag.reach_deficits["arm_l"] > DETACH_EPS
    diag.controller_detached_right = diag.reach_deficits["arm_r"] > DETACH_EPS
    for *roles, _, _, _, flexion_name in _LIMBS.values():
        setattr(diag, flexion_name,
                _flexion(*(world[skeleton.role_index(r)].translation for r in roles)))
    return SolvedPose(PoseState(locals_, root_world), world, diag)


# ---------------------------------------------------------------------------
# Session solve and summary metrics
# ---------------------------------------------------------------------------

@dataclass
class SessionMetrics:
    mode: str
    frames: int = 0
    solved_frames: int = 0
    mean_ankle_error: float | None = None
    max_ankle_error: float | None = None
    mean_wrist_error: float | None = None
    mean_knee_flexion: float = 0.0
    straight_leg_frames: int | None = None
    mean_knee_flexion_straight: float | None = None
    max_knee_flexion_straight: float | None = None
    alpha_mean: float = 0.0
    alpha_max: float = 0.0
    detached_frames_left: int = 0
    detached_frames_right: int = 0
    frame_errors: list = field(default_factory=list)

    def to_document(self) -> dict:
        return asdict(self)


def _truth_flexion(truth: GroundTruth, frame_index: int, side: str) -> float:
    return _flexion(*(truth.by_role(frame_index, f"{joint}_{side}").translation
                      for joint in ("hip", "knee", "ankle")))


def solve_session(
    session: Session,
    profile: CalibrationProfile,
    skeleton: SkeletonModel,
    mode: OffsetMode = OffsetMode.EXACT,
    ground_truth: GroundTruth | None = None,
) -> tuple[list[SolvedPose | None], SessionMetrics]:
    """Solve every frame; per-frame failures are recorded and skipped."""
    metrics = SessionMetrics(mode=mode.value, frames=len(session.frames))
    if ground_truth is not None and len(ground_truth.frames) != metrics.frames:
        raise FormatError(f"ground truth has {len(ground_truth.frames)} frames, "
                          f"the session {metrics.frames}")
    solved: list[SolvedPose | None] = []
    ankle_errors: list[float] = []
    wrist_errors: list[float] = []
    knees: list[float] = []
    knees_straight: list[float] = []
    alphas: list[float] = []
    straight_count = 0

    for i, frame in enumerate(session.frames):
        try:
            sp = solve_frame(frame, profile, skeleton, mode)
        except (ValueError, KeyError) as e:
            metrics.frame_errors.append(f"frame {i}: {e}")
            solved.append(None)
            continue
        solved.append(sp)
        d = sp.diagnostics
        alphas.append(d.alpha)
        knees.append(0.5 * (d.knee_flexion_left + d.knee_flexion_right))
        if d.controller_detached_left:
            metrics.detached_frames_left += 1
        if d.controller_detached_right:
            metrics.detached_frames_right += 1

        if ground_truth is not None:
            for role in ("ankle_l", "ankle_r", "wrist_l", "wrist_r"):
                gt = ground_truth.by_role(i, role).translation
                got = sp.world[skeleton.role_index(role)].translation
                errors = ankle_errors if role.startswith("ankle") else wrist_errors
                errors.append(float(np.linalg.norm(got - gt)))
            if (_truth_flexion(ground_truth, i, "l") < STRAIGHT_LEG_MAX
                    and _truth_flexion(ground_truth, i, "r") < STRAIGHT_LEG_MAX):
                straight_count += 1
                knees_straight.append(max(d.knee_flexion_left, d.knee_flexion_right))

    metrics.solved_frames = sum(1 for s in solved if s is not None)
    if alphas:
        metrics.alpha_mean = float(np.mean(alphas))
        metrics.alpha_max = float(np.max(alphas))
    if knees:
        metrics.mean_knee_flexion = float(np.mean(knees))
    if ankle_errors:
        metrics.mean_ankle_error = float(np.mean(ankle_errors))
        metrics.max_ankle_error = float(np.max(ankle_errors))
    if wrist_errors:
        metrics.mean_wrist_error = float(np.mean(wrist_errors))
    if ground_truth is not None:
        metrics.straight_leg_frames = straight_count
        if knees_straight:
            metrics.mean_knee_flexion_straight = float(np.mean(knees_straight))
            metrics.max_knee_flexion_straight = float(np.max(knees_straight))
    return solved, metrics


def write_pose_trace(path, session: Session, solved: list[SolvedPose | None],
                     skeleton: SkeletonModel,
                     extra_joints: list[list[dict]] | None = None) -> None:
    """One JSON line per solved frame: joint world transforms plus metrics.

    `extra_joints` optionally appends pre-serialized joint entries (for
    example posed finger chains) to each frame's joint list.
    """
    def lines():
        for i, (frame, sp) in enumerate(zip(session.frames, solved)):
            if sp is None:
                continue
            joints = [{"name": joint.name, **pose_to_obj(w)}
                      for joint, w in zip(skeleton.joints, sp.world)]
            if extra_joints is not None:
                joints.extend(extra_joints[i])
            d = sp.diagnostics
            yield {
                "t": frame.timestamp,
                "joints": joints,
                "metrics": {
                    "alpha": d.alpha,
                    "knee_l": d.knee_flexion_left,
                    "knee_r": d.knee_flexion_right,
                    "detached_l": d.controller_detached_left,
                    "detached_r": d.controller_detached_right,
                },
            }

    write_jsonl(path, lines())

"""Per-frame full-body solve from six device poses.

Every tracked part (back, feet, hands) has one captured offset O = T0^-1 J0,
the joint's calibration pose in its device's frame (see `calibration`), and
its target at time t is the composition T(t) O. Written out, that is the
paper's pair of exact-offset equations,

    p(J) = p(T) + R(T) R0(T)^-1 v0,    R(J) = R(T) R0(T)^-1 R0(J),

with v0 = p0(J) - p0(T), because O = (R0(T)^-1 R0(J), R0(T)^-1 v0).

Pipeline per frame (exact mode):

1. Root joint placed at the back tracker's target.
2. Spine bent by the angle between the initial and current back-to-head
   vectors. The bend is evaluated in the back tracker's delta frame so that
   a global rigid motion of all devices moves the solved pose rigidly; it is
   set as the spine's local rotation directly, in the bind frame, from the
   bind pose alone. FK pass 1 then places the joints that steps 3 and 4 read
   or never turn.
3. Head joint receives the headset rotation directly.
4. Legs and arms solved by analytic two-bone IK toward the ankle and wrist
   targets. Each bone is swung from its child's bind translation, turned by
   the rotation the joint carries, onto the solved direction. When a wrist
   target is out of reach the chain points at it and the frame is flagged
   detached, i.e. the virtual controller rides on the hand.
5. FK pass 2 places the head, the limb joints and their descendants. Every
   joint is placed once per frame, except the limbs' upper joints, which
   pass 1 places too because step 4 reads them (`SkeletonModel.solve_plan`).

`solve_session` runs this per frame in one pass: it scores the frame and
writes its trace line, then drops the pose. The line fills a template built
once per run from the joint and attached names (`trace_template`) with the
frame's floats (`pose_trace_line`), so no per-joint object is built.

Fixed mode runs the identical pipeline with every offset set to the identity
(device pose used as the joint pose), the ad-hoc zero-offset mapping that
reproduces the classic bent-legs artifact on avatars with longer legs.

The solve runs on exact tuples of Python floats: pose states (see
`math3d.compose_state`) for the device poses, the offsets, the targets,
local rotations and the joints the two FK passes place, and 3-tuples for the
spine bend's vectors and the limb IK's positions and directions. Each solved
state is wrapped once, as a `Transform` of `SolvedPose.world`, the solve's
outward result. The limb IK, the local rotations' conjugate products
(`math3d.qmul_conj`), the flexion diagnostics and the session's error norms
are written out on scalar locals, each making the operations of its helper
form in order, so they keep its bits (`tests/oracles.py`).
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import NamedTuple

from .calibration import PART_ROLES, CalibrationProfile
from .math3d import (
    DEGENERATE_EPS,
    IDENTITY,
    RIGHT,
    UP,
    DegenerateGeometryError,
    FormatError,
    Transform,
    compose_state,
    cross,
    norm,
    qconj,
    qmul,
    qmul_conj,
    qrotate,
    quat_angle,
    quat_to_json,
    rotation_between,
)
from .session import DeviceFrame, DeviceRole, GroundTruth, Session
from .skeleton import SkeletonModel, forward_kinematics

FULL_REACH_BAND = 15 * 2.0 ** -53  # d this close to l1 + l2 is full reach (`two_bone_ik`)

# Deficits below this are float noise on an exactly-reachable target, not a
# detached controller.
DETACH_EPS = 1e-7

# Frames where the generating body has less knee flexion than this count as
# straight-legged for the summary metrics.
STRAIGHT_LEG_MAX = math.radians(0.5)

# Mid-joint swivel hints in the bind frame; rotated by the root delta.
KNEE_POLE_BIND = (0.0, 0.0, -1.0)                                    # knees bend forward
ELBOW_POLE_BIND = (0.0, -1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))  # elbows back/down


class OffsetMode(str, Enum):
    EXACT = "exact"
    FIXED = "fixed"


class FrameInputError(ValueError):
    """A device frame the solve cannot use: a device missing or not finite."""


# ---------------------------------------------------------------------------
# Two-bone IK
# ---------------------------------------------------------------------------

class TwoBoneSolution(NamedTuple):
    mid_position: tuple
    end_position: tuple
    reach_deficit: float
    degenerate: bool = False


def _root_angle(l1: float, l2: float, d: float) -> float:
    """Root angle atan2(4 area, l1^2 + d^2 - l2^2) of the triangle l1, l2, d.

    The area is Kahan's Heron formula on the sorted sides ("Miscalculating Area
    and Angles of a Needle-like Triangle", 2014). Unlike acos of the law of
    cosines this keeps its last bits on flat triangles. The clamp at 0 keeps
    a product that rounding turns negative flat, as on the fold's floor.
    """
    c, b, a = sorted((l1, l2, d))
    area4 = math.sqrt(max(0.0, (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))))
    return math.atan2(area4, (l1 - l2) * (l1 + l2) + d * d)


def two_bone_ik(root_pos, l1: float, l2: float, target_pos, pole_dir) -> TwoBoneSolution:
    """Analytic two-bone solve: mid/end joint positions for a reach target.

    The mid joint bends toward `pole_dir`. A target at full reach,
    d >= (l1 + l2)(1 - FULL_REACH_BAND), leaves the chain straight, pointing
    at it, with any shortfall past l1 + l2 as `reach_deficit`; a target closer
    than |l1 - l2| folds it fully, and one on the chain root leaves the pose as
    it is (degenerate). On scalars it equals `tests/oracles.py::reference_two_bone_ik`.

    The band is the rounding of l1 + l2 - d, which the bend, a square root of
    it, would turn into ~1e-8 m. To first order in u = 2^-53 (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, §3.1) a norm is within 2.5u:
    gamma_3 on the squares, halved by the root, plus the root's rounding. So
    with L = l1 + l2, the bone norms and their sum put 3.5u L on L, d's norm and
    the differences t - r 3.5u L on d, and the last sums p + R v of the root's FK
    and of T O u |p| each, 8u L for |p| <= 4 L (2 m for a 0.5 m arm): 15u L.
    That is the band's domain: farther out, such a target can bend by ~1e-8 m.
    """
    if l1 <= 0.0 or l2 <= 0.0:
        raise ValueError("bone lengths must be positive")
    (rx, ry, rz), (tx, ty, tz) = root_pos, target_pos
    dx, dy, dz = tx - rx, ty - ry, tz - rz
    d = math.sqrt(dx * dx + dy * dy + dz * dz)
    if d < 1e-6:
        return TwoBoneSolution((rx, ry, rz), (rx, ry, rz), 0.0, degenerate=True)
    ux, uy, uz = dx / d, dy / d, dz / d
    reach = min(d, l1 + l2)
    end = (rx + reach * ux, ry + reach * uy, rz + reach * uz)
    deficit = max(0.0, d - (l1 + l2))
    if d >= (l1 + l2) * (1.0 - FULL_REACH_BAND):
        return TwoBoneSolution((rx + l1 * ux, ry + l1 * uy, rz + l1 * uz), end, deficit)
    phi = _root_angle(l1, l2, max(d, abs(l1 - l2) + 1e-12))
    px, py, pz = pole_dir
    k = px * ux + py * uy + pz * uz
    px, py, pz = px - k * ux, py - k * uy, pz - k * uz
    n = math.sqrt(px * px + py * py + pz * pz)
    if n <= 1e-9:  # a pole along the reach: u x UP, or u x RIGHT for a vertical reach
        px, py, pz = cross((ux, uy, uz), UP)
        n = norm((px, py, pz))
        if n <= 1e-9:
            px, py, pz = cross((ux, uy, uz), RIGHT)
            n = norm((px, py, pz))
    px, py, pz = px / n, py / n, pz / n
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    mid = (rx + l1 * (cos_phi * ux + sin_phi * px), ry + l1 * (cos_phi * uy + sin_phi * py),
           rz + l1 * (cos_phi * uz + sin_phi * pz))
    return TwoBoneSolution(mid, end, 0.0)


def _swing_to(carried_rot, bone, desired_dir) -> tuple:
    """World rotation turning a joint's bone onto a target direction.

    `bone` is the child's bind translation, in the joint's frame, so the
    carried rotation turns it into the bone's current world direction. Neither
    direction needs unit length: `rotation_between` normalizes both.
    """
    return qmul(rotation_between(qrotate(carried_rot, bone), desired_dir), carried_rot)


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
    world: list[Transform]
    diagnostics: FrameDiagnostics


_FIXED_OFFSETS = dict.fromkeys(PART_ROLES, IDENTITY)


def mode_offsets(profile: CalibrationProfile, mode: OffsetMode) -> dict[str, tuple]:
    """Device-to-joint offset per body part that `mode` solves with."""
    return profile.offsets if mode == OffsetMode.EXACT else _FIXED_OFFSETS

# (name, tracked part, pole, flexion diagnostic) per `skeleton.LIMB_ROLES` entry.
_LIMBS = (
    ("leg_l", "foot_left", KNEE_POLE_BIND, "knee_flexion_left"),
    ("leg_r", "foot_right", KNEE_POLE_BIND, "knee_flexion_right"),
    ("arm_l", "hand_left", ELBOW_POLE_BIND, "elbow_flexion_left"),
    ("arm_r", "hand_right", ELBOW_POLE_BIND, "elbow_flexion_right"),
)


def _flexion(pa, pb, pc) -> float:
    """Bend angle at point b: 0 for a straight a-b-c chain.

    pi - atan2(|u x v|, u . v) of u = a - b, v = c - b, each root summed left to
    right: on scalars, it equals `tests/oracles.py::reference_flexion`.
    """
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = pa, pb, pc
    ax, ay, az = ax - bx, ay - by, az - bz
    cx, cy, cz = cx - bx, cy - by, cz - bz
    if (math.sqrt(ax * ax + ay * ay + az * az) <= DEGENERATE_EPS
            or math.sqrt(cx * cx + cy * cy + cz * cz) <= DEGENERATE_EPS):
        raise DegenerateGeometryError("flexion requires a nonzero segment on each side")
    x, y, z = ay * cz - az * cy, az * cx - ax * cz, ax * cy - ay * cx
    return math.pi - math.atan2(math.sqrt(x * x + y * y + z * z), ax * cx + ay * cy + az * cz)


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
    device: dict[DeviceRole, tuple] = {}
    for did, role in profile.role_map.items():
        try:
            device[role] = frame.devices[did]
        except KeyError as e:
            raise FrameInputError(f"frame lacks device {did!r} for role {role.value}") from e
    if len(device) != 6:
        raise FrameInputError("profile role map does not resolve all six roles")
    for role, state in device.items():
        if not all(map(math.isfinite, state)):
            raise FrameInputError(f"device pose for {role.value} is not finite")

    offsets = mode_offsets(profile, mode)
    target = {part: compose_state(device[role], offsets[part][:4], offsets[part][4:])
              for part, role in PART_ROLES.items()}

    bind = skeleton.bind_states
    parents = skeleton.parents
    bones = skeleton.bind_translations
    root_idx, (spine_idx, spine_parent_inv), head_idx, limbs, pass1, pass2 = skeleton.solve_plan
    locals_ = list(skeleton.bind_rotations)
    diag = FrameDiagnostics()

    # 1. Root joint at the back tracker's target; root_delta turns the bind
    # pose's root onto it.
    root_delta = qmul(target["root"][:4], qconj(bind[root_idx][:4]))

    # 2. Spine bend, evaluated in the back tracker's delta frame so the solve
    # stays equivariant under global rigid motions of the device set. Up to
    # the spine every joint keeps its bind rotation, so the world-frame bend
    # root_delta bend root_delta^-1 turns the spine's world rotation
    # root_delta bind[spine] into one whose local rotation is
    # bind[p]^-1 bend bind[spine], p the spine's parent.
    hmd, back = device[DeviceRole.HMD], device[DeviceRole.TRACKER_ROOT]
    w_local = qrotate(qconj(root_delta), (hmd[4] - back[4], hmd[5] - back[5], hmd[6] - back[6]))
    bend = rotation_between(profile.w0, w_local)
    diag.alpha = quat_angle(bend)
    locals_[spine_idx] = qmul(spine_parent_inv, qmul(bend, bind[spine_idx][:4]))
    world = forward_kinematics(skeleton, locals_, target["root"], pass1)

    # 3. Head rotation straight from the headset.
    locals_[head_idx] = qmul_conj(world[parents[head_idx]][:4], hmd[:4])

    # 4. Limbs, from the upper joints and their parents as pass 1 placed them.
    # Both knees bend toward one pole, both elbows toward another.
    poles = {KNEE_POLE_BIND: qrotate(root_delta, KNEE_POLE_BIND),
             ELBOW_POLE_BIND: qrotate(root_delta, ELBOW_POLE_BIND)}
    for (limb, part, pole_bind, _), (upper, mid, end, parent, l1, l2) in zip(_LIMBS, limbs):
        root_pos = world[upper][4:]
        (mx, my, mz), (ex, ey, ez), deficit, degenerate = two_bone_ik(
            root_pos, l1, l2, target[part][4:], poles[pole_bind])
        diag.reach_deficits[limb] = deficit
        if degenerate:
            diag.degenerate_limbs.append(limb)
            continue

        rx, ry, rz = root_pos
        dir1 = (mx - rx, my - ry, mz - rz)
        dir2 = (ex - mx, ey - my, ez - mz)

        upper_rot = _swing_to(world[upper][:4], bones[mid], dir1)
        locals_[upper] = qmul_conj(world[parent][:4], upper_rot)

        mid_rot = _swing_to(qmul(upper_rot, skeleton.bind_rotations[mid]), bones[end], dir2)
        locals_[mid] = qmul_conj(upper_rot, mid_rot)

        locals_[end] = qmul_conj(mid_rot, target[part][:4])

    # 5. The head, the limb joints and their descendants, as turned.
    forward_kinematics(skeleton, locals_, target["root"], pass2, world)
    diag.controller_detached_left = diag.reach_deficits["arm_l"] > DETACH_EPS
    diag.controller_detached_right = diag.reach_deficits["arm_r"] > DETACH_EPS
    for (*_, flexion_name), (upper, mid, end, *_) in zip(_LIMBS, limbs):
        setattr(diag, flexion_name, _flexion(world[upper][4:], world[mid][4:], world[end][4:]))
    return SolvedPose(list(map(Transform, world)), diag)


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
    mean_knee_flexion: float | None = None
    straight_leg_frames: int | None = None
    mean_knee_flexion_straight: float | None = None
    max_knee_flexion_straight: float | None = None
    alpha_mean: float | None = None
    alpha_max: float | None = None
    detached_frames_left: int = 0
    detached_frames_right: int = 0
    frame_errors: list = field(default_factory=list)

    def to_document(self) -> dict:
        return asdict(self)


_JSON_BOOL = ("false", "true")


def trace_template(skeleton: SkeletonModel, attached) -> str:
    """The `%`-format string of `pose_trace_line` for `skeleton` and `attached`.

    Each name is written by `json.dumps`, with `%` doubled, so it is escaped
    as in any JSON line; the placeholders are, in order, the time, each
    joint's p and q, then each attached entry's, and the frame's metrics.
    """
    names = [joint.name for joint in skeleton.joints] + [name for _, name, _ in attached]
    entries = ", ".join('{"name": %s, "p": [%%s, %%s, %%s], "q": [%%s, %%s, %%s, %%s]}'
                        % json.dumps(name).replace("%", "%%") for name in names)
    return ('{"t": %s, "joints": [' + entries + '], "metrics": {"alpha": %s, "knee_l": %s, '
            '"knee_r": %s, "detached_l": %s, "detached_r": %s}}\n')


def pose_trace_line(template: str, frame: DeviceFrame, pose: SolvedPose, attached) -> str:
    """One JSON trace line, newline included: the frame's time, every joint's
    world pose, then one entry per `attached` (joint index, name, pose in that
    joint's frame) triple, placed on the solved joint, and the frame's metrics.

    `template` is `trace_template` of the solved skeleton and `attached`. It
    is filled with `%s`, which prints a float as `json.dumps` does, and q's
    sign is `math3d.quat_to_json`'s, so the line is byte for byte the
    `json.dumps` of its objects (`tests/oracles.py::reference_pose_trace_line`).
    A NaN or infinite value is spelled as JSON spells it.
    """
    world = pose.world
    values = [frame.timestamp]
    for w, x, y, z, px, py, pz in world + [compose_state(world[j], local[:4], local[4:])
                                           for j, _, local in attached]:
        if w > 0.0:
            values += px, py, pz, w, x, y, z
        elif w < 0.0:
            values += px, py, pz, -w, -x, -y, -z
        else:
            values += px, py, pz, *quat_to_json((w, x, y, z))
    d = pose.diagnostics
    values += d.alpha, d.knee_flexion_left, d.knee_flexion_right
    if not math.isfinite(sum(values)):
        values = list(map(json.dumps, values))
    values += _JSON_BOOL[d.controller_detached_left], _JSON_BOOL[d.controller_detached_right]
    return template % tuple(values)


def solve_session(
    session: Session,
    profile: CalibrationProfile,
    skeleton: SkeletonModel,
    mode: OffsetMode = OffsetMode.EXACT,
    ground_truth: GroundTruth | None = None,
    trace=None,
    attached=(),
) -> SessionMetrics:
    """Solve every frame; frames with unusable input are recorded and skipped.

    With a `trace` path, each solved frame's `pose_trace_line` (with the
    `attached` entries) is written as it is solved, and no pose is kept. The
    path is opened only after the ground truth is checked: its frame count,
    and every frame's legs. A truth leg whose hip, knee and ankle give no knee
    angle is an input error (`FormatError` naming the truth frame and side),
    not a frame error. Only `FrameInputError` and `DegenerateGeometryError`
    are frame failures; any other exception is a bug and propagates. Each
    summary is taken over the solved frames: a mean is `math.fsum(xs) /
    len(xs)`, the exactly rounded sum over the count, and a maximum is
    `max(xs)`.
    """
    metrics = SessionMetrics(mode=mode.value, frames=len(session.frames))
    if ground_truth is not None and len(ground_truth.frames) != metrics.frames:
        raise FormatError(f"ground truth has {len(ground_truth.frames)} frames, "
                          f"the session {metrics.frames}")
    ankle_errors: list[float] = []
    wrist_errors: list[float] = []
    knees: list[float] = []
    knees_straight: list[float] = []
    alphas: list[float] = []
    straight_count = 0
    if ground_truth is not None:  # looked up once: a (truth column, joint, errors) per role
        column = ground_truth.joint_roles.index
        scored = [(column(role), skeleton.role_index(role), errors)
                  for role, errors in (("ankle_l", ankle_errors), ("ankle_r", ankle_errors),
                                       ("wrist_l", wrist_errors), ("wrist_r", wrist_errors))]
        legs = [(side, [column(f"{joint}_{side[0]}") for joint in ("hip", "knee", "ankle")])
                for side in ("left", "right")]
        straight = []  # per truth frame: are both legs straight
        for i, truth in enumerate(ground_truth.frames):
            frame_straight = True
            for side, (hip, knee, ankle) in legs:
                try:
                    flexion = _flexion(truth[hip][4:], truth[knee][4:], truth[ankle][4:])
                except DegenerateGeometryError as e:
                    raise FormatError(f"ground truth frame {i}, {side} leg: {e}") from e
                frame_straight = frame_straight and flexion < STRAIGHT_LEG_MAX
            straight.append(frame_straight)

    template = None if trace is None else trace_template(skeleton, attached)
    with (nullcontext() if trace is None
          else open(trace, "w", encoding="utf-8", newline="\n")) as out:
        for i, frame in enumerate(session.frames):
            try:
                sp = solve_frame(frame, profile, skeleton, mode)
            except (FrameInputError, DegenerateGeometryError) as e:
                metrics.frame_errors.append(f"frame {i}: {e}")
                continue
            metrics.solved_frames += 1
            if out is not None:
                out.write(pose_trace_line(template, frame, sp, attached))
            d = sp.diagnostics
            alphas.append(d.alpha)
            knees.append(0.5 * (d.knee_flexion_left + d.knee_flexion_right))
            if d.controller_detached_left:
                metrics.detached_frames_left += 1
            if d.controller_detached_right:
                metrics.detached_frames_right += 1

            if ground_truth is not None:
                truth = ground_truth.frames[i]
                for t, j, errors in scored:
                    _, _, _, _, gx, gy, gz = sp.world[j]
                    _, _, _, _, tx, ty, tz = truth[t]
                    dx, dy, dz = gx - tx, gy - ty, gz - tz
                    errors.append(math.sqrt(dx * dx + dy * dy + dz * dz))
                if straight[i]:
                    straight_count += 1
                    knees_straight.append(max(d.knee_flexion_left, d.knee_flexion_right))

    if alphas:
        metrics.alpha_mean = math.fsum(alphas) / len(alphas)
        metrics.alpha_max = max(alphas)
    if knees:
        metrics.mean_knee_flexion = math.fsum(knees) / len(knees)
    if ankle_errors:
        metrics.mean_ankle_error = math.fsum(ankle_errors) / len(ankle_errors)
        metrics.max_ankle_error = max(ankle_errors)
    if wrist_errors:
        metrics.mean_wrist_error = math.fsum(wrist_errors) / len(wrist_errors)
    if ground_truth is not None:
        metrics.straight_leg_frames = straight_count
        if knees_straight:
            metrics.mean_knee_flexion_straight = math.fsum(knees_straight) / len(knees_straight)
            metrics.max_knee_flexion_straight = max(knees_straight)
    return metrics

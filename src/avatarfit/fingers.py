"""Finger posing against a capsule-shaped controller.

Each finger blends between an authored open and closed pose: every joint j of
finger f carries a factor t_f^j in [0, 1] interpolating its local rotation
from open to closed. Posing minimizes, per finger, the summed distance of the
finger's joint points to the capsule surface, with penetration penalized:

    objective_f = sum_j |penalize(sdf(p_f^j))|,
    penalize(x) = x if x >= 0 else penalty * x.

The minimization is a compass search (Kolda, Lewis & Torczon 2003,
"Optimization by direct search", SIAM Review 45(3)). It compares objective
values only, so the kink of |sdf| at the surface does not matter. It starts
from the best point of a GRID_POINTS^n grid on [0, 1]^n, polls +-step on each
factor and halves the step after a round without a decrease, down to
STEP_TOL. The grid has GRID_POINTS^n points, so hand files are limited to
fingers of 1 to 4 joints. Fingers are independent, so each is searched on
its own factors. A button target can be added for the thumb: its objective
gains the distance from the thumb tip to the button point.

One routine evaluates a finger: `_FingerChain.walk`, on plain floats, serves
`finger_objective`, the seed and the polls. It walks from a list of per-joint
states (world rotation, position and partial objective after each joint).
Every term is >= 0 and rounding is monotone, so once the running total
exceeds a bound the walk stops, with no state for that joint: no point
beyond it can come back under the bound. Each joint keeps its
`math3d.slerp_basis`, so a new factor costs one `slerp_at`.

The seed is an exact branch and bound over the grid's prefix tree (Land &
Doig 1960, Econometrica 28(3)): a prefix whose running total exceeds the best
grid point so far is not extended. Points compare (value, grid index), so on
a tie the first in product order wins. The bound prunes when the controller
is within the fingers' reach, as in the CLI's and the benchmark's grips, and
less for a thumb with a button, whose term only the tip adds. Against a
capsule 1 m away every partial total is below every full one, so the seed
walks the whole tree, one joint per walk: about 2.5 times the former NumPy
grid's time per hand for 3 joints and 5.5 times for 4 (5-8 and 26-40 ms on
a shared 2-core x86 VM).

A poll on factor k passes joint k's new rotation and resumes from the
current point's state after joint k - 1. Its running total through joint k
depends on factors 0..k only, so while those stay it bounds the objective of
that trial from below: a trial known to lose, or left by an accepted probe,
is not walked again while that total is at least the current value. The
states of a finger's returned factors are the posed points of
`pose_hand_on_controller`, with no walk of their own.

Every search starts from its seed grid alone, and nothing is carried
between calls.

The hand model, the capsule and the button hold tuples of floats, as the
file readers decode them; NumPy holds only `FingerParams`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .math3d import DegenerateGeometryError, FormatError, Transform, compose_state, \
    float_from_json, floats_from_json, floats_to_json, quat_from_axis_angle, quat_from_json, \
    quat_to_json, read_json_file, slerp_at, slerp_basis, transform_from_obj, transform_to_obj, \
    write_json_file

# The search starts from the best point of the grid {0, 1/6, ..., 1}^n and
# stops once its step falls below STEP_TOL.
GRID_POINTS = 7
GRID = tuple(i / (GRID_POINTS - 1) for i in range(GRID_POINTS))
STEP_TOL = 1e-4


# ---------------------------------------------------------------------------
# Capsule signed distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapsuleShape:
    start: tuple  # (x, y, z) floats, from any sequence of three numbers
    end: tuple    # likewise
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "start", tuple(map(float, self.start)))
        object.__setattr__(self, "end", tuple(map(float, self.end)))
        if not self.radius > 0.0:
            raise ValueError(f"capsule radius must be positive, got {self.radius}")
        # The squared length, not start == end: 0 to 1e-170 underflows to no axis.
        # A geometry error: a rigid motion can round close endpoints together.
        if _segment(self)[-1] <= 0.0:
            raise DegenerateGeometryError("capsule endpoints must be distinct")


def _segment(shape: CapsuleShape) -> tuple:
    """(sx, sy, sz, vx, vy, vz, v . v): the start, axis v = end - start and its square."""
    sx, sy, sz = shape.start
    ex, ey, ez = shape.end
    vx, vy, vz = ex - sx, ey - sy, ez - sz
    return sx, sy, sz, vx, vy, vz, vx * vx + vy * vy + vz * vz


def capsule_sdf(shape: CapsuleShape, p) -> float:
    """Signed distance from p to the capsule surface (negative inside)."""
    sx, sy, sz, vx, vy, vz, axis_sq = _segment(shape)
    ux = p[0] - sx
    uy = p[1] - sy
    uz = p[2] - sz
    h = (ux * vx + uy * vy + uz * vz) / axis_sq
    if h < 0.0:
        h = 0.0
    elif h > 1.0:
        h = 1.0
    dx = ux - vx * h
    dy = uy - vy * h
    dz = uz - vz * h
    return math.sqrt(dx * dx + dy * dy + dz * dz) - shape.radius


def transform_capsule(shape: CapsuleShape, t: Transform) -> CapsuleShape:
    return CapsuleShape(t.apply(shape.start), t.apply(shape.end), shape.radius)


# ---------------------------------------------------------------------------
# Hand model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FingerJointSpec:
    open_rotation: tuple    # local rotation (w, x, y, z) at t = 0
    closed_rotation: tuple  # local rotation (w, x, y, z) at t = 1
    offset: tuple           # translation (x, y, z) to the next point, joint frame


@dataclass(frozen=True)
class Finger:
    name: str
    base_local: Transform  # knuckle placement relative to the wrist
    joints: tuple[FingerJointSpec, ...]


@dataclass(frozen=True)
class HandModel:
    side: str  # "left" or "right"
    fingers: tuple[Finger, ...]
    palm_anchor: Transform  # palm grip point relative to the wrist


@dataclass
class FingerParams:
    """Interpolation factors, one array per finger."""

    values: list[np.ndarray]

    @classmethod
    def open_hand(cls, hand: HandModel) -> "FingerParams":
        return cls([np.zeros(len(f.joints)) for f in hand.fingers])


@dataclass
class DescentConfig:
    penalty: float = 10.0  # multiplier on negative (inside) distances
    max_iters: int = 200   # poll rounds per finger

    def __post_init__(self):
        # The input rule's bound: no walk over the values of input files overflows.
        if not 0.0 < self.penalty < 1e150:
            raise ValueError(f"penalty must be positive and below 1e150, got {self.penalty!r}")
        if (isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral)
                or self.max_iters < 1):
            raise ValueError(f"max_iters must be an integer of at least 1, got {self.max_iters!r}")


# ---------------------------------------------------------------------------
# Finger kinematics and objective
# ---------------------------------------------------------------------------

class _FingerChain:
    """One finger and its cost, for fast repeated evaluation.

    The seed and the polls evaluate the chain one point at a time, hundreds
    of times per grip, so `walk` runs on plain floats; numpy's per-call
    overhead on 3-vectors would dominate otherwise. A walk's state
    after a joint is the tuple (rw, rx, ry, rz, px, py, pz, total): the
    world rotation and position of that joint's point and the penalized
    capsule distance summed over the points up to it. `start` is the state
    of the finger's base, with total 0.0.
    """

    __slots__ = ("start", "slerps", "offsets", "capsule", "penalty", "button")

    def __init__(self, finger: Finger, wrist_world: Transform | None, shape: CapsuleShape,
                 penalty: float, button: tuple | None = None):
        base = finger.base_local.state
        if wrist_world is not None:
            base = compose_state(wrist_world.state, base[:4], base[4:])
        self.start = (*base, 0.0)
        self.slerps = [slerp_basis(j.open_rotation, j.closed_rotation) for j in finger.joints]
        self.offsets = [j.offset for j in finger.joints]
        self.capsule = (*_segment(shape), shape.radius)
        self.penalty = penalty
        self.button = button if finger.name == "thumb" else None

    def rotations(self, t_vec) -> list[tuple]:
        return [slerp_at(basis, float(t)) for basis, t in zip(self.slerps, t_vec)]

    def walk(self, states: list, k: int, q: tuple, rotations: list,
             bound: float = math.inf, end: int | None = None) -> float:
        """Objective with joint k turned by `q` and each later joint j by `rotations[j]`.

        The walk resumes from `states[k - 1]` (from `start` when k is 0),
        appends the states of joints k..end - 1 (end defaults to the tip) and
        returns the last total plus, when it walks to the tip of the thumb,
        its distance to the button. A resumed walk makes the same additions in
        the same order as one from the base, so the two return the same float.
        The capsule distance is `capsule_sdf`, written out. Once the running
        total exceeds `bound`, the walk returns it before appending that
        joint's state. That is exact: every term added (d, -penalty * d, the
        button distance) is >= 0 and rounding is monotone, so the full walk
        would exceed it too.
        """
        rw, rx, ry, rz, px, py, pz, total = states[k - 1] if k else self.start
        sx, sy, sz, vx, vy, vz, axis_sq, radius = self.capsule
        penalty = self.penalty
        offsets = self.offsets
        tip = len(offsets)
        if end is None:
            end = tip
        for j in range(k, end):
            qw, qx, qy, qz = rotations[j] if j > k else q
            ox, oy, oz = offsets[j]
            rw, rx, ry, rz = (
                rw * qw - rx * qx - ry * qy - rz * qz,
                rw * qx + rx * qw + ry * qz - rz * qy,
                rw * qy - rx * qz + ry * qw + rz * qx,
                rw * qz + rx * qy - ry * qx + rz * qw,
            )
            # p += rot * offset (quaternion sandwich, expanded)
            tx = 2.0 * (ry * oz - rz * oy)
            ty = 2.0 * (rz * ox - rx * oz)
            tz = 2.0 * (rx * oy - ry * ox)
            px += ox + rw * tx + (ry * tz - rz * ty)
            py += oy + rw * ty + (rz * tx - rx * tz)
            pz += oz + rw * tz + (rx * ty - ry * tx)
            ux = px - sx
            uy = py - sy
            uz = pz - sz
            h = (ux * vx + uy * vy + uz * vz) / axis_sq
            if h < 0.0:
                h = 0.0
            elif h > 1.0:
                h = 1.0
            dx = ux - vx * h
            dy = uy - vy * h
            dz = uz - vz * h
            d = math.sqrt(dx * dx + dy * dy + dz * dz) - radius
            total += d if d >= 0.0 else -penalty * d
            if total > bound:
                return total
            states.append((rw, rx, ry, rz, px, py, pz, total))
        if self.button is not None and end == tip:
            bx, by, bz = self.button
            dx = px - bx
            dy = py - by
            dz = pz - bz
            total += math.sqrt(dx * dx + dy * dy + dz * dz)
        return total

    def seed(self) -> tuple[list, list, list, float]:
        """Best grid point: (factors, rotations, states, objective).

        A best-first depth-first branch and bound over the grid's prefix
        tree: a node's GRID_POINTS children are walked one joint each,
        bounded by the best leaf so far, and entered in (running total, grid
        index) order unless that total exceeds the best leaf's value (every
        later term is >= 0 and rounding is monotone). Leaves compare (value,
        grid index), so on a tie the first point in product order wins.
        """
        choices = [[slerp_at(basis, g) for g in GRID] for basis in self.slerps]
        # Value, grid indices (the first sorts after every real one), states.
        best = [math.inf, (GRID_POINTS,), None]
        self._visit(choices, best, [], ())
        value, index, states = best
        return [GRID[i] for i in index], [choices[j][i] for j, i in enumerate(index)], \
            states, value

    def _visit(self, choices: list, best: list, states: list, index: tuple) -> None:
        """`seed` below the grid prefix `index`, whose states are `states`. Not a
        closure: a recursive one is a reference cycle, left to the collector."""
        j = len(states)
        children = []
        for i, q in enumerate(choices[j]):
            total = self.walk(states, j, q, (), best[0], j + 1)
            if len(states) > j:
                children.append((total, (*index, i), states.pop()))
        if j + 1 == len(choices):
            for total, leaf, state in children:
                if (total, leaf) < (best[0], best[1]):
                    best[:] = total, leaf, [*states, state]
            return
        children.sort()
        for total, child, state in children:
            if total > best[0]:
                break
            states.append(state)
            self._visit(choices, best, states, child)
            states.pop()


def finger_objective(
    hand: HandModel,
    finger_index: int,
    params: FingerParams,
    shape: CapsuleShape,
    penalty: float,
    wrist_world: Transform | None = None,
    button: tuple | None = None,
) -> float:
    """Summed penalized surface distance of one finger's joint points."""
    chain = _FingerChain(hand.fingers[finger_index], wrist_world, shape, penalty, button)
    rotations = chain.rotations(params.values[finger_index])
    return chain.walk([], 0, rotations[0], rotations)


@dataclass
class FingerDescent:
    name: str
    iterations: int
    objective: float
    converged: bool
    history: list[float] = field(default_factory=list)
    # The walk states (`_FingerChain.walk`) at the returned factors, one per joint.
    states: list[tuple] = field(default_factory=list, repr=False)


def descend(
    hand: HandModel,
    shape: CapsuleShape,
    config: DescentConfig | None = None,
    wrist_world: Transform | None = None,
    button: tuple | None = None,
) -> tuple[FingerParams, list[FingerDescent]]:
    """Compass-search every finger's factors independently.

    Each finger starts from the best point of the GRID_POINTS^n grid on
    [0, 1]^n (`_FingerChain.seed`), the first in product order on a tie, so
    the open hand (grid point 0) wins every tie. A round tries +step, then
    -step, on each factor in turn, held to [0, 1], and accepts any strict
    decrease. A poll on factor k passes joint k's new rotation, so its walk
    resumes from the current point's state after joint k - 1 and reads the
    current rotations after it; only an accepted probe copies them. The walk
    is bounded by the current value, so a losing poll stops early and an
    accepted probe, whose states become the current point's, has walked to
    the tip. `lost[k]` holds the running totals through joint k known at
    trials of factor k (see the module docstring); an accepted probe on
    factor k clears the maps of the factors after it. The first step is half
    the grid spacing, and a round without a decrease halves it. A finger
    converges when the step falls below STEP_TOL at a finite objective; at an
    infinite one, or after max_iters rounds, it stops unconverged, reported,
    never raised. `history` holds the accepted objective after each round, so
    it never rises. Each report keeps the walk states of its finger's returned
    factors.
    """
    cfg = config or DescentConfig()
    factors, reports = [], []
    for finger in hand.fingers:
        chain = _FingerChain(finger, wrist_world, shape, cfg.penalty, button)
        t, rotations, states, value = chain.seed()
        step = 0.5 / (GRID_POINTS - 1)
        # lost[k][trial]: a known running total through joint k at that trial.
        lost = [{} for _ in t]
        history = []
        converged = False
        while len(history) < cfg.max_iters:
            decreased = False
            for k in range(len(t)):
                tk = t[k]
                up, down = tk + step, tk - step
                lost_k = lost[k]
                for trial in (up if up < 1.0 else 1.0, down if down > 0.0 else 0.0):
                    if trial == tk or lost_k.get(trial, -math.inf) >= value:
                        continue
                    # Only joint k turns: the probe keeps the states before
                    # it and the rotations after it.
                    q = slerp_at(chain.slerps[k], trial)
                    probe_states = states[:k]
                    candidate = chain.walk(probe_states, k, q, rotations, value)
                    if candidate < value:
                        lost_k[tk] = states[k][7]
                        t[k] = trial
                        rotations = rotations.copy()
                        rotations[k], states = q, probe_states
                        value, decreased = candidate, True
                        for later in lost[k + 1:]:
                            later.clear()
                        break
                    lost_k[trial] = probe_states[k][7] if len(probe_states) > k else candidate
            history.append(value)
            if not decreased:
                step *= 0.5
                if step < STEP_TOL:
                    converged = math.isfinite(value)
                    break
        factors.append(np.array(t))
        reports.append(FingerDescent(finger.name, len(history), value, converged, history,
                                     states))
    return FingerParams(factors), reports


@dataclass
class HandPoseResult:
    params: FingerParams
    poses: list[list[Transform]]        # per finger, per joint: world pose of its point
    joint_distances: list[list[float]]  # signed distance of each point to the capsule
    reports: list[FingerDescent]


def pose_hand_on_controller(
    hand: HandModel,
    wrist_world: Transform,
    controller: CapsuleShape,
    config: DescentConfig | None = None,
    button: tuple | None = None,
) -> HandPoseResult:
    """Grip solve: search from the seed grid onto a world-frame capsule.

    Point j of a finger is the end of phalanx j, posed with the world
    rotation after joint j, as the search's last walk of the finger left it.
    """
    params, reports = descend(hand, controller, config, wrist_world, button)
    poses = [[Transform.of_state(s[:7]) for s in r.states] for r in reports]
    distances = [[capsule_sdf(controller, s[4:7]) for s in r.states] for r in reports]
    return HandPoseResult(params, poses, distances, reports)


# ---------------------------------------------------------------------------
# Default hand model and grip capsule
# ---------------------------------------------------------------------------

def _mirror_x_quat(q) -> tuple:
    # Conjugation by the x-reflection: axis x kept, y/z axes and angle flip.
    return q[0], q[1], -q[2], -q[3]


def mirror_x(p) -> tuple:
    """Reflect a point through the x = 0 plane of its frame."""
    return -p[0], p[1], p[2]


def _mirror_x_transform(t: Transform) -> Transform:
    return Transform.of_state((*_mirror_x_quat(t.state), *mirror_x(t.state[4:])))


def mirror_hand(hand: HandModel) -> HandModel:
    fingers = []
    for f in hand.fingers:
        joints = tuple(
            FingerJointSpec(
                _mirror_x_quat(j.open_rotation),
                _mirror_x_quat(j.closed_rotation),
                mirror_x(j.offset),
            )
            for j in f.joints
        )
        fingers.append(Finger(f.name, _mirror_x_transform(f.base_local), joints))
    return HandModel("right" if hand.side == "left" else "left",
                     tuple(fingers), _mirror_x_transform(hand.palm_anchor))


def mirror_capsule(shape: CapsuleShape) -> CapsuleShape:
    """The capsule for the other hand: x -> -x in the controller frame."""
    return CapsuleShape(mirror_x(shape.start), mirror_x(shape.end), shape.radius)


def default_hand_model(side: str = "left") -> HandModel:
    """Five-finger hand for a T-pose body: left fingers along -X, palm down.

    Segment lengths and knuckle placements approximate an adult hand; the
    closed pose curls each finger joint ~100 degrees toward the palm.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    z_axis = (0.0, 0.0, 1.0)
    y_axis = (0.0, 1.0, 0.0)
    ident = (1.0, 0.0, 0.0, 0.0)
    curl = quat_from_axis_angle(z_axis, math.radians(110.0))

    def finger(name, base_t, base_q, lengths):
        joints = tuple(
            FingerJointSpec(ident, curl, (-length, 0.0, 0.0))
            for length in lengths
        )
        return Finger(name, Transform.of_state((*base_q, *base_t)), joints)

    thumb_base_q = quat_from_axis_angle(y_axis, math.radians(-40.0))
    fingers = (
        finger("thumb", (-0.030, -0.015, -0.025), thumb_base_q, (0.035, 0.030, 0.026)),
        finger("index", (-0.090, 0.0, -0.022), ident, (0.040, 0.028, 0.024)),
        finger("middle", (-0.095, 0.0, 0.000), ident, (0.043, 0.030, 0.025)),
        finger("ring", (-0.090, 0.0, 0.022), ident, (0.040, 0.028, 0.024)),
        finger("pinky", (-0.082, 0.0, 0.042), ident, (0.032, 0.024, 0.021)),
    )
    palm_anchor = Transform.of_state((*ident, -0.072, -0.038, 0.0))
    left = HandModel("left", fingers, palm_anchor)
    return left if side == "left" else mirror_hand(left)


def default_grip_capsule(hand: HandModel) -> CapsuleShape:
    """Controller capsule at the standard grip pose, in the wrist frame."""
    center = hand.palm_anchor.state[4:]
    axis = (0.0, 0.0, 0.055)
    return CapsuleShape(tuple(c - a for c, a in zip(center, axis)),
                        tuple(c + a for c, a in zip(center, axis)), 0.026)


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------
# Hand model:
#   {"side": "left", "palm_anchor": {"rotation": [...], "translation": [...]},
#    "fingers": [{"name": str, "base": {...},
#                 "joints": [{"open": [wxyz], "closed": [wxyz],
#                             "offset": [xyz]}]}]}
#   A finger has 1 to 4 joints: the grip search's seed grid costs 7^n walks.
# Controller: {"s": [xyz], "e": [xyz], "r": meters, "button": [xyz] optional},
#   in the controller device's frame; `transform_capsule` by the profile's hand
#   offset carries a wrist-frame capsule such as `default_grip_capsule` there.
# Values follow the input rule of `math3d.FormatError`.

def hand_to_document(hand: HandModel) -> dict:
    return {
        "side": hand.side,
        "palm_anchor": transform_to_obj(hand.palm_anchor),
        "fingers": [{"name": f.name, "base": transform_to_obj(f.base_local),
                     "joints": [{"open": quat_to_json(j.open_rotation),
                                 "closed": quat_to_json(j.closed_rotation),
                                 "offset": floats_to_json(j.offset)} for j in f.joints]}
                    for f in hand.fingers],
    }


def hand_from_document(document: dict) -> HandModel:
    if document.get("side") not in ("left", "right"):
        raise FormatError(f"side must be 'left' or 'right', got {document.get('side')!r:.40}")
    try:
        fingers = []
        for fi, f in enumerate(document["fingers"]):
            at = f"fingers[{fi}]"
            name = f["name"]
            if not isinstance(name, str) or not name or any(g.name == name for g in fingers):
                raise FormatError(f"{at}.name: expected a non-empty string that no other "
                                  f"finger has, got {name!r:.40}")
            joints = tuple(FingerJointSpec(
                quat_from_json(j["open"], f"{at}.joints[{ji}].open"),
                quat_from_json(j["closed"], f"{at}.joints[{ji}].closed"),
                floats_from_json(j["offset"], 3, f"{at}.joints[{ji}].offset"))
                for ji, j in enumerate(f["joints"]))
            if not 1 <= len(joints) <= 4:
                raise FormatError(f"{at} has {len(joints)} joints, not 1 to 4")
            fingers.append(Finger(name, transform_from_obj(f["base"], f"{at}.base"), joints))
        if not fingers:
            raise FormatError("a hand model needs at least one finger")
        return HandModel(document["side"], tuple(fingers),
                         transform_from_obj(document["palm_anchor"], "palm_anchor"))
    except (KeyError, TypeError) as e:
        raise FormatError(f"malformed hand model ({e!r})") from e


def load_hand_file(path) -> HandModel:
    return read_json_file(path, hand_from_document)


def save_hand_file(hand: HandModel, path) -> None:
    write_json_file(path, hand_to_document(hand))


def controller_from_document(document: dict) -> tuple[CapsuleShape, tuple | None]:
    shape = CapsuleShape(floats_from_json(document.get("s"), 3, "s"),
                         floats_from_json(document.get("e"), 3, "e"),
                         float_from_json(document.get("r"), "r"))
    button = document.get("button")
    return shape, None if button is None else floats_from_json(button, 3, "button")


def load_controller_file(path) -> tuple[CapsuleShape, tuple | None]:
    return read_json_file(path, controller_from_document)


def save_controller_file(shape: CapsuleShape, path, button=None) -> None:
    document = {"s": floats_to_json(shape.start), "e": floats_to_json(shape.end),
                "r": shape.radius}
    if button is not None:
        document["button"] = floats_to_json(button)
    write_json_file(path, document)

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

`fingerchain` holds the grid, the seed and each finger's search. Each joint
of the hand model keeps its `math3d.slerp_basis` and its grid rotations
(`FingerJointSpec.basis` and `grid`, built on first use), so the seed builds
no rotation and a poll's new factor costs one `slerp_at`.

A poll on factor k turns joint k by its new rotation and resumes from the
current point's state after joint k - 1. Its running total through joint k
depends on factors 0..k only, so while those stay it bounds the objective of
that trial from below: a trial known to lose, or left by an accepted probe,
is not polled again while that total is at least the current value. The
states of a finger's returned factors are the posed points of
`pose_hand_on_controller`, with no evaluation of their own.

Every search starts from its seed grid alone, and no search state is
carried between calls; the hand model keeps only what depends on it alone.

The hand model, the capsule, the button and `FingerParams` hold tuples of
floats, as the file readers decode them; the module uses no NumPy.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .fingerchain import GRID, GRID_POINTS, STEP_TOL, _FingerChain
from .math3d import INPUT_BOUND, INPUT_BOUND_TEXT, DegenerateGeometryError, FormatError, \
    apply_state, float_from_json, floats_from_json, floats_to_json, quat_from_axis_angle, \
    quat_from_json, quat_to_json, read_json_file, slerp_at, slerp_basis, transform_from_obj, \
    transform_to_obj, write_json_file

# ---------------------------------------------------------------------------
# Capsule signed distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapsuleShape:
    start: tuple  # (x, y, z) floats, from any sequence of three numbers
    end: tuple    # likewise
    radius: float
    # (sx, sy, sz, vx, vy, vz, v . v): the start, the axis v = end - start and
    # its square, for `capsule_sdf` and the grip; derived, so never compared or saved.
    segment: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "start", tuple(map(float, self.start)))
        object.__setattr__(self, "end", tuple(map(float, self.end)))
        if not self.radius > 0.0:
            raise ValueError(f"capsule radius must be positive, got {self.radius}")
        (sx, sy, sz), (ex, ey, ez) = self.start, self.end
        vx, vy, vz = ex - sx, ey - sy, ez - sz
        object.__setattr__(self, "segment", (sx, sy, sz, vx, vy, vz, vx * vx + vy * vy + vz * vz))
        # The squared length, not start == end: 0 to 1e-170 underflows to no axis.
        # A geometry error: a rigid motion can round close endpoints together.
        if self.segment[-1] <= 0.0:
            raise DegenerateGeometryError("capsule endpoints must be distinct")


def capsule_sdf(shape: CapsuleShape, p) -> float:
    """Signed distance from p to the capsule surface (negative inside)."""
    sx, sy, sz, vx, vy, vz, axis_sq = shape.segment
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


def transform_capsule(shape: CapsuleShape, t: tuple) -> CapsuleShape:
    return CapsuleShape(apply_state(t, shape.start), apply_state(t, shape.end), shape.radius)


# ---------------------------------------------------------------------------
# Hand model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FingerJointSpec:
    open_rotation: tuple    # local rotation (w, x, y, z) at t = 0
    closed_rotation: tuple  # local rotation (w, x, y, z) at t = 1
    offset: tuple           # translation (x, y, z) to the next point, joint frame

    @cached_property
    def basis(self) -> tuple:
        """`slerp_basis(open_rotation, closed_rotation)`, built on first use and
        kept; not a field, so `==` and the file format ignore it."""
        return slerp_basis(self.open_rotation, self.closed_rotation)

    @cached_property
    def grid(self) -> tuple:
        """`slerp_at(basis, g)` at each g of the seed's GRID, kept like `basis`;
        joints whose bases have the same bits share one tuple."""
        return _grid(struct.pack("10d", *self.basis), self.basis)


@lru_cache(maxsize=64)
def _grid(bits: bytes, basis: tuple) -> tuple:
    # Shared, so a new hand model of the same joints adds no peak memory.
    return tuple(slerp_at(basis, g) for g in GRID)


@dataclass(frozen=True)
class Finger:
    name: str
    base_local: tuple  # knuckle placement relative to the wrist
    joints: tuple[FingerJointSpec, ...]


@dataclass(frozen=True)
class HandModel:
    side: str  # "left" or "right"
    fingers: tuple[Finger, ...]
    palm_anchor: tuple  # palm grip point relative to the wrist


@dataclass
class FingerParams:
    """Interpolation factors, one tuple of floats per finger."""

    values: list[tuple]

    @classmethod
    def open_hand(cls, hand: HandModel) -> "FingerParams":
        return cls([(0.0,) * len(f.joints) for f in hand.fingers])


@dataclass
class DescentConfig:
    penalty: float = 10.0  # multiplier on negative (inside) distances
    max_iters: int = 200   # poll rounds per finger

    def __post_init__(self):
        # The input rule's bound: no evaluation over the values of input files overflows.
        if not 0.0 < self.penalty < INPUT_BOUND:
            raise ValueError(f"penalty must be positive and below {INPUT_BOUND_TEXT}, "
                             f"got {self.penalty!r}")
        if (isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral)
                or self.max_iters < 1):
            raise ValueError(f"max_iters must be an integer of at least 1, got {self.max_iters!r}")


# ---------------------------------------------------------------------------
# Finger kinematics and objective
# ---------------------------------------------------------------------------

def finger_objective(
    hand: HandModel,
    finger_index: int,
    params: FingerParams,
    shape: CapsuleShape,
    penalty: float,
    wrist_world: tuple | None = None,
    button: tuple | None = None,
) -> float:
    """Summed penalized surface distance of one finger's joint points."""
    chain = _FingerChain(hand.fingers[finger_index], wrist_world, shape, penalty, button)
    return chain.evaluate(chain.rotations(params.values[finger_index]))[0]


@dataclass
class FingerDescent:
    name: str
    iterations: int
    objective: float
    converged: bool
    history: list[float] = field(default_factory=list)
    # The chain states (`_FingerChain`) at the returned factors, one per joint.
    states: list[tuple] = field(default_factory=list, repr=False)


def descend(
    hand: HandModel,
    shape: CapsuleShape,
    config: DescentConfig | None = None,
    wrist_world: tuple | None = None,
    button: tuple | None = None,
) -> tuple[FingerParams, list[FingerDescent]]:
    """Compass-search every finger's factors independently (`_FingerChain.search`).

    Each finger starts from the best point of the GRID_POINTS^n grid on
    [0, 1]^n (`_FingerChain.seed`, at the hand model's kept grid rotations),
    the first in product order on a tie, so the open hand (grid point 0)
    wins every tie. A round tries +step, then -step, on each factor in turn,
    held to [0, 1], and accepts any strict decrease. A poll on factor k turns
    joint k by its new rotation, so it resumes from the current point's state
    after joint k - 1 and reads the current rotations after it; only an
    accepted probe writes into them. The poll is bounded by the current
    value, so a losing poll stops early and keeps no states, and an accepted
    probe, whose states become the current point's, has reached the tip.
    `lost[k]` holds the running totals through joint k known at trials of
    factor k (see the module docstring); an accepted probe on factor k clears
    the maps of the factors after it. The first step is half the grid
    spacing, and a round without a decrease halves it. A finger converges
    when the step falls below STEP_TOL at a finite objective; at an infinite
    one, or after max_iters rounds, it stops unconverged, reported, never
    raised. `history` holds the accepted objective after each round, so it
    never rises. Each report keeps the chain states of its returned factors.
    """
    cfg = config or DescentConfig()
    factors, reports = [], []
    for finger in hand.fingers:
        chain = _FingerChain(finger, wrist_world, shape, cfg.penalty, button)
        t, value, converged, history, states = chain.search(cfg.max_iters)
        factors.append(tuple(t))
        reports.append(FingerDescent(finger.name, len(history), value, converged, history,
                                     states))
    return FingerParams(factors), reports


@dataclass
class HandPoseResult:
    params: FingerParams
    poses: list[list[tuple]]            # per finger, per joint: world pose of its point
    joint_distances: list[list[float]]  # signed distance of each point to the capsule
    reports: list[FingerDescent]


def pose_hand_on_controller(
    hand: HandModel,
    wrist_world: tuple,
    controller: CapsuleShape,
    config: DescentConfig | None = None,
    button: tuple | None = None,
) -> HandPoseResult:
    """Grip solve: search from the seed grid onto a world-frame capsule.

    Point j of a finger is the end of phalanx j, posed with the world
    rotation after joint j, as the search's last accepted poll of the finger
    (or its seed) left it.
    """
    params, reports = descend(hand, controller, config, wrist_world, button)
    poses = [[s[:7] for s in r.states] for r in reports]
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


def _mirror_x_transform(t: tuple) -> tuple:
    return (*_mirror_x_quat(t), *mirror_x(t[4:]))


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
        return Finger(name, (*base_q, *base_t), joints)

    thumb_base_q = quat_from_axis_angle(y_axis, math.radians(-40.0))
    fingers = (
        finger("thumb", (-0.030, -0.015, -0.025), thumb_base_q, (0.035, 0.030, 0.026)),
        finger("index", (-0.090, 0.0, -0.022), ident, (0.040, 0.028, 0.024)),
        finger("middle", (-0.095, 0.0, 0.000), ident, (0.043, 0.030, 0.025)),
        finger("ring", (-0.090, 0.0, 0.022), ident, (0.040, 0.028, 0.024)),
        finger("pinky", (-0.082, 0.0, 0.042), ident, (0.032, 0.024, 0.021)),
    )
    palm_anchor = (*ident, -0.072, -0.038, 0.0)
    left = HandModel("left", fingers, palm_anchor)
    return left if side == "left" else mirror_hand(left)


def default_grip_capsule(hand: HandModel) -> CapsuleShape:
    """Controller capsule at the standard grip pose, in the wrist frame."""
    center = hand.palm_anchor[4:]
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
#   A finger has 1 to 4 joints: the grip search's seed grid has 7^n points.
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

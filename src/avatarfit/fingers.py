"""Finger posing against a capsule-shaped controller.

Each finger blends between an authored open and closed pose: every joint j of
finger f carries a factor t_f^j in [0, 1] interpolating its local rotation
from open to closed. Posing minimizes, per finger, the summed distance of the
finger's joint points to the capsule surface, with penetration penalized:

    objective_f = sum_j |penalize(sdf(p_f^j))|,
    penalize(x) = x if x >= 0 else penalty * x.

The gradient is taken numerically (central differences) and followed with a
fixed learning rate; factors are clamped back into [0, 1] after every step.
Fingers are independent, so each descends on its own three factors. A button
target can be added for the thumb: its objective gains the distance from the
thumb tip to the button point.

Every call starts from the parameters it is given (the grip solve starts
from the open hand) and iterates to convergence or `max_iters`; nothing is
carried between calls. So max_iters=1 is a single step from the open hand,
not a per-rendered-frame mode that keeps converging across frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .math3d import FormatError, Transform, floats_from_json, floats_to_json, \
    quat_from_axis_angle, quat_from_json, quat_slerp, quat_to_json, read_json_file, \
    transform_from_obj, transform_to_obj, write_json_file

# Central finite-difference step on the interpolation factors.
FD_STEP = 1e-3


# ---------------------------------------------------------------------------
# Capsule signed distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapsuleShape:
    start: np.ndarray
    end: np.ndarray
    radius: float
    # Plain-float copies of start, end - start and its squared length, read by
    # `capsule_sdf` in the descent's inner loop.
    _start: tuple = field(init=False, repr=False, compare=False)
    _axis: tuple = field(init=False, repr=False, compare=False)
    _axis_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "start", np.asarray(self.start, dtype=np.float64))
        object.__setattr__(self, "end", np.asarray(self.end, dtype=np.float64))
        if not self.radius > 0.0:
            raise ValueError(f"capsule radius must be positive, got {self.radius}")
        if float(np.linalg.norm(self.end - self.start)) <= 0.0:
            raise ValueError("capsule endpoints must be distinct")
        start = tuple(float(v) for v in self.start)
        axis = tuple(float(e) - s for e, s in zip(self.end, start))
        object.__setattr__(self, "_start", start)
        object.__setattr__(self, "_axis", axis)
        object.__setattr__(self, "_axis_sq", sum(v * v for v in axis))


def capsule_sdf(shape: CapsuleShape, p) -> float:
    """Signed distance from p to the capsule surface (negative inside)."""
    sx, sy, sz = shape._start
    vx, vy, vz = shape._axis
    ux = p[0] - sx
    uy = p[1] - sy
    uz = p[2] - sz
    h = (ux * vx + uy * vy + uz * vz) / shape._axis_sq
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
    open_rotation: np.ndarray   # local rotation at t = 0
    closed_rotation: np.ndarray  # local rotation at t = 1
    offset: np.ndarray           # translation to the next point, joint frame


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
    """Interpolation factors, one array per finger (clamped to [0, 1])."""

    values: list[np.ndarray]

    @classmethod
    def open_hand(cls, hand: HandModel) -> "FingerParams":
        return cls([np.zeros(len(f.joints)) for f in hand.fingers])

    def clamped(self) -> "FingerParams":
        return FingerParams([np.clip(v, 0.0, 1.0) for v in self.values])


@dataclass
class DescentConfig:
    eta: float = 0.1            # learning rate
    penalty: float = 10.0       # multiplier on negative (inside) distances
    max_iters: int = 200
    converge_tol: float = 1e-6  # stop when the objective changes less
    button_weight: float = 1.0  # weight of the thumb-to-button term

    def __post_init__(self):
        for name in ("eta", "penalty", "converge_tol", "button_weight"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


# ---------------------------------------------------------------------------
# Finger kinematics and objective
# ---------------------------------------------------------------------------

def finger_rotations(finger: Finger, t_vec) -> list[np.ndarray]:
    """Interpolated local rotation per joint (shortest-arc, extrapolates)."""
    return [
        np.array(quat_slerp(spec.open_rotation, spec.closed_rotation, float(t)))
        for spec, t in zip(finger.joints, t_vec)
    ]


class _FingerChain:
    """Float-tuple snapshot of one finger for fast repeated evaluation.

    The descent evaluates the chain thousands of times per grip, so the FK
    and the objective run on plain floats; numpy's per-call overhead on
    3-vectors would dominate otherwise.
    """

    __slots__ = ("base_rot", "base_pos", "open", "closed", "offsets", "is_thumb")

    def __init__(self, finger: Finger, wrist_world: Transform | None):
        base = finger.base_local if wrist_world is None else wrist_world @ finger.base_local
        self.base_rot = tuple(float(v) for v in base.rotation)
        self.base_pos = tuple(float(v) for v in base.translation)
        self.open = [tuple(float(v) for v in j.open_rotation) for j in finger.joints]
        self.closed = [tuple(float(v) for v in j.closed_rotation) for j in finger.joints]
        self.offsets = [tuple(float(v) for v in j.offset) for j in finger.joints]
        self.is_thumb = finger.name == "thumb"

    def points(self, t_vec):
        rw, rx, ry, rz = self.base_rot
        px, py, pz = self.base_pos
        out = []
        for open_q, closed_q, off, t in zip(self.open, self.closed, self.offsets, t_vec):
            qw, qx, qy, qz = quat_slerp(open_q, closed_q, float(t))
            rw, rx, ry, rz = (
                rw * qw - rx * qx - ry * qy - rz * qz,
                rw * qx + rx * qw + ry * qz - rz * qy,
                rw * qy - rx * qz + ry * qw + rz * qx,
                rw * qz + rx * qy - ry * qx + rz * qw,
            )
            ox, oy, oz = off
            # p += rot * offset (quaternion sandwich, expanded)
            tx = 2.0 * (ry * oz - rz * oy)
            ty = 2.0 * (rz * ox - rx * oz)
            tz = 2.0 * (rx * oy - ry * ox)
            px += ox + rw * tx + (ry * tz - rz * ty)
            py += oy + rw * ty + (rz * tx - rx * tz)
            pz += oz + rw * tz + (rx * ty - ry * tx)
            out.append((px, py, pz))
        return out

    def objective(self, shape: CapsuleShape, penalty: float, button: tuple | None,
                  button_weight: float, t_vec) -> float:
        """Penalized surface distance of the chain points, plus the thumb's
        weighted distance to the button when one is given. The factors come
        last so the descent can bind the rest with `functools.partial`."""
        total = 0.0
        points = self.points(t_vec)
        for p in points:
            d = capsule_sdf(shape, p)
            total += d if d >= 0.0 else -penalty * d
        if button is not None and self.is_thumb:
            tip = points[-1]
            total += button_weight * math.sqrt(
                (tip[0] - button[0]) ** 2
                + (tip[1] - button[1]) ** 2
                + (tip[2] - button[2]) ** 2
            )
        return total


def _float_point(p) -> tuple | None:
    return None if p is None else tuple(float(v) for v in np.asarray(p))


def finger_points(finger: Finger, t_vec, wrist_world: Transform | None = None) -> list[np.ndarray]:
    """World position of each measured point: the end of every phalanx."""
    return [np.array(p) for p in _FingerChain(finger, wrist_world).points(t_vec)]


def finger_objective(
    hand: HandModel,
    finger_index: int,
    params: FingerParams,
    shape: CapsuleShape,
    penalty: float,
    wrist_world: Transform | None = None,
    button: np.ndarray | None = None,
    button_weight: float = 1.0,
) -> float:
    """Summed penalized surface distance of one finger's joint points."""
    chain = _FingerChain(hand.fingers[finger_index], wrist_world)
    return chain.objective(shape, penalty, _float_point(button), button_weight,
                           params.values[finger_index])


@dataclass
class FingerDescent:
    name: str
    iterations: int
    objective: float
    converged: bool
    history: list[float] = field(default_factory=list)
    first_clamp_iteration: int | None = None


def descend(
    hand: HandModel,
    params: FingerParams,
    shape: CapsuleShape,
    config: DescentConfig | None = None,
    wrist_world: Transform | None = None,
    button: np.ndarray | None = None,
) -> tuple[FingerParams, list[FingerDescent]]:
    """Gradient-descend every finger's factors independently.

    Gradients are central finite differences per factor; evaluation points may
    leave [0, 1] (the interpolation extrapolates) but the updated factors are
    clamped back. Non-convergence within max_iters is reported in the
    diagnostics, never raised.
    """
    cfg = config or DescentConfig()
    out = params.clamped()  # fresh arrays: the caller's params stay untouched
    button_f = _float_point(button)
    reports = []
    for fi, finger in enumerate(hand.fingers):
        t = out.values[fi]
        n = len(t)
        chain = _FingerChain(finger, wrist_world)
        objective = partial(chain.objective, shape, cfg.penalty, button_f, cfg.button_weight)
        prev = objective(t)
        history = [prev]
        first_clamp = None
        iterations = 0
        converged = False
        for it in range(1, cfg.max_iters + 1):
            iterations = it
            grad = np.zeros(n)
            for k in range(n):
                plus = t.copy()
                minus = t.copy()
                plus[k] += FD_STEP
                minus[k] -= FD_STEP
                grad[k] = (objective(plus) - objective(minus)) / (2.0 * FD_STEP)
            raw = t - cfg.eta * grad
            t = np.clip(raw, 0.0, 1.0)
            if first_clamp is None and np.any(raw != t):
                first_clamp = it
            current = objective(t)
            history.append(current)
            if abs(prev - current) < cfg.converge_tol:
                converged = True
                break
            prev = current
        out.values[fi] = t
        reports.append(FingerDescent(finger.name, iterations, history[-1], converged,
                                     history, first_clamp))
    return out, reports


@dataclass
class HandPoseResult:
    params: FingerParams
    local_rotations: list[list[np.ndarray]]  # per finger, per joint
    joint_distances: list[list[float]]       # signed distances at convergence
    reports: list[FingerDescent]


def pose_hand_on_controller(
    hand: HandModel,
    wrist_world: Transform,
    controller: CapsuleShape,
    config: DescentConfig | None = None,
    button: np.ndarray | None = None,
) -> HandPoseResult:
    """Grip solve: descend from the open hand onto a world-frame capsule."""
    params, reports = descend(hand, FingerParams.open_hand(hand), controller,
                              config, wrist_world, button)
    rotations = [finger_rotations(f, params.values[i]) for i, f in enumerate(hand.fingers)]
    distances = []
    for i, f in enumerate(hand.fingers):
        pts = finger_points(f, params.values[i], wrist_world)
        distances.append([capsule_sdf(controller, p) for p in pts])
    return HandPoseResult(params, rotations, distances, reports)


# ---------------------------------------------------------------------------
# Default hand model and grip capsule
# ---------------------------------------------------------------------------

def _mirror_x_quat(q) -> np.ndarray:
    # Conjugation by the x-reflection: axis x kept, y/z axes and angle flip.
    return np.array([q[0], q[1], -q[2], -q[3]])


def mirror_x(p) -> np.ndarray:
    """Reflect a point through the x = 0 plane of its frame."""
    return np.array([-p[0], p[1], p[2]])


def _mirror_x_transform(t: Transform) -> Transform:
    return Transform(_mirror_x_quat(t.rotation), mirror_x(t.translation))


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
    z_axis = np.array([0.0, 0.0, 1.0])
    y_axis = np.array([0.0, 1.0, 0.0])
    ident = np.array([1.0, 0.0, 0.0, 0.0])
    curl = quat_from_axis_angle(z_axis, math.radians(110.0))

    def finger(name, base_t, base_q, lengths, closed=curl):
        joints = tuple(
            FingerJointSpec(ident.copy(), closed.copy(), np.array([-length, 0.0, 0.0]))
            for length in lengths
        )
        return Finger(name, Transform(base_q, np.asarray(base_t)), joints)

    thumb_base_q = quat_from_axis_angle(y_axis, math.radians(-40.0))
    fingers = (
        finger("thumb", (-0.030, -0.015, -0.025), thumb_base_q, (0.035, 0.030, 0.026)),
        finger("index", (-0.090, 0.0, -0.022), ident.copy(), (0.040, 0.028, 0.024)),
        finger("middle", (-0.095, 0.0, 0.000), ident.copy(), (0.043, 0.030, 0.025)),
        finger("ring", (-0.090, 0.0, 0.022), ident.copy(), (0.040, 0.028, 0.024)),
        finger("pinky", (-0.082, 0.0, 0.042), ident.copy(), (0.032, 0.024, 0.021)),
    )
    palm_anchor = Transform(ident.copy(), np.array([-0.072, -0.038, 0.0]))
    left = HandModel("left", fingers, palm_anchor)
    return left if side == "left" else mirror_hand(left)


def default_grip_capsule(hand: HandModel) -> CapsuleShape:
    """Controller capsule at the standard grip pose, in the wrist frame."""
    center = hand.palm_anchor.translation
    axis = np.array([0.0, 0.0, 0.055])
    return CapsuleShape(center - axis, center + axis, 0.026)


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------
# Hand model:
#   {"side": "left", "palm_anchor": {"rotation": [...], "translation": [...]},
#    "fingers": [{"name": str, "base": {...},
#                 "joints": [{"open": [wxyz], "closed": [wxyz],
#                             "offset": [xyz]}]}]}
# Controller: {"s": [xyz], "e": [xyz], "r": meters, "button": [xyz] optional}
# Values follow the input rule of `math3d.FormatError`.

def hand_to_document(hand: HandModel) -> dict:
    return {
        "side": hand.side,
        "palm_anchor": transform_to_obj(hand.palm_anchor),
        "fingers": [
            {
                "name": f.name,
                "base": transform_to_obj(f.base_local),
                "joints": [
                    {
                        "open": quat_to_json(j.open_rotation),
                        "closed": quat_to_json(j.closed_rotation),
                        "offset": floats_to_json(j.offset),
                    }
                    for j in f.joints
                ],
            }
            for f in hand.fingers
        ],
    }


def hand_from_document(document: dict) -> HandModel:
    if document.get("side") not in ("left", "right"):
        raise FormatError(f"side must be 'left' or 'right', got {document.get('side')!r:.40}")
    try:
        fingers = tuple(
            Finger(
                f["name"],
                transform_from_obj(f["base"], f"fingers[{fi}].base"),
                tuple(
                    FingerJointSpec(
                        quat_from_json(j["open"], f"fingers[{fi}].joints[{ji}].open"),
                        quat_from_json(j["closed"], f"fingers[{fi}].joints[{ji}].closed"),
                        floats_from_json(j["offset"], (3,), f"fingers[{fi}].joints[{ji}].offset"),
                    )
                    for ji, j in enumerate(f["joints"])
                ),
            )
            for fi, f in enumerate(document["fingers"])
        )
        return HandModel(document["side"], fingers,
                         transform_from_obj(document["palm_anchor"], "palm_anchor"))
    except (KeyError, TypeError) as e:
        raise FormatError(f"malformed hand model ({e!r})") from e


def load_hand_file(path) -> HandModel:
    return read_json_file(path, hand_from_document)


def save_hand_file(hand: HandModel, path) -> None:
    write_json_file(path, hand_to_document(hand))


def controller_from_document(document: dict) -> tuple[CapsuleShape, np.ndarray | None]:
    shape = CapsuleShape(floats_from_json(document.get("s"), (3,), "s"),
                         floats_from_json(document.get("e"), (3,), "e"),
                         float(floats_from_json(document.get("r"), (), "r")))
    button = document.get("button")
    return shape, None if button is None else floats_from_json(button, (3,), "button")


def load_controller_file(path) -> tuple[CapsuleShape, np.ndarray | None]:
    return read_json_file(path, controller_from_document)


def save_controller_file(shape: CapsuleShape, path, button=None) -> None:
    document = {"s": floats_to_json(shape.start), "e": floats_to_json(shape.end),
                "r": shape.radius}
    if button is not None:
        document["button"] = floats_to_json(button)
    write_json_file(path, document)

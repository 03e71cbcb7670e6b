"""3D math primitives: vectors, unit quaternions, rigid transforms, planes.

Conventions used throughout the package:

- Right-handed world frame, +Y up, +Z forward. A user at the origin in the
  start pose faces -Z, so their right hand is on +X and their left on -X.
- Quaternions are in (w, x, y, z) order and are kept unit-length.
  Serialization canonicalizes the sign so w >= 0, making traces
  byte-comparable across runs.
- `Transform` and the file codecs hold float64 arrays. The vector helpers
  and the pose-state functions take any sequence and return floats or
  tuples of floats, which the per-frame body solve runs on.
- Positions and translations are in meters, angles in radians.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

UP = np.array([0.0, 1.0, 0.0])
RIGHT = np.array([1.0, 0.0, 0.0])
FORWARD = np.array([0.0, 0.0, 1.0])

# Vectors shorter than this are treated as directionless.
DEGENERATE_EPS = 1e-9


class DegenerateGeometryError(ValueError):
    """Raised when an operation receives geometrically meaningless input."""


def dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def norm(v) -> float:
    return math.sqrt(dot(v, v))


def normalize(v) -> tuple:
    n = norm(v)
    if n <= DEGENERATE_EPS:
        raise DegenerateGeometryError(f"cannot normalize near-zero vector {v!r}")
    return v[0] / n, v[1] / n, v[2] / n


def cross(a, b) -> tuple:
    """Cross product of two 3-vectors: NumPy `cross`'s products and
    subtractions in its order, so bit-identical to it."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def angle_between(a, b) -> float:
    """Angle between two vectors in [0, pi], via atan2 of cross/dot.

    Stable for nearly parallel and nearly antiparallel inputs, unlike the
    plain acos-of-dot formulation. Scale invariant by construction.
    """
    if norm(a) <= DEGENERATE_EPS or norm(b) <= DEGENERATE_EPS:
        raise DegenerateGeometryError("angle_between requires nonzero vectors")
    return math.atan2(norm(cross(a, b)), dot(a, b))


def rotation_between(a, b) -> tuple:
    """Minimal rotation quaternion q with q * a/|a| = b/|b|.

    For antiparallel inputs (angle within 1e-6 of pi) the axis is ambiguous;
    the deterministic choice is normalize(a x UP), falling back to
    normalize(a x RIGHT) when a is vertical.
    """
    ah = normalize(a)
    bh = normalize(b)
    xyz = cross(ah, bh)
    c = dot(ah, bh)
    angle = math.atan2(norm(xyz), c)  # angle_between(ah, bh)
    if angle > math.pi - 1e-6:
        axis = cross(ah, UP)
        if norm(axis) <= DEGENERATE_EPS:
            axis = cross(ah, RIGHT)
        return tuple(quat_from_axis_angle(axis, angle).tolist())
    w, x, y, z = 1.0 + c, *xyz
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return w / n, x / n, y / n, z / n


# ---------------------------------------------------------------------------
# Quaternions (w, x, y, z)
# ---------------------------------------------------------------------------

def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_canonical(q) -> np.ndarray:
    """Flip sign so w >= 0 (and, at w == 0, the first nonzero of x,y,z > 0)."""
    q = np.asarray(q, dtype=np.float64)
    if q[0] < 0.0:
        return -q
    if q[0] == 0.0:
        for c in q[1:]:
            if c != 0.0:
                return q if c > 0.0 else -q
    return q


def quat_mul(a, b) -> np.ndarray:
    return np.array(qmul(a, b))


def quat_conjugate(q) -> np.ndarray:
    return np.array(qconj(q))


def quat_rotate(q, v) -> np.ndarray:
    """Rotate vector v by unit quaternion q (`qrotate` on floats, as an array)."""
    return np.array(qrotate([float(c) for c in q], [float(c) for c in v]))


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    axis = normalize(axis)
    half = 0.5 * angle
    s = math.sin(half)
    return np.array([math.cos(half), axis[0] * s, axis[1] * s, axis[2] * s])


def quat_angle(q) -> float:
    """Rotation angle of q in [0, pi]; robust near identity."""
    return 2.0 * math.atan2(norm(q[1:]), abs(q[0]))


def quat_angle_between(a, b) -> float:
    """Angular distance between two rotations in [0, pi]."""
    return quat_angle(quat_mul(quat_conjugate(a), b))


def slerp_basis(a, b) -> tuple:
    """The part of the shortest-arc slerp from a to b that does not depend on t.

    Flips b onto a's hemisphere (shortest arc) and returns the plain-float
    tuple (theta, sin(theta), a, b) that `slerp_at` evaluates. For a
    near-parallel pair the tuple is (0.0, 0.0, a, b - a), which `slerp_at`
    evaluates as a normalized linear interpolation. A caller that
    interpolates one pair at many t (the grip search) keeps the basis and
    calls `slerp_at` alone. Both work on plain floats: numpy's per-call
    overhead on 4-vectors would dominate the search's inner loop.
    """
    aw, ax, ay, az = (float(v) for v in a)
    bw, bx, by, bz = (float(v) for v in b)
    d = aw * bw + ax * bx + ay * by + az * bz
    if d < 0.0:
        bw, bx, by, bz = -bw, -bx, -by, -bz
        d = -d
    if d > 1.0 - 1e-9:
        return 0.0, 0.0, aw, ax, ay, az, bw - aw, bx - ax, by - ay, bz - az
    theta = math.acos(d if d < 1.0 else 1.0)
    return theta, math.sin(theta), aw, ax, ay, az, bw, bx, by, bz


def slerp_at(basis: tuple, t: float) -> tuple[float, float, float, float]:
    """Evaluate a `slerp_basis` at t as a (w, x, y, z) tuple; extrapolates outside [0, 1]."""
    theta, s, aw, ax, ay, az, bw, bx, by, bz = basis
    if s == 0.0:
        w = aw + t * bw
        x = ax + t * bx
        y = ay + t * by
        z = az + t * bz
        n = math.sqrt(w * w + x * x + y * y + z * z)
        return w / n, x / n, y / n, z / n
    ka = math.sin((1.0 - t) * theta) / s
    kb = math.sin(t * theta) / s
    return (ka * aw + kb * bw, ka * ax + kb * bx, ka * ay + kb * by, ka * az + kb * bz)


# ---------------------------------------------------------------------------
# Plain-float quaternions and pose states
# ---------------------------------------------------------------------------
# A quaternion is (w, x, y, z) and a pose state (w, x, y, z, px, py, pz) is a
# `Transform`'s rotation followed by its translation. NumPy's per-call
# overhead on 3- and 4-vectors would dominate the body solve. Float arithmetic
# on NumPy scalars and Python floats rounds alike, so `quat_mul`,
# `quat_conjugate`, `quat_rotate` (these functions wrapped in an array) and
# `Transform.__matmul__` (`compose_state`'s operations) give the same bytes.

def qmul(a, b) -> tuple:
    """Hamilton product a * b."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def qconj(q) -> tuple:
    return q[0], -q[1], -q[2], -q[3]


def qrotate(q, v) -> tuple:
    """Rotate vector v by unit quaternion q: t = 2 q_xyz x v, then v + w t + q_xyz x t.

    Each component makes the operations of the form built on NumPy's `cross`
    in the same order, so the result is bit-identical to it (see `cross`).
    """
    w, x, y, z = q
    vx, vy, vz = v
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return (vx + w * tx + (y * tz - z * ty),
            vy + w * ty + (z * tx - x * tz),
            vz + w * tz + (x * ty - y * tx))


def compose_state(s, q, v) -> tuple:
    """State of s @ Transform(q, v): rotation s_q * q, position s_p + s_q v."""
    r = s[:4]
    dx, dy, dz = qrotate(r, v)
    return (*qmul(r, q), s[4] + dx, s[5] + dy, s[6] + dz)


def pose_state(t: Transform) -> tuple:
    """The pose state (w, x, y, z, px, py, pz) of a Transform."""
    return (*t.rotation.tolist(), *t.translation.tolist())


def state_transform(s) -> Transform:
    """The Transform of a pose state."""
    return Transform(np.array(s[:4]), np.array(s[4:]))


# ---------------------------------------------------------------------------
# Rigid transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Transform:
    """Rigid transform: rotation (unit quaternion) followed by translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=np.float64))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=np.float64))

    @classmethod
    def identity(cls) -> "Transform":
        return cls(quat_identity(), np.zeros(3))

    def __matmul__(self, other: "Transform") -> "Transform":
        """Composition: (self @ other)(p) = self(other(p))."""
        return Transform(
            quat_mul(self.rotation, other.rotation),
            self.translation + quat_rotate(self.rotation, other.translation),
        )

    def inverse(self) -> "Transform":
        rinv = quat_conjugate(self.rotation)
        return Transform(rinv, -quat_rotate(rinv, self.translation))

    def apply(self, p) -> np.ndarray:
        """Transform a point."""
        return quat_rotate(self.rotation, p) + self.translation

    def rotate(self, v) -> np.ndarray:
        """Rotate a direction (translation ignored)."""
        return quat_rotate(self.rotation, v)


# ---------------------------------------------------------------------------
# JSON objects shared by the file formats
# ---------------------------------------------------------------------------
# The input rule of every file the package reads: an array has exactly its
# documented length, every number is finite and below 1e150 in magnitude (so no
# square or dot product of file values overflows), and a quaternion's norm is
# within 1e-6 of 1. A FormatError names `path:line` (or the path) and the field.

class FormatError(ValueError):
    """Malformed input file: invalid JSON, a missing field or a bad value."""


def floats_to_json(v) -> list:
    return np.asarray(v, dtype=np.float64).tolist()


def quat_to_json(q) -> list:
    return floats_to_json(quat_canonical(q))


def floats_from_json(value, shape: tuple, where: str) -> np.ndarray:
    """Float64 array of exactly `shape` (() for one number) within the input rule."""
    try:
        a = np.asarray(value)
    except ValueError as e:  # ragged nesting
        raise FormatError(f"{where}: expected numbers of shape {shape} ({e})") from e
    if a.dtype.kind not in "iuf" or a.shape != shape:
        raise FormatError(f"{where}: expected numbers of shape {shape}, got {value!r:.60}")
    if not (np.abs(a) < 1e150).all():
        raise FormatError(f"{where}: numbers must be finite and below 1e150 in magnitude")
    return a.astype(np.float64, copy=False)


def quat_from_json(value, where: str) -> np.ndarray:
    """Unit quaternion, divided by its norm to undo the file's rounding."""
    q = floats_from_json(value, (4,), where)
    n = float(np.linalg.norm(q))
    if abs(n - 1.0) > 1e-6:
        raise FormatError(f"{where}: not a unit quaternion (norm {n:.9g})")
    return q / n


def transform_to_obj(t: Transform) -> dict:
    return {"rotation": quat_to_json(t.rotation), "translation": floats_to_json(t.translation)}


def transform_from_obj(obj, where: str) -> Transform:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object with rotation and translation")
    return Transform(quat_from_json(obj.get("rotation"), f"{where}.rotation"),
                     floats_from_json(obj.get("translation"), (3,), f"{where}.translation"))


def pose_to_obj(t: Transform) -> dict:
    """Compact pose object of the session and trace lines."""
    return {"p": floats_to_json(t.translation), "q": quat_to_json(t.rotation)}


def pose_from_obj(obj, where: str) -> Transform:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object with p and q")
    return Transform(quat_from_json(obj.get("q"), f"{where} q"),
                     floats_from_json(obj.get("p"), (3,), f"{where} p"))


def read_json_file(path, parse):
    """`parse(document)` of the JSON object in `path`; its errors name the path."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            document = json.load(f)
        except ValueError as e:
            raise FormatError(f"{path}: invalid JSON ({e})") from e
    if not isinstance(document, dict):
        raise FormatError(f"{path}: the top level must be a JSON object")
    try:
        return parse(document)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from e


def write_json_file(path, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=2)
        f.write("\n")


def read_jsonl(path):
    """Yield (line number, object) for every non-blank line of `path`."""
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as e:
                raise FormatError(f"{path}:{lineno}: invalid JSON ({e})") from e
            if not isinstance(obj, dict):
                raise FormatError(f"{path}:{lineno}: a line must be a JSON object")
            yield lineno, obj


def write_jsonl(path, objects) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for obj in objects:
            f.write(json.dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# Plane fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Plane:
    """Plane {p : dot(normal, p) == offset} with unit normal."""

    normal: np.ndarray
    offset: float


def fit_plane(points) -> Plane:
    """Total-least-squares plane through >= 3 points.

    The normal is the smallest eigenvector of the 3x3 covariance of the
    centered points. Its sign is fixed deterministically: positive dot with
    +Z, tie broken toward +X, then +Y.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
        raise DegenerateGeometryError("fit_plane requires at least 3 points of dimension 3")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = centered.T @ centered
    evals, evecs = np.linalg.eigh(cov)
    # eigh returns ascending eigenvalues; two near-zero ones mean the points
    # are collinear and the normal direction is not unique.
    if evals[1] < 1e-12:
        raise DegenerateGeometryError("plane fit is degenerate (collinear or coincident points)")
    normal = evecs[:, 0]
    for axis in (FORWARD, RIGHT, UP):
        d = float(np.dot(normal, axis))
        if abs(d) > 1e-12:
            if d < 0.0:
                normal = -normal
            break
    normal = normal / float(np.linalg.norm(normal))
    return Plane(normal, float(np.dot(normal, centroid)))

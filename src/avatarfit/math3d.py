"""3D math primitives: vectors, unit quaternions, rigid transforms, plane fitting.

Conventions used throughout the package:

- Right-handed world frame, +Y up, +Z forward. A user at the origin in the
  start pose faces -Z, so their right hand is on +X and their left on -X.
- Quaternions are in (w, x, y, z) order and are kept unit-length.
  Serialization canonicalizes the sign so w >= 0, making traces
  byte-comparable across runs.
- A pose is one type, `Transform`, which stores its pose state
  (w, x, y, z, px, py, pz) as a tuple of floats. `Transform(state)` is its
  one constructor and keeps the state as given; the package reads poses
  through `state`. The helpers take any sequence and return floats or
  tuples of floats, which the body solve, the grip search and the set-up
  run on. The file codecs read numbers as plain floats and poses straight
  into `Transform.state`.
- The `translation` view (a fresh float64 array) is the one NumPy value
  that the package's types hand out, for NumPy callers.
- One norm: a length is the root of the squares summed left to right
  (`norm`; `quat_from_json`, `rotation_between` and `slerp_at` for
  quaternions), never NumPy's dot. Only the bone lengths
  (`SkeletonModel`) and the generator's random draws keep NumPy's norm.
- The body solve's kernels `compose_state` and `rotation_between` write out
  `qmul`, `qrotate`, `cross` and `normalize`, operation for operation, and
  `tests/oracles.py::reference_compose_state` and `reference_rotation_between`
  (the helper forms) pin them bit for bit.
- Positions and translations are in meters, angles in radians.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

UP = (0.0, 1.0, 0.0)
RIGHT = (1.0, 0.0, 0.0)
FORWARD = (0.0, 0.0, 1.0)

# Vectors shorter than this are treated as directionless.
DEGENERATE_EPS = 1e-9

# The input rule's bound on the magnitude of every number read from a file
# (see `FormatError`), and its text in the error messages.
INPUT_BOUND_TEXT = "1e150"
INPUT_BOUND = float(INPUT_BOUND_TEXT)


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
    (ax, ay, az), (bx, by, bz) = a, b
    na = math.sqrt(ax * ax + ay * ay + az * az)
    nb = math.sqrt(bx * bx + by * by + bz * bz)
    if na <= DEGENERATE_EPS or nb <= DEGENERATE_EPS:
        raise DegenerateGeometryError(
            f"cannot normalize near-zero vector {(a if na <= DEGENERATE_EPS else b)!r}")
    ax, ay, az = ax / na, ay / na, az / na
    bx, by, bz = bx / nb, by / nb, bz / nb
    x, y, z = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    c = ax * bx + ay * by + az * bz
    angle = math.atan2(math.sqrt(x * x + y * y + z * z), c)  # angle_between(a, b)
    if angle > math.pi - 1e-6:
        axis = cross((ax, ay, az), UP)
        if norm(axis) <= DEGENERATE_EPS:
            axis = cross((ax, ay, az), RIGHT)
        return quat_from_axis_angle(axis, angle)
    w = 1.0 + c
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return w / n, x / n, y / n, z / n


# ---------------------------------------------------------------------------
# Quaternions (w, x, y, z)
# ---------------------------------------------------------------------------

def quat_from_axis_angle(axis, angle: float) -> tuple:
    x, y, z = normalize(axis)
    half = 0.5 * angle
    s = math.sin(half)
    return math.cos(half), x * s, y * s, z * s


def quat_angle(q) -> float:
    """Rotation angle of q in [0, pi]; robust near identity."""
    return 2.0 * math.atan2(norm(q[1:]), abs(q[0]))


def quat_angle_between(a, b) -> float:
    """Angular distance between two rotations in [0, pi]."""
    return quat_angle(qmul(qconj(a), b))


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
    aw, ax, ay, az = a
    bw, bx, by, bz = b
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
# rotation followed by a translation, as `Transform.state` holds it. They are
# tuples of floats: NumPy's per-call overhead on 3- and 4-vectors would
# dominate the body solve.

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
    """State of s @ Transform((*q, *v)): rotation s_q * q, position s_p + s_q v."""
    (sw, sx, sy, sz, px, py, pz), (qw, qx, qy, qz), (vx, vy, vz) = s, q, v
    tx = 2.0 * (sy * vz - sz * vy)
    ty = 2.0 * (sz * vx - sx * vz)
    tz = 2.0 * (sx * vy - sy * vx)
    return (sw * qw - sx * qx - sy * qy - sz * qz,
            sw * qx + sx * qw + sy * qz - sz * qy,
            sw * qy - sx * qz + sy * qw + sz * qx,
            sw * qz + sx * qy - sy * qx + sz * qw,
            px + (vx + sw * tx + (sy * tz - sz * ty)),
            py + (vy + sw * ty + (sz * tx - sx * tz)),
            pz + (vz + sw * tz + (sx * ty - sy * tx)))


# ---------------------------------------------------------------------------
# Rigid transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Transform:
    """Rigid transform: rotation (unit quaternion) followed by translation.

    `state` is its pose state (w, x, y, z, px, py, pz), kept as given, so it
    should be a tuple of seven floats. `translation` returns the position as
    a fresh float64 array for NumPy callers. Slotted, since sessions and
    ground truths hold one per device or joint and frame.
    """

    state: tuple

    @classmethod
    def identity(cls) -> "Transform":
        return cls((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))

    @property
    def translation(self) -> np.ndarray:
        return np.array(self.state[4:])

    def __matmul__(self, other: "Transform") -> "Transform":
        """Composition: (self @ other)(p) = self(other(p))."""
        o = other.state
        return Transform(compose_state(self.state, o[:4], o[4:]))

    def inverse(self) -> "Transform":
        s = self.state
        rinv = qconj(s)
        dx, dy, dz = qrotate(rinv, s[4:])
        return Transform((*rinv, -dx, -dy, -dz))

    def apply(self, p) -> tuple:
        """Transform a point."""
        s = self.state
        dx, dy, dz = qrotate(s[:4], p)
        return dx + s[4], dy + s[5], dz + s[6]


# ---------------------------------------------------------------------------
# JSON objects shared by the file formats
# ---------------------------------------------------------------------------
# The input rule of every file the package reads: an array has exactly its
# documented length, and every number is a JSON int or float (true and false
# are not numbers) whose magnitude is below `INPUT_BOUND` (1e150), so no
# square or dot product of file values overflows. Ints of any size below that
# are accepted, and NaN and Infinity are not. A quaternion's norm is within
# 1e-6 of 1. A FormatError names `path:line` (or the path) and the field.

class FormatError(ValueError):
    """Malformed input file: invalid JSON, a missing field or a bad value."""


def floats_to_json(v) -> list:
    return [float(c) for c in v]


def quat_to_json(q) -> list:
    """q as floats, its sign flipped so w >= 0 (at w == 0, the first nonzero of x, y, z > 0)."""
    q = [float(c) for c in q]
    if q[0] < 0.0:
        return [-c for c in q]
    if q[0] == 0.0:
        for c in q[1:]:
            if c != 0.0:
                return q if c > 0.0 else [-c for c in q]
    return q


def float_from_json(v, where: str) -> float:
    """One number within the input rule as a float; a file float is returned as it is.
    An int is compared with the bound exactly, so a huge one is no OverflowError."""
    if isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) < INPUT_BOUND:
        return float(v)
    raise FormatError(f"{where}: expected a finite number below {INPUT_BOUND_TEXT} in "
                      f"magnitude, got {v!r:.60}")


def floats_from_json(value, n: int, where: str) -> tuple:
    """The floats of a JSON array of exactly `n` numbers within the input rule."""
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise FormatError(f"{where}: expected an array of {n} numbers, got {value!r:.60}")
    bound = INPUT_BOUND
    for v in value:  # the common case, plain floats, is checked without a call per number
        if type(v) is not float or not -bound < v < bound:
            return tuple([float_from_json(v, where) for v in value])
    return tuple(value)


def quat_from_json(value, where: str) -> tuple:
    """Unit quaternion as four floats, divided by its norm to undo the file's rounding.

    The norm is the plain root of w² + x² + y² + z², summed in that order, as
    everywhere in the package (see the module's conventions).
    """
    w, x, y, z = floats_from_json(value, 4, where)
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if abs(n - 1.0) > 1e-6:
        raise FormatError(f"{where}: not a unit quaternion (norm {n:.9g})")
    return w / n, x / n, y / n, z / n


def transform_to_obj(t: Transform) -> dict:
    return {"rotation": quat_to_json(t.state[:4]), "translation": floats_to_json(t.state[4:])}


def transform_from_obj(obj, where: str) -> Transform:
    return pose_from_obj(obj, where, "rotation", "translation")


def pose_to_obj(t: Transform) -> dict:
    """Compact pose object of the session and trace lines."""
    s = t.state
    return {"p": list(s[4:]), "q": quat_to_json(s[:4])}


def pose_from_obj(obj, where: str, q: str = "q", p: str = "p") -> Transform:
    """The pose of an object with a unit quaternion at key `q` and a position at `p`."""
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object with {p} and {q}")
    return Transform(quat_from_json(obj.get(q), f"{where} {q}")
                     + floats_from_json(obj.get(p), 3, f"{where} {p}"))


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

def fit_plane(points) -> tuple:
    """Unit normal, as three floats, of the total-least-squares plane through >= 3 points.

    The normal is the smallest eigenvector of the 3x3 covariance of the
    centered points. Its sign is fixed deterministically: positive dot with
    +Z, tie broken toward +X, then +Y.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
        raise DegenerateGeometryError("fit_plane requires at least 3 points of dimension 3")
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered
    evals, evecs = np.linalg.eigh(cov)
    # eigh returns ascending eigenvalues; two near-zero ones mean the points
    # are collinear and the normal direction is not unique.
    if evals[1] < 1e-12:
        raise DegenerateGeometryError("plane fit is degenerate (collinear or coincident points)")
    normal = evecs[:, 0].tolist()
    for axis in (FORWARD, RIGHT, UP):
        d = dot(normal, axis)
        if abs(d) > 1e-12:
            if d < 0.0:
                normal = [-c for c in normal]
            break
    return normalize(normal)

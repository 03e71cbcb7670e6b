"""Independent brute-force oracles shared by the unit and acceptance tests."""

import itertools
import math

import numpy as np

from avatarfit.fingers import CapsuleShape, Finger, capsule_sdf
from avatarfit.math3d import DEGENERATE_EPS, RIGHT, UP, FormatError, Transform, angle_between, \
    cross, dot, norm, normalize, qmul, qrotate, quat_from_axis_angle
from avatarfit.retarget import TwoBoneSolution, _root_angle
from avatarfit.skeleton import SkeletonModel


def sample_capsule_surface(shape: CapsuleShape, n_axis: int, n_ring: int):
    """Dense point sampling of a capsule surface.

    Cylinder body sampled on an (n_axis x n_ring) grid, the two hemispherical
    caps on matching angular grids restricted to their outward halves.
    Returns (points, resolution) where resolution bounds the distance from
    any true surface point to its nearest sample.
    """
    axis = np.subtract(shape.end, shape.start)
    length = float(np.linalg.norm(axis))
    u = axis / length
    seed = np.array([1.0, 0.0, 0.0])
    if abs(float(np.dot(seed, u))) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(u, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)

    angles = np.linspace(0, 2 * np.pi, n_ring, endpoint=False)
    ring = np.outer(np.cos(angles), e1) + np.outer(np.sin(angles), e2)

    points = [shape.start + t * axis + shape.radius * r
              for t in np.linspace(0, 1, n_axis) for r in ring]
    n_phi = max(8, n_ring // 4)
    for phi in np.linspace(0, np.pi / 2, n_phi):
        lateral = np.cos(phi)
        axial = np.sin(phi)
        for r in ring:
            d = lateral * r - axial * u
            points.append(shape.start + shape.radius * d)
            points.append(shape.end + shape.radius * (lateral * r + axial * u))

    arc = 2 * np.pi * shape.radius / n_ring
    axial_step = max(length / (n_axis - 1), shape.radius * (np.pi / 2) / (n_phi - 1))
    resolution = float(np.hypot(arc, axial_step))
    return np.asarray(points), resolution


# ---------------------------------------------------------------------------
# Finger objective reference: one-shot slerps and a plain chain walk
# ---------------------------------------------------------------------------
# `fingers.finger_objective` keeps a slerp basis per joint and walks the chain
# on plain floats; its value must equal this reference exactly, float for float.

def reference_slerp(a, b, t: float) -> tuple[float, float, float, float]:
    """One-shot shortest-arc slerp on plain floats."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    d = aw * bw + ax * bx + ay * by + az * bz
    if d < 0.0:
        bw, bx, by, bz = -bw, -bx, -by, -bz
        d = -d
    if d > 1.0 - 1e-9:
        w = aw + t * (bw - aw)
        x = ax + t * (bx - ax)
        y = ay + t * (by - ay)
        z = az + t * (bz - az)
        n = math.sqrt(w * w + x * x + y * y + z * z)
        return w / n, x / n, y / n, z / n
    theta = math.acos(d if d < 1.0 else 1.0)
    s = math.sin(theta)
    ka = math.sin((1.0 - t) * theta) / s
    kb = math.sin(t * theta) / s
    return (ka * aw + kb * bw, ka * ax + kb * bx, ka * ay + kb * by, ka * az + kb * bz)


def reference_chain(finger: Finger, wrist_world: Transform | None) -> tuple:
    """Plain-float snapshot of a finger: base rotation and position, then
    (open, closed, offset) per joint."""
    base = finger.base_local if wrist_world is None else wrist_world @ finger.base_local
    joints = tuple(tuple(tuple(float(v) for v in vec)
                         for vec in (j.open_rotation, j.closed_rotation, j.offset))
                   for j in finger.joints)
    return (tuple(float(v) for v in base.state[:4]),
            tuple(float(v) for v in base.translation), joints)


def reference_finger_objective(chain: tuple, shape: CapsuleShape, penalty: float,
                               tip_button, t_vec) -> float:
    """Penalized surface distance of the chain points, plus the distance
    from the last point to `tip_button` when one is given."""
    (rw, rx, ry, rz), (px, py, pz), joints = chain
    total = 0.0
    for (open_q, closed_q, (ox, oy, oz)), t in zip(joints, t_vec):
        qw, qx, qy, qz = reference_slerp(open_q, closed_q, float(t))
        rw, rx, ry, rz = (
            rw * qw - rx * qx - ry * qy - rz * qz,
            rw * qx + rx * qw + ry * qz - rz * qy,
            rw * qy - rx * qz + ry * qw + rz * qx,
            rw * qz + rx * qy - ry * qx + rz * qw,
        )
        tx = 2.0 * (ry * oz - rz * oy)
        ty = 2.0 * (rz * ox - rx * oz)
        tz = 2.0 * (rx * oy - ry * ox)
        px += ox + rw * tx + (ry * tz - rz * ty)
        py += oy + rw * ty + (rz * tx - rx * tz)
        pz += oz + rw * tz + (rx * ty - ry * tx)
        d = capsule_sdf(shape, (px, py, pz))
        total += d if d >= 0.0 else -penalty * d
    if tip_button is not None:
        bx, by, bz = tip_button
        dx = px - bx
        dy = py - by
        dz = pz - bz
        total += math.sqrt(dx * dx + dy * dy + dz * dz)
    return total


def reference_grid_seed(chain: tuple, shape: CapsuleShape, penalty: float, tip_button,
                        grid_points: int = 7):
    """Scalar scan of the seed grid {0, 1/(g-1), ..., 1}^n in `itertools.product`
    order: (every grid value, chosen factors, chosen value). A grid point
    replaces the best so far only when strictly lower, so the earlier grid
    point wins a tie."""
    grid = [i / (grid_points - 1) for i in range(grid_points)]
    best_t, best = None, math.inf
    values = []
    for point in itertools.product(grid, repeat=len(chain[2])):
        value = reference_finger_objective(chain, shape, penalty, tip_button, point)
        values.append(value)
        if value < best:
            best_t, best = list(point), value
    return values, best_t, best



def reference_compass_search(chain: tuple, shape: CapsuleShape, penalty: float, tip_button,
                             max_iters: int, grid_points: int = 7, step_tol: float = 1e-4):
    """Scalar compass search from the seed grid's best point: (factors,
    rounds, objective, converged, history).

    Every poll is a full `reference_finger_objective`. A round tries +step,
    then -step, on each factor in turn, clamped to [0, 1], skips a trial
    equal to the factor, and takes the first strict decrease; the first step
    is half the grid spacing, and a round without a decrease halves it,
    converging once it falls below `step_tol`. `history` is the objective
    after each round."""
    _, t, value = reference_grid_seed(chain, shape, penalty, tip_button, grid_points)
    step = 0.5 / (grid_points - 1)
    history = []
    converged = False
    while len(history) < max_iters:
        decreased = False
        for k in range(len(t)):
            for trial in (min(t[k] + step, 1.0), max(t[k] - step, 0.0)):
                if trial == t[k]:
                    continue
                probe = t[:k] + [trial] + t[k + 1:]
                candidate = reference_finger_objective(chain, shape, penalty, tip_button, probe)
                if candidate < value:
                    t, value, decreased = probe, candidate, True
                    break
        history.append(value)
        if not decreased:
            step *= 0.5
            if step < step_tol:
                converged = True
                break
    return t, len(history), value, converged, history

# ---------------------------------------------------------------------------
# Vector math in NumPy's form, and by the helpers: `math3d` and
# `retarget.two_bone_ik` write it out on plain floats and must equal these bit
# for bit.
# ---------------------------------------------------------------------------

def reference_cross(a, b) -> np.ndarray:
    return np.cross(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))


def reference_rotation_between(a, b) -> tuple:
    """Minimal rotation taking a onto b, by `angle_between` on the normalized
    pair, then a second cross and dot for the quaternion."""
    ah = normalize(a)
    bh = normalize(b)
    angle = angle_between(ah, bh)
    if angle > math.pi - 1e-6:
        axis = cross(ah, UP)
        if norm(axis) <= DEGENERATE_EPS:
            axis = cross(ah, RIGHT)
        return quat_from_axis_angle(axis, angle)
    xyz = cross(ah, bh)
    q = (1.0 + dot(ah, bh), xyz[0], xyz[1], xyz[2])
    n = math.sqrt(sum(c * c for c in q))
    return tuple(c / n for c in q)


def reference_quat_rotate(q, v) -> np.ndarray:
    """v rotated by unit quaternion q: t = 2 q_xyz x v, then v + w t + q_xyz x t."""
    qv = np.asarray(q[1:], dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    t = 2.0 * np.cross(qv, v)
    return v + q[0] * t + np.cross(qv, t)


def reference_compose_state(s, q, v) -> tuple:
    """s @ (q, v) by the helpers: rotation qmul(s_q, q), position s_p + qrotate(s_q, v)."""
    r = s[:4]
    dx, dy, dz = qrotate(r, v)
    return (*qmul(r, q), s[4] + dx, s[5] + dy, s[6] + dz)


def reference_two_bone_ik(root_pos, l1: float, l2: float, target_pos,
                          pole_dir) -> TwoBoneSolution:
    """Two-bone solve by the vector helpers, one comprehension per vector."""
    root = tuple(root_pos)
    diff = [t - r for t, r in zip(target_pos, root)]
    d = norm(diff)
    if d < 1e-6:
        return TwoBoneSolution(root, root, 0.0, degenerate=True)
    u = [c / d for c in diff]
    reach = min(d, l1 + l2)
    end = tuple(r + reach * c for r, c in zip(root, u))
    deficit = max(0.0, d - (l1 + l2))
    if deficit > 0.0:
        return TwoBoneSolution(tuple(r + l1 * c for r, c in zip(root, u)), end, deficit)
    phi = _root_angle(l1, l2, max(d, abs(l1 - l2) + 1e-12))
    k = dot(pole_dir, u)
    perp = [p - k * c for p, c in zip(pole_dir, u)]
    if norm(perp) <= 1e-9:
        perp = cross(u, UP)
        if norm(perp) <= 1e-9:
            perp = cross(u, RIGHT)
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    mid = tuple(r + l1 * (cos_phi * a + sin_phi * b) for r, a, b in zip(root, u, normalize(perp)))
    return TwoBoneSolution(mid, end, 0.0)


# ---------------------------------------------------------------------------
# Rigid transforms on float64 arrays, (rotation, translation) pairs: the
# `Transform` of pose states and `skeleton.forward_kinematics` must equal
# these bytes.
# ---------------------------------------------------------------------------

def reference_quat_mul(a, b) -> np.ndarray:
    """Hamilton product a * b of two float64 arrays, each component's terms left to right."""
    aw, ax, ay, az = np.asarray(a, dtype=np.float64)
    bw, bx, by, bz = np.asarray(b, dtype=np.float64)
    return np.array([aw * bw - ax * bx - ay * by - az * bz,
                     aw * bx + ax * bw + ay * bz - az * by,
                     aw * by - ax * bz + ay * bw + az * bx,
                     aw * bz + ax * by - ay * bx + az * bw])


def reference_compose(a: tuple, b: tuple) -> tuple:
    """a @ b: rotation a_q * b_q, translation a_p + a_q b_p."""
    return reference_quat_mul(a[0], b[0]), a[1] + reference_quat_rotate(a[0], b[1])


def reference_inverse(a: tuple) -> tuple:
    """a^-1: the conjugate rotation and the translation -(conj a_q) a_p."""
    q = a[0]
    rinv = np.array([q[0], -q[1], -q[2], -q[3]])
    return rinv, -reference_quat_rotate(rinv, a[1])


def reference_apply(a: tuple, p) -> np.ndarray:
    """The point p moved by a: a_q p + a_p."""
    return reference_quat_rotate(a[0], p) + a[1]


def reference_forward_kinematics(skeleton: SkeletonModel, rotations,
                                 root: Transform) -> list[tuple]:
    """World (rotation, translation) of every joint: the parent's composed with
    (local rotation, bind translation); the root sits at `root`."""
    world: list[tuple] = [None] * len(skeleton.joints)  # type: ignore[list-item]
    for i, joint in enumerate(skeleton.joints):
        if joint.parent is None:
            world[i] = (np.array(root.state[:4]), root.translation)
        else:
            local = (np.asarray(rotations[i], dtype=np.float64), joint.bind_local.translation)
            world[i] = reference_compose(world[joint.parent], local)
    return world


# ---------------------------------------------------------------------------
# File codec on float64 arrays: `math3d.floats_from_json` and `quat_from_json`
# decode on plain floats and must return these floats, bit for bit.
# ---------------------------------------------------------------------------

def reference_floats_from_json(value, shape: tuple, where: str) -> np.ndarray:
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


def reference_quat_from_json(value, where: str) -> np.ndarray:
    """Unit quaternion, divided by the plain root of w² + x² + y² + z², summed
    in that order, to undo the file's rounding."""
    q = reference_floats_from_json(value, (4,), where)
    w, x, y, z = (float(c) for c in q)
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if abs(n - 1.0) > 1e-6:
        raise FormatError(f"{where}: not a unit quaternion (norm {n:.9g})")
    return q / n

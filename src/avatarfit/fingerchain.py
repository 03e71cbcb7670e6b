"""One finger's chain and its penalized capsule cost: the grip search's kernel.

`fingers.descend` searches each finger from the best point of the grid
GRID^n, then polls with `_FingerChain.walk`, which also serves
`fingers.finger_objective`. Both run on plain floats. A walk goes from a
list of per-joint states (world rotation, position and partial objective
after each joint). Every term is >= 0 and rounding is monotone, so once the
running total exceeds a bound the walk stops, with no state for that joint:
no point beyond it can come back under the bound.

The seed is an exact branch and bound over the grid's prefix tree (Land &
Doig 1960, Econometrica 28(3)): a prefix whose running total exceeds the best
grid point so far is not extended. Points compare (value, grid index), so on
a tie the first in product order wins. It has its own pass, `_children`,
which steps one joint for all GRID_POINTS children of a prefix with the
walk's arithmetic. The bound prunes when the controller is within the
fingers' reach, as in the CLI's and the benchmark's grips, and less for a
thumb with a button, whose term only the tip adds. Against a capsule 1 m
away every partial total is below every full one, so the seed visits the
whole tree: a grip of the default hand takes 3-6 ms, and of its 4-joint
copy 19-29 ms (shared 2-core x86 VM).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .math3d import compose_state, slerp_at

if TYPE_CHECKING:  # `fingers` imports this module
    from .fingers import CapsuleShape, Finger

# The search starts from the best point of the grid {0, 1/6, ..., 1}^n.
GRID_POINTS = 7
GRID = tuple(i / (GRID_POINTS - 1) for i in range(GRID_POINTS))


class _FingerChain:
    """One finger and its cost, for fast repeated evaluation.

    The seed and the polls evaluate the chain one point at a time, hundreds
    of times per grip, so both run on plain floats; an array library's
    per-call overhead on 3-vectors would dominate otherwise. A walk's state
    after a joint is the tuple (rw, rx, ry, rz, px, py, pz, total): the
    world rotation and position of that joint's point and the penalized
    capsule distance summed over the points up to it. `start` is the state
    of the finger's base, with total 0.0. The joints' slerp bases are the
    hand model's own (`FingerJointSpec.basis`), and `capsule` is the shape's
    own `CapsuleShape.segment` plus its radius.
    """

    __slots__ = ("start", "slerps", "offsets", "capsule", "penalty", "button")

    def __init__(self, finger: Finger, wrist_world: tuple | None, shape: CapsuleShape,
                 penalty: float, button: tuple | None = None):
        base = finger.base_local
        if wrist_world is not None:
            base = compose_state(wrist_world, base[:4], base[4:])
        self.start = (*base, 0.0)
        self.slerps = [j.basis for j in finger.joints]
        self.offsets = [j.offset for j in finger.joints]
        self.capsule = (*shape.segment, shape.radius)
        self.penalty = penalty
        self.button = button if finger.name == "thumb" else None

    def rotations(self, t_vec) -> list[tuple]:
        return [slerp_at(basis, float(t)) for basis, t in zip(self.slerps, t_vec)]

    def walk(self, states: list, k: int, q: tuple, rotations: list,
             bound: float = math.inf) -> float:
        """Objective with joint k turned by `q` and each later joint j by `rotations[j]`.

        The walk resumes from `states[k - 1]` (from `start` when k is 0),
        appends the states of joints k to the tip and returns the last total
        plus, for the thumb, its distance to the button. A resumed walk makes
        the same additions in the same order as one from the base, so the two
        return the same float. The capsule distance is `capsule_sdf`, written
        out. Once the running total exceeds `bound`, the walk returns it
        before appending that joint's state. That is exact: every term added
        (d, -penalty * d, the button distance) is >= 0 and rounding is
        monotone, so the full walk would exceed it too.
        """
        rw, rx, ry, rz, px, py, pz, total = states[k - 1] if k else self.start
        sx, sy, sz, vx, vy, vz, axis_sq, radius = self.capsule
        penalty = self.penalty
        offsets = self.offsets
        for j in range(k, len(offsets)):
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
        if self.button is not None:
            bx, by, bz = self.button
            dx = px - bx
            dy = py - by
            dz = pz - bz
            total += math.sqrt(dx * dx + dy * dy + dz * dz)
        return total

    def seed(self) -> tuple[list, list, list, float]:
        """Best grid point: (factors, rotations, states, objective).

        A best-first depth-first branch and bound over the grid's prefix
        tree: a node's GRID_POINTS children are stepped in one pass
        (`_children`), bounded by the best leaf so far, and entered in
        (running total, grid index) order unless that total exceeds the best
        leaf's value (every later term is >= 0 and rounding is monotone).
        Leaves compare (value, grid index), so on a tie the first point in
        product order wins.
        """
        grids = [[slerp_at(basis, g) for g in GRID] for basis in self.slerps]
        # Value, grid indices (the first sorts after every real one), states.
        best = [math.inf, (GRID_POINTS,), None]
        self._visit(grids, best, [], ())
        value, index, states = best
        rotations = [grids[j][i] for j, i in enumerate(index)]
        return [GRID[i] for i in index], rotations, states, value

    def _visit(self, grids: list, best: list, states: list, index: tuple) -> None:
        """`seed` below the grid prefix `index`, whose states are `states`. Not a
        closure: a recursive one is a reference cycle, left to the collector."""
        children = self._children(grids[len(states)], states, index, best[0])
        if len(states) + 1 == len(grids):
            for total, leaf, state in children:
                if (total, leaf) < (best[0], best[1]):
                    best[:] = total, leaf, [*states, state]
            return
        children.sort()
        for total, child, state in children:
            if total > best[0]:
                break
            states.append(state)
            self._visit(grids, best, states, child)
            states.pop()

    def _children(self, grid: list, states: list, index: tuple, bound: float) -> list:
        """(total, grid index, state) of each grid child of the prefix `index`.

        One pass over joint j = len(states) at the rotations `grid`: each child
        is `walk`'s step of joint j, the same operations in the same order,
        plus the thumb's button term at the tip. A child whose running total
        exceeds `bound` is dropped before its state is built."""
        j = len(states)
        rw0, rx0, ry0, rz0, px0, py0, pz0, total0 = states[-1] if j else self.start
        sx, sy, sz, vx, vy, vz, axis_sq, radius = self.capsule
        penalty = self.penalty
        ox, oy, oz = self.offsets[j]
        button = self.button if j + 1 == len(self.offsets) else None
        sqrt = math.sqrt
        children = []
        for i, (qw, qx, qy, qz) in enumerate(grid):
            rw = rw0 * qw - rx0 * qx - ry0 * qy - rz0 * qz
            rx = rw0 * qx + rx0 * qw + ry0 * qz - rz0 * qy
            ry = rw0 * qy - rx0 * qz + ry0 * qw + rz0 * qx
            rz = rw0 * qz + rx0 * qy - ry0 * qx + rz0 * qw
            tx = 2.0 * (ry * oz - rz * oy)
            ty = 2.0 * (rz * ox - rx * oz)
            tz = 2.0 * (rx * oy - ry * ox)
            px = px0 + (ox + rw * tx + (ry * tz - rz * ty))
            py = py0 + (oy + rw * ty + (rz * tx - rx * tz))
            pz = pz0 + (oz + rw * tz + (rx * ty - ry * tx))
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
            d = sqrt(dx * dx + dy * dy + dz * dz) - radius
            total = total0 + (d if d >= 0.0 else -penalty * d)
            if total > bound:
                continue
            state = (rw, rx, ry, rz, px, py, pz, total)
            if button is not None:
                dx = px - button[0]
                dy = py - button[1]
                dz = pz - button[2]
                total += sqrt(dx * dx + dy * dy + dz * dz)
            children.append((total, (*index, i), state))
        return children

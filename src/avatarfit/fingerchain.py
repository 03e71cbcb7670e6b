"""One finger's chain and its penalized capsule cost: the grip search's kernel.

`fingers.descend` runs `_FingerChain.search` on each finger: a compass search
from the best point of the grid GRID^n, whose polls are written into its
round loop. The seed and the polls run on plain floats. A poll resumes from
the current point's per-joint states (world rotation, position and partial
objective after each joint). Every term is >= 0 and rounding is monotone, so
once the running total exceeds the current value the poll stops, with no
state for that joint: no point beyond it can come back under the value.

The seed is an exact branch and bound over the grid's prefix tree (Land &
Doig 1960, Econometrica 28(3)): a prefix whose running total exceeds the best
grid point so far is not extended. Points compare (value, grid index), so on
a tie the first in product order wins. It has its own pass, `_children`,
which steps one joint for all GRID_POINTS children of a prefix with the
poll's arithmetic; `evaluate` (`fingers.finger_objective`) runs it with one
rotation per joint. The bound prunes when the controller is within the
fingers' reach, as in the CLI's and the benchmark's grips, and less for a
thumb with a button, whose term only the tip adds. Against a capsule 1 m
away every partial total is below every full one, so the seed visits the
whole tree: a grip of the default hand takes about 5 ms there (2-2.5 ms in
reach), and of its 4-joint copy about 26 ms (4 ms in reach; shared 2-core
x86 VM, in-process, bases and grid rotations kept).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .math3d import compose_state, slerp_at

if TYPE_CHECKING:  # `fingers` imports this module
    from .fingers import CapsuleShape, Finger

# The search starts from the best point of the grid {0, 1/6, ..., 1}^n and
# stops once its step falls below STEP_TOL.
GRID_POINTS = 7
GRID = tuple(i / (GRID_POINTS - 1) for i in range(GRID_POINTS))
STEP_TOL = 1e-4


class _FingerChain:
    """One finger and its cost, for fast repeated evaluation.

    The seed and the polls evaluate the chain one point at a time, hundreds
    of times per grip, so both run on plain floats; an array library's
    per-call overhead on 3-vectors would dominate otherwise. The state after
    a joint is the tuple (rw, rx, ry, rz, px, py, pz, total): the world
    rotation and position of that joint's point and the penalized capsule
    distance summed over the points up to it. `start` is the state of the
    finger's base, with total 0.0. The joints' slerp bases and grid
    rotations are the hand model's own (`FingerJointSpec.basis` and
    `FingerJointSpec.grid`), and `capsule` is the shape's own
    `CapsuleShape.segment` plus its radius.
    """

    __slots__ = ("start", "slerps", "grids", "offsets", "capsule", "penalty", "button")

    def __init__(self, finger: Finger, wrist_world: tuple | None, shape: CapsuleShape,
                 penalty: float, button: tuple | None = None):
        base = finger.base_local
        if wrist_world is not None:
            base = compose_state(wrist_world, base[:4], base[4:])
        self.start = (*base, 0.0)
        self.slerps = [j.basis for j in finger.joints]
        self.grids = [j.grid for j in finger.joints]
        self.offsets = [j.offset for j in finger.joints]
        self.capsule = (*shape.segment, shape.radius)
        self.penalty = penalty
        self.button = button if finger.name == "thumb" else None

    def rotations(self, t_vec) -> list[tuple]:
        return [slerp_at(basis, float(t)) for basis, t in zip(self.slerps, t_vec)]

    def evaluate(self, rotations: list) -> tuple[float, list]:
        """(objective, states) with each joint j turned by `rotations[j]`: one
        `_children` pass per joint, on a grid of that one rotation."""
        states = []
        for q in rotations:
            (value, _, state), = self._children((q,), states, (), math.inf)
            states.append(state)
        return value, states

    def search(self, max_iters: int) -> tuple[list, float, bool, list, list]:
        """The rounds of `fingers.descend` from `seed`: (factors, objective,
        converged, history, states).

        A poll on factor k resumes from the current point's state after joint
        k - 1 (`start` when k is 0) and turns joint k by the trial's rotation
        and each later joint j by `rotations[j]`, with `_children`'s step, so
        it returns the float of an evaluation from the base (`evaluate`). It
        stops once its running total exceeds the current value, before that
        joint's state: exact, since every term added is >= 0 and rounding is
        monotone. A losing poll keeps no states; an accepted one joins its
        tail to the states before joint k.
        """
        t, rotations, states, value = self.seed()
        start, slerps, offsets, button = self.start, self.slerps, self.offsets, self.button
        sx, sy, sz, vx, vy, vz, axis_sq, radius = self.capsule
        penalty, sqrt, n = self.penalty, math.sqrt, len(offsets)
        step = 0.5 / (GRID_POINTS - 1)
        # lost[k][trial]: a known running total through joint k at that trial.
        lost = [{} for _ in t]
        history, converged = [], False
        while len(history) < max_iters:
            decreased = False
            for k in range(n):
                tk, lost_k = t[k], lost[k]
                up, down = tk + step, tk - step
                for trial in (up if up < 1.0 else 1.0, down if down > 0.0 else 0.0):
                    if trial == tk or lost_k.get(trial, -math.inf) >= value:
                        continue
                    q = slerp_at(slerps[k], trial)
                    rw, rx, ry, rz, px, py, pz, total = states[k - 1] if k else start
                    tail = []
                    for j in range(k, n):
                        qw, qx, qy, qz = rotations[j] if j > k else q
                        ox, oy, oz = offsets[j]
                        rw, rx, ry, rz = (rw * qw - rx * qx - ry * qy - rz * qz,
                                          rw * qx + rx * qw + ry * qz - rz * qy,
                                          rw * qy - rx * qz + ry * qw + rz * qx,
                                          rw * qz + rx * qy - ry * qx + rz * qw)
                        # p += rot * offset (quaternion sandwich, expanded)
                        tx = 2.0 * (ry * oz - rz * oy)
                        ty = 2.0 * (rz * ox - rx * oz)
                        tz = 2.0 * (rx * oy - ry * ox)
                        px += ox + rw * tx + (ry * tz - rz * ty)
                        py += oy + rw * ty + (rz * tx - rx * tz)
                        pz += oz + rw * tz + (rx * ty - ry * tx)
                        # The capsule distance: `capsule_sdf`, written out.
                        ux, uy, uz = px - sx, py - sy, pz - sz
                        h = (ux * vx + uy * vy + uz * vz) / axis_sq
                        h = 0.0 if h < 0.0 else 1.0 if h > 1.0 else h
                        dx, dy, dz = ux - vx * h, uy - vy * h, uz - vz * h
                        d = sqrt(dx * dx + dy * dy + dz * dz) - radius
                        total += d if d >= 0.0 else -penalty * d
                        if total > value:
                            break
                        tail.append((rw, rx, ry, rz, px, py, pz, total))
                    else:
                        if button is not None:
                            dx, dy, dz = px - button[0], py - button[1], pz - button[2]
                            total += sqrt(dx * dx + dy * dy + dz * dz)
                        if total < value:
                            lost_k[tk] = states[k][7]
                            t[k], rotations[k] = trial, q
                            states = states[:k] + tail
                            value, decreased = total, True
                            for later in lost[k + 1:]:
                                later.clear()
                            break
                    lost_k[trial] = tail[0][7] if tail else total  # through joint k
            history.append(value)
            if not decreased:
                step *= 0.5
                if step < STEP_TOL:
                    converged = math.isfinite(value)
                    break
        return t, value, converged, history, states

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
        grids = self.grids
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

    def _children(self, grid, states: list, index: tuple, bound: float) -> list:
        """(total, grid index, state) of each grid child of the prefix `index`.

        One pass over joint j = len(states) at the rotations `grid`: each child
        is the poll step of `search` at joint j, the same operations in the
        same order, plus the thumb's button term at the tip. A child whose
        running total exceeds `bound` is dropped before its state is built."""
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
            ux, uy, uz = px - sx, py - sy, pz - sz
            h = (ux * vx + uy * vy + uz * vz) / axis_sq
            h = 0.0 if h < 0.0 else 1.0 if h > 1.0 else h
            dx, dy, dz = ux - vx * h, uy - vy * h, uz - vz * h
            d = sqrt(dx * dx + dy * dy + dz * dz) - radius
            total = total0 + (d if d >= 0.0 else -penalty * d)
            if total > bound:
                continue
            state = (rw, rx, ry, rz, px, py, pz, total)
            if button is not None:
                dx, dy, dz = px - button[0], py - button[1], pz - button[2]
                total += sqrt(dx * dx + dy * dy + dz * dz)
            children.append((total, (*index, i), state))
        return children

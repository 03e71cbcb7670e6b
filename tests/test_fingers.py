import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from avatarfit import fingers
from avatarfit.fingers import (
    CapsuleShape,
    DescentConfig,
    Finger,
    FingerJointSpec,
    FingerParams,
    HandModel,
    capsule_sdf,
    default_grip_capsule,
    default_hand_model,
    descend,
    finger_objective,
    hand_from_document,
    hand_to_document,
    load_controller_file,
    load_hand_file,
    mirror_hand,
    pose_hand_on_controller,
    save_controller_file,
    save_hand_file,
    transform_capsule,
)
from avatarfit.math3d import Transform, qrotate, quat_from_axis_angle

from conftest import random_quat, random_unit
from oracles import reference_chain, reference_compass_search, reference_finger_objective, \
    reference_grid_seed, sample_capsule_surface

seeds = st.integers(min_value=0, max_value=2**32 - 1)
IDENT = np.array([1.0, 0.0, 0.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def unit_capsule() -> CapsuleShape:
    return CapsuleShape(np.array([0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), 0.1)


class TestCapsuleSdf:
    def test_on_axis_point_is_inside(self):
        assert capsule_sdf(unit_capsule(), [0.0, 0.5, 0.0]) == pytest.approx(-0.1, abs=1e-12)

    def test_lateral_point(self):
        assert capsule_sdf(unit_capsule(), [0.2, 0.5, 0.0]) == pytest.approx(0.1, abs=1e-12)

    def test_end_cap_point(self):
        assert capsule_sdf(unit_capsule(), [0.0, 1.3, 0.0]) == pytest.approx(0.2, abs=1e-12)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            CapsuleShape(np.zeros(3), np.ones(3), 0.0)
        with pytest.raises(ValueError):
            CapsuleShape(np.ones(3), np.ones(3), 0.1)
        with pytest.raises(ValueError):  # distinct, but the axis length underflows to 0
            CapsuleShape((0.0, 0.0, 0.0), (1e-170, 0.0, 0.0), 0.1)

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            CapsuleShape(np.zeros(3), np.ones(3), math.nan)

    @given(seeds)
    def test_rigid_motion_invariance(self, seed):
        rng = np.random.default_rng(seed)
        shape = unit_capsule()
        p = rng.normal(size=3)
        g = Transform(random_quat(rng), rng.normal(size=3))
        moved = transform_capsule(shape, g)
        assert capsule_sdf(moved, g.apply(p)) == pytest.approx(
            capsule_sdf(shape, p), abs=1e-9)

    def test_brute_force_sampling_agreement(self):
        # Sampled-surface nearest distance agrees with |sdf| to the sampling
        # resolution, and the sign matches a dense segment-distance test.
        shape = unit_capsule()
        rng = np.random.default_rng(3)
        surface, resolution = sample_capsule_surface(shape, 400, 200)
        seg = shape.start + np.linspace(0, 1, 2000)[:, None] * np.subtract(shape.end, shape.start)
        for _ in range(500):
            p = rng.uniform(-0.4, 1.4, size=3)
            sd = capsule_sdf(shape, p)
            brute = float(np.min(np.linalg.norm(surface - p, axis=1)))
            assert abs(brute - abs(sd)) < resolution
            if abs(sd) > 1e-3:
                inside = float(np.min(np.linalg.norm(seg - p, axis=1))) < shape.radius
                assert inside == (sd < 0)


def straight_toy_finger(points: list[np.ndarray]) -> Finger:
    """Finger whose open pose places its chain points exactly at `points`."""
    offsets = []
    prev = np.zeros(3)
    for p in points:
        offsets.append(np.asarray(p, dtype=np.float64) - prev)
        prev = np.asarray(p, dtype=np.float64)
    joints = tuple(FingerJointSpec(IDENT.copy(), quat_from_axis_angle(Z, 1.0), off)
                   for off in offsets)
    return Finger("toy", Transform.identity(), joints)


class TestFingerObjective:
    def test_on_surface_gives_zero(self):
        shape = unit_capsule()
        pts = [np.array([0.1, 0.5, 0.0]), np.array([0.0, 0.5, 0.1]),
               np.array([-0.1, 0.5, 0.0])]
        hand = HandModel("left", (straight_toy_finger(pts),), Transform.identity())
        params = FingerParams.open_hand(hand)
        assert finger_objective(hand, 0, params, shape, penalty=10.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_penalized_sum_formula(self):
        # Signed distances (+0.01, +0.02, -0.01) with penalty 10 sum to 0.13.
        shape = unit_capsule()
        pts = [np.array([0.11, 0.5, 0.0]), np.array([0.12, 0.5, 0.0]),
               np.array([0.09, 0.5, 0.0])]
        hand = HandModel("left", (straight_toy_finger(pts),), Transform.identity())
        params = FingerParams.open_hand(hand)
        assert finger_objective(hand, 0, params, shape, penalty=10.0) == pytest.approx(
            0.13, abs=1e-12)

    def test_open_hand_matches_manual_fk(self):
        # Independent straight-line FK: open rotations are identity so points
        # are cumulative offsets from the knuckle.
        hand = default_hand_model("left")
        shape = default_grip_capsule(hand)
        params = FingerParams.open_hand(hand)
        for fi, finger in enumerate(hand.fingers):
            base_rot = finger.base_local.rotation
            pos = finger.base_local.translation.copy()
            expected = 0.0
            for spec in finger.joints:
                pos = pos + np.array(qrotate(base_rot, spec.offset))
                d = capsule_sdf(shape, pos)
                expected += abs(d) if d >= 0 else 10.0 * abs(d)
            got = finger_objective(hand, fi, params, shape, penalty=10.0)
            assert got == pytest.approx(expected, abs=1e-9)


def one_joint_toy() -> tuple[HandModel, CapsuleShape]:
    """Single 0.05 m segment swinging 0 to 90 degrees across a capsule.

    The capsule is placed so the swept arc crosses its surface exactly once
    (the arc ends inside), making the grid-search optimum unambiguous.
    """
    joint = FingerJointSpec(IDENT.copy(), quat_from_axis_angle(Z, math.pi / 2),
                            np.array([-0.05, 0.0, 0.0]))
    hand = HandModel("left", (Finger("toy", Transform.identity(), (joint,)),),
                     Transform.identity())
    shape = CapsuleShape(np.array([0.01, -0.055, -0.1]), np.array([0.01, -0.055, 0.1]), 0.02)
    return hand, shape


def grid_search_optimum(hand, shape, penalty=10.0, n=10_000) -> float:
    best_t, best_obj = 0.0, math.inf
    for t in np.linspace(0.0, 1.0, n):
        params = FingerParams([np.array([t])])
        obj = finger_objective(hand, 0, params, shape, penalty)
        if obj < best_obj:
            best_t, best_obj = t, obj
    return best_t


def random_grip_capsule(rng) -> CapsuleShape:
    """A capsule near the default left grip, placed at random."""
    return CapsuleShape(rng.normal(size=3) * 0.1 - [0.07, 0.05, 0],
                        rng.normal(size=3) * 0.1 - [0.07, 0.05, 0.1], 0.02)


def random_wrist_grip(rng, hand: HandModel, with_button: bool):
    """A random wrist, the hand's default grip capsule jittered and carried by
    it, and a button near the palm in world coordinates (or None)."""
    wrist = Transform(random_quat(rng), rng.normal(size=3))
    grip = default_grip_capsule(hand)
    shape = transform_capsule(
        CapsuleShape(grip.start + rng.normal(size=3) * 0.02,
                     grip.end + rng.normal(size=3) * 0.02, float(rng.uniform(0.01, 0.04))),
        wrist)
    button = (wrist.apply(hand.palm_anchor.translation + rng.normal(size=3) * 0.03)
              if with_button else None)
    return wrist, shape, button


def far_capsule() -> CapsuleShape:
    """A capsule far in the curl direction of `small_curl_hand`: full closure is optimal."""
    return CapsuleShape(np.array([0.05, -1.0, -0.05]), np.array([0.05, -1.0, 0.05]), 0.02)


class TestDescend:
    def test_toy_finger_matches_grid_search(self):
        hand, shape = one_joint_toy()
        t_star = grid_search_optimum(hand, shape)
        params, reports = descend(hand, shape)
        assert abs(float(params.values[0][0]) - t_star) < 1e-3

    def test_fixed_point_at_smooth_optimum(self):
        # The far capsule's optimum, fully closed, is a grid point: the seed
        # lands on it and no poll decreases the objective.
        hand = small_curl_hand()
        params, reports = descend(hand, far_capsule())
        assert params.values[0].tolist() == [1.0, 1.0, 1.0]
        assert reports[0].converged
        assert reports[0].history == [reports[0].objective] * reports[0].iterations

    def test_far_capsule_saturates_fully_closed(self):
        hand = small_curl_hand()
        params, reports = descend(hand, far_capsule(), DescentConfig(max_iters=2000))
        np.testing.assert_array_equal(params.values[0], np.ones(3))
        assert reports[0].objective > 0.5  # remains far away: non-zero terminal objective

    @given(seeds, st.integers(min_value=1, max_value=200))
    def test_history_never_rises(self, seed, max_iters):
        # Direct search accepts strict decreases only, and the grid seed is
        # never worse than the open hand, its first point.
        rng = np.random.default_rng(seed)
        hand = default_hand_model("left")
        shape = random_grip_capsule(rng)
        start = FingerParams.open_hand(hand)
        config = DescentConfig(max_iters=max_iters)
        _, reports = descend(hand, shape, config)
        for fi, report in enumerate(reports):
            history = report.history
            assert len(history) == report.iterations <= max_iters
            assert history[0] <= finger_objective(hand, fi, start, shape, config.penalty)
            assert all(b <= a for a, b in zip(history, history[1:]))
            assert history[-1] == report.objective

    def test_monotone_decrease_as_step_shrinks(self):
        # From the open hand on the default grip, the history never rises as
        # the poll step shrinks, and every finger ends strictly below its start.
        hand = default_hand_model("left")
        shape = default_grip_capsule(hand)
        start = FingerParams.open_hand(hand)
        config = DescentConfig()
        _, reports = descend(hand, shape, config)
        for fi, report in enumerate(reports):
            history = report.history
            assert all(b <= a for a, b in zip(history, history[1:]))
            assert history[-1] < finger_objective(hand, fi, start, shape, config.penalty)

    def test_monotone_at_clamped_edge(self):
        # Polls clamped at the unit interval's edge never raise the history:
        # the far capsule drives every factor to 1 and the history stays flat.
        hand = small_curl_hand()
        start = FingerParams.open_hand(hand)
        config = DescentConfig()
        params, reports = descend(hand, far_capsule(), config)
        rep = reports[0]
        np.testing.assert_array_equal(params.values[0], np.ones(3))
        assert rep.history[0] < finger_objective(hand, 0, start, far_capsule(), config.penalty)
        assert all(b <= a for a, b in zip(rep.history, rep.history[1:]))

    @given(seeds)
    def test_params_stay_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        hand = default_hand_model("left")
        shape = random_grip_capsule(rng)
        params, _ = descend(hand, shape, DescentConfig(max_iters=20))
        for v in params.values:
            assert np.all(v >= 0.0) and np.all(v <= 1.0)

    def test_default_grip_converges(self):
        # Every finger's step falls below the tolerance long before the
        # round limit, and the hand lands close to the capsule surface.
        hand = default_hand_model("left")
        config = DescentConfig()
        result = pose_hand_on_controller(hand, Transform.identity(),
                                         default_grip_capsule(hand), config)
        for report in result.reports:
            assert report.converged and report.iterations < config.max_iters, report
        assert sum(r.objective for r in result.reports) <= 0.02

    def test_overflowing_objective_keeps_every_point(self):
        # A capsule of radius 1e307 around the palm, beyond the input rule of
        # files, holds every joint point about 1e307 m deep, and the default
        # penalty takes every walk's running total to inf by its second joint.
        # No poll can win, the open hand (grid point 0) stays, each finger
        # still gets a pose per joint, and none reports convergence.
        hand = default_hand_model("left")
        center = hand.palm_anchor.state[4:]
        shape = CapsuleShape(center, tuple(c + a for c, a in zip(center, (0.0, 0.0, 0.1))),
                             1e307)
        result = pose_hand_on_controller(hand, Transform.identity(), shape, DescentConfig())
        for finger, t, poses, report in zip(hand.fingers, result.params.values, result.poses,
                                            result.reports):
            assert report.objective == math.inf and not report.converged
            assert t.tolist() == [0.0] * len(finger.joints)
            assert len(poses) == len(report.states) == len(finger.joints)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DescentConfig(max_iters=0)
        with pytest.raises(ValueError, match="integer"):
            DescentConfig(max_iters=2.5)
        with pytest.raises(ValueError, match="integer"):
            DescentConfig(max_iters=True)
        with pytest.raises(ValueError):
            DescentConfig(penalty=-1.0)

    def test_penalty_is_below_the_input_rule(self):
        # Below 1e150, no walk over the values of input files overflows.
        assert DescentConfig(penalty=math.nextafter(1e150, 0.0)).penalty < 1e150
        with pytest.raises(ValueError, match="below 1e150"):
            DescentConfig(penalty=1e150)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_config_rejected(self, value):
        with pytest.raises(ValueError, match="penalty"):
            DescentConfig(penalty=value)


class TestDescentOracle:
    @settings(max_examples=60)
    @given(seeds, st.sampled_from(["left", "right"]), st.sampled_from([1.0, 10.0, 30.0]),
           st.booleans(), st.integers(min_value=1, max_value=30))
    def test_bit_identical_to_full_evaluation(self, seed, side, penalty, with_button,
                                              max_iters):
        # The objective must equal the one-shot reference float for float, on
        # factors inside and outside [0, 1]; every report's objective is that
        # objective at the factors the search returns.
        rng = np.random.default_rng(seed)
        hand = default_hand_model(side)
        wrist, shape, button = random_wrist_grip(rng, hand, with_button)
        start = FingerParams([rng.uniform(-0.2, 1.2, size=len(f.joints)) for f in hand.fingers])
        config = DescentConfig(penalty=penalty, max_iters=max_iters)
        for fi, finger in enumerate(hand.fingers):
            tip_button = None if finger.name != "thumb" else button
            want = reference_finger_objective(reference_chain(finger, wrist), shape, penalty,
                                              tip_button, start.values[fi])
            assert finger_objective(hand, fi, start, shape, penalty, wrist, button) == want
        params, reports = descend(hand, shape, config, wrist, button)
        for fi, report in enumerate(reports):
            assert report.objective == finger_objective(hand, fi, params, shape, penalty, wrist,
                                                        button)

    @settings(max_examples=40)
    @given(seeds, st.sampled_from(["left", "right"]), st.floats(min_value=1.0, max_value=30.0),
           st.booleans(), st.lists(st.integers(min_value=1, max_value=4), min_size=5,
                                   max_size=5), st.integers(min_value=1, max_value=200))
    @example(0, "left", 10.0, True, [3, 3, 3, 3, 3], 200)
    @example(1, "right", 1.0, False, [3, 3, 3, 3, 3], 200)
    @example(2, "left", 30.0, True, [2, 1, 4, 1, 2], 200)
    @example(3, "right", 5.0, False, [4, 2, 2, 1, 3], 3)
    def test_search_matches_scalar_reference(self, seed, side, penalty, with_button,
                                             joint_counts, max_iters):
        # The branch-and-bound seed and the resumed polls, which skip trials
        # known to lose, against a scalar search that evaluates every grid
        # point and every poll from the base: same factors, rounds,
        # objectives and histories, byte for byte. Mixed joint counts and a
        # thumb's button vary how far the seed's bound prunes.
        rng = np.random.default_rng(seed)
        default = default_hand_model(side)
        hand = HandModel(side, tuple(Finger(f.name, f.base_local, (f.joints * 2)[:n])
                                     for f, n in zip(default.fingers, joint_counts)),
                         default.palm_anchor)
        wrist, shape, button = random_wrist_grip(rng, hand, with_button)
        config = DescentConfig(penalty=penalty, max_iters=max_iters)
        params, reports = descend(hand, shape, config, wrist, button)
        for fi, (finger, report) in enumerate(zip(hand.fingers, reports)):
            tip_button = None if finger.name != "thumb" else button
            t, iterations, objective, converged, history = reference_compass_search(
                reference_chain(finger, wrist), shape, penalty, tip_button, max_iters)
            assert params.values[fi].tobytes() == np.array(t).tobytes()
            assert (report.iterations, report.converged) == (iterations, converged)
            assert np.float64(report.objective).tobytes() == np.float64(objective).tobytes()
            assert np.array(report.history).tobytes() == np.array(history).tobytes()


class TestGridSeed:
    """The branch-and-bound seed against a scalar scan of the whole grid in
    `itertools.product` order."""

    @settings(max_examples=25)
    @given(seeds, st.sampled_from(["left", "right"]), st.floats(min_value=1.0, max_value=30.0),
           st.booleans(), st.integers(min_value=1, max_value=4), st.booleans())
    @example(0, "left", 10.0, True, 4, True)
    @example(1, "right", 10.0, False, 3, True)
    def test_bit_identical_to_scalar_scan(self, seed, side, penalty, with_button, n_joints,
                                          far):
        # A finger of n_joints joints, built from the default hand's own; with
        # a button it is the thumb. Its capsule is the jittered grip or, with
        # `far`, `far_capsule`, which lies a metre or so from the wrists of
        # the two examples: there every partial total is below every full
        # one, so nothing prunes and the seed walks the whole tree.
        rng = np.random.default_rng(seed)
        default = default_hand_model(side)
        source = default.fingers[0 if with_button else 1]
        finger = Finger(source.name, source.base_local, (source.joints * 2)[:n_joints])
        hand = HandModel(side, (finger,), default.palm_anchor)
        wrist, shape, button = random_wrist_grip(rng, hand, with_button)
        if far:
            shape = far_capsule()
        chain = fingers._FingerChain(finger, wrist, shape, penalty, button)
        _, want_t, want_value = reference_grid_seed(reference_chain(finger, wrist), shape,
                                                    penalty, button)
        t, rotations, states, value = chain.seed()
        assert (t, value) == (want_t, want_value)
        assert rotations == chain.rotations(t)
        fresh = []
        assert chain.walk(fresh, 0, rotations[0], rotations) == value
        assert states == fresh

    def test_the_first_grid_point_wins_a_tie(self):
        # A joint with open == closed turns nowhere. With both joints still,
        # every grid value ties and the first point, the open hand, wins;
        # with joint 0 free, the grid ties in runs of seven over joint 1, and
        # the best run's first point (joint 1 at 0) wins.
        still = FingerJointSpec(IDENT.copy(), IDENT.copy(), np.array([-0.05, 0.0, 0.0]))
        free = FingerJointSpec(IDENT.copy(), quat_from_axis_angle(Z, math.radians(60)),
                               np.array([-0.05, 0.0, 0.0]))

        def seeded(joints):
            finger = Finger("toy", Transform.identity(), joints)
            chain = fingers._FingerChain(finger, None, far_capsule(), 10.0)
            _, want_t, want_value = reference_grid_seed(
                reference_chain(finger, None), far_capsule(), 10.0, None)
            t, _, _, value = chain.seed()
            assert (t, value) == (want_t, want_value)
            return t

        assert seeded((still, still)) == [0.0, 0.0]
        assert seeded((free, still)) == [1.0, 0.0]


def random_chain(rng, n_joints: int, with_button: bool, penalty: float):
    """A chain of n_joints random joints under a random wrist, against a
    random grip capsule."""
    joints = tuple(FingerJointSpec(random_quat(rng), random_quat(rng),
                                   rng.normal(size=3) * 0.04) for _ in range(n_joints))
    finger = Finger("thumb" if with_button else "index",
                    Transform(random_quat(rng), rng.normal(size=3) * 0.1), joints)
    button = tuple((rng.normal(size=3) * 0.1).tolist()) if with_button else None
    return fingers._FingerChain(finger, Transform(random_quat(rng), rng.normal(size=3)),
                                random_grip_capsule(rng), penalty, button)


def full_walk(chain, rotations: list) -> tuple[float, list]:
    """The walk from the base with every joint turned by `rotations`: (value, states)."""
    states = []
    return chain.walk(states, 0, rotations[0], rotations), states


class TestResumedWalk:
    """`_FingerChain.walk` resumed at joint k with a new rotation, as a poll
    or the seed calls it, against a walk from the base."""

    @settings(max_examples=80)
    @given(seeds, st.integers(min_value=1, max_value=4), st.booleans(),
           st.floats(min_value=1.0, max_value=30.0), st.integers(min_value=0, max_value=3),
           st.floats(min_value=-0.2, max_value=1.2), st.booleans())
    @example(0, 3, False, 10.0, 0, 0.5, False)
    @example(1, 4, True, 10.0, 3, 1.0, False)
    @example(2, 3, True, 10.0, 1, 0.5, True)
    @example(3, 4, True, 10.0, 3, 1.0, True)
    def test_bit_identical_to_a_fresh_walk(self, seed, n_joints, with_button, penalty, k,
                                           trial, one_joint):
        # The current point's states and rotations stay as they are; the
        # fresh walk turns joint k by q in a copy of the rotations. With
        # `one_joint` the walk ends after joint k, as the seed's walks do:
        # it holds the fresh walk's first k + 1 states and, before the tip,
        # returns state k's total with no button term. At the tip it is the
        # full walk.
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, n_joints, with_button, penalty)
        rotations = chain.rotations(rng.uniform(0.0, 1.0, size=n_joints))
        k = min(k, n_joints - 1)
        _, states = full_walk(chain, rotations)
        kept_rotations, kept_states = rotations.copy(), states.copy()
        q = fingers.slerp_at(chain.slerps[k], trial)
        probe_states = states[:k]
        if one_joint:
            value = chain.walk(probe_states, k, q, (), end=k + 1)
        else:
            value = chain.walk(probe_states, k, q, rotations)
        turned = rotations.copy()
        turned[k] = q
        want, want_states = full_walk(chain, turned)
        if one_joint and k + 1 < n_joints:
            want, want_states = want_states[k][-1], want_states[:k + 1]
        assert np.float64(value).tobytes() == np.float64(want).tobytes()
        assert probe_states == want_states
        assert (rotations, states) == (kept_rotations, kept_states)


class TestBoundedWalk:
    """`_FingerChain.walk` with a bound, as the polls call it, against the walk
    without one."""

    @settings(max_examples=80)
    @given(seeds, st.integers(min_value=1, max_value=4), st.booleans(),
           st.floats(min_value=1.0, max_value=30.0), st.integers(min_value=0, max_value=4),
           st.sampled_from(["full", "below_full", "above_full", "partial", "above_partial",
                            "scaled"]),
           st.floats(min_value=0.0, max_value=2.0))
    @example(0, 3, False, 10.0, 0, "full", 1.0)
    @example(1, 4, True, 10.0, 2, "full", 1.0)
    def test_returns_the_full_walk_below_the_bound(self, seed, n_joints, with_button, penalty,
                                                   k, bound_kind, scale):
        # A random chain of n_joints joints, resumed after joint k from the
        # full walk's states. The bound is the full value or a running total
        # of the full walk, one of them plus or minus an ulp, or a multiple of
        # the full value. At k = n_joints the walk resumes after the tip: no
        # joint turns, and q is unused.
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, n_joints, with_button, penalty)
        rotations = chain.rotations(rng.uniform(0.0, 1.0, size=n_joints))
        full, full_states = full_walk(chain, rotations)
        k = min(k, n_joints)
        partial = full_states[int(rng.integers(n_joints))][-1]
        bound = {"full": full, "below_full": math.nextafter(full, -math.inf),
                 "above_full": math.nextafter(full, math.inf), "partial": partial,
                 "above_partial": math.nextafter(partial, math.inf),
                 "scaled": full * scale}[bound_kind]
        states = full_states[:k]
        q = rotations[k] if k < n_joints else None
        value = chain.walk(states, k, q, rotations, bound)
        if full <= bound:
            assert np.float64(value).tobytes() == np.float64(full).tobytes()
            assert states == full_states
        else:
            assert value > bound
            assert k <= len(states) <= n_joints
            assert states == full_states[:len(states)]
            if len(states) < n_joints:
                # Stopped inside the chain, at joint len(states), whose state
                # holds the returned total but was not appended.
                assert value == full_states[len(states)][-1]

    def test_stops_before_the_tip(self):
        # Every point of the curled toy finger is about 1 m from the far
        # capsule, so a bound an ulp below the first point's total is
        # exceeded at once.
        chain = fingers._FingerChain(small_curl_hand().fingers[0], None, far_capsule(), 10.0)
        rotations = chain.rotations([0.5, 0.5, 0.5])
        full, full_states = full_walk(chain, rotations)
        first = full_states[0][-1]
        states = []
        bound = math.nextafter(first, -math.inf)
        assert chain.walk(states, 0, rotations[0], rotations, bound) == first < full
        assert states == []


def small_curl_hand() -> HandModel:
    """Three-joint finger with 25-degree curls: closing always descends."""
    curl = quat_from_axis_angle(Z, math.radians(25))
    joints = tuple(FingerJointSpec(IDENT.copy(), curl, np.array([-0.05, 0.0, 0.0]))
                   for _ in range(3))
    return HandModel("left", (Finger("toy", Transform.identity(), joints),),
                     Transform.identity())


class TestGrip:
    def test_standard_grip_contact_quality(self):
        hand = default_hand_model("left")
        result = pose_hand_on_controller(hand, Transform.identity(),
                                         default_grip_capsule(hand))
        for finger, distances in zip(hand.fingers, result.joint_distances):
            for d in distances:
                assert abs(d) < 0.005, f"{finger.name}: {d}"
                assert d > -0.002, f"{finger.name} penetrates: {d}"

    @settings(max_examples=20)
    @given(seeds, st.sampled_from(["left", "right"]), st.booleans())
    def test_poses_are_a_fresh_walk_of_the_returned_factors(self, seed, side, with_button):
        # The poses and distances come from the walk states the search kept
        # for its last accepted point; states of a rejected probe, or of an
        # earlier point, would show here as other bytes.
        rng = np.random.default_rng(seed)
        hand = default_hand_model(side)
        wrist, shape, button = random_wrist_grip(rng, hand, with_button)
        result = pose_hand_on_controller(hand, wrist, shape, button=button)
        for finger, t, poses, distances in zip(hand.fingers, result.params.values,
                                               result.poses, result.joint_distances):
            chain = fingers._FingerChain(finger, wrist, shape, 0.0)
            _, states = full_walk(chain, chain.rotations(t))
            assert [np.concatenate([p.rotation, p.translation]).tobytes() for p in poses] \
                == [np.array(state[:7]).tobytes() for state in states]
            assert distances == [capsule_sdf(shape, state[4:7]) for state in states]

    def test_grip_quality_survives_rigid_motion(self):
        hand = default_hand_model("left")
        shape = default_grip_capsule(hand)
        g = Transform(quat_from_axis_angle([0.3, 1.0, 0.2], 1.1), np.array([0.4, 1.2, -0.3]))
        still = pose_hand_on_controller(hand, Transform.identity(), shape)
        moved = pose_hand_on_controller(hand, g, transform_capsule(shape, g))
        for distances in moved.joint_distances:
            for d in distances:
                assert abs(d) < 0.005 and d > -0.002
        for a, b in zip(moved.params.values, still.params.values):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_mirrored_hand_gives_mirrored_parameters(self):
        left = default_hand_model("left")
        right = default_hand_model("right")
        rl = pose_hand_on_controller(left, Transform.identity(), default_grip_capsule(left))
        rr = pose_hand_on_controller(right, Transform.identity(), default_grip_capsule(right))
        for a, b in zip(rl.params.values, rr.params.values):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_button_target_pulls_thumb_tip(self):
        hand = default_hand_model("left")
        shape = default_grip_capsule(hand)
        button = np.array([-0.098, -0.025, -0.080])  # within the thumb's arc
        plain = pose_hand_on_controller(hand, Transform.identity(), shape)
        aimed = pose_hand_on_controller(hand, Transform.identity(), shape, button=button)

        def tip_dist(result):
            return float(np.linalg.norm(result.poses[0][-1].translation - button))

        assert tip_dist(aimed) < tip_dist(plain) - 0.002


class TestHandFiles:
    def test_hand_round_trip(self, tmp_path):
        hand = default_hand_model("left")
        path = tmp_path / "hand.json"
        save_hand_file(hand, path)
        loaded = load_hand_file(path)
        assert loaded.side == hand.side
        assert [f.name for f in loaded.fingers] == [f.name for f in hand.fingers]
        for fa, fb in zip(loaded.fingers, hand.fingers):
            np.testing.assert_allclose(fa.base_local.translation,
                                       fb.base_local.translation, atol=1e-15)
            for ja, jb in zip(fa.joints, fb.joints):
                np.testing.assert_allclose(ja.offset, jb.offset, atol=1e-15)

    def test_controller_round_trip_with_button(self, tmp_path):
        shape = unit_capsule()
        path = tmp_path / "controller.json"
        save_controller_file(shape, path, button=[0.0, 1.0, 0.1])
        loaded, button = load_controller_file(path)
        np.testing.assert_array_equal(loaded.start, shape.start)
        np.testing.assert_array_equal(loaded.end, shape.end)
        assert loaded.radius == shape.radius
        np.testing.assert_array_equal(button, [0.0, 1.0, 0.1])

    def test_malformed_hand_rejected(self):
        with pytest.raises(ValueError):
            hand_from_document({"side": "left"})

    def test_mirror_round_trips(self):
        hand = default_hand_model("left")
        back = mirror_hand(mirror_hand(hand))
        for fa, fb in zip(back.fingers, hand.fingers):
            np.testing.assert_array_equal(fa.base_local.translation,
                                          fb.base_local.translation)
            for ja, jb in zip(fa.joints, fb.joints):
                np.testing.assert_array_equal(ja.closed_rotation, jb.closed_rotation)

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from avatarfit import fingerchain, fingers
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
from avatarfit.math3d import IDENTITY, apply_state, qrotate, quat_from_axis_angle

from conftest import random_quat, random_unit, transform
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
        g = transform(random_quat(rng), rng.normal(size=3))
        moved = transform_capsule(shape, g)
        assert capsule_sdf(moved, apply_state(g, p)) == pytest.approx(
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
    return Finger("toy", IDENTITY, joints)


class TestFingerObjective:
    def test_on_surface_gives_zero(self):
        shape = unit_capsule()
        pts = [np.array([0.1, 0.5, 0.0]), np.array([0.0, 0.5, 0.1]),
               np.array([-0.1, 0.5, 0.0])]
        hand = HandModel("left", (straight_toy_finger(pts),), IDENTITY)
        params = FingerParams.open_hand(hand)
        assert finger_objective(hand, 0, params, shape, penalty=10.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_penalized_sum_formula(self):
        # Signed distances (+0.01, +0.02, -0.01) with penalty 10 sum to 0.13.
        shape = unit_capsule()
        pts = [np.array([0.11, 0.5, 0.0]), np.array([0.12, 0.5, 0.0]),
               np.array([0.09, 0.5, 0.0])]
        hand = HandModel("left", (straight_toy_finger(pts),), IDENTITY)
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
            base_rot = finger.base_local[:4]
            pos = np.array(finger.base_local[4:])
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
    hand = HandModel("left", (Finger("toy", IDENTITY, (joint,)),),
                     IDENTITY)
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
    wrist = transform(random_quat(rng), rng.normal(size=3))
    grip = default_grip_capsule(hand)
    shape = transform_capsule(
        CapsuleShape(grip.start + rng.normal(size=3) * 0.02,
                     grip.end + rng.normal(size=3) * 0.02, float(rng.uniform(0.01, 0.04))),
        wrist)
    button = (apply_state(wrist, np.array(hand.palm_anchor[4:]) + rng.normal(size=3) * 0.03)
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
        assert list(params.values[0]) == [1.0, 1.0, 1.0]
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
            assert all(0.0 <= x <= 1.0 for x in v)

    def test_default_grip_converges(self):
        # Every finger's step falls below the tolerance long before the
        # round limit, and the hand lands close to the capsule surface.
        hand = default_hand_model("left")
        config = DescentConfig()
        result = pose_hand_on_controller(hand, IDENTITY,
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
        center = hand.palm_anchor[4:]
        shape = CapsuleShape(center, tuple(c + a for c, a in zip(center, (0.0, 0.0, 0.1))),
                             1e307)
        result = pose_hand_on_controller(hand, IDENTITY, shape, DescentConfig())
        for finger, t, poses, report in zip(hand.fingers, result.params.values, result.poses,
                                            result.reports):
            assert report.objective == math.inf and not report.converged
            assert list(t) == [0.0] * len(finger.joints)
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
                                   max_size=5), st.integers(min_value=1, max_value=200),
           st.booleans())
    @example(0, "left", 10.0, True, [3, 3, 3, 3, 3], 200, False)
    @example(1, "right", 1.0, False, [3, 3, 3, 3, 3], 200, False)
    @example(2, "left", 30.0, True, [2, 1, 4, 1, 2], 200, False)
    @example(3, "right", 5.0, False, [4, 2, 2, 1, 3], 3, False)
    @example(4, "left", 10.0, True, [4, 4, 1, 1, 1], 200, True)
    def test_search_matches_scalar_reference(self, seed, side, penalty, with_button,
                                             joint_counts, max_iters, far):
        # The branch-and-bound seed and the resumed polls, which skip trials
        # known to lose, against a scalar search that evaluates every grid
        # point and every poll from the base: same factors, rounds,
        # objectives and histories, byte for byte. Mixed joint counts and a
        # thumb's button vary how far the seed's bound prunes. With `far`,
        # the capsule is `far_capsule`, out of the fingers' reach, where the
        # seed visits the whole tree and the polls walk farthest.
        rng = np.random.default_rng(seed)
        default = default_hand_model(side)
        hand = HandModel(side, tuple(Finger(f.name, f.base_local, (f.joints * 2)[:n])
                                     for f, n in zip(default.fingers, joint_counts)),
                         default.palm_anchor)
        wrist, shape, button = random_wrist_grip(rng, hand, with_button)
        if far:
            shape = far_capsule()
        config = DescentConfig(penalty=penalty, max_iters=max_iters)
        params, reports = descend(hand, shape, config, wrist, button)
        for fi, (finger, report) in enumerate(zip(hand.fingers, reports)):
            tip_button = None if finger.name != "thumb" else button
            t, iterations, objective, converged, history = reference_compass_search(
                reference_chain(finger, wrist), shape, penalty, tip_button, max_iters)
            assert np.array(params.values[fi]).tobytes() == np.array(t).tobytes()
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
        assert chain.evaluate(rotations) == (value, states)

    def test_the_first_grid_point_wins_a_tie(self):
        # A joint with open == closed turns nowhere. With both joints still,
        # every grid value ties and the first point, the open hand, wins;
        # with joint 0 free, the grid ties in runs of seven over joint 1, and
        # the best run's first point (joint 1 at 0) wins.
        still = FingerJointSpec(IDENT.copy(), IDENT.copy(), np.array([-0.05, 0.0, 0.0]))
        free = FingerJointSpec(IDENT.copy(), quat_from_axis_angle(Z, math.radians(60)),
                               np.array([-0.05, 0.0, 0.0]))

        def seeded(joints):
            finger = Finger("toy", IDENTITY, joints)
            chain = fingers._FingerChain(finger, None, far_capsule(), 10.0)
            _, want_t, want_value = reference_grid_seed(
                reference_chain(finger, None), far_capsule(), 10.0, None)
            t, _, _, value = chain.seed()
            assert (t, value) == (want_t, want_value)
            return t

        assert seeded((still, still)) == [0.0, 0.0]
        assert seeded((free, still)) == [1.0, 0.0]


def joint_specs() -> list:
    """The default hands' specs, which hold tuples, and a random one holding
    NumPy arrays, as the tests build them."""
    rng = np.random.default_rng(0)
    specs = [j for side in ("left", "right") for f in default_hand_model(side).fingers
             for j in f.joints]
    specs.append(FingerJointSpec(random_quat(rng), random_quat(rng), rng.normal(size=3)))
    return specs


class TestJointConstants:
    """`FingerJointSpec.basis` and `FingerJointSpec.grid`, built on first use and kept."""

    def test_equal_to_slerp_basis_and_built_once(self):
        for spec in joint_specs():
            basis = fingers.slerp_basis(spec.open_rotation, spec.closed_rotation)
            assert np.array(spec.basis).tobytes() == np.array(basis).tobytes()
            assert spec.basis is spec.basis

    def test_grid_is_the_slerps_of_the_grid_and_built_once(self):
        for spec in joint_specs():
            want = [fingers.slerp_at(spec.basis, g) for g in fingerchain.GRID]
            assert len(spec.grid) == fingerchain.GRID_POINTS
            assert np.array(spec.grid).tobytes() == np.array(want).tobytes()
            assert spec.grid is spec.grid

    def test_grid_is_shared_by_bitwise_equal_bases_only(self):
        # The default hand's joints share one basis, so one grid tuple; a joint
        # whose open rotation differs only in the sign of a zero compares
        # equal but gets its own.
        left = default_hand_model("left")
        assert len({id(j.grid) for f in left.fingers for j in f.joints}) == 1
        joint = left.fingers[1].joints[0]
        signed = FingerJointSpec((1.0, -0.0, 0.0, 0.0), joint.closed_rotation, joint.offset)
        assert signed.basis == joint.basis and signed.grid is not joint.grid

    def test_reading_it_changes_no_comparison_or_document(self):
        hand, fresh = default_hand_model("right"), default_hand_model("right")
        document = hand_to_document(hand)
        for f in hand.fingers:
            for j in f.joints:
                assert j.basis and j.grid
        assert hand == fresh
        assert hand_to_document(hand) == document == hand_to_document(fresh)

    def test_a_second_grip_builds_no_basis(self, monkeypatch):
        # The first grip builds each joint's basis and grid rotations. The
        # second calls `slerp_basis` no more and `slerp_at` only for the
        # polls: 354 times.
        hand = default_hand_model("left")
        shape = default_grip_capsule(hand)
        first = pose_hand_on_controller(hand, IDENTITY, shape)
        calls = {"slerp_basis": 0, "slerp_at": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def call(*args):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(module, name, call)

        counted(fingers, "slerp_basis")
        counted(fingers, "slerp_at")
        counted(fingerchain, "slerp_at")
        second = pose_hand_on_controller(hand, IDENTITY, shape)
        assert calls == {"slerp_basis": 0, "slerp_at": 354}
        assert second.params.values == first.params.values


def random_chain(rng, n_joints: int, with_button: bool, penalty: float, far: bool = False):
    """A chain of n_joints random joints under a random wrist, against a
    random grip capsule or, with `far`, `far_capsule`."""
    joints = tuple(FingerJointSpec(random_quat(rng), random_quat(rng),
                                   rng.normal(size=3) * 0.04) for _ in range(n_joints))
    finger = Finger("thumb" if with_button else "index",
                    transform(random_quat(rng), rng.normal(size=3) * 0.1), joints)
    button = tuple((rng.normal(size=3) * 0.1).tolist()) if with_button else None
    return fingers._FingerChain(finger, transform(random_quat(rng), rng.normal(size=3)),
                                far_capsule() if far else random_grip_capsule(rng), penalty,
                                button)


class TestSeedChildren:
    """`_FingerChain._children`, the seed's one pass over the grid children of
    a prefix, against walks from the base."""

    @settings(max_examples=80)
    @given(seeds, st.integers(min_value=1, max_value=4), st.booleans(),
           st.floats(min_value=1.0, max_value=30.0), st.integers(min_value=0, max_value=3),
           st.booleans(), st.sampled_from(["none", "child", "below_child", "above_child"]))
    @example(0, 3, False, 10.0, 0, False, "none")
    @example(1, 4, True, 10.0, 3, False, "child")
    @example(2, 3, True, 10.0, 2, True, "below_child")
    @example(3, 4, True, 10.0, 1, True, "above_child")
    def test_bit_identical_to_fresh_walks(self, seed, n_joints, with_button, penalty, j, far,
                                          bound_kind):
        # A random prefix of grid points before joint j, from a full walk's
        # states. Child i's state is the state at joint j of a full walk with
        # joint j at grid point i, and its total is that state's running
        # total, plus the button term at the thumb's tip (there it is the
        # walk's value). The bound is infinite, or one child's running total,
        # or an ulp below or above it; exactly the children whose running
        # total exceeds it are dropped.
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, n_joints, with_button, penalty, far)
        j = min(j, n_joints - 1)
        grids = [[fingers.slerp_at(basis, g) for g in fingerchain.GRID] for basis in chain.slerps]
        index = tuple(int(i) for i in rng.integers(fingers.GRID_POINTS, size=n_joints))
        rotations = [grid[i] for grid, i in zip(grids, index)]
        _, full_states = chain.evaluate(rotations)
        states = full_states[:j]
        want = []
        for i, q in enumerate(grids[j]):
            value, child_states = chain.evaluate([*rotations[:j], q, *rotations[j + 1:]])
            state = child_states[j]
            want.append((value if j + 1 == n_joints else state[-1], (*index[:j], i), state))
        running = want[int(rng.integers(len(want)))][2][-1]
        bound = {"none": math.inf, "child": running,
                 "below_child": math.nextafter(running, -math.inf),
                 "above_child": math.nextafter(running, math.inf)}[bound_kind]
        want = [child for child in want if child[2][-1] <= bound]
        children = chain._children(grids[j], states, index[:j], bound)
        assert [leaf for _, leaf, _ in children] == [leaf for _, leaf, _ in want]
        for (total, _, state), (want_total, _, want_state) in zip(children, want):
            assert np.array([total, *state]).tobytes() == \
                np.array([want_total, *want_state]).tobytes()
        assert states == full_states[:j]


def mirror_search(chain, max_iters: int) -> tuple[list, list, list]:
    """`_FingerChain.search`'s rounds with every poll a fresh `evaluate` from
    the base: (factors, history, polls). A poll is (k, trial, joint steps):
    the joints that a poll bounded by the current value steps, up to the
    first whose running total exceeds it, plus one for the button term of a
    thumb's poll that reaches the tip."""
    t, rotations, states, value = chain.seed()
    n = len(t)
    step = 0.5 / (fingers.GRID_POINTS - 1)
    lost = [{} for _ in t]
    history, polls = [], []
    while len(history) < max_iters:
        decreased = False
        for k in range(n):
            for trial in (min(t[k] + step, 1.0), max(t[k] - step, 0.0)):
                if trial == t[k] or lost[k].get(trial, -math.inf) >= value:
                    continue
                turned = [*rotations[:k], fingers.slerp_at(chain.slerps[k], trial),
                          *rotations[k + 1:]]
                candidate, probe_states = chain.evaluate(turned)
                over = [j for j in range(k, n) if probe_states[j][7] > value]
                polls.append((k, trial, over[0] + 1 - k if over else
                              n - k + (chain.button is not None)))
                if candidate < value:
                    lost[k][t[k]] = states[k][7]
                    t[k], rotations, states = trial, turned, probe_states
                    value, decreased = candidate, True
                    for later in lost[k + 1:]:
                        later.clear()
                    break
                lost[k][trial] = probe_states[k][7]
        history.append(value)
        if not decreased:
            step *= 0.5
            if step < fingers.STEP_TOL:
                break
    return t, history, polls


def counted_polls(chain, max_iters: int) -> list:
    """(trial, joint steps) of each poll of `chain.search`. A poll computes
    one `slerp_at`, then one root per joint it steps and one for a button
    term; the seed's roots come before the first poll."""
    polls = []

    def slerp_at(basis, trial):
        polls.append([trial, 0])
        return fingers.slerp_at(basis, trial)

    def sqrt(x):
        if polls:
            polls[-1][1] += 1
        return math.sqrt(x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fingerchain, "slerp_at", slerp_at)
        patch.setattr(fingerchain, "math", SimpleNamespace(sqrt=sqrt, inf=math.inf,
                                                           isfinite=math.isfinite))
        chain.search(max_iters)
    return [tuple(poll) for poll in polls]


class TestPolls:
    """`_FingerChain.search`'s polls, resumed after the joints they keep and
    bounded by the current value, against `mirror_search`."""

    @settings(max_examples=60)
    @given(seeds, st.integers(min_value=1, max_value=4), st.booleans(),
           st.floats(min_value=1.0, max_value=30.0), st.booleans(),
           st.integers(min_value=1, max_value=60))
    @example(0, 3, False, 10.0, False, 60)
    @example(1, 4, True, 10.0, True, 60)
    def test_resumed_polls_match_fresh_evaluations(self, seed, n_joints, with_button, penalty,
                                                   far, max_iters):
        # A resumed poll's value is bit-identical to a fresh evaluation's, so
        # the search takes the mirror's steps; its states are the fresh ones
        # at the returned factors.
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, n_joints, with_button, penalty, far)
        want_t, want_history, _ = mirror_search(chain, max_iters)
        t, value, _, history, states = chain.search(max_iters)
        assert np.array(t).tobytes() == np.array(want_t).tobytes()
        assert np.array(history).tobytes() == np.array(want_history).tobytes()
        assert chain.evaluate(chain.rotations(t)) == (value, states)

    @settings(max_examples=60)
    @given(seeds, st.integers(min_value=1, max_value=4), st.booleans(),
           st.floats(min_value=1.0, max_value=30.0), st.booleans(),
           st.integers(min_value=1, max_value=60))
    @example(0, 3, False, 10.0, False, 60)
    @example(1, 4, True, 10.0, True, 60)
    def test_a_poll_stops_once_its_total_exceeds_the_value(self, seed, n_joints, with_button,
                                                           penalty, far, max_iters):
        # The search tries the mirror's trials in order, and each poll steps
        # exactly the joints up to the first running total above the value.
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, n_joints, with_button, penalty, far)
        _, _, want = mirror_search(chain, max_iters)
        assert counted_polls(chain, max_iters) == [(trial, steps) for _, trial, steps in want]

    def test_polls_stop_inside_the_chain(self):
        # On the default grip the objective is a few mm, and many polls of
        # the index finger's first joints exceed it before the tip.
        hand = default_hand_model("left")
        chain = fingers._FingerChain(hand.fingers[1], None, default_grip_capsule(hand), 10.0)
        _, _, want = mirror_search(chain, 200)
        assert any(steps < 3 - k for k, _, steps in want)
        assert counted_polls(chain, 200) == [(trial, steps) for _, trial, steps in want]

    def test_a_tie_is_no_excess(self):
        # A thumb whose joints turn nowhere, with the button at its tip: every
        # poll's running total meets the current value at the tip without
        # exceeding it, so the poll goes on to add the button's zero term.
        still = FingerJointSpec(IDENT.copy(), IDENT.copy(), np.array([-0.05, 0.0, 0.0]))
        finger = Finger("thumb", IDENTITY, (still, still))
        _, states = fingers._FingerChain(finger, None, far_capsule(), 10.0).evaluate(
            [(1.0, 0.0, 0.0, 0.0)] * 2)
        chain = fingers._FingerChain(finger, None, far_capsule(), 10.0, states[-1][4:7])
        _, _, want = mirror_search(chain, 200)
        assert want and all(steps == 3 - k for k, _, steps in want)
        assert counted_polls(chain, 200) == [(trial, steps) for _, trial, steps in want]


def small_curl_hand() -> HandModel:
    """Three-joint finger with 25-degree curls: closing always descends."""
    curl = quat_from_axis_angle(Z, math.radians(25))
    joints = tuple(FingerJointSpec(IDENT.copy(), curl, np.array([-0.05, 0.0, 0.0]))
                   for _ in range(3))
    return HandModel("left", (Finger("toy", IDENTITY, joints),),
                     IDENTITY)


class TestGrip:
    def test_standard_grip_contact_quality(self):
        hand = default_hand_model("left")
        result = pose_hand_on_controller(hand, IDENTITY,
                                         default_grip_capsule(hand))
        for finger, distances in zip(hand.fingers, result.joint_distances):
            for d in distances:
                assert abs(d) < 0.005, f"{finger.name}: {d}"
                assert d > -0.002, f"{finger.name} penetrates: {d}"

    def test_factors_are_tuples_of_floats(self):
        hand = default_hand_model("left")
        for params in (FingerParams.open_hand(hand),
                       pose_hand_on_controller(hand, IDENTITY,
                                               default_grip_capsule(hand)).params):
            assert [len(t) for t in params.values] == [len(f.joints) for f in hand.fingers]
            for t in params.values:
                assert type(t) is tuple and all(type(v) is float for v in t)

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
            _, states = chain.evaluate(chain.rotations(t))
            assert [np.concatenate([p[:4], np.array(p[4:])]).tobytes() for p in poses] \
                == [np.array(state[:7]).tobytes() for state in states]
            assert distances == [capsule_sdf(shape, state[4:7]) for state in states]

    def test_grip_quality_survives_rigid_motion(self):
        hand = default_hand_model("left")
        shape = default_grip_capsule(hand)
        g = transform(quat_from_axis_angle([0.3, 1.0, 0.2], 1.1), np.array([0.4, 1.2, -0.3]))
        still = pose_hand_on_controller(hand, IDENTITY, shape)
        moved = pose_hand_on_controller(hand, g, transform_capsule(shape, g))
        for distances in moved.joint_distances:
            for d in distances:
                assert abs(d) < 0.005 and d > -0.002
        for a, b in zip(moved.params.values, still.params.values):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_mirrored_hand_gives_mirrored_parameters(self):
        left = default_hand_model("left")
        right = default_hand_model("right")
        rl = pose_hand_on_controller(left, IDENTITY, default_grip_capsule(left))
        rr = pose_hand_on_controller(right, IDENTITY, default_grip_capsule(right))
        for a, b in zip(rl.params.values, rr.params.values):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_button_target_pulls_thumb_tip(self):
        hand = default_hand_model("left")
        shape = default_grip_capsule(hand)
        button = np.array([-0.098, -0.025, -0.080])  # within the thumb's arc
        plain = pose_hand_on_controller(hand, IDENTITY, shape)
        aimed = pose_hand_on_controller(hand, IDENTITY, shape, button=button)

        def tip_dist(result):
            return float(np.linalg.norm(np.array(result.poses[0][-1][4:]) - button))

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
            np.testing.assert_allclose(np.array(fa.base_local[4:]),
                                       np.array(fb.base_local[4:]), atol=1e-15)
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
            np.testing.assert_array_equal(np.array(fa.base_local[4:]),
                                          np.array(fb.base_local[4:]))
            for ja, jb in zip(fa.joints, fb.joints):
                np.testing.assert_array_equal(ja.closed_rotation, jb.closed_rotation)

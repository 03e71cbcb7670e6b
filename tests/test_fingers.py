import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    finger_points,
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
from avatarfit.math3d import Transform, quat_from_axis_angle, quat_rotate

from conftest import random_quat, random_unit
from oracles import sample_capsule_surface

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
        seg = shape.start + np.linspace(0, 1, 2000)[:, None] * (shape.end - shape.start)
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
                pos = pos + quat_rotate(base_rot, spec.offset)
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


class TestDescend:
    def test_toy_finger_matches_grid_search(self):
        hand, shape = one_joint_toy()
        t_star = grid_search_optimum(hand, shape)
        config = DescentConfig(eta=0.01, max_iters=2000, converge_tol=1e-12)
        params, reports = descend(hand, FingerParams.open_hand(hand), shape, config)
        assert abs(float(params.values[0][0]) - t_star) < 1e-3

    def test_fixed_point_at_smooth_optimum(self):
        # A capsule far in the curl direction: the smooth far-field optimum is
        # full closure; restarting there terminates immediately.
        hand = small_curl_hand()
        shape = CapsuleShape(np.array([0.05, -1.0, -0.05]), np.array([0.05, -1.0, 0.05]), 0.02)
        config = DescentConfig(max_iters=2000)
        params, _ = descend(hand, FingerParams.open_hand(hand), shape, config)
        again, reports = descend(hand, params, shape, config)
        assert all(r.iterations == 1 and r.converged for r in reports)
        for a, b in zip(again.values, params.values):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_far_capsule_saturates_fully_closed(self):
        hand = small_curl_hand()
        shape = CapsuleShape(np.array([0.05, -1.0, -0.05]), np.array([0.05, -1.0, 0.05]), 0.02)
        params, reports = descend(hand, FingerParams.open_hand(hand), shape,
                                  DescentConfig(max_iters=2000))
        np.testing.assert_array_equal(params.values[0], np.ones(3))
        assert reports[0].objective > 0.5  # remains far away: non-zero terminal objective

    def test_monotone_decrease_with_small_eta(self):
        hand = small_curl_hand()
        shape = CapsuleShape(np.array([0.05, -1.0, -0.05]), np.array([0.05, -1.0, 0.05]), 0.02)
        config = DescentConfig(eta=0.01, converge_tol=1e-12)
        _, reports = descend(hand, FingerParams.open_hand(hand), shape, config)
        history = reports[0].history
        end = (reports[0].first_clamp_iteration or len(history) - 1)
        assert all(history[i + 1] < history[i] for i in range(end))

    def test_monotone_until_clamp_with_default_eta(self):
        hand = small_curl_hand()
        shape = CapsuleShape(np.array([0.05, -1.0, -0.05]), np.array([0.05, -1.0, 0.05]), 0.02)
        _, reports = descend(hand, FingerParams.open_hand(hand), shape, DescentConfig())
        rep = reports[0]
        assert rep.first_clamp_iteration is not None
        history = rep.history[:rep.first_clamp_iteration]
        assert all(b < a for a, b in zip(history, history[1:]))

    @given(seeds)
    def test_params_stay_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        hand = default_hand_model("left")
        shape = CapsuleShape(rng.normal(size=3) * 0.1 - [0.07, 0.05, 0],
                             rng.normal(size=3) * 0.1 - [0.07, 0.05, 0.1], 0.02)
        start = FingerParams([rng.uniform(0, 1, size=len(f.joints)) for f in hand.fingers])
        params, _ = descend(hand, start, shape, DescentConfig(max_iters=20))
        for v in params.values:
            assert np.all(v >= 0.0) and np.all(v <= 1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DescentConfig(eta=0.0)
        with pytest.raises(ValueError):
            DescentConfig(max_iters=0)
        with pytest.raises(ValueError):
            DescentConfig(penalty=-1.0)


def small_curl_hand() -> HandModel:
    """Three-joint finger with 25-degree curls: closing always descends."""
    curl = quat_from_axis_angle(Z, math.radians(25))
    joints = tuple(FingerJointSpec(IDENT.copy(), curl.copy(), np.array([-0.05, 0.0, 0.0]))
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

    def test_grip_quality_survives_rigid_motion(self):
        # The descent path is chaotic near the surface kinks, so parameter
        # vectors drift between rigidly-moved runs; contact quality is the
        # invariant that matters.
        hand = default_hand_model("left")
        shape = default_grip_capsule(hand)
        g = Transform(quat_from_axis_angle([0.3, 1.0, 0.2], 1.1), np.array([0.4, 1.2, -0.3]))
        moved = pose_hand_on_controller(hand, g, transform_capsule(shape, g))
        for distances in moved.joint_distances:
            for d in distances:
                assert abs(d) < 0.005 and d > -0.002

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
        config = DescentConfig(button_weight=3.0)
        plain = pose_hand_on_controller(hand, Transform.identity(), shape, config)
        aimed = pose_hand_on_controller(hand, Transform.identity(), shape, config,
                                        button=button)

        def tip_dist(result):
            pts = finger_points(hand.fingers[0], result.params.values[0])
            return float(np.linalg.norm(pts[-1] - button))

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

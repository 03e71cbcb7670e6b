import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from avatarfit.calibration import capture_profile
from avatarfit.math3d import (
    Transform,
    quat_angle_between,
    quat_conjugate,
    quat_from_axis_angle,
    quat_mul,
    quat_rotate,
)
from avatarfit.retarget import (
    OffsetMode,
    effector_position,
    effector_rotation,
    solve_frame,
    solve_session,
    two_bone_ik,
    write_pose_trace,
)
from avatarfit.session import DeviceFrame, DeviceRole
from avatarfit.skeleton import forward_kinematics

from conftest import random_quat, random_unit

seeds = st.integers(min_value=0, max_value=2**32 - 1)
IDENT = np.array([1.0, 0.0, 0.0, 0.0])


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


class TestEffectorEquations:
    def test_position_identity_at_capture(self, matched_setup):
        session, _, profile, scaled = matched_setup
        part = profile.parts["root"]
        frame = session.calibration_frame()
        tracker = frame.pose_of(profile.device_id(DeviceRole.TRACKER_ROOT))
        got = effector_position(tracker.translation, part.r0_tracker, part)
        want = scaled.bind_world()[scaled.role_index("root")].translation
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_position_pure_rotation_of_offset(self, matched_setup):
        _, _, profile, _ = matched_setup
        part = type(profile.parts["root"])(
            v0=np.array([0.0, 0.0, 0.1]),
            r0_tracker=IDENT, r0_joint=IDENT,
        )
        r_t = quat_from_axis_angle([0, 1, 0], math.pi / 2)
        got = effector_position(np.zeros(3), r_t, part)
        np.testing.assert_allclose(got, [0.1, 0.0, 0.0], atol=1e-12)

    @given(seeds)
    def test_position_equivariance_oracle(self, seed, ):
        rng = np.random.default_rng(seed)
        from avatarfit.calibration import PartOffsets
        part = PartOffsets(
            v0=rng.normal(size=3) * 0.1,
            r0_tracker=random_quat(rng), r0_joint=random_quat(rng),
        )
        tracker0 = rng.normal(size=3)  # tracker position at capture
        g = Transform(random_quat(rng), rng.normal(size=3))
        p_t = g.apply(tracker0)
        r_t = quat_mul(g.rotation, part.r0_tracker)
        np.testing.assert_allclose(
            effector_position(p_t, r_t, part), g.apply(tracker0 + part.v0), atol=1e-9)
        assert quat_angle_between(
            effector_rotation(r_t, part), quat_mul(g.rotation, part.r0_joint)) < 1e-9

    def test_rotation_identity_at_capture(self, matched_setup):
        _, _, profile, _ = matched_setup
        part = profile.parts["foot_left"]
        got = effector_rotation(part.r0_tracker, part)
        assert quat_angle_between(got, part.r0_joint) < 1e-12

    def test_rotation_passthrough_for_identity_offsets(self):
        from avatarfit.calibration import PartOffsets
        part = PartOffsets(np.zeros(3), IDENT, IDENT)
        r_t = quat_from_axis_angle([0, 1, 0], math.radians(30))
        assert quat_angle_between(effector_rotation(r_t, part), r_t) < 1e-12

    @given(seeds)
    def test_rotation_matches_matrix_oracle(self, seed):
        rng = np.random.default_rng(seed)
        from avatarfit.calibration import PartOffsets
        r0_t, r0_j = random_quat(rng), random_quat(rng)
        part = PartOffsets(np.zeros(3), r0_t, r0_j)
        delta = quat_from_axis_angle(random_unit(rng), math.radians(45))
        r_t = quat_mul(delta, r0_t)
        got = quat_to_matrix(effector_rotation(r_t, part))
        want = quat_to_matrix(r_t) @ quat_to_matrix(r0_t).T @ quat_to_matrix(r0_j)
        np.testing.assert_allclose(got, want, atol=1e-9)


def _with_positions(frame, profile, root_p, hmd_p) -> DeviceFrame:
    """`frame` with the back tracker moved to root_p and the headset to hmd_p."""
    moved = {profile.device_id(DeviceRole.TRACKER_ROOT): root_p,
             profile.device_id(DeviceRole.HMD): hmd_p}
    return DeviceFrame(frame.timestamp, [
        (did, Transform(pose.rotation, moved[did]) if did in moved else pose)
        for did, pose in frame.devices])


class TestSpineBend:
    def test_zero_at_calibration(self, matched_setup):
        session, _, profile, scaled = matched_setup
        sp = solve_frame(session.calibration_frame(), profile, scaled)
        assert sp.diagnostics.alpha == pytest.approx(0.0, abs=1e-12)
        spine = scaled.role_index("spine")
        bind = scaled.bind_world()[spine]
        assert quat_angle_between(sp.world[spine].rotation, bind.rotation) < 1e-9

    def test_constructed_20_degree_lean(self, matched_setup):
        session, _, profile, scaled = matched_setup
        tilt = quat_from_axis_angle([1, 0, 0], math.radians(20))
        root = np.array([0.0, 0.95, 0.1])
        hmd = root + quat_rotate(tilt, profile.w0)
        frame = _with_positions(session.calibration_frame(), profile, root, hmd)
        alpha = solve_frame(frame, profile, scaled).diagnostics.alpha
        assert alpha == pytest.approx(0.3490658503988659, abs=1e-6)

    def test_scale_invariance(self, matched_setup):
        session, _, profile, scaled = matched_setup
        frame = session.calibration_frame()
        root = np.zeros(3)
        w_t = quat_rotate(quat_from_axis_angle([1, 0, 0], 0.3), profile.w0)
        a1 = solve_frame(_with_positions(frame, profile, root, root + w_t),
                         profile, scaled).diagnostics.alpha
        a2 = solve_frame(_with_positions(frame, profile, root, root + 0.37 * w_t),
                         profile, scaled).diagnostics.alpha
        assert a1 == pytest.approx(a2, abs=1e-12)


class TestTwoBoneIk:
    def test_target_at_full_reach_is_straight(self):
        sol = two_bone_ik(np.zeros(3), 0.4, 0.4, np.array([0.0, -0.8, 0.0]),
                          np.array([0.0, 0.0, -1.0]))
        assert sol.reach_deficit == 0.0
        np.testing.assert_allclose(sol.mid_position, [0, -0.4, 0], atol=1e-12)
        np.testing.assert_allclose(sol.end_position, [0, -0.8, 0], atol=1e-12)

    def test_law_of_cosines_interior_angle(self):
        sol = two_bone_ik(np.zeros(3), 0.4, 0.4, np.array([0.0, -0.4, 0.0]),
                          np.array([0.0, 0.0, -1.0]))
        v1 = np.zeros(3) - sol.mid_position
        v2 = sol.end_position - sol.mid_position
        interior = math.acos(float(np.dot(v1, v2) / (np.linalg.norm(v1) * np.linalg.norm(v2))))
        assert interior == pytest.approx(math.radians(60.0), abs=1e-6)
        # Bone lengths preserved exactly.
        assert np.linalg.norm(sol.mid_position) == pytest.approx(0.4, abs=1e-12)
        assert np.linalg.norm(sol.end_position - sol.mid_position) == pytest.approx(0.4, abs=1e-12)

    def test_unreachable_reports_exact_deficit(self):
        sol = two_bone_ik(np.zeros(3), 0.4, 0.4, np.array([1.0, 0.0, 0.0]),
                          np.array([0.0, 0.0, -1.0]))
        assert sol.reach_deficit == 1.0 - 0.8
        np.testing.assert_allclose(sol.end_position, [0.8, 0, 0], atol=1e-12)

    def test_mid_joint_bends_toward_pole(self):
        pole = np.array([0.0, 0.0, -1.0])
        sol = two_bone_ik(np.zeros(3), 0.4, 0.4, np.array([0.0, -0.5, 0.0]), pole)
        assert sol.mid_position[2] < -0.01

    def test_degenerate_target_keeps_pose(self):
        sol = two_bone_ik(np.ones(3), 0.4, 0.4, np.ones(3) + 1e-9,
                          np.array([0.0, 0.0, -1.0]))
        assert sol.degenerate

    @given(seeds)
    def test_reachable_targets_attained(self, seed):
        rng = np.random.default_rng(seed)
        l1, l2 = rng.uniform(0.2, 0.6, size=2)
        root = rng.normal(size=3)
        d = rng.uniform(abs(l1 - l2) + 0.01, l1 + l2 - 0.001)
        target = root + d * random_unit(rng)
        sol = two_bone_ik(root, l1, l2, target, random_unit(rng))
        assert np.linalg.norm(sol.end_position - target) < 1e-4
        assert np.linalg.norm(sol.mid_position - root) == pytest.approx(l1, abs=1e-9)
        assert np.linalg.norm(sol.end_position - sol.mid_position) == pytest.approx(l2, abs=1e-9)


class TestSolveFrame:
    def test_calibration_frame_reproduces_bind(self, matched_setup):
        session, _, profile, scaled = matched_setup
        sp = solve_frame(session.calibration_frame(), profile, scaled, OffsetMode.EXACT)
        for got, want in zip(sp.world, scaled.bind_world()):
            assert np.linalg.norm(got.translation - want.translation) < 1e-6

    def test_bone_lengths_preserved_exactly(self, long_leg_setup):
        session, _, profile, scaled = long_leg_setup
        sp = solve_frame(session.frames[len(session.frames) // 2], profile, scaled)
        for i, joint in enumerate(scaled.joints):
            if joint.parent is None:
                continue
            length = float(np.linalg.norm(
                sp.world[i].translation - sp.world[joint.parent].translation))
            assert length == pytest.approx(scaled.bone_length(i), abs=1e-12)

    def test_fixed_mode_bends_long_legs(self, long_leg_setup):
        session, _, profile, scaled = long_leg_setup
        sp = solve_frame(session.calibration_frame(), profile, scaled, OffsetMode.FIXED)
        assert sp.diagnostics.knee_flexion_left > math.radians(15)
        assert sp.diagnostics.knee_flexion_right > math.radians(15)

    def test_exact_mode_keeps_long_legs_straight(self, long_leg_setup):
        session, _, profile, scaled = long_leg_setup
        sp = solve_frame(session.calibration_frame(), profile, scaled, OffsetMode.EXACT)
        assert sp.diagnostics.knee_flexion_left < math.radians(1)
        assert sp.diagnostics.knee_flexion_right < math.radians(1)

    def test_spine_alpha_for_leaned_headset(self, matched_setup):
        session, _, profile, scaled = matched_setup
        frame = session.calibration_frame()
        hmd_id = profile.device_id(DeviceRole.HMD)
        root_p = frame.pose_of(profile.device_id(DeviceRole.TRACKER_ROOT)).translation
        tilt = quat_from_axis_angle([1, 0, 0], math.radians(20))
        devices = []
        for did, pose in frame.devices:
            if did == hmd_id:
                pose = Transform(pose.rotation, root_p + quat_rotate(tilt, profile.w0))
            devices.append((did, pose))
        sp = solve_frame(DeviceFrame(frame.timestamp, devices), profile, scaled)
        assert sp.diagnostics.alpha == pytest.approx(math.radians(20), abs=1e-6)

    def test_head_follows_headset_rotation(self, matched_setup):
        session, _, profile, scaled = matched_setup
        frame = session.calibration_frame()
        hmd_id = profile.device_id(DeviceRole.HMD)
        spin = quat_from_axis_angle([0, 1, 0], 0.4)
        devices = [(did, Transform(quat_mul(spin, p.rotation), p.translation)
                    if did == hmd_id else p) for did, p in frame.devices]
        sp = solve_frame(DeviceFrame(frame.timestamp, devices), profile, scaled)
        head = sp.world[scaled.role_index("head")]
        hmd_rot = quat_mul(spin, frame.pose_of(hmd_id).rotation)
        assert quat_angle_between(head.rotation, hmd_rot) < 1e-9

    def test_missing_device_raises(self, matched_setup):
        session, _, profile, scaled = matched_setup
        frame = session.calibration_frame()
        broken = DeviceFrame(0.0, [(d + "_x", p) for d, p in frame.devices])
        with pytest.raises(ValueError, match="lacks device"):
            solve_frame(broken, profile, scaled)

    def test_nan_input_raises(self, matched_setup):
        session, _, profile, scaled = matched_setup
        frame = session.calibration_frame()
        devices = [(d, Transform(p.rotation, p.translation * np.nan) if i == 0 else p)
                   for i, (d, p) in enumerate(frame.devices)]
        with pytest.raises(ValueError, match="finite"):
            solve_frame(DeviceFrame(0.0, devices), profile, scaled)

    @given(seeds)
    def test_rigid_equivariance(self, seed):
        session, profile, scaled, frame = _equivariance_fixture()
        rng = np.random.default_rng(seed)
        g = Transform(random_quat(rng), rng.normal(size=3) * 2)
        base = solve_frame(frame, profile, scaled)
        moved = DeviceFrame(frame.timestamp, [(d, g @ p) for d, p in frame.devices])
        got = solve_frame(moved, profile, scaled)
        for w, b in zip(got.world, base.world):
            expected = g @ b
            assert np.linalg.norm(w.translation - expected.translation) < 1e-5
            assert quat_angle_between(w.rotation, expected.rotation) < 1e-5


_EQ_CACHE = []


def _equivariance_fixture():
    """Mid-squat frame against the long-leg avatar: a generic, bent pose."""
    if not _EQ_CACHE:
        from avatarfit.calibration import calibrate_session
        from avatarfit.motion import squat_script
        from avatarfit.rigs import humanoid, humanoid_long_legs
        from avatarfit.session import generate_synthetic_session

        user = humanoid()
        session, _ = generate_synthetic_session(user, squat_script(user))
        profile, scaled, _ = calibrate_session(session, humanoid_long_legs())
        frame = session.frames[len(session.frames) // 3]
        _EQ_CACHE.append((session, profile, scaled, frame))
    return _EQ_CACHE[0]


class TestSolveSession:
    def test_exact_squat_matches_ground_truth_ankles(self, long_leg_setup):
        session, truth, profile, scaled = long_leg_setup
        _, metrics = solve_session(session, profile, scaled, OffsetMode.EXACT, truth)
        assert metrics.mean_ankle_error < 0.005
        assert metrics.max_ankle_error < 0.005
        assert metrics.frame_errors == []

    def test_exact_beats_fixed_on_long_legs(self, long_leg_setup):
        session, truth, profile, scaled = long_leg_setup
        _, exact = solve_session(session, profile, scaled, OffsetMode.EXACT, truth)
        _, fixed = solve_session(session, profile, scaled, OffsetMode.FIXED, truth)
        assert exact.mean_ankle_error * 5 <= fixed.mean_ankle_error

    def test_metrics_deterministic(self, long_leg_setup):
        session, truth, profile, scaled = long_leg_setup
        _, m1 = solve_session(session, profile, scaled, OffsetMode.EXACT, truth)
        _, m2 = solve_session(session, profile, scaled, OffsetMode.EXACT, truth)
        assert m1.to_document() == m2.to_document()

    def test_bad_frame_recorded_and_skipped(self, matched_setup):
        session, _, profile, scaled = matched_setup
        frames = list(session.frames)
        did, pose = frames[1].devices[0]
        broken = [(did, Transform(pose.rotation, pose.translation * np.nan))] + \
            list(frames[1].devices[1:])
        frames[1] = DeviceFrame(frames[1].timestamp, broken)
        patched = type(session)(frames, session.role_map, 0)
        solved, metrics = solve_session(patched, profile, scaled)
        assert solved[1] is None
        assert len(metrics.frame_errors) == 1 and "frame 1" in metrics.frame_errors[0]
        assert metrics.solved_frames == len(frames) - 1

    def test_trace_contains_spec_metrics(self, tmp_path, matched_setup):
        import json

        session, _, profile, scaled = matched_setup
        solved, _ = solve_session(session, profile, scaled)
        path = tmp_path / "trace.jsonl"
        write_pose_trace(path, session, solved, scaled)
        lines = path.read_text().splitlines()
        assert len(lines) == len(session.frames)
        obj = json.loads(lines[0])
        assert {"t", "joints", "metrics"} <= set(obj)
        assert {"alpha", "knee_l", "knee_r", "detached_l", "detached_r"} == set(obj["metrics"])
        assert len(obj["joints"]) == len(scaled.joints)
        assert {"name", "p", "q"} == set(obj["joints"][0])

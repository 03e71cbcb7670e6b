import math

import numpy as np
import pytest

from avatarfit.calibration import (
    PART_ROLES,
    MisalignmentError,
    calibrate_session,
    capture_profile,
    compute_scale,
    load_profile_file,
    profile_from_document,
    profile_to_document,
    save_profile_file,
)
from avatarfit.math3d import FormatError, qrotate, quat_angle_between, quat_from_axis_angle
from avatarfit.motion import squat_script, tpose_script
from avatarfit.retarget import OffsetMode, solve_frame, solve_session
from avatarfit.rigs import humanoid, humanoid_long_legs
from avatarfit.session import (
    DeviceRole,
    default_mount_offsets,
    generate_synthetic_session,
    identify_roles,
)
from avatarfit.skeleton import scale_uniform

from conftest import compose, device_id, rotated_mount_offsets, transform

IDENT = np.array([1.0, 0.0, 0.0, 0.0])


class TestComputeScale:
    def test_ratio_definition(self, user_skeleton):
        # 1.60 m user eyes vs 1.75 m avatar eyes.
        doc_eye = 1.75
        skel = scale_uniform(user_skeleton, doc_eye / user_skeleton.eye_height_bind)
        result = compute_scale(1.60, skel)
        assert result.scale == pytest.approx(1.60 / 1.75)
        assert result.warnings == []

    def test_equal_heights_give_unity(self, user_skeleton):
        assert compute_scale(user_skeleton.eye_height_bind, user_skeleton).scale == 1.0

    def test_taller_user(self, user_skeleton):
        skel = scale_uniform(user_skeleton, 1.50 / user_skeleton.eye_height_bind)
        assert compute_scale(1.80, skel).scale == pytest.approx(1.2)

    def test_implausible_height_warns(self, user_skeleton):
        assert compute_scale(0.3, user_skeleton).warnings
        assert compute_scale(2.8, user_skeleton).warnings
        with pytest.raises(ValueError):
            compute_scale(-1.0, user_skeleton)


class TestCaptureProfile:
    def test_offsets_match_known_mounts(self, matched_setup):
        # With identity mount rotations, the joint-to-tracker displacement is
        # exactly the negated mount translation.
        _, _, profile, _ = matched_setup
        mounts = default_mount_offsets()
        np.testing.assert_allclose(np.array(profile.offsets["root"][4:]),
                                   -np.array(mounts[DeviceRole.TRACKER_ROOT][4:]), atol=1e-12)
        np.testing.assert_allclose(np.array(profile.offsets["foot_left"][4:]),
                                   -np.array(mounts[DeviceRole.TRACKER_FOOT_LEFT][4:]), atol=1e-12)

    def test_tracker_exactly_at_joint_gives_zero_offset(self, user_skeleton):
        mounts = default_mount_offsets()
        mounts[DeviceRole.TRACKER_ROOT] = transform(IDENT, np.zeros(3))
        session, _ = generate_synthetic_session(
            user_skeleton, tpose_script(duration=0.2, fps=10.0), mount_offsets=mounts)
        profile = capture_profile(
            session.calibration_frame(), session.role_map, user_skeleton)
        np.testing.assert_allclose(np.array(profile.offsets["root"][4:]), np.zeros(3), atol=1e-12)

    def test_long_leg_avatar_root_offset_is_hip_difference(self, tpose_session):
        session, _ = tpose_session
        user, avatar = humanoid(), humanoid_long_legs()
        profile = capture_profile(session.calibration_frame(), session.role_map, avatar)
        hip_diff = (avatar.bind_states[avatar.role_index("root")][5]
                    - user.bind_states[user.role_index("root")][5])
        assert hip_diff == pytest.approx(0.084)
        mount = np.array(default_mount_offsets()[DeviceRole.TRACKER_ROOT][4:])
        assert profile.offsets["root"][5] == pytest.approx(hip_diff, abs=1e-12)
        assert profile.offsets["root"][6] == pytest.approx(-mount[2], abs=1e-12)

    def test_w0_is_raw_device_difference(self, matched_setup):
        session, _, profile, _ = matched_setup
        frame = session.calibration_frame()
        hmd = np.array(frame.devices[device_id(profile, DeviceRole.HMD)][4:])
        root = np.array(frame.devices[device_id(profile, DeviceRole.TRACKER_ROOT)][4:])
        np.testing.assert_array_equal(profile.w0, hmd - root)
        assert profile.w0[1] > 0
        assert len(profile.w0) == 3 and all(type(v) is float for v in profile.w0)

    def test_wrist_anchor_reproduces_bind_wrist(self, matched_setup):
        session, _, profile, scaled = matched_setup
        frame = session.calibration_frame()
        controller = frame.devices[device_id(profile, DeviceRole.CONTROLLER_LEFT)]
        wrist = compose(controller, profile.offsets["hand_left"])
        bind = scaled.bind_states[scaled.role_index("wrist_l")]
        np.testing.assert_allclose(np.array(wrist[4:]), bind[4:], atol=1e-12)
        assert quat_angle_between(wrist[:4], bind[:4]) < 1e-9

    def test_far_placement_is_misalignment(self, tpose_session, user_skeleton):
        session, _ = tpose_session
        placement = transform(IDENT, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(MisalignmentError):
            capture_profile(session.calibration_frame(), session.role_map,
                            user_skeleton, placement)

    def test_offsets_exact_for_rotated_mounts(self, user_skeleton):
        # The module's claim: replaying the captured offsets reproduces the
        # joint targets for any tracker mounting orientation.
        session, truth = generate_synthetic_session(
            user_skeleton, squat_script(user_skeleton), mount_offsets=rotated_mount_offsets())
        profile, scaled, _ = calibrate_session(session, humanoid_long_legs())
        metrics = solve_session(session, profile, scaled, OffsetMode.EXACT, truth)
        assert metrics.frame_errors == []
        assert metrics.max_ankle_error <= 1e-9

    def test_capture_is_equivariant_under_rigid_motion(self, tpose_session, user_skeleton):
        # Moving the devices and the avatar by one rigid motion rotates w0 with
        # it and leaves every offset, a pose in its device's frame, unchanged.
        session, _ = tpose_session
        frame = session.calibration_frame()
        g = transform(quat_from_axis_angle([0, 1, 0], 0.7), np.array([2.0, 0.0, -1.0]))
        moved = type(frame)(frame.timestamp, {d: compose(g, p) for d, p in frame.devices.items()})
        base = capture_profile(frame, session.role_map, user_skeleton)
        shifted = capture_profile(moved, session.role_map, user_skeleton, placement=g)
        assert list(shifted.offsets) == list(base.offsets) == list(PART_ROLES)
        for part, offset in base.offsets.items():
            np.testing.assert_allclose(np.array(shifted.offsets[part][4:]), np.array(offset[4:]),
                                       atol=1e-12)
            assert quat_angle_between(shifted.offsets[part][:4], offset[:4]) < 1e-12
        np.testing.assert_allclose(shifted.w0, qrotate(g[:4], base.w0), atol=1e-12)


class TestValidateProfile:
    """The profile checks run where a profile arrives from outside: at load."""

    def test_valid_profile_has_no_diagnostics(self, matched_setup):
        _, _, profile, _ = matched_setup
        loaded = profile_from_document(profile_to_document(profile))
        assert loaded.scale == profile.scale

    def test_negative_scale_flagged(self, matched_setup):
        _, _, profile, _ = matched_setup
        doc = profile_to_document(profile)
        doc["scale"] = -1.0
        with pytest.raises(FormatError, match="scale"):
            profile_from_document(doc)

    def test_oversize_offset_flagged(self, matched_setup):
        _, _, profile, _ = matched_setup
        doc = profile_to_document(profile)
        doc["offsets"]["root"]["translation"] = [0.0, 0.8, 0.0]
        with pytest.raises(FormatError, match="walk-in"):
            profile_from_document(doc)


class TestProfileFiles:
    def test_round_trip(self, tmp_path, matched_setup):
        _, _, profile, _ = matched_setup
        path = tmp_path / "profile.json"
        save_profile_file(profile, path)
        loaded = load_profile_file(path)
        assert loaded.scale == profile.scale
        assert loaded.role_map == profile.role_map
        assert list(loaded.offsets) == list(profile.offsets)
        for part, offset in profile.offsets.items():
            np.testing.assert_array_equal(np.array(loaded.offsets[part][4:]), np.array(offset[4:]))
            np.testing.assert_array_equal(loaded.offsets[part][:4], offset[:4])
        assert loaded.w0 == profile.w0
        assert all(type(v) is float for v in loaded.w0)

    def test_unknown_format_rejected(self, matched_setup):
        _, _, profile, _ = matched_setup
        doc = profile_to_document(profile)
        doc["format"] = 99
        with pytest.raises(ValueError, match="format"):
            profile_from_document(doc)


class TestCalibrateSession:
    def test_matched_avatar_scale_is_unity(self, matched_setup):
        _, _, profile, _ = matched_setup
        assert profile.scale == pytest.approx(1.0)

    def test_nonunit_scale_from_lower_headset(self, user_skeleton):
        # Headset worn lower: the avatar is scaled down to the reported eye
        # height, and the capture stays self-consistent.
        mounts = default_mount_offsets()
        hmd = mounts[DeviceRole.HMD]
        mounts[DeviceRole.HMD] = transform(hmd[:4], np.array(hmd[4:]) + [0, -0.04, 0])
        session, _ = generate_synthetic_session(
            user_skeleton, tpose_script(duration=0.2, fps=10.0), mount_offsets=mounts)
        profile, scaled, warnings = calibrate_session(session, humanoid())
        assert warnings == []
        assert profile.scale == pytest.approx(1.64 / 1.68)
        assert scaled.eye_height_bind == pytest.approx(1.64)
        assert profile_from_document(profile_to_document(profile)).scale == profile.scale

    def test_role_map_matches_generator(self, matched_setup):
        session, _, profile, _ = matched_setup
        assert profile.role_map == session.role_map
        assert identify_roles(session.calibration_frame()) == session.role_map


class TestCalibrationNoise:
    """Noise in the calibration frame becomes a permanent offset bias."""

    # Worst error / sigma over 30 noise draws (seeds 0-29) of this squat:
    # 4.16 for the ankles, 3.85 for the wrists. K leaves 44% margin on the
    # ankle figure. The error grows linearly: the ratio of one draw moves by
    # at most 3.5% between 2 and 10 mm.
    K = 6.0

    def test_error_bound_linear_in_sigma(self, user_skeleton):
        session, truth = generate_synthetic_session(user_skeleton,
                                                    squat_script(user_skeleton, fps=4.0))
        calibration = session.frames[0]
        avatar = humanoid_long_legs()
        for seed in range(4):
            draw = np.random.default_rng(seed).normal(size=(len(calibration.devices), 3))
            for sigma in (0.0, 0.002, 0.005, 0.010):
                noisy = type(calibration)(calibration.timestamp, {
                    did: transform(pose[:4], np.array(pose[4:]) + sigma * z)
                    for (did, pose), z in zip(calibration.devices.items(), draw)})
                profile, scaled, _ = calibrate_session(
                    type(session)([noisy, *session.frames[1:]], session.role_map, 0), avatar)
                # Every frame is solved noiseless; frame 0 as it truly was.
                metrics = solve_session(session, profile, scaled, OffsetMode.EXACT, truth)
                assert metrics.frame_errors == []
                solved = [solve_frame(frame, profile, scaled) for frame in session.frames]
                error = max(
                    float(np.linalg.norm(np.array(pose.world[scaled.role_index(role)][4:])
                                         - np.array(truth.by_role(i, role)[4:])))
                    for i, pose in enumerate(solved)
                    for role in ("ankle_l", "ankle_r", "wrist_l", "wrist_r"))
                if sigma == 0.0:
                    assert error < 1e-9
                else:
                    assert error <= self.K * sigma, (seed, sigma, error / sigma)

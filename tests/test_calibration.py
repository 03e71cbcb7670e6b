import math

import numpy as np
import pytest

from avatarfit.calibration import (
    MisalignmentError,
    calibrate_session,
    capture_profile,
    compute_scale,
    load_profile_file,
    profile_from_document,
    profile_to_document,
    save_profile_file,
)
from avatarfit.math3d import FormatError, Transform, quat_angle_between, quat_from_axis_angle
from avatarfit.motion import squat_script, tpose_script
from avatarfit.retarget import OffsetMode, solve_session
from avatarfit.rigs import humanoid, humanoid_long_legs
from avatarfit.session import (
    DeviceRole,
    default_mount_offsets,
    generate_synthetic_session,
    identify_roles,
    rotated_mount_offsets,
)
from avatarfit.skeleton import scale_uniform

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
        np.testing.assert_allclose(
            profile.parts["root"].v0, -mounts[DeviceRole.TRACKER_ROOT].translation, atol=1e-12)
        np.testing.assert_allclose(
            profile.parts["foot_left"].v0,
            -mounts[DeviceRole.TRACKER_FOOT_LEFT].translation, atol=1e-12)

    def test_tracker_exactly_at_joint_gives_zero_offset(self, user_skeleton):
        mounts = default_mount_offsets()
        mounts[DeviceRole.TRACKER_ROOT] = Transform(IDENT, np.zeros(3))
        session, _ = generate_synthetic_session(
            user_skeleton, tpose_script(duration=0.2, fps=10.0), mount_offsets=mounts)
        profile = capture_profile(
            session.calibration_frame(), session.role_map, user_skeleton)
        np.testing.assert_allclose(profile.parts["root"].v0, np.zeros(3), atol=1e-12)

    def test_long_leg_avatar_root_offset_is_hip_difference(self, tpose_session):
        session, _ = tpose_session
        user, avatar = humanoid(), humanoid_long_legs()
        profile = capture_profile(session.calibration_frame(), session.role_map, avatar)
        hip_diff = (avatar.bind_world()[avatar.role_index("root")].translation[1]
                    - user.bind_world()[user.role_index("root")].translation[1])
        assert hip_diff == pytest.approx(0.084)
        mount = default_mount_offsets()[DeviceRole.TRACKER_ROOT].translation
        assert profile.parts["root"].v0[1] == pytest.approx(hip_diff, abs=1e-12)
        assert profile.parts["root"].v0[2] == pytest.approx(-mount[2], abs=1e-12)

    def test_w0_is_raw_device_difference(self, matched_setup):
        session, _, profile, _ = matched_setup
        frame = session.calibration_frame()
        hmd = frame.pose_of(profile.device_id(DeviceRole.HMD)).translation
        root = frame.pose_of(profile.device_id(DeviceRole.TRACKER_ROOT)).translation
        np.testing.assert_array_equal(profile.w0, hmd - root)
        assert profile.w0[1] > 0

    def test_wrist_anchor_reproduces_bind_wrist(self, matched_setup):
        session, _, profile, scaled = matched_setup
        frame = session.calibration_frame()
        controller = frame.pose_of(profile.device_id(DeviceRole.CONTROLLER_LEFT))
        wrist = controller @ profile.wrist_palm_offset_left
        bind = scaled.bind_world()[scaled.role_index("wrist_l")]
        np.testing.assert_allclose(wrist.translation, bind.translation, atol=1e-12)
        assert quat_angle_between(wrist.rotation, bind.rotation) < 1e-9

    def test_far_placement_is_misalignment(self, tpose_session, user_skeleton):
        session, _ = tpose_session
        placement = Transform(IDENT, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(MisalignmentError):
            capture_profile(session.calibration_frame(), session.role_map,
                            user_skeleton, placement)

    def test_offsets_exact_for_rotated_mounts(self, user_skeleton):
        # The module's claim: replaying the captured offsets reproduces the
        # joint targets for any tracker mounting orientation.
        session, truth = generate_synthetic_session(
            user_skeleton, squat_script(user_skeleton), mount_offsets=rotated_mount_offsets())
        profile, scaled, _ = calibrate_session(session, humanoid_long_legs())
        _, metrics = solve_session(session, profile, scaled, OffsetMode.EXACT, truth)
        assert metrics.frame_errors == []
        assert metrics.max_ankle_error <= 1e-9

    def test_capture_is_equivariant_under_rigid_motion(self, tpose_session, user_skeleton):
        session, _ = tpose_session
        frame = session.calibration_frame()
        g = Transform(quat_from_axis_angle([0, 1, 0], 0.7), np.array([2.0, 0.0, -1.0]))
        moved = type(frame)(frame.timestamp, [(d, g @ p) for d, p in frame.devices])
        base = capture_profile(frame, session.role_map, user_skeleton)
        shifted = capture_profile(moved, session.role_map, user_skeleton, placement=g)
        for part in base.parts:
            np.testing.assert_allclose(
                shifted.parts[part].v0, g.rotate(base.parts[part].v0), atol=1e-12)
        np.testing.assert_allclose(shifted.w0, g.rotate(base.w0), atol=1e-12)


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
        doc["parts"]["root"]["v0"] = [0.0, 0.8, 0.0]
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
        for part in profile.parts:
            np.testing.assert_array_equal(loaded.parts[part].v0, profile.parts[part].v0)
            np.testing.assert_array_equal(loaded.parts[part].r0_joint,
                                          profile.parts[part].r0_joint)
        np.testing.assert_array_equal(loaded.w0, profile.w0)

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
        mounts[DeviceRole.HMD] = Transform(hmd.rotation, hmd.translation + [0, -0.04, 0])
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

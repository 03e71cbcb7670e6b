import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from avatarfit.math3d import FormatError, Transform, quat_angle_between, quat_from_axis_angle
from avatarfit.motion import arms_script, squat_script, tpose_script
from avatarfit.rigs import humanoid
from avatarfit.session import (
    DeviceFrame,
    DeviceRole,
    NoiseModel,
    PostureError,
    RoleAmbiguityError,
    ROLE_TO_JOINT,
    ScriptError,
    Session,
    default_mount_offsets,
    generate_synthetic_session,
    identify_roles,
    read_ground_truth,
    read_session,
    write_ground_truth,
    write_session,
)
from avatarfit.skeleton import forward_kinematics
from avatarfit.motion import pose_from_script

IDENT = np.array([1.0, 0.0, 0.0, 0.0])


def placement_frame(overrides=None) -> DeviceFrame:
    """Idealized T-pose device placement from known geometry."""
    spots = {
        "a": ((0.0, 1.6, -0.05), DeviceRole.HMD),
        "b": ((-0.7, 1.4, 0.0), DeviceRole.CONTROLLER_LEFT),
        "c": ((0.7, 1.4, 0.0), DeviceRole.CONTROLLER_RIGHT),
        "d": ((0.0, 1.0, 0.1), DeviceRole.TRACKER_ROOT),
        "e": ((-0.15, 0.1, 0.0), DeviceRole.TRACKER_FOOT_LEFT),
        "f": ((0.15, 0.1, 0.0), DeviceRole.TRACKER_FOOT_RIGHT),
    }
    if overrides:
        for k, pos in overrides.items():
            spots[k] = (pos, spots[k][1])
    devices = {k: Transform(IDENT, np.array(p)) for k, (p, _) in spots.items()}
    return DeviceFrame(0.0, devices), {k: role for k, (_, role) in spots.items()}


class TestIdentifyRoles:
    def test_ideal_placement(self):
        frame, truth = placement_frame()
        assert identify_roles(frame) == truth

    def test_device_order_independence(self):
        frame, truth = placement_frame()
        swapped = DeviceFrame(0.0, dict(reversed(frame.devices.items())))
        assert identify_roles(swapped) == truth

    def test_invariant_to_yaw_and_translation(self):
        frame, truth = placement_frame()
        for angle in (0.3, 1.2, 2.9, 4.5):
            g = Transform(quat_from_axis_angle([0, 1, 0], angle), np.array([3.0, 0.0, -2.0]))
            moved = DeviceFrame(0.0, {d: g @ p for d, p in frame.devices.items()})
            assert identify_roles(moved) == truth

    def test_noise_monte_carlo_on_synthetic_sessions(self):
        user = humanoid()
        script = tpose_script(duration=0.2, fps=10.0)
        for seed in range(25):
            session, _ = generate_synthetic_session(
                user, script, noise=NoiseModel(position_sigma=0.02, seed=seed))
            assert identify_roles(session.frames[0]) == session.role_map

    @pytest.mark.parametrize("overrides, message", [
        ({"b": (-0.7, 1.595, 0.0)}, "headset height is ambiguous"),
        ({"d": (0.0, 0.11, 0.1)}, "foot tracker heights are ambiguous"),
        ({"d": (-0.69, 1.0, 0.1)}, "lateral positions of 'b' and 'd' are ambiguous"),
        ({"e": (0.14, 0.1, 0.0)}, "left/right is ambiguous between feet"),
    ], ids=["headset", "foot_height", "lateral", "feet_left_right"])
    def test_headset_tie_is_ambiguous(self, overrides, message):
        frame, _ = placement_frame(overrides=overrides)
        with pytest.raises(RoleAmbiguityError, match=message):
            identify_roles(frame)

    def test_controller_band_violation_is_posture_error(self):
        frame, _ = placement_frame(overrides={"b": (-0.7, 0.8, 0.0)})
        with pytest.raises(PostureError):
            identify_roles(frame)

    def test_root_height_out_of_band(self):
        frame, _ = placement_frame(overrides={"d": (0.0, 1.55, 0.1)})
        with pytest.raises((PostureError, RoleAmbiguityError)):
            identify_roles(frame)

    @pytest.mark.parametrize("angle", [0.0, 0.3, 1.2, 2.9, 4.5])
    def test_coplanar_layout_has_no_facing(self, angle):
        # All six devices on one vertical plane: the feet are not in front of
        # the back tracker, so forward, and with it left and right, is only
        # rounding noise. Yawed and shifted, the frame keeps that layout.
        frame, _ = placement_frame(overrides={"a": (0.0, 1.6, 0.0), "d": (0.0, 1.0, 0.0)})
        g = Transform(quat_from_axis_angle([0, 1, 0], angle), np.array([3.0, 0.0, -2.0]))
        moved = DeviceFrame(0.0, {d: g @ p for d, p in frame.devices.items()})
        with pytest.raises(PostureError, match="facing is ambiguous"):
            identify_roles(moved)

    def test_facing_margin(self):
        # The back tracker 3 cm off the plane of the other five puts the feet
        # 0.029 m across the fitted plane from it, and the frame faces; 1.5 cm
        # off gives 0.015 m, within TIE_MARGIN, and the facing is ambiguous.
        flat = {"a": (0.0, 1.6, 0.0), "d": (0.0, 1.0, 0.0)}
        frame, truth = placement_frame(overrides={**flat, "d": (0.0, 1.0, 0.03)})
        assert identify_roles(frame) == truth
        frame, _ = placement_frame(overrides={**flat, "d": (0.0, 1.0, 0.015)})
        with pytest.raises(PostureError, match="facing is ambiguous"):
            identify_roles(frame)

    def test_wrong_device_count(self):
        frame, _ = placement_frame()
        with pytest.raises(FormatError):
            identify_roles(DeviceFrame(0.0, dict(list(frame.devices.items())[:5])))


class TestSyntheticGenerator:
    def test_static_tpose_frames_identical(self, tpose_session):
        session, truth = tpose_session
        first = session.frames[0]
        for frame in session.frames[1:]:
            for (d0, p0), (d1, p1) in zip(first.devices.items(), frame.devices.items()):
                assert d0 == d1
                np.testing.assert_array_equal(p0.translation, p1.translation)
                np.testing.assert_array_equal(p0.rotation, p1.rotation)
        for world in truth.frames:
            for a, b in zip(world, truth.frames[0]):
                np.testing.assert_array_equal(a.translation, b.translation)

    def test_squat_root_tracker_dips_and_recovers(self, user_skeleton):
        session, _ = generate_synthetic_session(user_skeleton, squat_script(user_skeleton))
        root_id = next(d for d, r in session.role_map.items() if r == DeviceRole.TRACKER_ROOT)
        heights = [f.devices[root_id].translation[1] for f in session.frames]
        mid = len(heights) // 2
        assert heights[mid] < heights[0] - 0.05
        assert heights[-1] == pytest.approx(heights[0], abs=1e-9)
        assert min(heights) == min(heights[mid - 5:mid + 5])

    def test_squat_keeps_feet_planted(self, user_skeleton):
        session, truth = generate_synthetic_session(user_skeleton, squat_script(user_skeleton))
        for i in range(len(truth.frames)):
            for role in ("ankle_l", "ankle_r"):
                np.testing.assert_allclose(
                    truth.by_role(i, role).translation,
                    truth.by_role(0, role).translation, atol=1e-9)

    def test_arms_script_controllers_move_in_then_out(self, user_skeleton):
        session, _ = generate_synthetic_session(user_skeleton, arms_script())
        left_id = next(d for d, r in session.role_map.items()
                       if r == DeviceRole.CONTROLLER_LEFT)
        root_id = next(d for d, r in session.role_map.items()
                       if r == DeviceRole.TRACKER_ROOT)
        lateral = [abs(f.devices[left_id].translation[0] - f.devices[root_id].translation[0])
                   for f in session.frames]
        mid = len(lateral) // 2
        assert lateral[mid] < lateral[0] - 0.1   # pulled toward the body
        assert lateral[-1] > lateral[mid] + 0.1  # pushed back out

    def test_devices_reproduce_from_truth_and_mounts(self, user_skeleton):
        session, truth = generate_synthetic_session(
            user_skeleton, squat_script(user_skeleton, duration=1.0, fps=10.0))
        mounts = default_mount_offsets()
        for i, frame in enumerate(session.frames):
            for did, pose in frame.devices.items():
                role = session.role_map[did]
                joint = truth.joint_roles.index(ROLE_TO_JOINT[role])
                expected = truth.frames[i][joint] @ mounts[role]
                np.testing.assert_allclose(pose.translation, expected.translation, atol=1e-9)
                assert quat_angle_between(pose.rotation, expected.rotation) < 1e-9

    def test_script_must_start_in_tpose(self, user_skeleton):
        script = squat_script(user_skeleton)
        script[0].rotations["knee_l"] = quat_from_axis_angle([1, 0, 0], math.radians(5))
        with pytest.raises(ScriptError, match="knee_l"):
            generate_synthetic_session(user_skeleton, script)

    def test_seeded_noise_is_reproducible(self, user_skeleton):
        script = tpose_script(duration=0.2, fps=10.0)
        noise = NoiseModel(position_sigma=0.01, rotation_sigma=0.005, seed=9)
        s1, _ = generate_synthetic_session(user_skeleton, script, noise=noise)
        s2, _ = generate_synthetic_session(user_skeleton, script, noise=noise)
        for f1, f2 in zip(s1.frames, s2.frames):
            for (d1, p1), (d2, p2) in zip(f1.devices.items(), f2.devices.items()):
                assert d1 == d2
                np.testing.assert_array_equal(p1.translation, p2.translation)
                np.testing.assert_array_equal(p1.rotation, p2.rotation)


class TestSessionFiles:
    def test_round_trip(self, tmp_path, tpose_session):
        session, _ = tpose_session
        path = tmp_path / "s.jsonl"
        write_session(session, path)
        loaded = read_session(path)
        assert loaded.role_map == session.role_map
        assert loaded.calibration_frame_index == session.calibration_frame_index
        assert len(loaded.frames) == len(session.frames)
        for a, b in zip(loaded.frames, session.frames):
            assert a.timestamp == b.timestamp
            for (da, pa), (db, pb) in zip(a.devices.items(), b.devices.items()):
                assert da == db
                np.testing.assert_array_equal(pa.translation, pb.translation)
                assert quat_angle_between(pa.rotation, pb.rotation) < 1e-12

    def test_write_read_write_is_stable(self, tmp_path, tpose_session):
        session, _ = tpose_session
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_session(session, p1)
        write_session(read_session(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_crlf_and_lf_parse_identically(self, tmp_path, tpose_session):
        session, _ = tpose_session
        lf = tmp_path / "lf.jsonl"
        write_session(session, lf)
        crlf = tmp_path / "crlf.jsonl"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        a, b = read_session(lf), read_session(crlf)
        assert len(a.frames) == len(b.frames)
        for fa, fb in zip(a.frames, b.frames):
            for (da, pa), (db, pb) in zip(fa.devices.items(), fb.devices.items()):
                assert da == db
                np.testing.assert_array_equal(pa.translation, pb.translation)

    def test_five_devices_reports_line(self, tmp_path, tpose_session):
        session, _ = tpose_session
        path = tmp_path / "bad.jsonl"
        write_session(session, path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[2])
        obj["devices"] = obj["devices"][:5]
        lines[2] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=":3"):
            read_session(path)

    def test_nonmonotonic_timestamps_rejected(self, tmp_path, tpose_session):
        session, _ = tpose_session
        frames = list(session.frames)
        frames[2] = DeviceFrame(frames[1].timestamp, frames[2].devices)
        path = tmp_path / "bad.jsonl"
        write_session(Session(frames, session.role_map, 0), path)
        with pytest.raises(FormatError, match="strictly increasing"):
            read_session(path)

    def test_malformed_json_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"calibration_frame": 0}\nnot json\n')
        with pytest.raises(FormatError, match=":2"):
            read_session(path)

    def test_ground_truth_round_trip(self, tmp_path, tpose_session):
        session, truth = tpose_session
        path = tmp_path / "gt.jsonl"
        write_ground_truth(truth, session, path)
        loaded = read_ground_truth(path)
        assert loaded.joint_names == truth.joint_names
        assert loaded.joint_roles == truth.joint_roles
        for fa, fb in zip(loaded.frames, truth.frames):
            for a, b in zip(fa, fb):
                np.testing.assert_allclose(a.translation, b.translation, atol=1e-15)

    def test_ground_truth_integers_load_as_floats(self, tmp_path, tpose_session):
        session, truth = tpose_session
        path = tmp_path / "gt.jsonl"
        write_ground_truth(truth, session, path)
        lines = path.read_text().splitlines()
        frame = json.loads(lines[1])
        frame["p"][0], frame["q"][0] = [0, 1, -2], [1, 0, 0, 0]
        path.write_text("\n".join([lines[0], json.dumps(frame), *lines[2:]]) + "\n")
        state = read_ground_truth(path).frames[0][0].state
        assert state == (1.0, 0.0, 0.0, 0.0, 0.0, 1.0, -2.0)
        assert all(type(v) is float for v in state)

    def test_ground_truth_with_eye_height_key_loads(self, tmp_path, tpose_session):
        # Older files carry an "eye_height" header key; it is ignored.
        session, truth = tpose_session
        path = tmp_path / "gt.jsonl"
        write_ground_truth(truth, session, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert "eye_height" not in header
        path.write_text("\n".join([json.dumps({**header, "eye_height": 1.68}), *lines[1:]]) + "\n")
        loaded = read_ground_truth(path)
        assert loaded.joint_names == truth.joint_names
        assert len(loaded.frames) == len(truth.frames)

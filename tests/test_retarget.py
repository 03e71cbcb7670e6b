import copy
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from avatarfit import retarget, skeleton as skeleton_module
from avatarfit.calibration import PART_ROLES, CalibrationProfile, calibrate_session
from avatarfit.math3d import (
    RIGHT,
    UP,
    Transform,
    norm,
    qconj,
    qmul,
    qrotate,
    quat_angle_between,
    quat_from_axis_angle,
)
from avatarfit.motion import builtin_script
from avatarfit.retarget import (
    FrameInputError,
    OffsetMode,
    mode_offsets,
    solve_frame,
    solve_session,
    two_bone_ik,
)
from avatarfit.rigs import humanoid, humanoid_document, humanoid_long_legs, \
    humanoid_long_legs_document
from avatarfit.session import ROLE_TO_JOINT, DeviceFrame, DeviceRole, NoiseModel, \
    generate_synthetic_session
from avatarfit.skeleton import SkeletonModel, load_skeleton, skeleton_to_document

from conftest import device_id, random_quat, random_unit, transform
from oracles import reference_two_bone_ik

seeds = st.integers(min_value=0, max_value=2**32 - 1)
IDENT = np.array([1.0, 0.0, 0.0, 0.0])


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def captured_offset(r0_tracker, p0_tracker, r0_joint, p0_joint) -> Transform:
    """The calibration's offset: the joint's capture pose in its tracker's frame."""
    return transform(r0_tracker, p0_tracker).inverse() @ transform(r0_joint, p0_joint)


class TestEffectorEquations:
    """Targets T(t) @ O with O = T0^-1 J0 obey the paper's exact-offset equations
    p(J) = p(T) + R(T) R0(T)^-1 v0 and R(J) = R(T) R0(T)^-1 R0(J)."""

    def test_position_identity_at_capture(self, matched_setup):
        session, _, profile, scaled = matched_setup
        frame = session.calibration_frame()
        tracker = frame.devices[device_id(profile, DeviceRole.TRACKER_ROOT)]
        got = (tracker @ profile.offsets["root"]).translation
        want = scaled.bind_states[scaled.role_index("root")][4:]
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_position_pure_rotation_of_offset(self):
        offset = captured_offset(IDENT, np.zeros(3), IDENT, np.array([0.0, 0.0, 0.1]))
        r_t = quat_from_axis_angle([0, 1, 0], math.pi / 2)
        got = (transform(r_t, np.zeros(3)) @ offset).translation
        np.testing.assert_allclose(got, [0.1, 0.0, 0.0], atol=1e-12)

    @given(seeds)
    def test_position_equivariance_oracle(self, seed):
        rng = np.random.default_rng(seed)
        r0_tracker, r0_joint = random_quat(rng), random_quat(rng)
        tracker0 = rng.normal(size=3)  # tracker position at capture
        v0 = rng.normal(size=3) * 0.1
        offset = captured_offset(r0_tracker, tracker0, r0_joint, tracker0 + v0)
        g = transform(random_quat(rng), rng.normal(size=3))
        target = transform(qmul(g.state[:4], r0_tracker), g.apply(tracker0)) @ offset
        np.testing.assert_allclose(target.translation, g.apply(tracker0 + v0), atol=1e-9)
        assert quat_angle_between(target.state[:4], qmul(g.state[:4], r0_joint)) < 1e-9

    def test_rotation_identity_at_capture(self, matched_setup):
        session, _, profile, scaled = matched_setup
        frame = session.calibration_frame()
        tracker = frame.devices[device_id(profile, DeviceRole.TRACKER_FOOT_LEFT)]
        got = (tracker @ profile.offsets["foot_left"]).state[:4]
        want = scaled.bind_states[scaled.role_index("ankle_l")][:4]
        assert quat_angle_between(got, want) < 1e-12

    def test_rotation_passthrough_for_identity_offsets(self):
        r_t = quat_from_axis_angle([0, 1, 0], math.radians(30))
        got = (transform(r_t, np.zeros(3)) @ Transform.identity()).state[:4]
        assert quat_angle_between(got, r_t) < 1e-12

    @given(seeds)
    def test_rotation_matches_matrix_oracle(self, seed):
        rng = np.random.default_rng(seed)
        r0_t, r0_j = random_quat(rng), random_quat(rng)
        p0_t, v0 = rng.normal(size=3), rng.normal(size=3) * 0.1
        offset = captured_offset(r0_t, p0_t, r0_j, p0_t + v0)
        delta = quat_from_axis_angle(random_unit(rng), math.radians(45))
        r_t, p_t = qmul(delta, r0_t), rng.normal(size=3)
        target = transform(r_t, p_t) @ offset
        rotate_back = quat_to_matrix(r_t) @ quat_to_matrix(r0_t).T
        np.testing.assert_allclose(quat_to_matrix(target.state[:4]),
                                   rotate_back @ quat_to_matrix(r0_j), atol=1e-9)
        np.testing.assert_allclose(target.translation, p_t + rotate_back @ v0, atol=1e-9)


def _with_positions(frame, profile, root_p, hmd_p) -> DeviceFrame:
    """`frame` with the back tracker moved to root_p and the headset to hmd_p."""
    moved = {device_id(profile, DeviceRole.TRACKER_ROOT): root_p,
             device_id(profile, DeviceRole.HMD): hmd_p}
    return DeviceFrame(frame.timestamp, {
        did: transform(pose.state[:4], moved[did]) if did in moved else pose
        for did, pose in frame.devices.items()})


class TestSpineBend:
    def test_zero_at_calibration(self, matched_setup):
        session, _, profile, scaled = matched_setup
        sp = solve_frame(session.calibration_frame(), profile, scaled)
        assert sp.diagnostics.alpha == pytest.approx(0.0, abs=1e-12)
        spine = scaled.role_index("spine")
        bind = scaled.bind_states[spine]
        assert quat_angle_between(sp.world[spine].state[:4], bind[:4]) < 1e-9

    def test_constructed_20_degree_lean(self, matched_setup):
        session, _, profile, scaled = matched_setup
        tilt = quat_from_axis_angle([1, 0, 0], math.radians(20))
        root = np.array([0.0, 0.95, 0.1])
        hmd = root + qrotate(tilt, profile.w0)
        frame = _with_positions(session.calibration_frame(), profile, root, hmd)
        alpha = solve_frame(frame, profile, scaled).diagnostics.alpha
        assert alpha == pytest.approx(0.3490658503988659, abs=1e-6)

    def test_scale_invariance(self, matched_setup):
        session, _, profile, scaled = matched_setup
        frame = session.calibration_frame()
        root = np.zeros(3)
        w_t = np.array(qrotate(quat_from_axis_angle([1, 0, 0], 0.3), profile.w0))
        a1 = solve_frame(_with_positions(frame, profile, root, root + w_t),
                         profile, scaled).diagnostics.alpha
        a2 = solve_frame(_with_positions(frame, profile, root, root + 0.37 * w_t),
                         profile, scaled).diagnostics.alpha
        assert a1 == pytest.approx(a2, abs=1e-12)


@st.composite
def triangles(draw):
    """Bone lengths l1, l2 and a root-target distance d: generic, within
    0-5 ulps below l1 + l2 (full reach) or 1-5 ulps above |l1 - l2| (full fold)."""
    l1, l2 = draw(st.floats(0.1, 1.0)), draw(st.floats(0.1, 1.0))
    kind = draw(st.sampled_from(["generic", "reach", "fold"]))
    if kind == "generic":
        return l1, l2, draw(st.floats(abs(l1 - l2), l1 + l2))
    d, toward, steps = (l1 + l2, 0.0, range(5)) if kind == "reach" else \
        (abs(l1 - l2), math.inf, range(1, 6))
    for _ in range(draw(st.sampled_from(steps))):
        d = math.nextafter(d, toward)
    return l1, l2, d


def exact_root_angle(l1: float, l2: float, d: float) -> float:
    """atan2(4 area, l1^2 + d^2 - l2^2) with 16 area^2 and the cosine term
    computed exactly and each rounded once; a triangle that closes only by
    rounding is flat."""
    a, b, c = Fraction(l1), Fraction(l2), Fraction(d)
    area16 = (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)
    return math.atan2(math.sqrt(float(max(area16, 0))), float(a * a + c * c - b * b))


class TestTwoBoneIk:
    @given(triangles())
    def test_root_angle_keeps_its_bits_on_flat_triangles(self, triangle):
        # The acos of the law of cosines is off by up to ~1e-6 rad on these triangles.
        assert abs(retarget._root_angle(*triangle) - exact_root_angle(*triangle)) < 1e-14

    @pytest.mark.parametrize("l1, l2", [(0.5, 0.3), (0.3, 0.5)])
    def test_target_inside_inner_reach_folds_fully(self, l1, l2):
        root = np.array([0.1, 1.0, -0.2])
        u = np.array([0.6, -0.8, 0.0])
        sol = two_bone_ik(root, l1, l2, root + 0.5 * abs(l1 - l2) * u, np.array([0.0, 0.0, -1.0]))
        # The mid joint lies along u when l1 > l2 and against it when l1 < l2;
        # the 1e-12 floor on d bends the fold by ~1e-6.
        want = root + math.copysign(l1, l1 - l2) * u
        assert np.linalg.norm(np.asarray(sol.mid_position) - want) < 1e-5
        assert sol.reach_deficit == 0.0
        assert not sol.degenerate

    def test_target_at_full_reach_is_straight(self):
        sol = two_bone_ik(np.zeros(3), 0.4, 0.4, np.array([0.0, -0.8, 0.0]),
                          np.array([0.0, 0.0, -1.0]))
        assert sol.reach_deficit == 0.0
        np.testing.assert_allclose(sol.mid_position, [0, -0.4, 0], atol=1e-12)
        np.testing.assert_allclose(sol.end_position, [0, -0.8, 0], atol=1e-12)

    def test_law_of_cosines_interior_angle(self):
        sol = two_bone_ik(np.zeros(3), 0.4, 0.4, np.array([0.0, -0.4, 0.0]),
                          np.array([0.0, 0.0, -1.0]))
        mid, end = np.asarray(sol.mid_position), np.asarray(sol.end_position)
        v1 = np.zeros(3) - mid
        v2 = end - mid
        interior = math.acos(float(np.dot(v1, v2) / (np.linalg.norm(v1) * np.linalg.norm(v2))))
        assert interior == pytest.approx(math.radians(60.0), abs=1e-6)
        # Bone lengths preserved exactly.
        assert np.linalg.norm(mid) == pytest.approx(0.4, abs=1e-12)
        assert np.linalg.norm(end - mid) == pytest.approx(0.4, abs=1e-12)

    def test_unreachable_reports_exact_deficit(self):
        sol = two_bone_ik(np.zeros(3), 0.4, 0.4, np.array([1.0, 0.0, 0.0]),
                          np.array([0.0, 0.0, -1.0]))
        assert sol.reach_deficit == 1.0 - 0.8
        np.testing.assert_allclose(sol.end_position, [0.8, 0, 0], atol=1e-12)

    def test_mid_joint_bends_toward_pole(self):
        pole = np.array([0.0, 0.0, -1.0])
        sol = two_bone_ik(np.zeros(3), 0.4, 0.4, np.array([0.0, -0.5, 0.0]), pole)
        assert sol.mid_position[2] < -0.01

    @pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0)], ids=["up", "right"])
    def test_pole_along_the_reach_bends_in_plain_floats(self, axis):
        # A pole parallel to the reach falls back to u x UP, and for a
        # vertical reach to u x RIGHT; either way the solve stays on floats.
        target = tuple(0.8 * c for c in axis)
        sol = two_bone_ik((0.0, 0.0, 0.0), 0.5, 0.5, target, axis)
        assert all(type(c) is float for c in (*sol.mid_position, *sol.end_position))
        assert math.dist(sol.mid_position, (0.0, 0.0, 0.0)) == pytest.approx(0.5, abs=1e-12)
        assert math.dist(sol.mid_position, target) == pytest.approx(0.5, abs=1e-12)

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
        mid, end = np.asarray(sol.mid_position), np.asarray(sol.end_position)
        assert np.linalg.norm(end - target) < 1e-4
        assert np.linalg.norm(mid - root) == pytest.approx(l1, abs=1e-9)
        assert np.linalg.norm(end - mid) == pytest.approx(l2, abs=1e-9)


def two_bone_case(rng: np.random.Generator, branch: str) -> tuple:
    """(root, l1, l2, target, pole) as floats, its distance picked for `branch`."""
    # A fold needs |l1 - l2| well above the degenerate distance.
    l1, l2 = rng.permutation([rng.uniform(0.3, 0.6),
                              rng.uniform(0.1, 0.2 if branch == "fold" else 0.6)])
    root = rng.normal(size=3)
    u = random_unit(rng)
    pole = random_unit(rng)
    lo, hi = abs(l1 - l2), l1 + l2
    d = {"degenerate": rng.uniform(0.0, 9e-7), "out_of_reach": hi * rng.uniform(1.001, 3.0),
         "fold": lo * rng.uniform(0.01, 0.99)}.get(branch, lo + (hi - lo) * rng.uniform(0.01, 0.99))
    if branch == "vertical_pole_along_reach":
        u = np.array([0.0, rng.choice([-1.0, 1.0]), 0.0])
    if branch.endswith("pole_along_reach"):
        pole = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]) * u
    return (tuple(root.tolist()), float(l1), float(l2), tuple((root + d * u).tolist()),
            tuple(pole.tolist()))


def solution_bytes(sol) -> tuple:
    return (np.array([*sol.mid_position, *sol.end_position, sol.reach_deficit]).tobytes(),
            sol.degenerate)


class TestTwoBoneOracle:
    """`two_bone_ik` on scalars equals the vector-helper form bit for bit, on every branch."""

    # Branch -> the `cross` fallbacks it takes: a pole along the reach swings
    # about u x UP, and about u x RIGHT when the reach is vertical too.
    BRANCHES = {"reach": [], "degenerate": [], "out_of_reach": [], "fold": [],
                "pole_along_reach": [UP], "vertical_pole_along_reach": [UP, RIGHT]}

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_equals_reference(self, monkeypatch, branch):
        fallbacks = []
        cross = retarget.cross
        monkeypatch.setattr(retarget, "cross", lambda a, b: fallbacks.append(b) or cross(a, b))
        rng = np.random.default_rng(2611)
        for _ in range(300):
            root, l1, l2, target, pole = case = two_bone_case(rng, branch)
            fallbacks.clear()
            sol = two_bone_ik(*case)
            d = math.dist(root, target)
            assert sol.degenerate == (branch == "degenerate")
            assert (sol.reach_deficit > 0.0) == (branch == "out_of_reach")
            assert (1e-6 <= d < abs(l1 - l2)) == (branch == "fold")
            assert fallbacks == self.BRANCHES[branch]
            assert solution_bytes(sol) == solution_bytes(reference_two_bone_ik(*case))


class TestSolveFrame:
    def test_calibration_frame_reproduces_bind(self, matched_setup):
        session, _, profile, scaled = matched_setup
        sp = solve_frame(session.calibration_frame(), profile, scaled, OffsetMode.EXACT)
        for got, want in zip(sp.world, scaled.bind_states):
            assert np.linalg.norm(got.translation - want[4:]) < 1e-6

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
        hmd_id = device_id(profile, DeviceRole.HMD)
        root_p = frame.devices[device_id(profile, DeviceRole.TRACKER_ROOT)].translation
        tilt = quat_from_axis_angle([1, 0, 0], math.radians(20))
        devices = {}
        for did, pose in frame.devices.items():
            if did == hmd_id:
                pose = transform(pose.state[:4], root_p + qrotate(tilt, profile.w0))
            devices[did] = pose
        sp = solve_frame(DeviceFrame(frame.timestamp, devices), profile, scaled)
        assert sp.diagnostics.alpha == pytest.approx(math.radians(20), abs=1e-6)

    def test_head_follows_headset_rotation(self, matched_setup):
        session, _, profile, scaled = matched_setup
        frame = session.calibration_frame()
        hmd_id = device_id(profile, DeviceRole.HMD)
        spin = quat_from_axis_angle([0, 1, 0], 0.4)
        devices = {did: transform(qmul(spin, p.state[:4]), p.translation)
                   if did == hmd_id else p for did, p in frame.devices.items()}
        sp = solve_frame(DeviceFrame(frame.timestamp, devices), profile, scaled)
        head = sp.world[scaled.role_index("head")]
        hmd_rot = qmul(spin, frame.devices[hmd_id].state[:4])
        assert quat_angle_between(head.state[:4], hmd_rot) < 1e-9

    def test_wrist_target_on_shoulder_leaves_arm_at_bind(self, user_skeleton):
        # Moving the left controller so that its wrist target lands on the
        # solved left shoulder gives that arm no direction to point in. The
        # arm keeps its bind-frame local rotations, and the body, head and
        # other limbs are solved as before: the shoulder hangs off the root
        # and spine, which the controllers do not move.
        session, _ = generate_synthetic_session(
            user_skeleton, builtin_script("arms", user_skeleton, duration=1.0))
        profile, scaled, _ = calibrate_session(session, humanoid_long_legs())
        frame = session.frames[len(session.frames) // 2]
        base = solve_frame(frame, profile, scaled)
        index = {role: scaled.role_index(role)
                 for role in ("shoulder_l", "elbow_l", "wrist_l")}
        shoulder = base.world[index["shoulder_l"]].translation
        did = device_id(profile, DeviceRole.CONTROLLER_LEFT)
        offset = profile.offsets["hand_left"]
        wrist_target = frame.devices[did] @ offset
        moved = transform(wrist_target.state[:4], shoulder) @ offset.inverse()
        sp = solve_frame(DeviceFrame(frame.timestamp, {**frame.devices, did: moved}),
                         profile, scaled)
        assert sp.diagnostics.degenerate_limbs == ["arm_l"]
        assert sorted(sp.diagnostics.reach_deficits) == ["arm_l", "arm_r", "leg_l", "leg_r"]
        parents = scaled.parents

        def local(pose, i):  # joint i's rotation in its parent's frame
            return qmul(qconj(pose.world[parents[i]].state[:4]), pose.world[i].state[:4])

        for i in index.values():
            assert quat_angle_between(local(base, i), scaled.bind_rotations[i]) > 1e-3
            assert quat_angle_between(local(sp, i), scaled.bind_rotations[i]) < 1e-12
        arm_l = set(index.values())
        for i, parent in enumerate(parents):  # parents come first
            if parent in arm_l:
                arm_l.add(i)
        for i, (got, want) in enumerate(zip(sp.world, base.world)):
            if i not in arm_l:
                assert got.state == want.state, scaled.joints[i].name

    def test_missing_device_raises(self, matched_setup):
        session, _, profile, scaled = matched_setup
        frame = session.calibration_frame()
        broken = DeviceFrame(0.0, {d + "_x": p for d, p in frame.devices.items()})
        with pytest.raises(ValueError, match="lacks device"):
            solve_frame(broken, profile, scaled)

    def test_nan_input_raises(self, matched_setup):
        # Every role, rotation and translation, each non-finite value, in a
        # different component each time.
        session, _, profile, scaled = matched_setup
        frame = session.calibration_frame()
        cases = 0
        for bad_id, role in profile.role_map.items():
            for component in ("rotation", "translation"):
                for value in (math.nan, math.inf, -math.inf):
                    devices = {}
                    for did, pose in frame.devices.items():
                        if did == bad_id:
                            parts = {"rotation": list(pose.state[:4]),
                                     "translation": pose.translation.copy()}
                            parts[component][cases % len(parts[component])] = value
                            pose = transform(parts["rotation"], parts["translation"])
                        devices[did] = pose
                    with pytest.raises(FrameInputError, match=f"{role.value} is not finite"):
                        solve_frame(DeviceFrame(0.0, devices), profile, scaled)
                    cases += 1
        assert cases == 36

    @given(seeds)
    def test_rigid_equivariance(self, seed):
        session, profile, scaled, frame = _equivariance_fixture()
        rng = np.random.default_rng(seed)
        g = transform(random_quat(rng), rng.normal(size=3) * 2)
        base = solve_frame(frame, profile, scaled)
        moved = DeviceFrame(frame.timestamp, {d: g @ p for d, p in frame.devices.items()})
        got = solve_frame(moved, profile, scaled)
        for w, b in zip(got.world, base.world):
            expected = g @ b
            assert np.linalg.norm(w.translation - expected.translation) < 1e-5
            assert quat_angle_between(w.state[:4], expected.state[:4]) < 1e-5


def rebound(skeleton: SkeletonModel, rng) -> SkeletonModel:
    """`skeleton` with a random bind rotation on every joint and the same bind
    world positions: each bind translation re-expressed in its parent's new frame."""
    rotations = [random_quat(rng) for _ in skeleton.joints]
    positions = [np.array(state[4:]) for state in skeleton.bind_states]
    document = skeleton_to_document(skeleton)
    for i, (joint, entry) in enumerate(zip(skeleton.joints, document["joints"])):
        if joint.parent is None:
            entry["rotation"] = rotations[i].tolist()
            continue
        to_parent = qconj(rotations[joint.parent])
        entry["rotation"] = list(qmul(to_parent, rotations[i]))
        entry["translation"] = list(qrotate(to_parent, positions[i] - positions[joint.parent]))
    return load_skeleton(document)


class TestBindRotationInvariance:
    @pytest.mark.parametrize("script", ["free", "squat", "arms"])
    def test_joint_positions_ignore_bind_rotations(self, user_skeleton, script):
        # A bind rotation only picks a joint's frame: two avatars with the same
        # bind world positions solve to the same joint positions in exact
        # mode. Noise-free, every frame agrees to rounding, the calibration
        # frame's straight arms included. With tracker noise the calibration
        # frame's arm target sits within rounding of full reach, where the
        # geometry itself, not the formula, turns last-bit differences into
        # ~7e-9 m; that frame is left out of the noisy case.
        reference = humanoid_long_legs()
        rotated = rebound(reference, np.random.default_rng(5))
        for a, b in zip(reference.bind_states, rotated.bind_states):
            np.testing.assert_allclose(a[4:], b[4:], atol=1e-15)
        assert all(abs(q[0]) < 1.0 - 1e-3 for q in rotated.bind_rotations)
        for noise, first, bound in ((None, 0, 1e-12), (NoiseModel(0.002, 0.01, seed=1), 1, 1e-9)):
            session, _ = generate_synthetic_session(user_skeleton,
                                                    builtin_script(script, user_skeleton),
                                                    noise=noise)
            solved = []
            for rig in (reference, rotated):
                profile, scaled, _ = calibrate_session(session, rig)
                solved.append([solve_frame(frame, profile, scaled) for frame in session.frames])
            for want, got in list(zip(*solved))[first:]:
                for w, g in zip(want.world, got.world):
                    assert np.abs(w.translation - g.translation).max() < bound


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


def extended_rig(*extras: str) -> SkeletonModel:
    """`humanoid_long_legs` with extra joints, each extra one of:

    - "fingers": a `finger` joint under each wrist;
    - "head_other": an `other` joint under the head;
    - "hips_other": an `other` joint under the hips, no limb's ancestor;
    - "arms_on_head": the clavicles moved under the head, same bind pose.
    """
    document = humanoid_long_legs_document()
    joints = document["joints"]

    def add(name, parent, role, t):
        joints.append({"name": name, "parent": parent, "role": role, "translation": list(t)})

    for extra in extras:
        if extra == "fingers":
            for side, sx in (("l", -1.0), ("r", 1.0)):
                add(f"finger_{side}", f"wrist_{side}", "finger", (sx * 0.08, 0.0, 0.0))
        elif extra == "head_other":
            add("head_top", "head", "other", (0.0, 0.1, 0.0))
        elif extra == "hips_other":
            add("hip_pouch", "hips", "other", (0.0, 0.0, 0.1))
        else:
            head_from_chest = sum(j["translation"][1] for j in joints
                                  if j["name"] in ("neck", "head"))
            for j in joints:
                if j["name"].startswith("clavicle_"):
                    j["parent"] = "head"
                    j["translation"][1] -= head_from_chest
    return load_skeleton(document)


def counted(monkeypatch, owner, name: str) -> list:
    """Replace `owner.name` by a wrapper that counts its calls in calls[0]."""
    calls = [0]
    original = getattr(owner, name)

    def wrapper(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestFramePlacement:
    """`solve_frame` places each joint once, apart from the limbs' upper joints
    (`SkeletonModel.solve_plan`), with the bytes of two full FK passes."""

    @staticmethod
    def calibrated(rig: SkeletonModel):
        user = humanoid()
        session, _ = generate_synthetic_session(user, builtin_script("free", user, duration=0.3),
                                                noise=NoiseModel(0.002, 0.01, seed=2))
        profile, scaled, _ = calibrate_session(session, rig)
        return session, profile, scaled

    def calls_in_one_solve(self, monkeypatch, rig: SkeletonModel) -> tuple:
        """(FK compositions, role lookups) of one `solve_frame`."""
        session, profile, scaled = self.calibrated(rig)
        compositions = counted(monkeypatch, skeleton_module, "compose_state")
        lookups = counted(monkeypatch, SkeletonModel, "role_index")
        solve_frame(session.frames[3], profile, scaled)
        return compositions[0], lookups[0]

    @pytest.mark.parametrize("document", [humanoid_document, humanoid_long_legs_document])
    def test_reference_rig_composes_24_states(self, monkeypatch, document):
        # Two full passes composed 40 states (20 joints below the root, twice)
        # and looked up 27 roles.
        assert self.calls_in_one_solve(monkeypatch, load_skeleton(document())) == (24, 0)

    @pytest.mark.parametrize("extras", [("fingers",), ("fingers", "head_other", "hips_other")])
    def test_each_extra_joint_composes_once(self, monkeypatch, extras):
        # A finger joint is placed by pass 2 only; an `other` joint under the
        # head or the hips is placed once too, by pass 2 or pass 1.
        skel = extended_rig(*extras)
        assert self.calls_in_one_solve(monkeypatch, skel) == (24 + len(skel.joints) - 21, 0)

    @pytest.mark.parametrize("extras", [(), ("fingers", "head_other", "hips_other"),
                                        ("arms_on_head",), ("arms_on_head", "fingers")])
    def test_split_keeps_the_bytes_of_two_full_passes(self, extras):
        # The same solve with both passes over every joint is the solve before
        # the split: every joint state and diagnostic must keep its bytes.
        session, profile, scaled = self.calibrated(extended_rig(*extras))
        full = copy.copy(scaled)
        every = list(range(len(scaled.joints)))
        full.solve_plan = (*scaled.solve_plan[:4], every, every)
        for mode in OffsetMode:
            for frame in session.frames:
                got = solve_frame(frame, profile, scaled, mode)
                want = solve_frame(frame, profile, full, mode)
                assert (np.array([w.state for w in got.world]).tobytes()
                        == np.array([w.state for w in want.world]).tobytes())
                assert got.diagnostics == want.diagnostics


class TestSolveSession:
    def test_exact_squat_matches_ground_truth_ankles(self, long_leg_setup):
        session, truth, profile, scaled = long_leg_setup
        metrics = solve_session(session, profile, scaled, OffsetMode.EXACT, truth)
        assert metrics.mean_ankle_error < 0.005
        assert metrics.max_ankle_error < 0.005
        assert metrics.frame_errors == []

    def test_exact_squat_on_matched_avatar_matches_every_joint(self, squat_session):
        # Noise-free on the avatar of the user's own proportions, every joint
        # follows the ground truth, mid-joints included. The largest error,
        # 4.8e-9 m, is at the straight frames' knees: their target sits within
        # one rounding of full reach, and the true angle of that d moves the knee.
        session, truth = squat_session
        profile, scaled, _ = calibrate_session(session, humanoid())
        solved = [solve_frame(frame, profile, scaled, OffsetMode.EXACT) for frame in session.frames]
        assert truth.joint_names == [joint.name for joint in scaled.joints]
        assert len(solved) == len(truth.frames) > 100
        for sp, want in zip(solved, truth.frames):
            for got, true in zip(sp.world, want):
                assert np.linalg.norm(got.translation - true.translation) < 1e-8

    def test_exact_beats_fixed_on_long_legs(self, long_leg_setup):
        session, truth, profile, scaled = long_leg_setup
        exact = solve_session(session, profile, scaled, OffsetMode.EXACT, truth)
        fixed = solve_session(session, profile, scaled, OffsetMode.FIXED, truth)
        assert exact.mean_ankle_error * 5 <= fixed.mean_ankle_error

    def test_metrics_deterministic(self, long_leg_setup):
        session, truth, profile, scaled = long_leg_setup
        m1 = solve_session(session, profile, scaled, OffsetMode.EXACT, truth)
        m2 = solve_session(session, profile, scaled, OffsetMode.EXACT, truth)
        assert m1.to_document() == m2.to_document()

    @pytest.mark.parametrize("mode", list(OffsetMode))
    def test_summaries_are_exact_means_and_maxima(self, mode, user_skeleton):
        # Each mean is the exactly rounded sum of its per-frame values over
        # their count, and each maximum their max; the errors are
        # `math3d.norm`s. A pairwise or BLAS sum misses some of these bits.
        script = builtin_script("free", user_skeleton, 2.0, 30.0, 7)
        session, truth = generate_synthetic_session(user_skeleton, script,
                                                    noise=NoiseModel(0.002, 0.01, 7))
        profile, scaled, _ = calibrate_session(session, humanoid_long_legs())
        metrics = solve_session(session, profile, scaled, mode, truth)
        alphas, knees, ankles, wrists, straight = [], [], [], [], []
        for i, frame in enumerate(session.frames):
            sp = solve_frame(frame, profile, scaled, mode)
            d = sp.diagnostics
            alphas.append(d.alpha)
            knees.append(0.5 * (d.knee_flexion_left + d.knee_flexion_right))
            for role, errors in (("ankle_l", ankles), ("ankle_r", ankles),
                                 ("wrist_l", wrists), ("wrist_r", wrists)):
                got = sp.world[scaled.role_index(role)].state[4:]
                gt = truth.by_role(i, role).state[4:]
                errors.append(norm([a - b for a, b in zip(got, gt)]))
            if all(retarget._flexion(*(truth.by_role(i, f"{joint}_{side}").state[4:]
                                       for joint in ("hip", "knee", "ankle")))
                   < retarget.STRAIGHT_LEG_MAX for side in "lr"):
                straight.append(max(d.knee_flexion_left, d.knee_flexion_right))
        assert len(alphas) == metrics.solved_frames == 61 and straight

        def mean(xs):
            return math.fsum(xs) / len(xs)
        want = {"alpha_mean": mean(alphas), "alpha_max": max(alphas),
                "mean_knee_flexion": mean(knees),
                "mean_ankle_error": mean(ankles), "max_ankle_error": max(ankles),
                "mean_wrist_error": mean(wrists),
                "mean_knee_flexion_straight": mean(straight),
                "max_knee_flexion_straight": max(straight)}
        assert {key: getattr(metrics, key) for key in want} == want

    def test_bad_frame_recorded_and_skipped(self, matched_setup, tmp_path):
        session, _, profile, scaled = matched_setup
        frames = list(session.frames)
        did, pose = next(iter(frames[1].devices.items()))
        broken = {**frames[1].devices, did: transform(pose.state[:4], pose.translation * np.nan)}
        frames[1] = DeviceFrame(frames[1].timestamp, broken)
        patched = type(session)(frames, session.role_map, 0)
        metrics = solve_session(patched, profile, scaled, trace=tmp_path / "trace.jsonl")
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert [json.loads(line)["t"] for line in lines] == \
            [f.timestamp for i, f in enumerate(frames) if i != 1]
        assert len(metrics.frame_errors) == 1 and "frame 1" in metrics.frame_errors[0]
        assert metrics.solved_frames == len(frames) - 1

    def test_role_map_short_of_a_role_fails_every_frame(self, matched_setup):
        # Two ids sent to one role leave another role without a device.
        session, _, profile, scaled = matched_setup
        first, second = list(profile.role_map)[:2]
        role_map = {**profile.role_map, second: profile.role_map[first]}
        short = CalibrationProfile(profile.scale, profile.offsets, profile.w0, role_map)
        metrics = solve_session(session, short, scaled)
        assert metrics.frame_errors == [
            f"frame {i}: profile role map does not resolve all six roles"
            for i in range(len(session.frames))]
        assert metrics.solved_frames == 0

    def test_internal_error_is_not_a_frame_error(self, matched_setup, monkeypatch):
        # Only unusable device input is a frame failure; a ValueError from
        # inside the solve is a bug and must not be reported as a bad frame.
        session, _, profile, scaled = matched_setup

        def broken(*args, **kwargs):
            raise ValueError("internal bug")
        monkeypatch.setattr(retarget, "two_bone_ik", broken)
        with pytest.raises(ValueError, match="internal bug"):
            solve_session(session, profile, scaled)

    @pytest.mark.parametrize("mode", list(OffsetMode))
    def test_reached_controller_is_wrist_times_inverse_offset(self, mode, matched_setup,
                                                              long_leg_setup):
        # `avatarfit solve --hand-model` places each controller at
        # wrist_world @ offset^-1, with the offsets of the solved mode. Where
        # the arm reaches its controller, that is the tracked pose to rounding.
        # Fixed mode puts the wrist on the controller, out of the straight
        # arms' reach, so only the arms script's bent arms check it.
        arms_session, _ = generate_synthetic_session(humanoid(), builtin_script("arms", humanoid()))
        arms_setup = (arms_session, None, *calibrate_session(arms_session, humanoid())[:2])
        checked = 0
        for session, _, profile, scaled in (matched_setup, long_leg_setup, arms_setup):
            solved = [solve_frame(frame, profile, scaled, mode) for frame in session.frames]
            offsets = mode_offsets(profile, mode)
            for frame, sp in zip(session.frames, solved):
                d = sp.diagnostics
                for side, detached in (("left", d.controller_detached_left),
                                       ("right", d.controller_detached_right)):
                    if detached:
                        continue
                    role = PART_ROLES[f"hand_{side}"]
                    wrist_role = ROLE_TO_JOINT[role]
                    got = (sp.world[scaled.role_index(wrist_role)]
                           @ offsets[f"hand_{side}"].inverse())
                    want = frame.devices[device_id(profile, role)]
                    assert np.abs(got.translation - want.translation).max() < 1e-12
                    got_q, want_q = np.array(got.state[:4]), np.array(want.state[:4])
                    assert min(np.abs(got_q - want_q).max(),
                               np.abs(got_q + want_q).max()) < 1e-12
                    checked += 1
        assert checked > 100

    def test_trace_contains_spec_metrics(self, tmp_path, matched_setup):
        session, _, profile, scaled = matched_setup
        path = tmp_path / "trace.jsonl"
        solve_session(session, profile, scaled, trace=path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(session.frames)
        obj = json.loads(lines[0])
        assert {"t", "joints", "metrics"} <= set(obj)
        assert {"alpha", "knee_l", "knee_r", "detached_l", "detached_r"} == set(obj["metrics"])
        assert len(obj["joints"]) == len(scaled.joints)
        assert {"name", "p", "q"} == set(obj["joints"][0])

    def test_solve_keeps_nothing_per_frame(self, user_skeleton, tmp_path):
        # With a trace path each frame's line is written as the frame is
        # solved, so the solve's peak memory grows only by the few metric
        # floats it keeps per frame, not by a pose (21 transforms) per frame.
        peaks, frames = [], []
        for seconds in (3.0, 6.0):
            session, truth = generate_synthetic_session(
                user_skeleton, builtin_script("free", user_skeleton, seconds, 30.0))
            profile, scaled, _ = calibrate_session(session, humanoid_long_legs())
            args = (session, profile, scaled, OffsetMode.EXACT, truth, tmp_path / "trace.jsonl")
            solve_session(*args)  # warm-up: every lazy cache and import is filled
            tracemalloc.start()
            try:
                solve_session(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            frames.append(len(session.frames))
        assert frames[1] - frames[0] >= 90
        assert peaks[1] - peaks[0] < 1024 * (frames[1] - frames[0]), peaks

import copy
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from avatarfit.math3d import (
    Transform,
    quat_angle_between,
    quat_from_axis_angle,
    quat_identity,
    quat_mul,
    quat_rotate,
)
from avatarfit.rigs import humanoid_document, humanoid_long_legs_document
from avatarfit.skeleton import (
    Joint,
    PoseState,
    SkeletonError,
    SkeletonModel,
    bind_pose,
    forward_kinematics,
    load_skeleton,
    load_skeleton_file,
    save_skeleton_file,
    scale_uniform,
    skeleton_to_document,
)

from conftest import random_quat, random_unit

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def three_joint_chain() -> SkeletonModel:
    """Minimal legal skeleton wrapping a 3-joint test chain in a full rig."""
    doc = humanoid_document()
    return load_skeleton(doc)


def random_pose(skeleton: SkeletonModel, rng) -> PoseState:
    pose = bind_pose(skeleton)
    for i in range(len(skeleton.joints)):
        pose.local_rotations[i] = random_quat(rng)
    pose.root_world = Transform(random_quat(rng), rng.normal(size=3))
    return pose


class TestForwardKinematics:
    def test_bind_pose_reproduces_bind_world(self, user_skeleton):
        world = forward_kinematics(user_skeleton, bind_pose(user_skeleton))
        for got, want in zip(world, user_skeleton.bind_world()):
            np.testing.assert_array_equal(got.translation, want.translation)
            np.testing.assert_array_equal(got.rotation, want.rotation)

    def test_root_rotation_spins_everything_about_root(self, user_skeleton):
        pose = bind_pose(user_skeleton)
        spin = quat_from_axis_angle([0, 1, 0], math.pi / 2)
        root_bind = pose.root_world
        pose.root_world = Transform(quat_mul(spin, root_bind.rotation), root_bind.translation)
        world = forward_kinematics(user_skeleton, pose)
        origin = root_bind.translation
        for got, b in zip(world, user_skeleton.bind_world()):
            expected = origin + quat_rotate(spin, b.translation - origin)
            np.testing.assert_allclose(got.translation, expected, atol=1e-12)

    def test_three_joint_chain_matches_manual_composition(self):
        # hips -> spine -> chest with random rotations, composed by hand.
        skel = three_joint_chain()
        rng = np.random.default_rng(5)
        pose = bind_pose(skel)
        names = ["hips", "spine", "chest"]
        idx = [skel.index_of(n) for n in names]
        qs = [random_quat(rng) for _ in names]
        pose.root_world = Transform(qs[0], pose.root_world.translation)
        pose.local_rotations[idx[1]] = qs[1]
        pose.local_rotations[idx[2]] = qs[2]
        world = forward_kinematics(skel, pose)

        t_spine = skel.joints[idx[1]].bind_local.translation
        t_chest = skel.joints[idx[2]].bind_local.translation
        p_spine = pose.root_world.translation + quat_rotate(qs[0], t_spine)
        r_spine = quat_mul(qs[0], qs[1])
        p_chest = p_spine + quat_rotate(r_spine, t_chest)
        r_chest = quat_mul(r_spine, qs[2])
        np.testing.assert_allclose(world[idx[1]].translation, p_spine, atol=1e-12)
        np.testing.assert_allclose(world[idx[2]].translation, p_chest, atol=1e-12)
        assert quat_angle_between(world[idx[2]].rotation, r_chest) < 1e-9

    def test_pose_size_mismatch(self, user_skeleton):
        pose = bind_pose(user_skeleton)
        bad = PoseState(pose.local_rotations[:-1], pose.root_world)
        with pytest.raises(SkeletonError):
            forward_kinematics(user_skeleton, bad)

    @given(seeds)
    def test_equivariance_under_root_rigid_motion(self, seed):
        skel = humanoid_from_cache()
        rng = np.random.default_rng(seed)
        pose = random_pose(skel, rng)
        g = Transform(random_quat(rng), rng.normal(size=3))
        moved = PoseState(pose.local_rotations.copy(), g @ pose.root_world)
        base = forward_kinematics(skel, pose)
        got = forward_kinematics(skel, moved)
        for w, b in zip(got, base):
            expected = g @ b
            np.testing.assert_allclose(w.translation, expected.translation, atol=1e-9)
            assert quat_angle_between(w.rotation, expected.rotation) < 1e-9

    @given(seeds)
    def test_bone_lengths_invariant_under_pose(self, seed):
        skel = humanoid_from_cache()
        rng = np.random.default_rng(seed)
        world = forward_kinematics(skel, random_pose(skel, rng))
        for i, joint in enumerate(skel.joints):
            if joint.parent is None:
                continue
            length = float(np.linalg.norm(
                world[i].translation - world[joint.parent].translation))
            assert length == pytest.approx(skel.bone_length(i), abs=1e-9)


_HUMANOID_CACHE = []


def humanoid_from_cache() -> SkeletonModel:
    if not _HUMANOID_CACHE:
        _HUMANOID_CACHE.append(load_skeleton(humanoid_document()))
    return _HUMANOID_CACHE[0]


class TestScaleUniform:
    def test_identity_scale(self, user_skeleton):
        scaled = scale_uniform(user_skeleton, 1.0)
        assert scaled.eye_height_bind == user_skeleton.eye_height_bind
        for a, b in zip(scaled.joints, user_skeleton.joints):
            np.testing.assert_array_equal(a.bind_local.translation, b.bind_local.translation)

    def test_double_scale_doubles_bone_lengths(self, user_skeleton):
        scaled = scale_uniform(user_skeleton, 2.0)
        for i, joint in enumerate(user_skeleton.joints):
            if joint.parent is not None:
                assert scaled.bone_length(i) == pytest.approx(2 * user_skeleton.bone_length(i))

    def test_eye_height_arithmetic(self):
        doc = humanoid_document()
        doc["eye_height"] = 1.75
        skel = load_skeleton(doc)
        assert scale_uniform(skel, 0.914).eye_height_bind == pytest.approx(1.5995)

    def test_nonpositive_scale_rejected(self, user_skeleton):
        with pytest.raises(ValueError):
            scale_uniform(user_skeleton, 0.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_nonfinite_scale_rejected(self, user_skeleton, s):
        with pytest.raises(ValueError, match="finite"):
            scale_uniform(user_skeleton, s)

    def test_feet_stay_on_floor(self, user_skeleton):
        for s in (0.5, 0.914, 1.3):
            lowest = min(w.translation[1] for w in scale_uniform(user_skeleton, s).bind_world())
            assert abs(lowest) < 1e-9

    @given(st.floats(min_value=0.2, max_value=3.0), st.floats(min_value=0.2, max_value=3.0))
    def test_scaling_composes_multiplicatively(self, s1, s2):
        skel = humanoid_from_cache()
        once = scale_uniform(skel, s1 * s2)
        twice = scale_uniform(scale_uniform(skel, s1), s2)
        assert twice.eye_height_bind == pytest.approx(once.eye_height_bind, abs=1e-9)
        for a, b in zip(twice.joints, once.joints):
            np.testing.assert_allclose(a.bind_local.translation, b.bind_local.translation,
                                       atol=1e-9)


class TestLoadSkeleton:
    def test_reference_humanoid(self):
        skel = load_skeleton(humanoid_document())
        assert len(skel) == 21
        assert skel.eye_height_bind == pytest.approx(1.68)

    def test_long_leg_variant_geometry(self):
        base = load_skeleton(humanoid_document())
        long_legs = load_skeleton(humanoid_long_legs_document())
        assert long_legs.eye_height_bind == base.eye_height_bind
        for side in ("l", "r"):
            leg = (long_legs.bone_length(long_legs.role_index(f"knee_{side}"))
                   + long_legs.bone_length(long_legs.role_index(f"ankle_{side}")))
            ref = (base.bone_length(base.role_index(f"knee_{side}"))
                   + base.bone_length(base.role_index(f"ankle_{side}")))
            assert leg == pytest.approx(1.1 * ref)
        # Same head height despite the longer legs.
        hb = base.bind_world()[base.role_index("head")].translation[1]
        hl = long_legs.bind_world()[long_legs.role_index("head")].translation[1]
        assert hl == pytest.approx(hb)

    def test_two_roots_rejected(self):
        doc = humanoid_document()
        doc["joints"][1]["parent"] = None
        with pytest.raises(SkeletonError, match="exactly one root"):
            load_skeleton(doc)

    def test_missing_knee_role_rejected(self):
        doc = humanoid_document()
        for j in doc["joints"]:
            if j["role"] == "knee_l":
                j["role"] = "other"
        with pytest.raises(SkeletonError, match="knee_l"):
            load_skeleton(doc)

    def test_cycle_rejected(self):
        doc = humanoid_document()
        doc["joints"][1]["parent"] = "chest"  # spine <-> chest
        with pytest.raises(SkeletonError, match="cyclic"):
            load_skeleton(doc)

    def test_feet_off_floor_rejected(self):
        doc = humanoid_document()
        for j in doc["joints"]:
            if j["name"] == "hips":
                j["translation"][1] += 0.05
        with pytest.raises(SkeletonError, match="floor"):
            load_skeleton(doc)

    def test_unknown_parent_rejected(self):
        doc = humanoid_document()
        doc["joints"][3]["parent"] = "nonexistent"
        with pytest.raises(SkeletonError, match="unknown parent"):
            load_skeleton(doc)

    def test_document_round_trip(self, tmp_path, user_skeleton):
        path = tmp_path / "skel.json"
        save_skeleton_file(user_skeleton, path)
        loaded = load_skeleton_file(path)
        assert len(loaded) == len(user_skeleton)
        for a, b in zip(loaded.joints, user_skeleton.joints):
            assert a.name == b.name and a.role == b.role and a.parent == b.parent
            np.testing.assert_array_equal(a.bind_local.translation, b.bind_local.translation)

    def test_child_before_parent_in_document(self):
        doc = humanoid_document()
        doc["joints"].reverse()
        skel = load_skeleton(doc)
        assert len(skel) == 21
        world = {j.name: w for j, w in zip(skel.joints, skel.bind_world())}
        assert world["head"].translation[1] == pytest.approx(1.54)

import copy
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from avatarfit.math3d import qmul, qrotate, quat_angle_between, quat_from_axis_angle
from avatarfit.rigs import humanoid_document, humanoid_long_legs_document
from avatarfit.skeleton import (
    Joint,
    SkeletonError,
    SkeletonModel,
    forward_kinematics,
    load_skeleton,
    load_skeleton_file,
    save_skeleton_file,
    scale_uniform,
    skeleton_to_document,
)

from conftest import compose, random_quat, random_unit, transform
from oracles import reference_forward_kinematics

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def three_joint_chain() -> SkeletonModel:
    """Minimal legal skeleton wrapping a 3-joint test chain in a full rig."""
    doc = humanoid_document()
    return load_skeleton(doc)


def bind_root(skeleton: SkeletonModel) -> tuple:
    return skeleton.joints[skeleton.role_index("root")].bind_local


def random_pose(skeleton: SkeletonModel, rng) -> tuple[list[tuple], tuple]:
    rotations = [tuple(random_quat(rng).tolist()) for _ in skeleton.joints]
    return rotations, transform(random_quat(rng), rng.normal(size=3))


class TestForwardKinematics:
    def test_bind_pose_reproduces_bind_world(self, user_skeleton):
        world = forward_kinematics(user_skeleton, list(user_skeleton.bind_rotations),
                                   bind_root(user_skeleton))
        for got, want in zip(world, user_skeleton.bind_states):
            assert got == want

    def test_bind_world_is_computed_once(self, user_skeleton):
        # `bind_states` is the one copy of the bind world pose: one pose
        # state of seven floats per joint, made at construction.
        states = user_skeleton.bind_states
        assert isinstance(states, tuple) and len(states) == len(user_skeleton.joints)
        assert all(len(s) == 7 and all(type(v) is float for v in s) for s in states)
        assert user_skeleton.bind_states is states

    def test_root_rotation_spins_everything_about_root(self, user_skeleton):
        spin = quat_from_axis_angle([0, 1, 0], math.pi / 2)
        root_bind = bind_root(user_skeleton)
        root = transform(qmul(spin, root_bind[:4]), np.array(root_bind[4:]))
        world = forward_kinematics(user_skeleton, list(user_skeleton.bind_rotations), root)
        origin = np.array(root_bind[4:])
        for got, b in zip(world, user_skeleton.bind_states):
            expected = origin + qrotate(spin, b[4:] - origin)
            np.testing.assert_allclose(np.array(got[4:]), expected, atol=1e-12)

    def test_three_joint_chain_matches_manual_composition(self):
        # hips -> spine -> chest with random rotations, composed by hand.
        skel = three_joint_chain()
        rng = np.random.default_rng(5)
        rotations = list(skel.bind_rotations)
        names = ["hips", "spine", "chest"]
        idx = [skel.name_index[n] for n in names]
        qs = [random_quat(rng) for _ in names]
        root = transform(qs[0], np.array(bind_root(skel)[4:]))
        rotations[idx[1]] = tuple(qs[1])
        rotations[idx[2]] = tuple(qs[2])
        world = forward_kinematics(skel, rotations, root)

        t_spine = np.array(skel.joints[idx[1]].bind_local[4:])
        t_chest = np.array(skel.joints[idx[2]].bind_local[4:])
        p_spine = np.array(root[4:]) + qrotate(qs[0], t_spine)
        r_spine = qmul(qs[0], qs[1])
        p_chest = p_spine + qrotate(r_spine, t_chest)
        r_chest = qmul(r_spine, qs[2])
        np.testing.assert_allclose(np.array(world[idx[1]][4:]), p_spine, atol=1e-12)
        np.testing.assert_allclose(np.array(world[idx[2]][4:]), p_chest, atol=1e-12)
        assert quat_angle_between(world[idx[2]][:4], r_chest) < 1e-9

    def test_pose_size_mismatch(self, user_skeleton):
        rotations = list(user_skeleton.bind_rotations)[:-1]
        root = bind_root(user_skeleton)
        with pytest.raises(SkeletonError):
            forward_kinematics(user_skeleton, rotations, root)
        with pytest.raises(SkeletonError, match="20 rotations for 21 joints"):
            forward_kinematics(user_skeleton, rotations, root, [0, 1, 2])
        with pytest.raises(SkeletonError, match="22 rotations for 21 joints"):
            forward_kinematics(user_skeleton, rotations + rotations[-2:], root,
                               [0], [None] * len(user_skeleton.joints))

    @given(seeds)
    def test_equivariance_under_root_rigid_motion(self, seed):
        skel = humanoid_from_cache()
        rng = np.random.default_rng(seed)
        rotations, root = random_pose(skel, rng)
        g = transform(random_quat(rng), rng.normal(size=3))
        base = forward_kinematics(skel, rotations, root)
        got = forward_kinematics(skel, rotations, compose(g, root))
        for w, b in zip(got, base):
            expected = compose(g, b)
            np.testing.assert_allclose(np.array(w[4:]), np.array(expected[4:]), atol=1e-9)
            assert quat_angle_between(w[:4], expected[:4]) < 1e-9

    @given(seeds)
    def test_bone_lengths_invariant_under_pose(self, seed):
        skel = humanoid_from_cache()
        rng = np.random.default_rng(seed)
        world = forward_kinematics(skel, *random_pose(skel, rng))
        for i, joint in enumerate(skel.joints):
            if joint.parent is None:
                continue
            length = float(np.linalg.norm(
                np.array(world[i][4:]) - np.array(world[joint.parent][4:])))
            assert length == pytest.approx(skel.bone_lengths[i], abs=1e-9)

    @given(seeds, st.sampled_from(["humanoid", "humanoid_long_legs"]))
    def test_states_equal_transform_composition_bytes(self, seed, rig):
        skel = rig_from_cache(rig)
        rng = np.random.default_rng(seed)
        rotations, root = random_pose(skel, rng)
        root = transform(root[:4], np.array(root[4:]) * rng.uniform(0.1, 100.0))
        states = forward_kinematics(skel, rotations, root)
        want = reference_forward_kinematics(skel, rotations, root)
        assert len(states) == len(want) == len(skel.joints)
        for state, (rotation, translation) in zip(states, want):
            assert np.array(state[:4]).tobytes() == rotation.tobytes()
            assert np.array(state[4:]).tobytes() == translation.tobytes()

    @given(seeds, st.sampled_from(["humanoid", "humanoid_long_legs"]))
    def test_listed_joints_match_the_full_call_bit_for_bit(self, seed, rig):
        # Placing an ancestor-closed list of joints gives each of them the
        # full call's bytes and leaves every other entry as it was; the body
        # solve's two passes together place every joint.
        skel = rig_from_cache(rig)
        rng = np.random.default_rng(seed)
        rotations, root = random_pose(skel, rng)
        full = [np.array(s).tobytes() for s in forward_kinematics(skel, rotations, root)]
        picked = set()
        for i in rng.choice(len(skel.joints), size=int(rng.integers(1, 6)), replace=False):
            i = int(i)
            while i is not None and i not in picked:
                picked.add(i)
                i = skel.parents[i]
        states = forward_kinematics(skel, rotations, root, sorted(picked))
        for i, state in enumerate(states):
            assert (np.array(state).tobytes() == full[i]) if i in picked else state is None
        pass1, pass2 = skel.solve_plan[4:]
        states = forward_kinematics(skel, rotations, root, pass1)
        assert forward_kinematics(skel, rotations, root, pass2, states) is states
        assert [np.array(s).tobytes() for s in states] == full


_HUMANOID_CACHE = []


def humanoid_from_cache() -> SkeletonModel:
    if not _HUMANOID_CACHE:
        _HUMANOID_CACHE.append(load_skeleton(humanoid_document()))
    return _HUMANOID_CACHE[0]


_RIG_DOCUMENTS = {"humanoid": humanoid_document, "humanoid_long_legs": humanoid_long_legs_document}
_RIG_CACHE: dict[str, SkeletonModel] = {}


def rig_from_cache(name: str) -> SkeletonModel:
    if name not in _RIG_CACHE:
        _RIG_CACHE[name] = load_skeleton(_RIG_DOCUMENTS[name]())
    return _RIG_CACHE[name]


class TestScaleUniform:
    def test_identity_scale(self, user_skeleton):
        scaled = scale_uniform(user_skeleton, 1.0)
        assert scaled.eye_height_bind == user_skeleton.eye_height_bind
        for a, b in zip(scaled.joints, user_skeleton.joints):
            np.testing.assert_array_equal(np.array(a.bind_local[4:]), np.array(b.bind_local[4:]))

    def test_double_scale_doubles_bone_lengths(self, user_skeleton):
        scaled = scale_uniform(user_skeleton, 2.0)
        for i, joint in enumerate(user_skeleton.joints):
            if joint.parent is not None:
                assert scaled.bone_lengths[i] == pytest.approx(2 * user_skeleton.bone_lengths[i])

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

    @pytest.mark.parametrize("s", [1e-200, 1e-300])
    def test_scale_that_underflows_a_bone_rejected(self, user_skeleton, s):
        # Every scaled bone length rounds to 0, which `two_bone_ik` refuses.
        with pytest.raises(SkeletonError, match=f"scale {s:g} leaves"):
            scale_uniform(user_skeleton, s)

    def test_scale_that_shrinks_the_eye_height_to_the_floor_rejected(self):
        doc = humanoid_document()
        doc["eye_height"] = 2e-9
        skel = load_skeleton(doc)
        assert scale_uniform(skel, 0.6).eye_height_bind == pytest.approx(1.2e-9)
        with pytest.raises(SkeletonError, match="1e-9 m"):
            scale_uniform(skel, 0.5)

    def test_feet_stay_on_floor(self, user_skeleton):
        for s in (0.5, 0.914, 1.3):
            lowest = min(state[5] for state in scale_uniform(user_skeleton, s).bind_states)
            assert abs(lowest) < 1e-9

    @given(st.floats(min_value=0.2, max_value=3.0), st.floats(min_value=0.2, max_value=3.0))
    def test_scaling_composes_multiplicatively(self, s1, s2):
        skel = humanoid_from_cache()
        once = scale_uniform(skel, s1 * s2)
        twice = scale_uniform(scale_uniform(skel, s1), s2)
        assert twice.eye_height_bind == pytest.approx(once.eye_height_bind, abs=1e-9)
        for a, b in zip(twice.joints, once.joints):
            np.testing.assert_allclose(np.array(a.bind_local[4:]), np.array(b.bind_local[4:]),
                                       atol=1e-9)


class TestLoadSkeleton:
    def test_reference_humanoid(self):
        skel = load_skeleton(humanoid_document())
        assert len(skel.joints) == 21
        assert skel.eye_height_bind == pytest.approx(1.68)

    def test_long_leg_variant_geometry(self):
        base = load_skeleton(humanoid_document())
        long_legs = load_skeleton(humanoid_long_legs_document())
        assert long_legs.eye_height_bind == base.eye_height_bind
        for side in ("l", "r"):
            leg = (long_legs.bone_lengths[long_legs.role_index(f"knee_{side}")]
                   + long_legs.bone_lengths[long_legs.role_index(f"ankle_{side}")])
            ref = (base.bone_lengths[base.role_index(f"knee_{side}")]
                   + base.bone_lengths[base.role_index(f"ankle_{side}")])
            assert leg == pytest.approx(1.1 * ref)
        # Same head height despite the longer legs.
        hb = base.bind_states[base.role_index("head")][5]
        hl = long_legs.bind_states[long_legs.role_index("head")][5]
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

    def test_limb_with_a_joint_between_its_roles_rejected(self):
        # The body solve takes a limb's bones from its mid and end joints; a
        # forearm joint halfway between elbow and wrist (same bind world
        # positions) would split the forearm, so the rig is refused.
        doc = humanoid_long_legs_document()
        for side in ("l", "r"):
            wrist = next(j for j in doc["joints"] if j["name"] == f"wrist_{side}")
            half = [0.5 * c for c in wrist["translation"]]
            doc["joints"].append({"name": f"forearm_{side}", "parent": f"elbow_{side}",
                                  "role": "other", "translation": half})
            wrist["parent"], wrist["translation"] = f"forearm_{side}", half
        with pytest.raises(SkeletonError, match="limb shoulder_l-elbow_l-wrist_l "):
            load_skeleton(doc)
        for side in ("l", "r"):  # a forearm leaf leaves the arm a chain
            wrist = next(j for j in doc["joints"] if j["name"] == f"wrist_{side}")
            wrist["parent"] = f"elbow_{side}"
            wrist["translation"] = [2 * c for c in wrist["translation"]]
        assert len(load_skeleton(doc).joints) == 23

    def test_feet_off_floor_rejected(self):
        doc = humanoid_document()
        for j in doc["joints"]:
            if j["name"] == "hips":
                j["translation"][1] += 0.05
        with pytest.raises(SkeletonError, match="floor"):
            load_skeleton(doc)

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["above", "below"])
    def test_floor_tolerance_is_one_millimeter(self, side):
        # FLOOR_TOLERANCE: the lowest joint 0.9 mm off the floor loads, 1.1 mm off does not.
        def lifted(gap):
            doc = humanoid_document()
            lowest = min(state[5] for state in load_skeleton(doc).bind_states)
            hips = next(j for j in doc["joints"] if j["name"] == "hips")
            hips["translation"][1] += side * gap - lowest
            return doc

        lowest = min(state[5] for state in load_skeleton(lifted(0.0009)).bind_states)
        assert lowest == pytest.approx(side * 0.0009, abs=1e-12)
        with pytest.raises(SkeletonError, match="floor"):
            load_skeleton(lifted(0.0011))

    def test_unknown_parent_rejected(self):
        doc = humanoid_document()
        doc["joints"][3]["parent"] = "nonexistent"
        with pytest.raises(SkeletonError, match="unknown parent"):
            load_skeleton(doc)

    def test_document_round_trip(self, tmp_path, user_skeleton):
        path = tmp_path / "skel.json"
        save_skeleton_file(user_skeleton, path)
        loaded = load_skeleton_file(path)
        assert len(loaded.joints) == len(user_skeleton.joints)
        for a, b in zip(loaded.joints, user_skeleton.joints):
            assert a.name == b.name and a.role == b.role and a.parent == b.parent
            np.testing.assert_array_equal(np.array(a.bind_local[4:]), np.array(b.bind_local[4:]))

    def test_child_before_parent_in_document(self):
        doc = humanoid_document()
        doc["joints"].reverse()
        skel = load_skeleton(doc)
        assert len(skel.joints) == 21
        world = {j.name: state for j, state in zip(skel.joints, skel.bind_states)}
        assert world["head"][5] == pytest.approx(1.54)

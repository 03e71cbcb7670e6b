import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from avatarfit.math3d import (
    DegenerateGeometryError,
    FormatError,
    Transform,
    angle_between,
    compose_state,
    cross,
    fit_plane,
    float_from_json,
    floats_from_json,
    pose_from_obj,
    qmul,
    qrotate,
    quat_angle_between,
    quat_from_axis_angle,
    quat_from_json,
    quat_to_json,
    rotation_between,
)

from conftest import quat_slerp, random_quat, random_unit, transform, vec3
from oracles import reference_apply, reference_compose, reference_compose_state, \
    reference_cross, reference_floats_from_json, reference_inverse, reference_quat_from_json, \
    reference_quat_rotate, reference_rotation_between, reference_slerp

IDENTITY = (1.0, 0.0, 0.0, 0.0)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
finite = st.floats(min_value=-1e6, max_value=1e6)
vectors = st.tuples(finite, finite, finite)
nonzero = vectors.filter(lambda v: math.hypot(*v) > 1e-6)
vertical = st.floats(min_value=-1e3, max_value=1e3).filter(lambda y: abs(y) > 1e-6) \
    .map(lambda y: (0.0, y, 0.0))


def random_parts(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    return random_quat(rng), 10.0 * rng.normal(size=3)


# (rotation, translation) pairs: random ones, and ones of exact components
# with signed zeros, which a reordered or array-converted formula would flip.
exact = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0])
transform_parts = st.one_of(
    seeds.map(random_parts),
    st.tuples(st.tuples(exact, exact, exact, exact), st.tuples(exact, exact, exact)),
)


def state_bytes(t: Transform) -> bytes:
    return np.array(t.state).tobytes()


def arrays(parts) -> tuple:
    return np.array(parts[0], dtype=np.float64), np.array(parts[1], dtype=np.float64)


def near_antiparallel(a, scale: float, delta: float) -> tuple:
    """(a, b): b is -scale * a turned by `delta` radians about an axis normal to a."""
    a = np.asarray(a, dtype=np.float64)
    normal = np.cross(a, [0.0, 1.0, 0.0])
    if np.linalg.norm(normal) < 1e-3 * np.linalg.norm(a):
        normal = np.cross(a, [1.0, 0.0, 0.0])
    normal *= np.linalg.norm(a) / np.linalg.norm(normal)
    return tuple(a.tolist()), tuple((-scale * (math.cos(delta) * a + math.sin(delta) * normal))
                                    .tolist())


# Generic pairs, a vertical a, and pairs within 1e-5 rad of antiparallel:
# the branch for an ambiguous axis starts at pi - 1e-6.
rotation_pairs = st.one_of(
    st.tuples(nonzero, nonzero),
    st.tuples(vertical, nonzero),
    st.builds(near_antiparallel, nonzero | vertical, st.floats(min_value=1e-3, max_value=1e3),
              st.just(0.0) | st.floats(min_value=0.0, max_value=1e-5)),
)


class TestAngleBetween:
    def test_identical_vectors(self):
        assert angle_between(vec3(0, 1, 0), vec3(0, 1, 0)) == 0.0

    def test_orthogonal(self):
        assert angle_between(vec3(0, 1, 0), vec3(1, 0, 0)) == pytest.approx(math.pi / 2)

    def test_constructed_30_degrees(self):
        b = vec3(math.sin(math.radians(30)), math.cos(math.radians(30)), 0)
        assert angle_between(vec3(0, 1, 0), b) == pytest.approx(0.5235987755982988, abs=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateGeometryError):
            angle_between(vec3(0, 0, 0), vec3(1, 0, 0))

    @given(seeds)
    def test_symmetric_and_scale_invariant(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_unit(rng), random_unit(rng)
        assert angle_between(a, b) == pytest.approx(angle_between(b, a), abs=1e-12)
        assert angle_between(a, b) == pytest.approx(angle_between(2 * a, 3 * b), abs=1e-12)


class TestRotationBetween:
    def test_identical_gives_identity(self):
        q = rotation_between(vec3(0, 1, 0), vec3(0, 1, 0))
        np.testing.assert_allclose(q, IDENTITY, atol=1e-12)

    def test_axis_from_cross_product(self):
        q = rotation_between(vec3(0, 0, 1), vec3(1, 0, 0))
        expected = quat_from_axis_angle(vec3(0, 1, 0), math.pi / 2)
        np.testing.assert_allclose(quat_to_json(q), quat_to_json(expected), atol=1e-12)

    @given(seeds)
    def test_maps_a_onto_b(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_unit(rng), random_unit(rng)
        if angle_between(a, b) > math.pi - 1e-3:
            b = -b  # keep away from the antiparallel tie-break
        np.testing.assert_allclose(qrotate(rotation_between(a, b), a), b, atol=1e-6)

    def test_antiparallel_deterministic(self):
        a = vec3(1, 0, 0)
        q1 = rotation_between(a, -a)
        q2 = rotation_between(a, -a)
        np.testing.assert_array_equal(q1, q2)
        np.testing.assert_allclose(qrotate(q1, a), -a, atol=1e-9)

    def test_near_zero_input_is_named(self):
        # The first near-zero vector is named, as `normalize` would name it.
        for a, b, named in (((0.0, 0.0, 0.0), (0.0, 0.0, 1e-12), "(0.0, 0.0, 0.0)"),
                            ((1.0, 0.0, 0.0), (0.0, 1e-12, 0.0), "(0.0, 1e-12, 0.0)")):
            with pytest.raises(DegenerateGeometryError, match=re.escape(named)):
                rotation_between(a, b)

    def test_antiparallel_vertical_falls_back(self):
        a = vec3(0, 1, 0)
        q = rotation_between(a, -a)
        np.testing.assert_allclose(qrotate(q, a), -a, atol=1e-9)

    @given(rotation_pairs)
    @example(((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)))
    @example(((0.0, 1.0, 0.0), (0.0, -2.0, 0.0)))
    @example(((0.0, 1.0, 0.0), (1e-9, -1.0, 0.0)))
    @example(near_antiparallel((0.3, -0.2, 0.9), 1.0, 5e-7))
    @example(near_antiparallel((0.3, -0.2, 0.9), 2.0, 2e-6))
    def test_equals_two_pass_form(self, pair):
        # One cross and one dot serve both the angle test and the
        # quaternion; the bytes must equal the form that computes them twice.
        a, b = pair
        assert np.array(rotation_between(a, b)).tobytes() == \
            np.array(reference_rotation_between(a, b)).tobytes()


class TestQuaternions:
    def test_composition_chain_stays_unit(self):
        rng = np.random.default_rng(0)
        q = IDENTITY
        for _ in range(10_000):
            q = qmul(q, quat_from_axis_angle(random_unit(rng), rng.uniform(-1, 1)))
        assert abs(np.linalg.norm(q) - 1.0) < 1e-6

    @given(seeds)
    def test_rotate_matches_matrix(self, seed):
        rng = np.random.default_rng(seed)
        q = random_quat(rng)
        v = rng.normal(size=3)
        w, x, y, z = q
        mat = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])
        np.testing.assert_allclose(qrotate(q, v), mat @ v, atol=1e-9)

    @given(vectors, vectors)
    def test_cross_equals_numpy_cross(self, a, b):
        # Bit for bit, signed zeros included: the body path relies on it.
        assert np.array(cross(a, b)).tobytes() == reference_cross(a, b).tobytes()

    @given(st.tuples(finite, finite, finite, finite) | seeds.map(
        lambda seed: tuple(random_quat(np.random.default_rng(seed)))), vectors)
    def test_rotate_equals_numpy_cross_form(self, q, v):
        assert np.array(qrotate(q, v)).tobytes() == reference_quat_rotate(q, v).tobytes()

    @given(transform_parts | st.tuples(st.tuples(finite, finite, finite, finite), vectors),
           transform_parts | st.tuples(st.tuples(finite, finite, finite, finite), vectors))
    def test_compose_state_equals_qmul_and_qrotate(self, a, b):
        # Bit for bit, signed zeros included: the written-out Hamilton product
        # and sandwich make the operations of `qmul` and `qrotate` in order.
        s = tuple(float(c) for c in (*a[0], *a[1]))
        q, v = tuple(float(c) for c in b[0]), tuple(float(c) for c in b[1])
        assert np.array(compose_state(s, q, v)).tobytes() == \
            np.array(reference_compose_state(s, q, v)).tobytes()

    def test_canonical_flips_negative_w(self):
        q = np.array([-0.5, 0.5, 0.5, 0.5])
        assert quat_to_json(q)[0] == 0.5
        # At w == 0 the first nonzero of x, y, z decides; zeros flip sign too.
        assert np.array(quat_to_json((0.0, -0.0, -0.5, 0.5))).tobytes() == \
            np.array([-0.0, 0.0, 0.5, -0.5]).tobytes()
        assert np.array(quat_to_json((-0.0, 0.0, 0.5, -0.5))).tobytes() == \
            np.array([-0.0, 0.0, 0.5, -0.5]).tobytes()

    @given(seeds, st.floats(min_value=0.0, max_value=1.0))
    def test_slerp_unit_and_endpoints(self, seed, t):
        rng = np.random.default_rng(seed)
        a, b = random_quat(rng), random_quat(rng)
        q = quat_slerp(a, b, t)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-9
        np.testing.assert_allclose(quat_slerp(a, b, 0.0), a, atol=1e-9)
        assert quat_angle_between(quat_slerp(a, b, 1.0), b) < 1e-9

    @given(seeds, st.sampled_from([1.0, 1e-4, 1e-6, 1e-12]), st.booleans(),
           st.floats(min_value=-0.5, max_value=1.5))
    def test_slerp_matches_one_shot_reference(self, seed, spread, flip, t):
        # The basis/evaluation split changes no float, on both branches
        # (spreads 1e-6 and 1e-12 take the near-parallel linear branch, 1e-4
        # the slerp branch just past it) and across the hemisphere flip.
        rng = np.random.default_rng(seed)
        a = random_quat(rng)
        b = a + spread * rng.normal(size=4)
        b = (-1.0 if flip else 1.0) * b / np.linalg.norm(b)
        a, b = tuple(a.tolist()), tuple(b.tolist())
        assert quat_slerp(a, b, t) == reference_slerp(a, b, t)


class TestTransform:
    @given(transform_parts, transform_parts, transform_parts)
    @example(((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0)), ((1.0, -0.0, 0.0, -0.0), (-0.0, 0.0, -0.0)),
             ((0.0, -0.0, 1.0, 0.0), (-0.0, -0.0, -0.0)))
    # Rotated and translated y components that are -0.0: an added +0.0 flips them.
    @example(((-1.0, 0.0, 0.0, -0.0), (0.0, -0.0, 0.0)), ((1.0, 0.0, 0.0, 0.0), (-0.0, -0.0, 0.0)),
             ((1.0, 0.0, 0.0, 0.0), (-0.0, -0.0, 0.0)))
    def test_operations_equal_array_formulas(self, a, b, point):
        # Bit for bit, signed zeros included, against the same operations
        # written on float64 (rotation, translation) arrays.
        p = np.array(point[1], dtype=np.float64)
        ta, tb = transform(*a), transform(*b)
        assert state_bytes(ta @ tb) == np.concatenate(reference_compose(arrays(a), arrays(b))) \
            .tobytes()
        assert state_bytes(ta.inverse()) == np.concatenate(reference_inverse(arrays(a))).tobytes()
        assert np.array(ta.apply(p)).tobytes() == reference_apply(arrays(a), p).tobytes()

    def test_translation_is_a_float64_copy(self):
        q, p = np.array([1.0, 0.0, -0.0, 0.0]), np.array([1, 2, 3])
        t = transform(q, p)  # the tests' array helper
        state = t.state
        assert state == (1.0, 0.0, -0.0, 0.0, 1.0, 2.0, 3.0)
        assert all(type(v) is float for v in state)
        q[0], p[0] = 5.0, 5  # the arguments are converted once, not kept
        translation = t.translation
        assert translation.dtype == np.float64
        translation[:] = 7.0
        assert t.state is state and state == (1.0, 0.0, -0.0, 0.0, 1.0, 2.0, 3.0)
        assert t.translation.tobytes() == np.array(state[4:]).tobytes()
        assert t.translation is not t.translation

    def test_constructor_keeps_the_state(self):
        state = (0.0, 1.0, 0.0, 0.0, 0.5, -0.25, 2.0)
        t = Transform(state)
        assert t.state is state
        assert t == transform(state[:4], state[4:])
        assert Transform.identity() == transform(IDENTITY, (0.0, 0.0, 0.0))
        with pytest.raises(TypeError):  # one constructor: the state alone
            Transform(state[:4], state[4:])

    @given(seeds)
    def test_inverse_compose_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        t = transform(random_quat(rng), rng.normal(size=3))
        ident = t @ t.inverse()
        np.testing.assert_allclose(ident.translation, np.zeros(3), atol=1e-9)
        assert quat_angle_between(ident.state[:4], IDENTITY) < 1e-6

    @given(seeds)
    def test_composition_is_associative(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (transform(random_quat(rng), rng.normal(size=3)) for _ in range(3))
        p = rng.normal(size=3)
        np.testing.assert_allclose(((a @ b) @ c).apply(p), (a @ (b @ c)).apply(p), atol=1e-9)

    @given(seeds)
    def test_apply_matches_composition(self, seed):
        rng = np.random.default_rng(seed)
        a, b = (transform(random_quat(rng), rng.normal(size=3)) for _ in range(2))
        p = rng.normal(size=3)
        np.testing.assert_allclose((a @ b).apply(p), a.apply(b.apply(p)), atol=1e-9)


def file_pose(seed: int) -> tuple:
    """(q, p) as a file holds them: a random pose with its quaternion written to
    nine digits, so its norm is a few ulps to 1e-9 off 1."""
    q, p = random_parts(seed)
    return [float(f"{c:.9g}") for c in q], p.tolist()


# File poses: random ones, and ones of exact components, ints and signed zeros
# among them; most of the latter are not unit, and both codecs must reject those.
file_number = st.sampled_from([0, 1, -1, 2, 0.0, -0.0, 0.5, -0.5, 1.0, -1.0])
file_poses = st.one_of(
    seeds.map(file_pose),
    st.tuples(st.lists(file_number, min_size=4, max_size=4),
              st.lists(file_number | st.integers(-2**62, 2**62), min_size=3, max_size=3)),
)


def decoded(decode, *args):
    """The bytes of `decode(*args)` as float64, or FormatError if it rejects them."""
    try:
        return np.array(decode(*args), dtype=np.float64).tobytes()
    except FormatError:
        return FormatError


class TestJsonCodec:
    @given(file_poses)
    @example(([1, 0, -0.0, 0], [0, -0.0, 2**62]))
    @example(([0.5, -0.5, 0.5, -0.5], [-0.0, 0.0, -1]))
    def test_floats_equal_the_array_codec(self, pose):
        q, p = pose
        assert decoded(quat_from_json, q, "q") == decoded(reference_quat_from_json, q, "q")
        assert decoded(floats_from_json, p, 3, "p") == \
            decoded(reference_floats_from_json, p, (3,), "p")
        for v in p:
            assert decoded(float_from_json, v, "v") == \
                decoded(reference_floats_from_json, v, (), "v")

    @given(seeds)
    def test_pose_state_equals_the_array_codec(self, seed):
        q, p = file_pose(seed)
        state = pose_from_obj({"p": p, "q": q}, "pose").state
        want = np.concatenate([reference_quat_from_json(q, "q"),
                               reference_floats_from_json(p, (3,), "p")])
        assert np.array(state).tobytes() == want.tobytes()

    def test_ints_of_any_size_below_1e150_are_floats(self):
        for big in (2**63, 2**64, 10**149):
            assert floats_from_json([big, 0, -1], 3, "p") == (float(big), 0.0, -1.0)
            assert float_from_json(-big, "v") == -float(big)

    @pytest.mark.parametrize("value", [10**400, -10**400, 10**150, 1e150, -1e200])
    def test_magnitude_from_1e150_is_rejected(self, value):
        with pytest.raises(FormatError, match="below 1e150"):
            floats_from_json([value, 0.0, 0.0], 3, "p")
        with pytest.raises(FormatError, match="below 1e150"):
            float_from_json(value, "v")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_nan_and_infinity_tokens_are_rejected(self, token):
        with pytest.raises(FormatError):
            floats_from_json(json.loads(f"[0.0, {token}, 0.0]"), 3, "p")
        with pytest.raises(FormatError):
            quat_from_json(json.loads(f"[{token}, 0.0, 0.0, 0.0]"), "q")

    @pytest.mark.parametrize("value", [
        [True, 0.9, 0.0], [0.1, False, 0.0], [True, False, True], ["0.1", 0.0, 0.0],
        [[0.1], 0.0, 0.0], [None, 0.0, 0.0], [{}, 0.0, 0.0], [0.1, 0.2], [0.1, 0.2, 0.3, 0.4],
        "0.1 0.2 0.3", {"x": 0.1}, None, 0.1,
    ])
    def test_non_numbers_and_wrong_lengths_are_rejected(self, value):
        with pytest.raises(FormatError):
            floats_from_json(value, 3, "p")

    @pytest.mark.parametrize("value", [True, False, "1.0", None, [1.0]])
    def test_one_number_is_not_a_bool_string_or_list(self, value):
        with pytest.raises(FormatError):
            float_from_json(value, "v")

    def test_bool_in_a_quaternion_is_rejected(self):
        with pytest.raises(FormatError):
            quat_from_json([True, 0.0, 0.0, 0.0], "q")

    def test_negative_zero_keeps_its_sign(self):
        floats = floats_from_json([-0.0, 0, 0.0], 3, "p")
        assert [math.copysign(1.0, v) for v in floats] == [-1.0, 1.0, 1.0]
        assert math.copysign(1.0, quat_from_json([1.0, -0.0, 0.0, -0.0], "q")[3]) == -1.0
        assert math.copysign(1.0, float_from_json(-0.0, "v")) == -1.0

    def test_floats_are_returned_as_read(self):
        value = [0.1, 0.2, 0.3]
        assert all(a is b for a, b in zip(floats_from_json(value, 3, "p"), value))


class TestFitPlane:
    def test_exact_square_at_z(self):
        pts = [vec3(x, y, 0.3) for x, y in ((0, 0), (1, 0), (1, 1), (0, 1))]
        np.testing.assert_allclose(fit_plane(pts), vec3(0, 0, 1), atol=1e-12)

    def test_exact_vertical_plane(self):
        pts = [vec3(2.0, y, z) for y, z in ((0, 0), (1, 0), (0, 1), (1, 1), (0.5, 0.3), (0.2, 0.9))]
        np.testing.assert_allclose(fit_plane(pts), vec3(1, 0, 0), atol=1e-12)

    @pytest.mark.parametrize("xz", [
        ((0, 0), (1, 0), (0, 1), (1, 1), (0.5, 0.3)),
        # eigh can return -Y for these, so the flip runs
        ((0.3, -0.5), (-0.9, -1.0), (0.6, 0.8), (0.2, 0.5), (0.1, 0.9)),
    ])
    def test_horizontal_plane_normal_is_plus_y(self, xz):
        # Zero dot with +Z and +X: the sign tie-break falls through to +Y.
        normal = fit_plane([vec3(x, 1.5, z) for x, z in xz])
        assert all(type(c) is float for c in normal)
        np.testing.assert_allclose(normal, vec3(0, 1, 0), atol=1e-12)

    def test_collinear_raises(self):
        pts = [vec3(t, 2 * t, -t) for t in np.linspace(0, 1, 6)]
        with pytest.raises(DegenerateGeometryError):
            fit_plane(pts)

    def test_too_few_points(self):
        with pytest.raises(DegenerateGeometryError):
            fit_plane([vec3(0, 0, 0), vec3(1, 0, 0)])

    def test_noisy_normal_monte_carlo(self):
        # 1000 trials of 6 on-plane points (hexagon, 0.7 m radius) with 2 cm
        # noise: the recovered normal stays within 5 degrees of the truth.
        rng = np.random.default_rng(42)
        hexagon = [(0.7 * math.cos(k * math.pi / 3), 0.7 * math.sin(k * math.pi / 3))
                   for k in range(6)]
        for _ in range(1000):
            normal = random_unit(rng)
            u = np.cross(normal, random_unit(rng))
            while np.linalg.norm(u) < 1e-6:
                u = np.cross(normal, random_unit(rng))
            u /= np.linalg.norm(u)
            v = np.cross(normal, u)
            center = rng.normal(size=3)
            pts = [center + a * u + b * v + rng.normal(0, 0.02, size=3)
                   for a, b in hexagon]
            got = fit_plane(pts)
            err = min(angle_between(got, normal), angle_between(got, -normal))
            assert err < math.radians(5.0)

    def test_local_optimality_against_perturbed_planes(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(12, 3)) * np.array([1.0, 1.0, 0.05])
        normal = fit_plane(pts)
        offset = float(np.dot(normal, pts.mean(axis=0)))  # the plane passes through the centroid

        def residual(normal, offset):
            return sum((float(np.dot(normal, p)) - offset) ** 2 for p in pts)

        base = residual(normal, offset)
        for _ in range(100):
            wiggle = quat_from_axis_angle(random_unit(rng), rng.uniform(0.001, 0.05))
            n = np.array(qrotate(wiggle, normal))
            off = offset + rng.normal(0, 0.01)
            assert base <= residual(n, off) + 1e-12

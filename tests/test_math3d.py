import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from avatarfit.math3d import (
    DegenerateGeometryError,
    Transform,
    angle_between,
    cross,
    fit_plane,
    quat_angle_between,
    quat_canonical,
    quat_from_axis_angle,
    quat_identity,
    quat_mul,
    quat_rotate,
    rotation_between,
)

from conftest import quat_slerp, random_quat, random_unit, vec3
from oracles import reference_cross, reference_quat_rotate, reference_rotation_between, \
    reference_slerp

seeds = st.integers(min_value=0, max_value=2**32 - 1)
finite = st.floats(min_value=-1e6, max_value=1e6)
vectors = st.tuples(finite, finite, finite)
nonzero = vectors.filter(lambda v: math.hypot(*v) > 1e-6)
vertical = st.floats(min_value=-1e3, max_value=1e3).filter(lambda y: abs(y) > 1e-6) \
    .map(lambda y: (0.0, y, 0.0))


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
        np.testing.assert_allclose(q, quat_identity(), atol=1e-12)

    def test_axis_from_cross_product(self):
        q = rotation_between(vec3(0, 0, 1), vec3(1, 0, 0))
        expected = quat_from_axis_angle(vec3(0, 1, 0), math.pi / 2)
        np.testing.assert_allclose(quat_canonical(q), quat_canonical(expected), atol=1e-12)

    @given(seeds)
    def test_maps_a_onto_b(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_unit(rng), random_unit(rng)
        if angle_between(a, b) > math.pi - 1e-3:
            b = -b  # keep away from the antiparallel tie-break
        np.testing.assert_allclose(quat_rotate(rotation_between(a, b), a), b, atol=1e-6)

    def test_antiparallel_deterministic(self):
        a = vec3(1, 0, 0)
        q1 = rotation_between(a, -a)
        q2 = rotation_between(a, -a)
        np.testing.assert_array_equal(q1, q2)
        np.testing.assert_allclose(quat_rotate(q1, a), -a, atol=1e-9)

    def test_antiparallel_vertical_falls_back(self):
        a = vec3(0, 1, 0)
        q = rotation_between(a, -a)
        np.testing.assert_allclose(quat_rotate(q, a), -a, atol=1e-9)

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
        q = quat_identity()
        for _ in range(10_000):
            q = quat_mul(q, quat_from_axis_angle(random_unit(rng), rng.uniform(-1, 1)))
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
        np.testing.assert_allclose(quat_rotate(q, v), mat @ v, atol=1e-9)

    @given(vectors, vectors)
    def test_cross_equals_numpy_cross(self, a, b):
        # Bit for bit, signed zeros included: the body path relies on it.
        assert np.array(cross(a, b)).tobytes() == reference_cross(a, b).tobytes()

    @given(st.tuples(finite, finite, finite, finite) | seeds.map(
        lambda seed: tuple(random_quat(np.random.default_rng(seed)))), vectors)
    def test_rotate_equals_numpy_cross_form(self, q, v):
        assert quat_rotate(q, v).tobytes() == reference_quat_rotate(q, v).tobytes()

    def test_canonical_flips_negative_w(self):
        q = np.array([-0.5, 0.5, 0.5, 0.5])
        assert quat_canonical(q)[0] == 0.5

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
    @given(seeds)
    def test_inverse_compose_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        t = Transform(random_quat(rng), rng.normal(size=3))
        ident = t @ t.inverse()
        np.testing.assert_allclose(ident.translation, np.zeros(3), atol=1e-9)
        assert quat_angle_between(ident.rotation, quat_identity()) < 1e-6

    @given(seeds)
    def test_composition_is_associative(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (Transform(random_quat(rng), rng.normal(size=3)) for _ in range(3))
        p = rng.normal(size=3)
        np.testing.assert_allclose(((a @ b) @ c).apply(p), (a @ (b @ c)).apply(p), atol=1e-9)

    @given(seeds)
    def test_apply_matches_composition(self, seed):
        rng = np.random.default_rng(seed)
        a, b = (Transform(random_quat(rng), rng.normal(size=3)) for _ in range(2))
        p = rng.normal(size=3)
        np.testing.assert_allclose((a @ b).apply(p), a.apply(b.apply(p)), atol=1e-9)


class TestFitPlane:
    def test_exact_square_at_z(self):
        pts = [vec3(x, y, 0.3) for x, y in ((0, 0), (1, 0), (1, 1), (0, 1))]
        plane = fit_plane(pts)
        np.testing.assert_allclose(plane.normal, vec3(0, 0, 1), atol=1e-12)
        assert plane.offset == pytest.approx(0.3, abs=1e-12)

    def test_exact_vertical_plane(self):
        pts = [vec3(2.0, y, z) for y, z in ((0, 0), (1, 0), (0, 1), (1, 1), (0.5, 0.3), (0.2, 0.9))]
        plane = fit_plane(pts)
        np.testing.assert_allclose(plane.normal, vec3(1, 0, 0), atol=1e-12)
        assert plane.offset == pytest.approx(2.0, abs=1e-12)

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
            got = fit_plane(pts).normal
            err = min(angle_between(got, normal), angle_between(got, -normal))
            assert err < math.radians(5.0)

    def test_local_optimality_against_perturbed_planes(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(12, 3)) * np.array([1.0, 1.0, 0.05])
        plane = fit_plane(pts)

        def residual(normal, offset):
            return sum((float(np.dot(normal, p)) - offset) ** 2 for p in pts)

        base = residual(plane.normal, plane.offset)
        for _ in range(100):
            wiggle = quat_from_axis_angle(random_unit(rng), rng.uniform(0.001, 0.05))
            n = quat_rotate(wiggle, plane.normal)
            off = plane.offset + rng.normal(0, 0.01)
            assert base <= residual(n, off) + 1e-12

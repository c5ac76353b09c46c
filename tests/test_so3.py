import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopsieve.so3 import (
    ORTHONORMAL_TOL,
    exp_so3,
    exp_so3_many,
    geodesic_angle,
    geodesic_angle_many,
    hat,
    is_rotation,
    log_so3,
    project_to_so3,
    sample_noisy_rotation,
    vee,
)
from reference import reference_is_rotation


def random_tangent(rng, lo=0.0, hi=math.pi):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * rng.uniform(lo, hi)


class TestHatVee:
    def test_zero(self):
        assert np.array_equal(hat((0, 0, 0)), np.zeros((3, 3)))
        assert np.array_equal(vee(np.zeros((3, 3))), np.zeros(3))

    def test_unit_x_pattern(self):
        expected = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
        assert np.array_equal(hat((1, 0, 0)), expected)

    def test_skew_structure(self, rng):
        v = rng.normal(size=3)
        m = hat(v)
        assert np.allclose(m, -m.T)
        assert m[0, 1] == -v[2] and m[0, 2] == v[1] and m[1, 2] == -v[0]

    def test_inverse_pair(self):
        for v in [(0.3, -0.2, 0.7), (1, 2, 3), (0, 0, math.pi)]:
            assert np.allclose(vee(hat(v)), v)
            assert np.allclose(hat(vee(hat(v))), hat(v))

    def test_vee_rejects_non_skew(self):
        with pytest.raises(ValueError):
            vee(np.eye(3))

    def test_hat_is_cross_product(self, rng):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(hat(a) @ b, np.cross(a, b))


class TestExpLog:
    def test_exp_zero_is_identity(self):
        assert np.array_equal(exp_so3((0, 0, 0)), np.eye(3))

    def test_quarter_turn_about_z(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(exp_so3((0, 0, math.pi / 2)), expected, atol=1e-15)

    def test_log_identity(self):
        assert np.allclose(log_so3(np.eye(3)), np.zeros(3))

    def test_log_quarter_turn(self):
        r = exp_so3((0, 0, math.pi / 2))
        assert np.allclose(log_so3(r), (0, 0, math.pi / 2), atol=1e-12)

    def test_log_antipodal_either_sign(self):
        r = exp_so3((math.pi, 0, 0))
        v = log_so3(r)
        assert min(np.linalg.norm(v - [math.pi, 0, 0]), np.linalg.norm(v + [math.pi, 0, 0])) < 1e-9
        # the round trip is the real contract at pi
        assert np.allclose(exp_so3(v), r, atol=1e-9)

    def test_round_trip_fixed_vector(self):
        v = np.array([0.1, 0.2, 0.3])
        assert np.allclose(log_so3(exp_so3(v)), v, atol=1e-9)

    def test_round_trip_random(self, rng):
        for _ in range(200):
            v = random_tangent(rng, 1e-6, math.pi - 1e-3)
            assert np.linalg.norm(log_so3(exp_so3(v)) - v) < 1e-9

    def test_round_trip_near_pi(self, rng):
        for _ in range(50):
            v = random_tangent(rng, math.pi - 1e-3, math.pi - 1e-9)
            r = exp_so3(v)
            assert np.allclose(exp_so3(log_so3(r)), r, atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
        ).filter(lambda t: 1e-6 < np.linalg.norm(t)),
        st.floats(1e-5, math.pi - 1e-3),
    )
    def test_round_trip_property(self, direction, magnitude):
        v = np.array(direction) / np.linalg.norm(direction) * magnitude
        assert np.linalg.norm(log_so3(exp_so3(v)) - v) < 1e-9

    def test_exp_many_matches_scalar(self, rng):
        vs = rng.normal(size=(32, 3))
        batch = exp_so3_many(vs)
        for i, v in enumerate(vs):
            assert np.allclose(batch[i], exp_so3(v), atol=1e-14)


class TestGeodesicAngle:
    def test_identity(self):
        assert geodesic_angle(np.eye(3)) == 0.0

    def test_angle_preserved(self, rng):
        for _ in range(20):
            v = random_tangent(rng, 0.35, 0.35)
            assert abs(geodesic_angle(exp_so3(v)) - 0.35) < 1e-9

    def test_pi(self):
        assert abs(geodesic_angle(exp_so3((0, math.pi, 0))) - math.pi) < 1e-7

    def test_matches_log_norm_scaled(self, rng):
        # angle equals |log|_F / sqrt(2); hat doubles the vector norm
        for _ in range(50):
            v = random_tangent(rng, 1e-3, math.pi - 1e-3)
            r = exp_so3(v)
            log_frobenius = np.linalg.norm(hat(log_so3(r)))
            assert abs(geodesic_angle(r) - log_frobenius / math.sqrt(2)) < 1e-7

    def test_equals_tangent_norm(self, rng):
        for _ in range(100):
            v = random_tangent(rng, 0, math.pi - 1e-4)
            assert abs(geodesic_angle(exp_so3(v)) - np.linalg.norm(v)) < 1e-9

    def test_many_matches_scalar(self, rng):
        rs = exp_so3_many(rng.normal(size=(16, 3)))
        batch = geodesic_angle_many(rs)
        for i in range(16):
            assert abs(batch[i] - geodesic_angle(rs[i])) < 1e-14


class TestComposeUncertain:
    def test_monte_carlo_covariance(self, rng):
        # sampling oracle for first-order composition: the isotropic
        # covariances of two noisy rotations add
        sigma = 0.02
        n = 20_000
        r2, r1 = exp_so3(random_tangent(rng)), exp_so3(random_tangent(rng))
        mean = r2 @ r1
        noisy = np.einsum(
            "nij,njk->nik",
            exp_so3_many(rng.normal(0, sigma, (n, 3))) @ r2,
            exp_so3_many(rng.normal(0, sigma, (n, 3))) @ r1,
        )
        errors = np.stack([log_so3(noisy[i] @ mean.T) for i in range(n)])
        cov = errors.T @ errors / n
        expected = 2 * sigma**2 * np.eye(3)
        rel = np.linalg.norm(cov - expected) / np.linalg.norm(expected)
        assert rel < 0.05


class TestSampling:
    def test_sigma_zero_exact(self, rng):
        r = exp_so3(random_tangent(rng))
        assert np.array_equal(sample_noisy_rotation(r, 0.0, 3), r)

    def test_deterministic_per_seed(self):
        r = exp_so3((0.1, 0.2, 0.3))
        a = sample_noisy_rotation(r, 0.05, 7)
        b = sample_noisy_rotation(r, 0.05, 7)
        c = sample_noisy_rotation(r, 0.05, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_mean_angle_band(self):
        # expected norm of N(0, s^2 I3) lies in [1.5 s, sqrt(3) s]; allow a
        # 10% slack below the lower end for the first-order model
        sigma = 0.02
        gen = np.random.default_rng(0)
        angles = geodesic_angle_many(exp_so3_many(gen.normal(0, sigma, (20_000, 3))))
        mean = float(angles.mean())
        assert 0.9 * 1.5 * sigma <= mean <= math.sqrt(3) * sigma

    def test_output_is_rotation(self, rng):
        r = exp_so3(random_tangent(rng))
        assert is_rotation(sample_noisy_rotation(r, 0.3, rng), tol=1e-9)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            sample_noisy_rotation(np.eye(3), -0.1, 0)


class TestSqrtMScaling:
    def test_noise_grows_like_sqrt_m(self):
        # product of m noisy identities: mean error over sqrt(m) is flat
        sigma = 0.02
        gen = np.random.default_rng(42)
        n = 20_000
        ratios = []
        for m in (1, 2, 4, 8, 16):
            product = np.tile(np.eye(3), (n, 1, 1))
            for _ in range(m):
                product = np.einsum(
                    "nij,njk->nik", exp_so3_many(gen.normal(0, sigma, (n, 3))), product
                )
            mean_angle = float(geodesic_angle_many(product).mean())
            ratios.append(mean_angle / math.sqrt(m))
        spread = (max(ratios) - min(ratios)) / (sum(ratios) / len(ratios))
        assert spread < 0.10


class TestProjection:
    def test_projects_back(self, rng):
        r = exp_so3(random_tangent(rng))
        noisy = r + rng.normal(0, 1e-7, (3, 3))
        projected = project_to_so3(noisy)
        assert is_rotation(projected, tol=1e-9)
        assert np.linalg.norm(projected - r) < 1e-6

    def test_idempotent_on_rotations(self, rng):
        r = exp_so3(random_tangent(rng))
        assert np.allclose(project_to_so3(r), r, atol=1e-12)


@st.composite
def near_rotations(draw):
    """A rotation or a reflection plus noise of 1e-13 to 1e-3 per entry,
    so that the orthonormality gap falls on both sides of ORTHONORMAL_TOL."""
    tangent = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)))
    sign = draw(st.sampled_from([1.0, -1.0]))
    scale = 10.0 ** draw(st.floats(-13.0, -3.0))
    noise = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9)))
    return sign * exp_so3(tangent) + scale * noise.reshape(3, 3)


any_matrices = st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9).map(
    lambda entries: np.array(entries).reshape(3, 3)
)


class TestIsRotation:
    """is_rotation runs on Python floats; reference_is_rotation is the
    numpy formula it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(near_rotations(), any_matrices))
    def test_agrees_with_numpy_away_from_the_boundary(self, m):
        # the two round differently in the last bits, so matrices within
        # 1e-12 of either threshold may go either way
        gap = float(np.linalg.norm(m @ m.T - np.eye(3)))
        det_gap = abs(float(np.linalg.det(m)) - 1.0)
        assume(abs(gap - ORTHONORMAL_TOL) > 1e-12)
        assume(abs(det_gap - ORTHONORMAL_TOL) > 1e-12)
        assert is_rotation(m) == reference_is_rotation(m)

    def test_tolerance_edges(self, rng):
        r = exp_so3(random_tangent(rng))
        assert is_rotation(r)
        assert is_rotation(r + 1e-11)
        assert not is_rotation(r + 1e-7)
        assert is_rotation(r + 1e-7, tol=1e-6)
        assert not is_rotation(-r)  # det -1
        assert not is_rotation(np.eye(4))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e200, -1e300])
    def test_non_finite_or_overflowing_entry_is_not_a_rotation(self, value):
        m = np.eye(3)
        m[1, 2] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_rotation(m)

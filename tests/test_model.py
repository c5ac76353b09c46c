import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_graph, uniform_params
from loopsieve.cycles import minimum_cycle_basis
from loopsieve.graph import EdgeKind
from loopsieve.infer_admm import cycle_conditionals
from loopsieve.model import (
    CycleFactor,
    ModelParams,
    _popcounts,
    factors_from_basis,
    log_likelihood_rows,
    truncated_gaussian_mass,
)
from loopsieve.so3 import exp_so3
from reference import (
    cycle_conditional,
    fold_by_count,
    inlier_marginal,
    joint_log_density,
    log_cycle_likelihood,
    mixture_std,
)


class TestModelParams:
    def test_requires_separated_scales(self):
        with pytest.raises(ValueError):
            ModelParams(0.3, 0.03)
        with pytest.raises(ValueError):
            ModelParams(0.1, 0.1)

    def test_prior_lookup(self):
        p = ModelParams(0.03, 0.3, {5: 0.7})
        assert p.prior(5) == 0.7
        with pytest.raises(KeyError):
            p.prior(6)

    def test_prior_range_checked(self):
        with pytest.raises(ValueError):
            ModelParams(0.03, 0.3, {1: 1.2})


class TestTruncatedMass:
    def test_matches_quadrature(self):
        # independent oracle: dense trapezoid rule on the integrand
        for sigma in (0.01, 0.05, 0.2, 0.5, 1.0):
            t = np.linspace(0.0, math.pi, 200_001)
            y = np.exp(-(t**2) / (2 * sigma**2))
            reference = float(np.sum(np.diff(t) * (y[1:] + y[:-1]) / 2.0))
            assert abs(truncated_gaussian_mass(sigma) - reference) < 1e-9

    def test_increasing_in_sigma(self):
        values = [truncated_gaussian_mass(s) for s in (0.01, 0.1, 0.3, 1.0)]
        assert values == sorted(values)


class TestMixtureStd:
    def test_all_inlier_three_edges(self):
        f = CycleFactor(0, (0, 1, 2), 0, 0.1)
        p = ModelParams(0.03, 0.3)
        assert abs(mixture_std(f, 0, p) - math.sqrt(3) * 0.03) < 1e-12

    def test_one_outlier_with_fixed_edges(self):
        f = CycleFactor(0, (0,), 2, 0.1)
        p = ModelParams(0.03, 0.3)
        assert abs(mixture_std(f, 1, p) - math.sqrt(0.0918)) < 1e-12

    def test_strictly_increasing_in_s(self):
        f = CycleFactor(0, (0, 1, 2, 3), 1, 0.1)
        p = ModelParams(0.03, 0.3)
        stds = [mixture_std(f, s, p) for s in range(5)]
        assert all(a < b for a, b in zip(stds, stds[1:]))

    def test_s_out_of_range(self):
        f = CycleFactor(0, (0, 1), 0, 0.1)
        with pytest.raises(ValueError):
            mixture_std(f, 3, ModelParams(0.03, 0.3))


class TestLogCycleLikelihood:
    def test_zero_error_favors_all_inlier(self):
        p = ModelParams(0.03, 0.3)
        f = CycleFactor(0, (0, 1, 2), 0, 0.0)
        l0 = log_cycle_likelihood(f, 0, p)
        l3 = log_cycle_likelihood(f, 3, p)
        s0, s3 = mixture_std(f, 0, p), mixture_std(f, 3, p)
        expected_ratio = (s3**3 * truncated_gaussian_mass(s3)) / (
            s0**3 * truncated_gaussian_mass(s0)
        )
        assert l0 > l3
        assert abs((l0 - l3) - math.log(expected_ratio)) < 1e-12
        assert expected_ratio > 1.0

    def test_large_error_favors_outlier(self):
        # direct evaluation puts the crossover between 4 and 4.5 std(0) for
        # sigma_bar/sigma = 10; at 3 std(0) the all-inlier term still wins,
        # by 5 std(0) the one-outlier term dominates in every cycle shape
        p = ModelParams(0.03, 0.3)
        for members, n_fixed in [((0,), 0), ((0, 1, 2), 0), ((0, 1), 3)]:
            base = CycleFactor(0, members, n_fixed, 0.0)
            s0 = mixture_std(base, 0, p)
            at3 = CycleFactor(0, members, n_fixed, 3.0 * s0)
            at5 = CycleFactor(0, members, n_fixed, 5.0 * s0)
            assert log_cycle_likelihood(at3, 0, p) > log_cycle_likelihood(at3, 1, p)
            assert log_cycle_likelihood(at5, 1, p) > log_cycle_likelihood(at5, 0, p)

    def test_depends_only_on_count(self):
        # the likelihood takes s, not a configuration: equal-count masks in
        # the conditional get identical values
        p = uniform_params((0, 1, 2), prior=0.37)
        f = CycleFactor(0, (0, 1, 2), 1, 0.12)
        dist = cycle_conditional(f, p)
        by_count = {}
        for mask in range(8):
            by_count.setdefault(bin(mask).count("1"), []).append(dist[mask])
        for values in by_count.values():
            assert max(values) - min(values) < 1e-12


factor_strategy = st.builds(
    # at least one edge, so that every std is positive
    lambda k, n_fixed, z: CycleFactor(0, tuple(range(k)), max(n_fixed, 1 - k), z),
    st.integers(0, 6),
    st.integers(0, 8),
    st.floats(0.0, math.pi),
)
pair_strategy = st.tuples(
    st.floats(1e-4, 1.0), st.floats(1e-3, 3.0), st.booleans()
).map(
    # sigma_bar > sigma; grids built by numpy hold np.float64 values
    lambda t: tuple((np.float64 if t[2] else float)(v) for v in (t[0], t[0] + t[1]))
)


class TestLogLikelihoodRows:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(factor_strategy, max_size=6), st.lists(pair_strategy, min_size=1, max_size=5))
    # errors whose square by pow (z**2) and by multiplication (z*z) differ
    # in the last bit with glibc
    @example(
        [
            CycleFactor(0, (0, 1), 2, z)
            for z in (0.7851018787637928, 1.7779167936359777, 0.9638657378144811)
        ],
        [(0.03, 0.3), (math.radians(2.0), math.radians(20.0))],
    )
    def test_every_element_equals_scalar_likelihood(self, factors, pairs):
        table = log_likelihood_rows(factors, pairs)
        assert table.shape == (len(pairs), sum(len(f.lc_members) + 1 for f in factors))
        for p, (sigma, sigma_bar) in enumerate(pairs):
            params = ModelParams(sigma, sigma_bar)
            expected = [
                log_cycle_likelihood(f, s, params)
                for f in factors
                for s in range(len(f.lc_members) + 1)
            ]
            assert table[p].tolist() == expected


class TestCycleConditionals:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_batch_equals_stacked_conditionals(self, rng, k):
        # priors of exactly 0 and 1 put -inf into the log terms
        choices = np.array([0.0, 1.0, 0.3, 0.5, 0.9])
        priors = {}
        factors = []
        for i in range(40):
            members = tuple(range(10 * i, 10 * i + k))
            for eid in members:
                priors[eid] = float(rng.choice(choices)) if i % 2 else float(rng.uniform(0, 1))
            factors.append(
                CycleFactor(i, members, int(rng.integers(0, 4)), float(rng.uniform(0, 1.5)))
            )
        p = ModelParams(math.radians(2.0), math.radians(20.0), priors)
        log_rows = log_likelihood_rows(factors, [(p.sigma, p.sigma_bar)])[0]
        member_priors = np.array([[p.prior(e) for e in f.lc_members] for f in factors])
        batch = cycle_conditionals(log_rows.reshape(len(factors), k + 1), member_priors)
        stacked = np.stack([cycle_conditional(f, p) for f in factors])
        assert batch.shape == (len(factors), 1 << k)
        assert np.array_equal(batch, stacked)


class TestPopcounts:
    @pytest.mark.parametrize("k", range(13))
    def test_counts_set_bits(self, k):
        assert _popcounts(k).tolist() == [bin(i).count("1") for i in range(1 << k)]

    def test_one_byte_per_entry(self):
        assert _popcounts(20).nbytes == 2**20


class TestCycleConditional:
    def test_zero_error_single_member_prefers_inlier(self):
        p = uniform_params((0,))
        f = CycleFactor(0, (0,), 2, 0.0)
        dist = cycle_conditional(f, p)
        assert dist[0] > dist[1]

    def test_certain_priors_put_mass_on_zero_mask(self):
        p = uniform_params((0, 1), prior=1.0)
        f = CycleFactor(0, (0, 1), 0, 0.2)
        dist = cycle_conditional(f, p)
        assert dist[0] == pytest.approx(1.0)
        assert np.all(dist[1:] == 0.0)

    def test_matches_direct_enumeration(self, rng):
        # oracle: explicit product of prior and likelihood per mask
        for _ in range(10):
            k = int(rng.integers(1, 5))
            priors = {i: float(rng.uniform(0.05, 0.95)) for i in range(k)}
            p = ModelParams(0.03, 0.3, priors)
            f = CycleFactor(0, tuple(range(k)), int(rng.integers(0, 3)), float(rng.uniform(0, 1.5)))
            dist = cycle_conditional(f, p)
            raw = np.zeros(1 << k)
            for mask in range(1 << k):
                s = bin(mask).count("1")
                value = math.exp(log_cycle_likelihood(f, s, p))
                for j in range(k):
                    value *= (1 - priors[j]) if (mask >> j) & 1 else priors[j]
                raw[mask] = value
            assert np.allclose(dist, raw / raw.sum(), atol=1e-12)

    def test_permutation_equivariance(self):
        priors = {0: 0.2, 1: 0.6, 2: 0.9}
        p = ModelParams(0.03, 0.3, priors)
        f = CycleFactor(0, (0, 1, 2), 0, 0.4)
        g = CycleFactor(0, (2, 0, 1), 0, 0.4)
        d_f = cycle_conditional(f, p)
        d_g = cycle_conditional(g, p)
        # member j of g is member (j+2) % 3 of f: remap mask bits
        for mask in range(8):
            remapped = ((mask >> 1) & 0b11) | ((mask & 1) << 2)
            assert d_g[mask] == pytest.approx(d_f[remapped], abs=1e-12)

    def test_posterior_mass_on_all_inlier_decreases_with_z(self):
        p = uniform_params((0, 1))
        masses = []
        for z in np.linspace(0.0, 1.2, 13):
            f = CycleFactor(0, (0, 1), 2, float(z))
            masses.append(cycle_conditional(f, p)[0])
        assert all(a >= b - 1e-12 for a, b in zip(masses, masses[1:]))

    def test_scale_invariance_of_distribution(self):
        # dropping any constant per-cycle factor cannot change the result,
        # since the distribution normalizes
        p = uniform_params((0, 1, 2))
        f = CycleFactor(0, (0, 1, 2), 1, 0.3)
        d = cycle_conditional(f, p)
        assert d.sum() == pytest.approx(1.0)


class TestCycleDistribution:
    """The reference's distributions over a cycle's 2^k configurations."""

    def test_marginals(self):
        d = np.array([0.4, 0.3, 0.2, 0.1])
        assert inlier_marginal(d, 0) == pytest.approx(0.6)
        assert inlier_marginal(d, 1) == pytest.approx(0.7)
        assert fold_by_count([d]) == pytest.approx([0.4, 0.5, 0.1])
        assert fold_by_count([d, np.array([0.25, 0.75])]) == pytest.approx([0.4, 0.5, 0.1, 0.25, 0.75])


class TestJointLogDensity:
    def test_no_cycles_is_priors_only(self):
        g = make_graph(3, [(0, 0, 1), (1, 1, 2)])
        basis = minimum_cycle_basis(g)
        p = uniform_params((0, 1), prior=0.8)
        value = joint_log_density(g, basis, {0: 0, 1: 1}, p)
        assert value == pytest.approx(math.log(0.8) + math.log(0.2))

    def test_flip_changes_local_terms_only(self):
        r = exp_so3((0.05, 0.0, 0.0))
        g = make_graph(
            4,
            [(0, 0, 1, r), (1, 1, 2, r), (2, 0, 2, r), (3, 2, 3, r), (4, 3, 0, r)],
        )
        basis = minimum_cycle_basis(g)
        p = uniform_params(range(5), prior=0.6)
        x = {i: 0 for i in range(5)}
        base = joint_log_density(g, basis, x, p)
        factors = factors_from_basis(g, basis)
        flipped = {**x, 3: 1}
        delta = joint_log_density(g, basis, flipped, p) - base
        expected = math.log(0.4) - math.log(0.6)
        for f in factors:
            if 3 in f.lc_members:
                s_new = sum(flipped[e] for e in f.lc_members)
                s_old = sum(x[e] for e in f.lc_members)
                expected += log_cycle_likelihood(f, s_new, p) - log_cycle_likelihood(f, s_old, p)
        assert delta == pytest.approx(expected, abs=1e-12)

    def test_single_cycle_posterior_matches_conditional(self, rng):
        # brute-force enumeration oracle on a 1-cycle graph
        rots = [exp_so3(rng.normal(0, 0.1, 3)) for _ in range(3)]
        g = make_graph(3, [(0, 0, 1, rots[0]), (1, 1, 2, rots[1]), (2, 0, 2, rots[2])])
        basis = minimum_cycle_basis(g)
        p = ModelParams(0.03, 0.3, {0: 0.4, 1: 0.6, 2: 0.7})
        factor = factors_from_basis(g, basis)[0]
        weights = {}
        for assignment in itertools.product((0, 1), repeat=3):
            x = dict(zip((0, 1, 2), assignment))
            weights[assignment] = math.exp(joint_log_density(g, basis, x, p))
        total = sum(weights.values())
        marginal0 = sum(v for a, v in weights.items() if a[0] == 0) / total
        dist = cycle_conditional(factor, p)
        member_index = factor.lc_members.index(0)
        assert marginal0 == pytest.approx(inlier_marginal(dist, member_index), abs=1e-10)

    def test_missing_edge_rejected(self):
        g = make_graph(3, [(0, 0, 1), (1, 1, 2), (2, 0, 2)])
        basis = minimum_cycle_basis(g)
        with pytest.raises(ValueError, match="missing"):
            joint_log_density(g, basis, {0: 0, 1: 0}, uniform_params(range(3)))

import math

import numpy as np
import pytest

from conftest import (
    gaussian_model_graph,
    pooled_factor_graph,
    uniform_params,
)
from loopsieve.cycles import minimum_cycle_basis
from loopsieve.em import (
    EmConfig,
    default_sigma_bar_grid,
    default_sigma_grid,
    e_step,
    m_step_priors,
    m_step_sigmas,
    q_value,
    run_em,
)
from loopsieve.factorgraph import (
    FactorGraph,
    InferenceMethod,
    InferenceResult,
    build_factor_graph,
    exact_marginals,
)
from loopsieve.graph import loop_closure_edges
from loopsieve.model import CycleFactor, ModelParams, log_likelihood_rows
from reference import (
    cycle_conditional,
    fold_by_count,
    inlier_marginal,
    log_cycle_likelihood,
)

SIGMA_TRUE = math.radians(2.0)
SIGMA_BAR_TRUE = math.radians(20.0)


def lc_priors(g, value=0.5):
    return np.full(len(loop_closure_edges(g)), value)


def expected_cycle_term(factor, count_marginals, params):
    """Scalar reference: expected log-likelihood of one cycle under its
    count responsibilities."""
    total = 0.0
    for s, weight in enumerate(count_marginals):
        if weight > 0.0:
            total += float(weight) * log_cycle_likelihood(factor, s, params)
    return total


def m_step(count_marginals, factors, cfg, c_contiguous=False):
    """The library's grid M-step on the table that run_em builds for `cfg`,
    or on a C-contiguous copy of it: ((sigma, sigma_bar), cycle term)."""
    table = log_likelihood_rows(factors, cfg.pairs)
    if c_contiguous:
        table = np.ascontiguousarray(table)
    return m_step_sigmas(count_marginals, table, cfg.pairs)


def reference_m_step_sigmas(count_marginals, factors, cfg):
    """Scalar reference of the grid M-step: the first pair with the
    largest objective wins. Returns the pair and its objective."""
    starts = np.cumsum([0] + [len(f.lc_members) + 1 for f in factors])
    count_margs = [count_marginals[a:b] for a, b in zip(starts[:-1], starts[1:])]
    best = None
    best_value = -math.inf
    for sigma in cfg.sigma_grid:
        for sigma_bar in cfg.sigma_bar_grid:
            if sigma_bar <= sigma:
                continue
            candidate = ModelParams(sigma, sigma_bar)
            value = sum(
                expected_cycle_term(f, qc, candidate)
                for f, qc in zip(factors, count_margs)
            )
            if value > best_value:
                best_value = value
                best = (sigma, sigma_bar)
    return best, best_value


def random_factors_and_counts(rng, n_factors):
    """Random factors and the count marginals of random distributions over
    their configurations."""
    factors, dists = [], []
    for i in range(n_factors):
        k = int(rng.integers(1, 5))
        members = tuple(range(10 * i, 10 * i + k))
        factors.append(CycleFactor(i, members, int(rng.integers(0, 5)), float(rng.uniform(0, 1.5))))
        dists.append(rng.dirichlet(np.ones(1 << k)))
    return tuple(factors), fold_by_count(dists)


class TestConfig:
    def test_default_grids(self):
        grid = default_sigma_grid()
        assert len(grid) == 10
        assert grid[0] == pytest.approx(math.radians(0.5))
        assert grid[-1] == pytest.approx(math.radians(5.0))
        bar = default_sigma_bar_grid()
        assert len(bar) == 9
        assert bar[0] == pytest.approx(math.radians(5.0))
        assert bar[-1] == pytest.approx(math.radians(45.0))

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            EmConfig(sigma_grid=())
        with pytest.raises(ValueError):
            EmConfig(sigma_grid=(0.2, 0.1))
        with pytest.raises(ValueError):
            EmConfig(sigma_grid=(0.5,), sigma_bar_grid=(0.4,))

    @pytest.mark.parametrize("rounds", [0, -3])
    def test_rejects_no_rounds(self, rounds):
        # run_em would run no round and return the initial scales as fitted
        with pytest.raises(ValueError, match=f"^max_rounds must be at least 1, got {rounds}$"):
            EmConfig(max_rounds=rounds)

    def test_one_round_is_the_least(self):
        assert EmConfig(max_rounds=1).max_rounds == 1


class TestEStep:
    def test_exact_single_cycle_matches_conditional(self):
        f = CycleFactor(0, (0, 1), 1, 0.3)
        fg = FactorGraph((0, 1), (f,))
        p = uniform_params((0, 1), prior=0.6)
        result = e_step(fg, p, InferenceMethod.EXACT)
        expected = cycle_conditional(f, p, fg.variables)
        assert result.count_marginals == pytest.approx(fold_by_count([expected]), abs=1e-12)
        for j, eid in enumerate(f.lc_members):
            assert result.edge_marginals[eid] == pytest.approx(
                inlier_marginal(expected, j), abs=1e-12
            )

    def test_methods_agree_on_two_cycle_toy(self):
        # exact is the referee; on a consistent-evidence toy all three stay
        # within 0.05 of each other
        factors = (
            CycleFactor(0, (0, 1), 2, 0.05),
            CycleFactor(1, (1, 2), 2, 0.08),
        )
        fg = FactorGraph((0, 1, 2), factors)
        p = uniform_params((0, 1, 2))
        exact = e_step(fg, p, InferenceMethod.EXACT)
        bp = e_step(fg, p, InferenceMethod.BP)
        admm = e_step(fg, p, InferenceMethod.ADMM)
        for eid in fg.variables:
            assert bp.edge_marginals[eid] == pytest.approx(
                exact.edge_marginals[eid], abs=0.05
            )
            assert admm.edge_marginals[eid] == pytest.approx(
                exact.edge_marginals[eid], abs=0.05
            )

    def test_methods_same_labels_on_exoneration_toy(self):
        # one clean cycle exonerates the shared edge; consensus averaging
        # yields softer marginals than the posterior but the same labels
        factors = (
            CycleFactor(0, (0, 1), 2, 0.03),
            CycleFactor(1, (1, 2), 2, 0.5),
        )
        fg = FactorGraph((0, 1, 2), factors)
        p = uniform_params((0, 1, 2))
        exact = e_step(fg, p, InferenceMethod.EXACT)
        bp = e_step(fg, p, InferenceMethod.BP)
        admm = e_step(fg, p, InferenceMethod.ADMM)
        for eid in fg.variables:
            truth_label = exact.edge_marginals[eid] < 0.5
            assert (bp.edge_marginals[eid] < 0.5) == truth_label
            assert (admm.edge_marginals[eid] < 0.5) == truth_label

    def test_uncycled_edge_keeps_prior(self):
        fg = FactorGraph((0, 1, 5), (CycleFactor(0, (0, 1), 0, 0.1),))
        p = ModelParams(0.03, 0.3, [0.5, 0.5, 0.9])
        for method in InferenceMethod:
            result = e_step(fg, p, method)
            assert result.edge_marginals[5] == pytest.approx(0.9, abs=1e-9)

    def test_options_reach_the_back_end(self):
        factors = (CycleFactor(0, (0, 1), 2, 0.05), CycleFactor(1, (1, 2), 2, 0.5))
        fg = FactorGraph((0, 1, 2), factors)
        p = uniform_params((0, 1, 2))
        assert e_step(fg, p, InferenceMethod.BP).iterations > 1
        assert e_step(fg, p, InferenceMethod.BP, max_iters=1).iterations == 1
        assert e_step(fg, p, InferenceMethod.ADMM).trace == ()
        assert len(e_step(fg, p, InferenceMethod.ADMM, record_trace=True).trace) > 0

    def test_exact_takes_no_options(self):
        fg = FactorGraph((0, 1), (CycleFactor(0, (0, 1), 1, 0.3),))
        with pytest.raises(TypeError):
            e_step(fg, uniform_params((0, 1)), InferenceMethod.EXACT, max_iters=5)


class TestMStepPriors:
    def test_sets_prior_to_responsibility(self):
        new = m_step_priors(np.array([0.9, 0.2]))
        assert new.tolist() == [0.9, 0.2]

    def test_idempotent(self):
        once = m_step_priors(np.array([0.9, 0.0, 1.0]))
        assert m_step_priors(ModelParams(0.03, 0.3, once).priors).tolist() == once.tolist()

    def test_clips_into_the_unit_interval(self):
        assert m_step_priors(np.array([-1e-17, 1.0 + 2e-16])).tolist() == [0.0, 1.0]


def reference_q_value(variables, result, params, cycle_term):
    """The Q value one edge at a time, by math.log and math.log1p."""
    total = 0.0
    for eid, pi in zip(variables, params.priors.tolist()):
        gamma = result.edge_marginals[eid]
        if gamma > 0.0:
            total += gamma * (math.log(pi) if pi > 0 else -math.inf)
        if gamma < 1.0:
            total += (1.0 - gamma) * (math.log1p(-pi) if pi < 1 else -math.inf)
    return total + cycle_term


class TestQValue:
    def result(self, marginals):
        variables = tuple(range(len(marginals)))
        return InferenceResult(variables, np.array(marginals), np.zeros(0), True, 1)

    def test_matches_the_per_edge_sum(self, rng):
        for n in (0, 1, 5, 40):
            result = self.result(rng.uniform(0, 1, n))
            params = ModelParams(0.03, 0.3, rng.uniform(0.05, 0.95, n))
            expected = reference_q_value(result.variables, result, params, -3.5)
            assert q_value(result, params, -3.5) == pytest.approx(expected, rel=1e-14, abs=1e-14)

    def test_certain_terms_add_nothing_where_their_weight_is_zero(self):
        # a prior of 0 or 1 has a log of -inf; a responsibility of exactly
        # 0 or 1 on that side drops the term instead of making it NaN
        result = self.result([0.0, 1.0, 1.0])
        params = ModelParams(0.03, 0.3, [0.0, 1.0, 0.5])
        with np.errstate(all="raise"):
            assert q_value(result, params, 0.0) == math.log(0.5)

    def test_impossible_responsibility_is_minus_infinity(self):
        result = self.result([0.5])
        assert q_value(result, ModelParams(0.03, 0.3, [1.0]), 0.0) == -math.inf


class TestMStepSigmas:
    def test_single_grid_point(self):
        f = CycleFactor(0, (0, 1), 0, 0.1)
        counts = fold_by_count([cycle_conditional(f, uniform_params((0, 1)), (0, 1))])
        cfg = EmConfig(sigma_grid=(0.02,), sigma_bar_grid=(0.25,))
        assert m_step(counts, (f,), cfg)[0] == (0.02, 0.25)

    def test_sigma_tracks_small_consistent_errors(self):
        # 1-D sweep oracle: with responsibility frozen на all-inlier, the
        # objective is maximized near z / sqrt(cycle length)
        length = 4
        z = 0.08
        f = CycleFactor(0, (0, 1), length - 2, z)
        all_inlier = np.array([1.0, 0.0, 0.0])
        grid = tuple(np.linspace(0.005, 0.12, 60))
        cfg = EmConfig(sigma_grid=grid, sigma_bar_grid=(0.5,))
        (sigma, _), _ = m_step(all_inlier, (f,), cfg)
        # 1-D sweep oracle over the closed-form objective
        dense = [
            expected_cycle_term(f, all_inlier, ModelParams(s, 0.5))
            for s in grid
        ]
        assert sigma == grid[int(np.argmax(dense))]
        # the scale^-3 prefactor puts the peak at std = z / sqrt(3), i.e.
        # sigma = z / sqrt(3 |c|); it must land in [that/2, z / sqrt(|c|)]
        assert z / (2 * math.sqrt(3 * length)) <= sigma <= z / math.sqrt(length)

    def test_sigma_bar_tracks_outlier_errors(self):
        one_outlier = np.array([0.0, 1.0])
        bar_grid = tuple(np.linspace(0.1, 1.0, 80))
        estimates = []
        for z in (0.25, 0.45, 0.8):
            f = CycleFactor(0, (0,), 3, z)
            cfg = EmConfig(sigma_grid=(0.02,), sigma_bar_grid=bar_grid)
            (_, sigma_bar), _ = m_step(one_outlier, (f,), cfg)
            dense = [
                expected_cycle_term(f, one_outlier, ModelParams(0.02, sb))
                for sb in bar_grid
            ]
            assert sigma_bar == bar_grid[int(np.argmax(dense))]
            # the scale^-3 prefactor centers the peak near z / sqrt(3)
            assert z / 3 <= sigma_bar <= z
            estimates.append(sigma_bar)
        assert estimates == sorted(estimates)  # grows with the observed error

    def test_ties_break_toward_smaller(self):
        # a constant objective (weight-free beliefs impossible; use identical
        # repeated grid values instead) keeps the first, smallest pair
        f = CycleFactor(0, (0,), 0, 0.1)
        counts = np.array([0.5, 0.5])
        cfg = EmConfig(sigma_grid=(0.02, 0.02), sigma_bar_grid=(0.3, 0.3))
        assert m_step(counts, (f,), cfg)[0] == (0.02, 0.3)

    def test_count_marginal_equals_naive_mask_sum(self, rng):
        # the objective folded to outlier counts must equal the full 2^k sum
        for _ in range(5):
            k = int(rng.integers(1, 5))
            p = ModelParams(0.02, 0.3, rng.uniform(0.2, 0.8, k))
            f = CycleFactor(0, tuple(range(k)), 1, float(rng.uniform(0, 1)))
            belief = cycle_conditional(f, p, f.lc_members)
            candidate = ModelParams(0.03, 0.25)
            folded = expected_cycle_term(f, fold_by_count([belief]), candidate)
            naive = sum(
                belief[mask]
                * log_cycle_likelihood(f, bin(mask).count("1"), candidate)
                for mask in range(1 << k)
            )
            assert folded == pytest.approx(naive, abs=1e-10)

    # run_em's table is not C-contiguous; the M-step must not depend on
    # the table's memory layout
    @pytest.mark.parametrize("c_contiguous", [False, True])
    def test_matches_reference_on_random_beliefs(self, rng, c_contiguous):
        cfg = EmConfig()
        for n_factors in (1, 3, 12, 30):
            factors, counts = random_factors_and_counts(rng, n_factors)
            pair, cycle_term = m_step(counts, factors, cfg, c_contiguous)
            expected_pair, expected_term = reference_m_step_sigmas(counts, factors, cfg)
            assert pair == expected_pair
            assert cycle_term == pytest.approx(expected_term, rel=1e-12)
            # bit for bit the sum of a one-pair table, as the q value was
            # computed before the table was shared across rounds
            one_pair = log_likelihood_rows(factors, [pair])
            assert cycle_term == float((one_pair * counts).sum(axis=1)[0])

    @pytest.mark.parametrize("c_contiguous", [False, True])
    def test_flat_objective_keeps_first_pair(self, rng, c_contiguous):
        # equal grid values as distinct objects score equal; the first of
        # the tied pairs must win, as in the scalar loop
        sigmas = tuple(float(np.float64(0.02)) for _ in range(3))
        bars = tuple(float(np.float64(0.3)) for _ in range(2))
        cfg = EmConfig(sigma_grid=sigmas, sigma_bar_grid=bars)
        factors, counts = random_factors_and_counts(rng, 7)
        got, _ = m_step(counts, factors, cfg, c_contiguous)
        expected, _ = reference_m_step_sigmas(counts, factors, cfg)
        assert got[0] is expected[0] is sigmas[0]
        assert got[1] is expected[1] is bars[0]

    @pytest.mark.parametrize("c_contiguous", [False, True])
    def test_no_factors_gives_first_pair(self, c_contiguous):
        cfg = EmConfig()
        expected = (cfg.sigma_grid[0], cfg.sigma_bar_grid[0])
        assert m_step(np.zeros(0), (), cfg, c_contiguous) == (expected, 0.0)
        assert reference_m_step_sigmas(np.zeros(0), (), cfg)[0] == expected

    def test_respects_sigma_bar_gt_sigma(self):
        f = CycleFactor(0, (0,), 0, 0.1)
        counts = np.array([0.5, 0.5])
        cfg = EmConfig(sigma_grid=(0.01, 0.3), sigma_bar_grid=(0.2,))
        (sigma, sigma_bar), _ = m_step(counts, (f,), cfg)
        assert sigma_bar > sigma


class TestRunEm:
    def build_pooled(self, master, n_graphs=4, m_lc=12, n_out=3):
        graphs = [
            gaussian_model_graph(
                m_lc, n_out, 6, SIGMA_TRUE, SIGMA_BAR_TRUE,
                seed=1000 * master + j, id_base=1000 * j,
            )
            for j in range(n_graphs)
        ]
        fg = pooled_factor_graph(graphs)
        return fg, np.full(len(fg.variables), 0.5)

    def test_recovery_within_one_grid_step(self):
        fg, priors = self.build_pooled(master=0)
        init = ModelParams(math.radians(4), math.radians(30), priors)
        cfg = EmConfig(max_rounds=15, inference=InferenceMethod.EXACT)
        params, trace, final = run_em(fg, init, cfg)
        assert abs(params.sigma - SIGMA_TRUE) <= math.radians(0.5) + 1e-12
        lls = [r.data_log_likelihood for r in trace.rounds]
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))

    def test_fixed_point_at_truth(self):
        fg, priors = self.build_pooled(master=3)
        truth = ModelParams(SIGMA_TRUE, SIGMA_BAR_TRUE, priors)
        cfg = EmConfig(max_rounds=3, inference=InferenceMethod.EXACT)
        params, _, _ = run_em(fg, truth, cfg)
        assert abs(params.sigma - SIGMA_TRUE) <= math.radians(0.5) + 1e-12
        assert abs(params.sigma_bar - SIGMA_BAR_TRUE) <= math.radians(5.0) + 1e-12

    def test_deterministic(self):
        fg, priors = self.build_pooled(master=2, n_graphs=2)
        init = ModelParams(math.radians(4), math.radians(30), priors)
        cfg = EmConfig(max_rounds=5, inference=InferenceMethod.EXACT)
        a = run_em(fg, init, cfg)
        b = run_em(fg, init, cfg)
        assert a[0].sigma == b[0].sigma and a[0].sigma_bar == b[0].sigma_bar
        assert [r.q_value for r in a[1].rounds] == [r.q_value for r in b[1].rounds]

    def test_freeze_priors_keeps_priors(self):
        fg, priors = self.build_pooled(master=1, n_graphs=2)
        init = ModelParams(math.radians(4), math.radians(30), priors)
        cfg = EmConfig(max_rounds=3, inference=InferenceMethod.EXACT, freeze_priors=True)
        params, _, _ = run_em(fg, init, cfg)
        assert params.priors.tolist() == priors.tolist()

    def test_approximate_estep_runs(self):
        g = gaussian_model_graph(8, 2, 6, SIGMA_TRUE, SIGMA_BAR_TRUE, seed=5)
        fg = build_factor_graph(g, minimum_cycle_basis(g))
        init = ModelParams(math.radians(3), math.radians(25), lc_priors(g))
        for method in (InferenceMethod.BP, InferenceMethod.ADMM):
            cfg = EmConfig(max_rounds=3, inference=method)
            params, trace, final = run_em(fg, init, cfg)
            assert len(trace.rounds) >= 1
            assert math.isnan(trace.rounds[0].data_log_likelihood)
            assert params.sigma_bar > params.sigma

    def test_admm_fit_reaches_module_globals(self, monkeypatch):
        # run_em must look e_step, m_step_sigmas, q_value and run_admm up
        # in loopsieve.em at call time, so that wrappers installed there
        # see every call
        import loopsieve.em as em

        calls = {"e_step": 0, "m_step_sigmas": 0, "q_value": 0, "run_admm": 0}

        def counting(name):
            original = getattr(em, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(em, name, wrapper)

        for name in calls:
            counting(name)
        g = gaussian_model_graph(8, 2, 6, SIGMA_TRUE, SIGMA_BAR_TRUE, seed=5)
        fg = build_factor_graph(g, minimum_cycle_basis(g))
        init = ModelParams(math.radians(3), math.radians(25), lc_priors(g))
        cfg = EmConfig(max_rounds=3, inference=InferenceMethod.ADMM)
        _, trace, _ = run_em(fg, init, cfg)
        # one E-step per round plus the final one under the fitted params
        assert calls["e_step"] == len(trace.rounds) + 1
        assert calls["run_admm"] == calls["e_step"]
        assert calls["m_step_sigmas"] == calls["q_value"] == len(trace.rounds)

    @pytest.mark.parametrize("method", list(InferenceMethod))
    def test_likelihood_table_built_once_per_fit(self, monkeypatch, method):
        import loopsieve.em as em

        calls = []
        original = em.likelihood_table

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(em, "likelihood_table", counting)
        fg, priors = self.build_pooled(master=2, n_graphs=2)
        init = ModelParams(math.radians(4), math.radians(30), priors)
        _, trace, _ = run_em(fg, init, EmConfig(max_rounds=5, inference=method))
        assert len(trace.rounds) > 1
        assert len(calls) == 1

    def test_exact_fit_enumerates_once_per_round(self, monkeypatch):
        # the data log-likelihood comes from the E-step's own enumeration:
        # one exact_marginals call per round plus the final E-step
        import loopsieve.em as em

        calls = []
        original = em.exact_marginals

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(em, "exact_marginals", counting)
        fg, priors = self.build_pooled(master=2, n_graphs=2)
        init = ModelParams(math.radians(4), math.radians(30), priors)
        cfg = EmConfig(max_rounds=5, inference=InferenceMethod.EXACT)
        _, trace, _ = run_em(fg, init, cfg)
        assert len(calls) == len(trace.rounds) + 1
        for r in trace.rounds:
            assert math.isfinite(r.data_log_likelihood)

    @pytest.mark.parametrize("method", list(InferenceMethod))
    @pytest.mark.parametrize("fg", [FactorGraph((1,), ()), FactorGraph((), ())])
    def test_empty_graph_returns_first_grid_pair(self, fg, method):
        init = ModelParams(math.radians(3), math.radians(25), np.full(len(fg.variables), 0.5))
        cfg = EmConfig(inference=method)
        params, trace, final = run_em(fg, init, cfg)
        assert (params.sigma, params.sigma_bar) == (math.radians(0.5), math.radians(5.0))
        assert len(trace.rounds) >= 1
        assert final.count_marginals.shape == (0,)

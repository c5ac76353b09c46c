import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import loop_closure_ring, mean_count_gaps, three_cycle_factor_graph, uniform_params
from loopsieve.cycles import minimum_cycle_basis
from loopsieve.factorgraph import FactorGraph, build_factor_graph, exact_marginals
from loopsieve import infer_admm
from loopsieve.infer_admm import (
    DEFAULT_LC_CAP,
    RHO,
    AdmmOptions,
    RELAXATION,
    CycleCapError,
    consensus_step,
    marginalization_matrix,
    run_admm,
)
from loopsieve.model import CycleFactor, ModelParams
from loopsieve.synth import SynthSpec, generate, generate_suite
from reference import (
    consensus_qp_optimum,
    cycle_conditional,
    inlier_marginal,
    project_to_simplex,
)


class TestMarginalizationMatrix:
    def test_row_support(self):
        for k in (1, 2, 3, 4):
            p = marginalization_matrix(k)
            assert p.shape == (k, 1 << k)
            assert np.all(p.sum(axis=1) == (1 << (k - 1)))

    def test_indicator_semantics(self):
        p = marginalization_matrix(2)
        # bit 0 clear on masks 0 and 2; bit 1 clear on masks 0 and 1
        assert np.array_equal(p[0], [1, 0, 1, 0])
        assert np.array_equal(p[1], [1, 1, 0, 0])

    def test_marginal_extraction(self):
        dist = np.array([0.4, 0.3, 0.2, 0.1])
        p = marginalization_matrix(2)
        assert p @ dist == pytest.approx([0.6, 0.7])


class TestSimplexProjection:
    def test_already_feasible(self):
        v = np.array([0.2, 0.5, 0.3])
        assert project_to_simplex(v) == pytest.approx(v)

    def test_feasibility(self, rng):
        for _ in range(50):
            v = rng.normal(0, 3, size=int(rng.integers(1, 20)))
            proj = project_to_simplex(v)
            assert np.all(proj >= 0)
            assert proj.sum() == pytest.approx(1.0)

    def test_is_nearest_point(self, rng):
        scipy_opt = pytest.importorskip("scipy.optimize")
        for _ in range(5):
            v = rng.normal(0, 1, 6)
            proj = project_to_simplex(v)
            ref = scipy_opt.minimize(
                lambda x: np.sum((x - v) ** 2),
                np.full(6, 1 / 6),
                jac=lambda x: 2 * (x - v),
                bounds=[(0, None)] * 6,
                constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1}],
                method="SLSQP",
                options={"ftol": 1e-14, "maxiter": 500},
            )
            assert proj == pytest.approx(ref.x, abs=1e-6)


def step(marginals, duals, members_pos, rho, w_prev):
    """consensus_step on per-cycle lists, concatenated in order."""
    pos = np.concatenate(members_pos)
    w_prev = np.asarray(w_prev, dtype=float)
    degree = np.bincount(pos, minlength=len(w_prev))
    return consensus_step(
        np.concatenate(marginals), np.concatenate(duals), pos,
        degree, w_prev, rho, 1.0, np.flatnonzero(degree),
    )


class TestUpdateW:
    def test_single_cycle_clamped_marginal(self):
        w, *_ = step([np.array([0.4])], [np.zeros(1)], [np.array([0])], 1.0, [0.9])
        assert w == pytest.approx([0.4])

    def test_two_cycles_average(self):
        w, *_ = step(
            [np.array([0.4]), np.array([0.6])],
            [np.zeros(1), np.zeros(1)],
            [np.array([0]), np.array([0])],
            1.0,
            [0.0],
        )
        assert w == pytest.approx([0.5])

    def test_clamp_above_one(self):
        w, *_ = step([np.array([0.9])], [np.array([0.6])], [np.array([0])], 2.0, [0.0])
        # 0.9 + 0.6/2 = 1.2 -> clamped to 1
        assert w == pytest.approx([1.0])

    def test_uncovered_edge_keeps_previous(self):
        w, *_ = step([np.array([0.4])], [np.zeros(1)], [np.array([0])], 1.0, [0.9, 0.77])
        assert w[1] == 0.77


class TestUpdateDuals:
    def test_consensus_met_unchanged(self):
        # duals of opposite sign on one edge: w = 0.5 meets both marginals
        w, ys, *_ = step(
            [np.array([0.5]), np.array([0.5])],
            [np.array([0.3]), np.array([-0.3])],
            [np.array([0]), np.array([0])],
            2.0,
            [0.0],
        )
        assert w == pytest.approx([0.5])
        assert ys == pytest.approx([0.3, -0.3])

    def test_increment(self):
        # y_c += rho (P_c v_c - w) with the fresh w = 0.5
        _, ys, *_ = step(
            [np.array([0.7]), np.array([0.3])],
            [np.zeros(1), np.zeros(1)],
            [np.array([0]), np.array([0])],
            2.0,
            [0.0],
        )
        assert ys == pytest.approx([0.4, -0.4])

    def test_bounded_over_long_runs(self, rng):
        # empirical boundedness on a random consensus instance
        fg = three_cycle_factor_graph(tuple(float(v) for v in rng.uniform(0, 0.6, 3)))
        p = uniform_params(fg.variables)
        result = run_admm(
            fg, p, AdmmOptions(max_iters=1000, tol=0.0, record_trace=True)
        )
        assert all(math.isfinite(row.primal_residual) for row in result.trace)
        assert math.isfinite(result.primal_residual)


class TestRelaxedStep:
    def test_relaxed_marginal_and_unrelaxed_primal(self):
        # x_hat = 1.5 * 0.4 - 0.5 * 0.5 = 0.35 becomes w, so the dual step
        # adds rho (x_hat - w) = 0, while the primal residual measures the
        # unrelaxed gap 0.4 - 0.35
        w, y, r, t = consensus_step(
            np.array([0.4]), np.zeros(1), np.array([0]), np.ones(1, np.intp), np.array([0.5]),
            2.0, 1.5, np.array([0]),
        )
        assert w == pytest.approx([0.35])
        assert y == pytest.approx([0.0], abs=1e-15)
        assert r == pytest.approx(0.05**2)
        assert t == pytest.approx(4.0 * 0.15**2)


class TestResiduals:
    def test_fixed_point_is_zero(self):
        _, _, r, t = step(
            [np.array([0.25, 0.75])], [np.zeros(2)], [np.array([0, 1])], 3.0, [0.25, 0.75]
        )
        assert r == 0.0 and t == 0.0

    def test_cold_start_positive(self):
        # two cycles on edges 0 and 1 that disagree, w moving from 0.9
        _, _, r, t = step(
            [np.array([0.3, 0.6]), np.array([0.5, 0.2])],
            [np.zeros(2), np.zeros(2)],
            [np.array([0, 1]), np.array([0, 1])],
            1.0,
            [0.9, 0.9],
        )
        assert r > 0 and t > 0

    def test_per_edge_regrouping_identity(self, rng):
        # t, computed per edge and weighted by its degree, and r equal
        # their sums over (edge, cycle) incidences
        margs = [rng.uniform(0, 1, 2), rng.uniform(0, 1, 3)]
        duals = [rng.normal(0, 0.1, 2), rng.normal(0, 0.1, 3)]
        pos = [np.array([0, 1]), np.array([1, 2, 3])]
        w_prev = rng.uniform(0, 1, 5)
        w, _, r, t = step(margs, duals, pos, 1.5, w_prev)
        flat_r = flat_t = 0.0
        for marg, p_row in zip(margs, pos):
            for value, edge in zip(marg, p_row):
                flat_r += (value - w[edge]) ** 2
                flat_t += 1.5**2 * (w[edge] - w_prev[edge]) ** 2
        assert r == pytest.approx(flat_r, abs=1e-12)
        assert t == pytest.approx(flat_t, abs=1e-12)
        assert w[4] == w_prev[4]


class TestLimits:
    def test_cycle_one_over_the_cap_is_refused(self):
        at_cap = loop_closure_ring(DEFAULT_LC_CAP)
        fg = build_factor_graph(at_cap, minimum_cycle_basis(at_cap))
        assert [len(f.lc_members) for f in fg.factors] == [DEFAULT_LC_CAP]
        over = loop_closure_ring(DEFAULT_LC_CAP + 1)
        fg = build_factor_graph(over, minimum_cycle_basis(over))
        p = ModelParams.from_graph(over, math.radians(2.0), math.radians(20.0))
        with pytest.raises(CycleCapError, match="cycle 0 has 17 loop-closure members"):
            run_admm(fg, p)

    def test_refused_before_any_table_is_built(self):
        # v_c and P_c of a 30-member cycle would take 8 GiB each
        ring = loop_closure_ring(30)
        fg = build_factor_graph(ring, minimum_cycle_basis(ring))
        p = ModelParams.from_graph(ring, math.radians(2.0), math.radians(20.0))
        tracemalloc.start()
        try:
            with pytest.raises(CycleCapError, match="cycle 0 has 30 loop-closure members"):
                run_admm(fg, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestOptions:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("max_iters", 0, "max_iters must be at least 1, got 0"),
            ("max_iters", -3, "max_iters must be at least 1, got -3"),
            ("tol", -1.0, "tol must be finite and >= 0, got -1.0"),
            ("tol", math.nan, "tol must be finite and >= 0, got nan"),
            ("tol", math.inf, "tol must be finite and >= 0, got inf"),
        ],
    )
    def test_invalid_limits_are_refused(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AdmmOptions(**{field: value})

    def test_smallest_valid_limits(self):
        fg = three_cycle_factor_graph((0.1, 0.3, 0.2))
        result = run_admm(
            fg, uniform_params(fg.variables), AdmmOptions(max_iters=1, tol=0.0)
        )
        assert result.iterations == 1 and not result.converged


class TestRunAdmm:
    def test_single_cycle_matches_conditional(self, rng):
        for _ in range(5):
            k = int(rng.integers(1, 4))
            priors = {i: float(rng.uniform(0.3, 0.8)) for i in range(k)}
            p = ModelParams(0.03, 0.3, priors)
            f = CycleFactor(0, tuple(range(k)), 1, float(rng.uniform(0, 0.7)))
            fg = FactorGraph(tuple(range(k)), (f,))
            result = run_admm(fg, p, AdmmOptions(scale_tol=False, tol=1e-10))
            dist = cycle_conditional(f, p)
            for j, eid in enumerate(f.lc_members):
                assert result.edge_marginals[eid] == pytest.approx(
                    inlier_marginal(dist, j), abs=1e-4
                )

    def test_disjoint_cycles_solve_independently(self):
        f0 = CycleFactor(0, (0, 1), 1, 0.15)
        f1 = CycleFactor(1, (2, 3), 0, 0.55)
        fg = FactorGraph((0, 1, 2, 3), (f0, f1))
        p = uniform_params(range(4), prior=0.6)
        result = run_admm(fg, p, AdmmOptions(scale_tol=False, tol=1e-10))
        for f in (f0, f1):
            dist = cycle_conditional(f, p)
            for j, eid in enumerate(f.lc_members):
                assert result.edge_marginals[eid] == pytest.approx(
                    inlier_marginal(dist, j), abs=1e-4
                )

    def test_uncovered_edge_keeps_prior(self):
        fg = FactorGraph((0, 1, 7), (CycleFactor(0, (0, 1), 0, 0.2),))
        p = ModelParams(0.03, 0.3, {0: 0.5, 1: 0.5, 7: 0.61})
        result = run_admm(fg, p)
        assert result.edge_marginals[7] == pytest.approx(0.61)

    def test_trace_without_cycle_factors(self):
        fg = FactorGraph((1,), ())
        p = ModelParams(0.03, 0.3, {1: 0.5})
        result = run_admm(fg, p, AdmmOptions(record_trace=True))
        assert result.converged and result.iterations == 1
        assert result.edge_marginals == {1: 0.5}
        row = result.trace[0]
        assert (row.max_simplex_gap, row.min_v) == (0.0, 0.0)
        assert (row.w_min, row.w_max) == (0.5, 0.5)

    def test_residuals_read_the_unrelaxed_marginals(self, monkeypatch):
        # Boyd et al. 2011, section 3.4.3: the primal residual is
        # sum_c ||v_c - u_c||^2 + ||P_c v_c - w_c||^2 of the solved v, not
        # of the relaxed one; the dual residual is RHO^2 times the change of
        # u, and of w per incidence, in every iteration. Stopped early, so
        # that both are far from zero. The u-step projects
        # x = relaxed v + lambda / RHO, and its dual step leaves
        # lambda / RHO = x - u, so each iteration's v is recovered from the
        # projections alone and checked against the marginals the w-step
        # reads.
        conditionals, projected, consensus = [], [], []

        def record(calls, fn, keep):
            def recording(*args):
                out = fn(*args)
                calls.append(keep(args, out))
                return out
            return recording

        monkeypatch.setattr(infer_admm, "cycle_conditionals", record(
            conditionals, infer_admm.cycle_conditionals, lambda args, out: out))
        monkeypatch.setattr(infer_admm, "_project_rows", record(
            projected, infer_admm._project_rows, lambda args, out: (args[0], out)))
        monkeypatch.setattr(infer_admm, "consensus_step", record(
            consensus, infer_admm.consensus_step,
            lambda args, out: (args[0].copy(), args[4].copy(), out[0])))
        g = generate(SynthSpec(m_lc=30, num_outliers=6, nodes_per_map=8, seed=5))
        fg = build_factor_graph(g, minimum_cycle_basis(g))
        p = ModelParams.from_graph(g, math.radians(2.0), math.radians(20.0))
        result = run_admm(fg, p, AdmmOptions(max_iters=4, record_trace=True))
        assert not result.converged
        groups = fg.cycle_groups
        n = len(groups)
        assert len(result.trace) == 4 and len(projected) == 4 * n
        assert len(consensus) == 5  # the warm start, then one per iteration
        pos = fg.incidence_var
        degree = np.bincount(pos, minlength=len(fg.variables))
        u = list(conditionals)  # u starts at v_hat, and lambda at 0
        scaled_duals = [np.zeros_like(block) for block in u]
        for i, row in enumerate(result.trace):
            marginals, w_prev, w = consensus[i + 1]
            primal = float(np.sum((marginals - w[pos]) ** 2))
            change = float(np.sum(degree * (w - w_prev) ** 2))
            for g_idx, group in enumerate(groups):
                x, u_next = projected[i * n + g_idx]
                relaxed = x - scaled_duals[g_idx]
                v = (relaxed - (1.0 - RELAXATION) * u[g_idx]) / RELAXATION
                p_matrix = marginalization_matrix(group.k)
                assert v @ p_matrix.T == pytest.approx(marginals[group.rows], abs=1e-12)
                primal += float(np.sum((v - u_next) ** 2))
                change += float(np.sum((u_next - u[g_idx]) ** 2))
                u[g_idx], scaled_duals[g_idx] = u_next, x - u_next
            assert row.primal_residual == pytest.approx(primal, rel=1e-9)
            assert row.dual_residual == pytest.approx(RHO**2 * change, rel=1e-9)
            assert row.primal_residual > 1e-6

    def test_relaxation_keeps_the_fixed_point(self, monkeypatch):
        # Over-relaxation changes the path, not the solution: at a tight
        # tolerance the relaxed and the plain run agree on every marginal,
        # and the relaxed run needs fewer iterations.
        cases = []
        for _, g in itertools.islice(generate_suite(m_values=(10, 20, 30), seed=7), 12):
            fg = build_factor_graph(g, minimum_cycle_basis(g))
            cases.append((fg, ModelParams.from_graph(g, math.radians(2.0), math.radians(20.0))))
        opts = AdmmOptions(tol=1e-14, max_iters=5000)
        assert infer_admm.RELAXATION == 1.7
        relaxed = [run_admm(fg, p, opts) for fg, p in cases]
        monkeypatch.setattr(infer_admm, "RELAXATION", 1.0)
        plain = [run_admm(fg, p, opts) for fg, p in cases]
        assert all(r.converged for r in relaxed + plain)
        for a, b in zip(relaxed, plain):
            for eid, value in a.edge_marginals.items():
                assert value == pytest.approx(b.edge_marginals[eid], abs=1e-6)
        assert sum(r.iterations for r in relaxed) < sum(r.iterations for r in plain)

    def test_groups_on_golden_em_graph(self):
        # The golden EM fit (tests/test_golden.py) runs run_admm on this
        # graph; its cycle blocks must be the first-appearance grouping by k
        # with rows in factor order, which fixes np.bincount's summation order.
        g = generate(SynthSpec(m_lc=30, num_outliers=6, nodes_per_map=8, seed=5))
        fg = build_factor_graph(g, minimum_cycle_basis(g))
        expected: dict[int, list[int]] = {}
        for f_idx, factor in enumerate(fg.factors):
            expected.setdefault(len(factor.lc_members), []).append(f_idx)
        groups = fg.cycle_groups
        assert [(grp.k, grp.factors.tolist()) for grp in groups] == list(expected.items())
        position = {eid: i for i, eid in enumerate(fg.variables)}
        for grp in groups:
            assert fg.incidence_var[grp.rows].tolist() == [
                [position[eid] for eid in fg.factors[i].lc_members] for i in grp.factors
            ]
        p = ModelParams.from_graph(g, math.radians(4.0), math.radians(30.0))
        a = run_admm(fg, p)
        b = run_admm(FactorGraph(fg.variables, fg.factors), p)
        assert a.edge_marginals == b.edge_marginals
        assert a.count_marginals.tolist() == b.count_marginals.tolist()

    def test_convergence_study_three_cycles(self):
        # 100 random instances on the shared-edge topology must reach
        # residuals below 1e-6 within 500 iterations in at least 95 cases,
        # with iterates feasible throughout
        sigma, sigma_bar = math.radians(2), math.radians(20)
        converged = 0
        for seed in range(100):
            gen = np.random.default_rng(seed)
            members = [(1, 2, 3), (3, 4, 5), (1, 2, 4, 5)]
            x = {e: int(gen.random() < 0.3) for e in range(1, 6)}
            zs = []
            for mem in members:
                s = sum(x[e] for e in mem)
                scale = math.sqrt(s * sigma_bar**2 + (len(mem) - s) * sigma**2)
                zs.append(min(abs(gen.normal(0, scale)), math.pi))
            fg = three_cycle_factor_graph(tuple(zs))
            p = uniform_params(fg.variables)
            result = run_admm(
                fg,
                p,
                AdmmOptions(scale_tol=False, tol=1e-6, max_iters=500, record_trace=True),
            )
            for row in result.trace:
                assert row.max_simplex_gap < 1e-8
                assert row.min_v >= -1e-12
                assert 0.0 <= row.w_min and row.w_max <= 1.0
            if result.converged:
                assert result.primal_residual < 1e-6
                assert result.dual_residual < 1e-6
                converged += 1
        print(f"\nthree-cycle admm convergence: {converged}/100 seeds")
        assert converged >= 95

    def test_consensus_at_fixed_point(self):
        fg = three_cycle_factor_graph((0.1, 0.3, 0.2))
        p = uniform_params(fg.variables)
        result = run_admm(fg, p, AdmmOptions(scale_tol=False, tol=1e-10, max_iters=2000))
        assert result.converged
        gaps = mean_count_gaps(fg, result)
        for factor, gap in zip(fg.factors, gaps):
            assert gap <= len(factor.lc_members) * 1e-4

    def test_deterministic(self):
        fg = three_cycle_factor_graph((0.15, 0.45, 0.3))
        p = uniform_params(fg.variables)
        a = run_admm(fg, p)
        b = run_admm(fg, p)
        assert a.edge_marginals == b.edge_marginals
        assert a.iterations == b.iterations

    def test_classification_agreement_with_exact(self):
        # the shared-edge toy topology is the consensus relaxation's hardest
        # case (only three cycles, all overlapping); calibrated agreement on
        # generative data is ~0.86, frozen here at 0.82 as a regression floor
        sigma, sigma_bar = math.radians(2), math.radians(20)
        agree = total = 0
        for seed in range(40):
            gen = np.random.default_rng(12345 + seed)
            members = [(1, 2, 3), (3, 4, 5), (1, 2, 4, 5)]
            x = {e: int(gen.random() < 0.25) for e in range(1, 6)}
            zs = []
            for mem in members:
                s = sum(x[e] for e in mem)
                scale = math.sqrt(s * sigma_bar**2 + (len(mem) - s) * sigma**2)
                zs.append(min(abs(gen.normal(0, scale)), math.pi))
            fg = three_cycle_factor_graph(tuple(zs))
            p = uniform_params(fg.variables)
            admm = run_admm(fg, p)
            exact = exact_marginals(fg, p)
            for eid in fg.variables:
                total += 1
                agree += (admm.edge_marginals[eid] < 0.5) == (
                    exact.edge_marginals[eid] < 0.5
                )
        assert agree / total >= 0.82


class TestGlobalOptimum:
    """run_admm at a tight tolerance against one SLSQP solve of the whole
    consensus QP (reference.consensus_qp_optimum), which shares no code
    with ADMM: the problem has one optimum in w, whatever the splitting."""

    @staticmethod
    def assert_at_the_optimum(fg, params):
        expected = consensus_qp_optimum(fg, params)
        result = run_admm(fg, params, AdmmOptions(tol=1e-14, max_iters=100_000))
        assert result.converged
        assert set(expected) == set(fg.covered_variables)
        for eid, value in expected.items():
            assert result.edge_marginals[eid] == pytest.approx(value, abs=1e-6)

    @pytest.mark.parametrize("z_values", [(0.1, 0.3, 0.2), (0.02, 0.5, 0.05), (0.4, 0.01, 0.6)])
    def test_three_cycle_graph(self, z_values):
        fg = three_cycle_factor_graph(z_values)
        self.assert_at_the_optimum(fg, uniform_params(fg.variables))

    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_synth_graphs(self, seed):
        # seed 5 has a cycle of six members, 1 and 2 two of four
        g = generate(SynthSpec(m_lc=10, num_outliers=4, seed=seed))
        fg = build_factor_graph(g, minimum_cycle_basis(g))
        self.assert_at_the_optimum(
            fg, ModelParams.from_graph(g, math.radians(2.0), math.radians(20.0))
        )

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import loop_closure_ring, mean_count_gaps, three_cycle_factor_graph, uniform_params
from loopsieve.cycles import minimum_cycle_basis
from loopsieve.factorgraph import FactorGraph, build_factor_graph, exact_marginals
from loopsieve import infer_admm
from loopsieve.infer_admm import (
    DEFAULT_LC_CAP,
    RHO,
    AdmmOptions,
    CycleCapError,
    _solve_batch,
    consensus_step,
    marginalization_matrix,
    run_admm,
)
from loopsieve.model import CycleFactor, ModelParams
from loopsieve.synth import SynthSpec, generate, generate_suite
from reference import (
    cycle_conditional,
    inlier_marginal,
    project_to_simplex,
    solve_cycle_subproblem,
)

RHOS = (0.0, 1e-4, 1.0, 1e4)


def subproblem_objective(v, v_hat, y, w_c, rho, p_matrix):
    return (
        float(np.sum((v - v_hat) ** 2))
        + float(y @ (p_matrix @ v))
        + 0.5 * rho * float(np.sum((p_matrix @ v - w_c) ** 2))
    )


def objective_gap(v, ref, v_hat, y, w_c, rho, p_matrix):
    """subproblem_objective(v) - subproblem_objective(ref), exact for the
    quadratic as the step v - ref times the gradient at the midpoint, so
    that the objective's large terms do not cancel in rounding."""
    mid = 0.5 * (v + ref)
    grad = 2 * (mid - v_hat) + p_matrix.T @ y + rho * p_matrix.T @ (p_matrix @ mid - w_c)
    return float((v - ref) @ grad)


def pgd_oracle(v_hat, y, w_c, rho, p_matrix, steps=200_000, lr=None):
    """Plain projected gradient with a tiny constant step; deliberately
    independent of the production solver."""
    if lr is None:
        lr = 0.25 / (2.0 + rho * np.linalg.norm(p_matrix, 2) ** 2)
    v = np.full_like(v_hat, 1.0 / v_hat.shape[0])
    for _ in range(steps):
        grad = 2 * (v - v_hat) + p_matrix.T @ y + rho * p_matrix.T @ (p_matrix @ v - w_c)
        v = project_to_simplex(v - lr * grad)
    return v


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


class TestSubproblem:
    def test_consistent_target_returns_v_hat(self):
        f = CycleFactor(0, (0, 1, 2), 0, 0.3)
        p = uniform_params((0, 1, 2))
        v_hat = cycle_conditional(f, p)
        pm = marginalization_matrix(3)
        w_c = pm @ v_hat
        v = solve_cycle_subproblem(v_hat, np.zeros(3), w_c, rho=1.0)
        assert v == pytest.approx(v_hat, abs=1e-7)

    def test_rho_zero_projects_v_hat(self):
        f = CycleFactor(0, (0, 1), 1, 0.2)
        p = uniform_params((0, 1))
        v_hat = cycle_conditional(f, p)
        v = solve_cycle_subproblem(v_hat, np.zeros(2), np.zeros(2), rho=0.0)
        assert v == pytest.approx(v_hat, abs=1e-8)

    def test_matches_slsqp_reference(self, rng):
        scipy_opt = pytest.importorskip("scipy.optimize")
        for _ in range(5):
            k = 3
            pm = marginalization_matrix(k)
            v_hat = rng.dirichlet(np.ones(1 << k))
            y = rng.normal(0, 0.5, k)
            w_c = rng.uniform(0, 1, k)
            rho = float(rng.uniform(0.3, 4.0))
            mine = solve_cycle_subproblem(v_hat, y, w_c, rho)
            ref = scipy_opt.minimize(
                lambda v: subproblem_objective(v, v_hat, y, w_c, rho, pm),
                np.full(1 << k, 1.0 / (1 << k)),
                bounds=[(0, None)] * (1 << k),
                constraints=[{"type": "eq", "fun": lambda v: v.sum() - 1}],
                method="SLSQP",
                options={"ftol": 1e-16, "maxiter": 1000},
            )
            assert subproblem_objective(mine, v_hat, y, w_c, rho, pm) <= ref.fun + 1e-9
            assert mine == pytest.approx(ref.x, abs=1e-5)

    def test_matches_plain_pgd_oracle(self, rng):
        k = 3
        pm = marginalization_matrix(k)
        v_hat = rng.dirichlet(np.ones(1 << k))
        y = rng.normal(0, 0.5, k)
        w_c = rng.uniform(0, 1, k)
        rho = 2.0
        mine = solve_cycle_subproblem(v_hat, y, w_c, rho)
        ref = pgd_oracle(v_hat, y, w_c, rho, pm, steps=100_000)
        assert mine == pytest.approx(ref, abs=1e-6)

    def test_result_on_simplex(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 5))
            v_hat = rng.dirichlet(np.ones(1 << k))
            v = solve_cycle_subproblem(
                v_hat, rng.normal(0, 1, k), rng.uniform(0, 1, k), float(rng.uniform(0.1, 10))
            )
            assert np.all(v >= 0)
            assert v.sum() == pytest.approx(1.0, abs=1e-9)


@st.composite
def cycle_qps(draw):
    """One cycle subproblem: k = 1..5, rho from RHOS, v_hat on the simplex
    with exact zeros, duals up to 10 in magnitude and w in [0, 1]."""
    k = draw(st.integers(1, 5))
    weights = draw(
        st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=1 << k, max_size=1 << k)
        .filter(lambda ws: sum(ws) > 1e-3)
    )
    v_hat = np.array(weights) / sum(weights)
    y = np.array(draw(st.lists(st.just(0.0) | st.floats(-10.0, 10.0), min_size=k, max_size=k)))
    w_c = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    return v_hat, y, w_c, draw(st.sampled_from(RHOS))


def newton_solve(v_hat, y, w_c, rho):
    """_solve_batch on one row, started from v_hat as run_admm's first
    iteration starts."""
    k = len(y)
    v, steps = _solve_batch(
        v_hat[None, :], v_hat[None, :], y[None, :], w_c[None, :], rho, marginalization_matrix(k)
    )
    return v[0], steps


class TestNewtonSubproblem:
    """_solve_batch, the library's Newton solver, against the reference's
    accelerated projected gradient run to a tight tolerance."""

    @settings(max_examples=150, deadline=None)
    @given(cycle_qps())
    def test_matches_reference_optimum(self, case):
        v_hat, y, w_c, rho = case
        pm = marginalization_matrix(len(y))
        v, _ = newton_solve(v_hat, y, w_c, rho)
        ref = solve_cycle_subproblem(v_hat, y, w_c, rho, tol=1e-13, max_iters=200_000)
        assert np.abs(v - ref).max() <= 1e-7
        assert objective_gap(v, ref, v_hat, y, w_c, rho, pm) <= 1e-12
        assert abs(v.sum() - 1.0) <= 1e-12
        assert v.min() >= 0.0

    def test_damping_stops_a_two_support_cycle(self):
        # k = 1: v = (v0, 1 - v0), and the optimum 4 (v0 - 1/2) + rho (v0 - w) = 0
        # keeps both entries. From v_hat the support is {1}, where F has slope
        # -1, so an undamped step jumps to nu = -w with support {0}, whose
        # step jumps back to nu = 1 - w, and so on.
        rho, w = 100.0, 0.3
        v_hat, p_row = np.array([0.5, 0.5]), marginalization_matrix(1)[0]
        nu, supports = p_row @ v_hat - w, []
        for _ in range(4):
            v = project_to_simplex(v_hat - 0.5 * rho * nu * p_row)
            supports.append(tuple(np.flatnonzero(v)))
            nu = p_row @ v - w  # the undamped step: H = 1 on a one-entry support
        assert supports == [(1,), (0,), (1,), (0,)]
        v, steps = newton_solve(v_hat, np.zeros(1), np.array([w]), rho)
        v0 = (2.0 + rho * w) / (4.0 + rho)
        assert v == pytest.approx([v0, 1.0 - v0], abs=1e-12)
        assert steps < infer_admm.NEWTON_MAX_STEPS

    def test_warm_start_at_the_optimum_takes_no_step(self):
        v_hat, y, w_c, rho = np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.3, -0.2]), np.array([0.6, 0.5]), 2.0
        v, _ = newton_solve(v_hat, y, w_c, rho)
        pm = marginalization_matrix(2)
        again, steps = _solve_batch(v[None, :], v_hat[None, :], y[None, :], w_c[None, :], rho, pm)
        assert steps == 0
        assert again[0] == pytest.approx(v, abs=1e-15)

    @staticmethod
    def assert_solved_at_the_run_penalty(v_hat, y, w_c):
        """run_admm solves at RHO: from v_hat, the row meets the hypothesis
        test's bounds in a few steps."""
        v, steps = newton_solve(v_hat, y, w_c, RHO)
        ref = solve_cycle_subproblem(v_hat, y, w_c, RHO, tol=1e-13, max_iters=200_000)
        assert np.abs(v - ref).max() <= 1e-7
        assert objective_gap(v, ref, v_hat, y, w_c, RHO, marginalization_matrix(len(y))) <= 1e-12
        assert abs(v.sum() - 1.0) <= 1e-12
        assert v.min() >= 0.0
        assert steps <= 20

    def test_cold_starts_at_the_run_penalty(self, rng):
        for k in range(1, 6):
            for _ in range(100):
                weights = rng.uniform(0.0, 1.0, 1 << k) * (rng.random(1 << k) < 0.7)
                weights[0] += 1e-3
                y = rng.uniform(-10.0, 10.0, k) * (rng.random(k) < 0.8)
                self.assert_solved_at_the_run_penalty(
                    weights / weights.sum(), y, rng.uniform(0.0, 1.0, k)
                )

    def test_cycling_case_solves_at_the_run_penalty(self):
        # at rho = 1e4 the damped Newton cycles between supports on this
        # row and raises; at RHO it is solved
        v_hat = np.zeros(16)
        v_hat[[3, 7, 10]], v_hat[12] = 0.2, 0.4
        self.assert_solved_at_the_run_penalty(v_hat, np.zeros(4), np.array([0.0, 0.0, 0.5, 0.625]))

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(infer_admm, "NEWTON_MAX_STEPS", 1)
        with pytest.raises(RuntimeError, match="after 1 Newton steps"):
            newton_solve(np.array([0.5, 0.5]), np.zeros(1), np.array([0.3]), 100.0)


def step(marginals, duals, members_pos, rho, w_prev):
    """consensus_step on per-cycle lists, concatenated in order."""
    pos = np.concatenate(members_pos)
    w_prev = np.asarray(w_prev, dtype=float)
    return consensus_step(
        np.concatenate(marginals), np.concatenate(duals), pos,
        np.bincount(pos, minlength=len(w_prev)), w_prev, rho,
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
            2.0, 1.5,
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
        assert row.subproblem_steps == 0

    def test_trace_counts_newton_steps(self, monkeypatch):
        solve, counts = infer_admm._solve_batch, []

        def recording(*args):
            v, steps = solve(*args)
            counts.append(steps)
            return v, steps

        monkeypatch.setattr(infer_admm, "_solve_batch", recording)
        fg = three_cycle_factor_graph((0.1, 0.3, 0.2))
        result = run_admm(fg, uniform_params(fg.variables), AdmmOptions(record_trace=True))
        groups = len(fg.cycle_groups)
        assert len(counts) == groups * result.iterations
        assert [row.subproblem_steps for row in result.trace] == [
            sum(counts[i : i + groups]) for i in range(0, len(counts), groups)
        ]

    def test_residuals_read_the_unrelaxed_marginals(self, monkeypatch):
        # Boyd et al. 2011, section 3.4.3: the primal residual is
        # sum_c ||P_c v_c - w_c||^2 of the solved v, not of the relaxed
        # marginals; the dual residual is RHO^2 times the w change per
        # incidence, in every iteration. Stopped early, so that both are
        # far from zero.
        solve, calls = infer_admm._solve_batch, []

        def recording(v0, v_hat, y, w_rows, rho, p_matrix):
            assert rho == RHO
            v, steps = solve(v0, v_hat, y, w_rows, rho, p_matrix)
            calls.append((v, w_rows.copy(), p_matrix))
            return v, steps

        monkeypatch.setattr(infer_admm, "_solve_batch", recording)
        g = generate(SynthSpec(m_lc=30, num_outliers=6, nodes_per_map=8, seed=5))
        fg = build_factor_graph(g, minimum_cycle_basis(g))
        p = ModelParams.from_graph(g, math.radians(2.0), math.radians(20.0))
        result = run_admm(fg, p, AdmmOptions(max_iters=4, record_trace=True))
        assert not result.converged
        w = np.array([result.edge_marginals[eid] for eid in fg.variables])
        groups = fg.cycle_groups
        n = len(groups)
        # the w each iteration leaves: the next one's input, or the result
        w_after = [[w_rows for _, w_rows, _ in calls[i : i + n]] for i in range(n, len(calls), n)]
        w_after.append([w[fg.incidence_var[group.rows]] for group in groups])
        assert len(w_after) == len(result.trace) == 4
        for i, row in enumerate(result.trace):
            primal = dual = 0.0
            for (v, w_prev_rows, p_matrix), w_rows in zip(calls[i * n : (i + 1) * n], w_after[i]):
                primal += float(np.sum((v @ p_matrix.T - w_rows) ** 2))
                dual += float(np.sum((w_rows - w_prev_rows) ** 2))
            assert row.primal_residual == pytest.approx(primal, rel=1e-12)
            assert row.dual_residual == pytest.approx(RHO**2 * dual, rel=1e-12)
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

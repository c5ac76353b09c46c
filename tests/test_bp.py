import math
import tracemalloc

import numpy as np
import pytest

from conftest import loop_closure_ring, mean_count_gaps, three_cycle_factor_graph, uniform_params
from loopsieve import factorgraph
from loopsieve.bench import DEFAULT_SIGMA, DEFAULT_SIGMA_BAR, classify
from loopsieve.em import e_step
from loopsieve.factorgraph import (
    EXACT_CLIQUE_LIMIT,
    FactorGraph,
    InferenceMethod,
    build_factor_graph,
    exact_marginals,
)
from loopsieve.infer_bp import (
    DEFAULT_DAMPING,
    MESSAGE_FLOOR,
    _count_convolution,
    _excluded_slots,
    _factor_messages,
    _normalize,
    run_bp,
)
from loopsieve.infer_admm import DEFAULT_LC_CAP
from loopsieve.model import CycleFactor, ModelParams
from loopsieve.cycles import minimum_cycle_basis
from loopsieve.synth import SynthSpec, generate
from reference import (
    cycle_conditional,
    factor_to_var,
    factor_to_var_enumerated,
    fold_by_count,
    init_messages,
    inlier_marginal,
    likelihood_weights,
    log_cycle_likelihood,
    prior_message,
    reference_bp,
    reference_count_convolution,
    reference_factor_messages,
    var_factors,
    var_to_factor,
)


def single_cycle_fg(z=0.3, k=3, n_fixed=2):
    return FactorGraph(tuple(range(k)), (CycleFactor(0, tuple(range(k)), n_fixed, z),))


def mixed_k_fg(rng):
    """Cycle sizes 1..4 interleaved; edge 0 sits in three cycles, edge 9 in none."""
    members = [(0,), (0, 1), (1, 2, 3), (0, 2, 4, 5), (5, 6), (3, 6, 7), (7,)]
    factors = tuple(
        CycleFactor(c, m, int(rng.integers(0, 4)), float(rng.uniform(0.0, 0.8)))
        for c, m in enumerate(members)
    )
    return FactorGraph((0, 1, 2, 3, 4, 5, 6, 7, 9), factors)


class TestIncidence:
    def test_built_once_per_graph(self):
        fg = FactorGraph((0, 1, 2, 9), (
            CycleFactor(0, (0, 1), 0, 0.1),
            CycleFactor(1, (1, 2), 0, 0.2),
        ))
        assert fg.covered_variables is fg.covered_variables
        assert fg.covered_variables == (0, 1, 2)
        assert var_factors(fg) == {0: (0,), 1: (0, 1), 2: (1,), 9: ()}

    def test_cycle_groups_in_first_appearance_order(self, rng):
        fg = mixed_k_fg(rng)
        groups = fg.cycle_groups
        assert groups is fg.cycle_groups
        assert [g.k for g in groups] == [1, 2, 3, 4]
        assert [g.factors.tolist() for g in groups] == [[0, 6], [1, 4], [2, 5], [3]]
        # incidence rows run through the factors in order, members in order
        starts = np.cumsum([0] + [len(f.lc_members) for f in fg.factors])
        for g in groups:
            assert g.rows.shape == (len(g.factors), g.k)
            for f_idx, rows in zip(g.factors, g.rows):
                assert rows.tolist() == list(range(starts[f_idx], starts[f_idx] + g.k))
                members = [fg.variables[v] for v in fg.incidence_var[rows]]
                assert members == list(fg.factors[f_idx].lc_members)

    def test_var_incidences_padded_in_factor_order(self, rng):
        fg = mixed_k_fg(rng)
        sentinel = len(fg.incidence_var)
        assert sentinel == sum(len(f.lc_members) for f in fg.factors)
        table = fg.var_incidences
        assert table is fg.var_incidences
        assert table.shape == (len(fg.variables), 3)
        factor_of = np.repeat(
            np.arange(len(fg.factors)), [len(f.lc_members) for f in fg.factors]
        )
        for eid, rows in zip(fg.variables, table):
            real = [r for r in rows.tolist() if r != sentinel]
            assert rows.tolist() == real + [sentinel] * (3 - len(real))
            assert tuple(factor_of[real]) == var_factors(fg)[eid]
        assert table[fg.variables.index(9)].tolist() == [sentinel] * 3

    def test_cached_arrays_are_read_only(self, rng):
        fg = mixed_k_fg(rng)
        arrays = [fg.incidence_var, fg.var_incidences, fg.row_starts]
        arrays += [a for g in fg.cycle_groups for a in (g.factors, g.rows, g.count_rows)]
        for array in arrays:
            with pytest.raises(ValueError):
                array[...] = 0

    def test_no_factors(self):
        fg = FactorGraph((1,), ())
        assert fg.cycle_groups == ()
        assert fg.incidence_var.shape == (0,)
        assert fg.var_incidences.shape == (1, 0)


class TestEvidence:
    def test_rows_and_priors_in_factor_graph_order(self, rng):
        fg = mixed_k_fg(rng)
        p = ModelParams(0.03, 0.3, {eid: 0.1 * (i + 1) for i, eid in enumerate(fg.variables)})
        rows, prior = fg.evidence(p)
        expected = [
            log_cycle_likelihood(f, s, p) for f in fg.factors for s in range(len(f.lc_members) + 1)
        ]
        assert rows.tolist() == expected
        assert prior.tolist() == [p.prior(eid) for eid in fg.variables]

    @pytest.mark.parametrize("method", list(InferenceMethod))
    def test_each_back_end_builds_the_rows_once(self, rng, monkeypatch, method):
        # one table per run, from row keys built once per graph
        fg = mixed_k_fg(rng)
        assert len(fg.cycle_groups) > 1
        calls = {}
        for name in ("likelihood_table", "likelihood_row_keys"):
            original = getattr(factorgraph, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)

            monkeypatch.setattr(factorgraph, name, counting)
        e_step(fg, uniform_params(fg.variables), method)
        assert calls == {"likelihood_table": 1, "likelihood_row_keys": 1}
        e_step(fg, uniform_params(fg.variables), method)
        assert calls == {"likelihood_table": 2, "likelihood_row_keys": 1}


class TestLimits:
    def test_rings_over_the_admm_cap_are_classified(self):
        # BP's count convolution builds no 2^k table, so one basis cycle of
        # 17 or 30 loop closures is screened like any other
        for n in (DEFAULT_LC_CAP + 1, 30):
            result = classify(loop_closure_ring(n), method=InferenceMethod.BP)
            assert result.converged
            assert len(result.edges) == n and all(e.covered for e in result.edges)
            assert result.tn == n  # z = 0: every member is called an inlier
        ring = loop_closure_ring(DEFAULT_LC_CAP + 1)
        fg = build_factor_graph(ring, minimum_cycle_basis(ring))
        p = ModelParams.from_graph(ring, DEFAULT_SIGMA, DEFAULT_SIGMA_BAR)
        bp, exact = run_bp(fg, p), exact_marginals(fg, p)
        for eid in fg.variables:
            assert bp.edge_marginals[eid] == pytest.approx(exact.edge_marginals[eid], abs=1e-6)

    def test_exact_clique_over_the_limit_is_refused_before_any_table(self):
        # one cycle of 23 loop closures: its own table would be a 23-edge
        # clique of 2^23 float64 entries (64 MiB)
        fg = FactorGraph(tuple(range(23)), (CycleFactor(0, tuple(range(23)), 0, 0.1),))
        assert EXACT_CLIQUE_LIMIT == 22
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="clique of 23 edges, over the limit of 22"):
                exact_marginals(fg, uniform_params(fg.variables))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20

    def test_exact_solves_a_23_edge_block_of_small_cliques(self):
        # cycles of 16 and 8 loop closures that share edge 15: one
        # 23-variable block, too large to enumerate, whose largest clique
        # is the 16-member cycle. The two cycles form a tree, where BP is
        # exact too.
        fg = FactorGraph(tuple(range(23)), (
            CycleFactor(0, tuple(range(16)), 0, 0.1),
            CycleFactor(1, tuple(range(15, 23)), 0, 0.1),
        ))
        p = uniform_params(fg.variables)
        bp, exact = run_bp(fg, p), exact_marginals(fg, p)
        assert bp.converged
        for eid in fg.variables:
            assert bp.edge_marginals[eid] == pytest.approx(exact.edge_marginals[eid], abs=1e-6)


class TestBatchedMatchesReference:
    """run_bp against the per-message loop above: same schedule, same stop."""

    def check(self, fg, p, damping):
        marginals, counts, iterations, converged = reference_bp(fg, p, damping)
        result = run_bp(fg, p, damping=damping)
        assert result.iterations == iterations
        assert result.converged == converged
        for eid in fg.variables:
            assert result.edge_marginals[eid] == pytest.approx(marginals[eid], abs=1e-12)
        assert result.count_marginals.shape == counts.shape
        assert np.abs(result.count_marginals - counts).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("damping", [0.0, 0.5])
    def test_mixed_cycle_sizes(self, rng, damping):
        for _ in range(5):
            fg = mixed_k_fg(rng)
            priors = {eid: float(rng.uniform(0.1, 0.9)) for eid in fg.variables}
            self.check(fg, ModelParams(0.03, 0.3, priors), damping)

    @pytest.mark.parametrize("damping", [0.0, 0.5])
    def test_synth_graph(self, damping):
        # seed 3 gives cycles with 2 and with 4 loop closures
        g = generate(SynthSpec(m_lc=12, num_outliers=3, nodes_per_map=6, seed=3))
        fg = build_factor_graph(g, minimum_cycle_basis(g))
        assert {grp.k for grp in fg.cycle_groups} == {2, 4}
        self.check(fg, ModelParams.from_graph(g, math.radians(2), math.radians(20)), damping)

    @pytest.mark.parametrize("damping", [0.0, 0.5])
    def test_no_factors(self, damping):
        fg = FactorGraph((1,), ())
        self.check(fg, ModelParams(0.03, 0.3, {1: 0.3}), damping)
        result = run_bp(fg, ModelParams(0.03, 0.3, {1: 0.3}), damping=damping)
        assert result.edge_marginals == {1: pytest.approx(0.3)}
        assert result.count_marginals.shape == (0,)


class TestSlotBatchMatchesPerSlot:
    """The slot-batched kernels against the per-slot loop, bit for bit."""

    @staticmethod
    def random_group(rng, n_factors, k):
        # incidence rows in shuffled order, with one spare row that no
        # factor reads, and per-factor weights rescaled by their maximum
        n_inc = n_factors * k
        to_factor = _normalize(rng.random((n_inc + 1, 2)))
        rows = rng.permutation(n_inc).reshape(n_factors, k)
        weights = np.exp(rng.normal(0.0, 3.0, (n_factors, k + 1)))
        return to_factor, rows, weights / weights.max(axis=1, keepdims=True)

    def test_excluded_slots(self):
        rows = np.array([[7, 3, 5], [0, 1, 2]])
        assert _excluded_slots(rows).tolist() == [
            [[3, 5], [7, 5], [7, 3]],
            [[1, 2], [0, 2], [0, 1]],
        ]
        assert _excluded_slots(rows[:, :1]).shape == (2, 1, 0)
        assert _excluded_slots(rows[:, :1]).dtype == rows.dtype

    @pytest.mark.parametrize("n_factors", [1, 3, 50])
    @pytest.mark.parametrize("k", [*range(1, 13), 40])
    def test_factor_messages(self, rng, n_factors, k):
        to_factor, rows, weights = self.random_group(rng, n_factors, k)
        batched = _factor_messages(to_factor, _excluded_slots(rows), weights)
        assert np.array_equal(batched, reference_factor_messages(to_factor, rows, weights))

    @pytest.mark.parametrize("n_factors", [1, 3, 50])
    @pytest.mark.parametrize("k", [*range(0, 13), 40])
    def test_count_convolution(self, rng, n_factors, k):
        incoming = _normalize(rng.random((n_factors, k, 2)))
        expected = reference_count_convolution(incoming, range(k))
        assert np.array_equal(_count_convolution(incoming), expected)
        # leading axes are batch axes: each (F, k, 2) slice convolves alone
        stacked = _count_convolution(np.stack([incoming, incoming[::-1]]))
        assert np.array_equal(stacked[0], expected)
        assert np.array_equal(stacked[1], expected[::-1])


class TestVarToFactor:
    def test_single_cycle_message_is_prior(self):
        fg = single_cycle_fg()
        p = ModelParams(0.03, 0.3, {0: 0.8, 1: 0.5, 2: 0.5})
        state = init_messages(fg, p)
        msg = var_to_factor(state, fg, p, 0, 0)
        assert msg == pytest.approx([0.8, 0.2])

    def test_uniform_incoming_gives_prior(self):
        fg = three_cycle_factor_graph((0.1, 0.2, 0.3))
        p = uniform_params(fg.variables, prior=0.7)
        state = init_messages(fg, p)
        # all factor-to-variable messages start uniform
        msg = var_to_factor(state, fg, p, 1, 0)
        assert msg == pytest.approx([0.7, 0.3])

    def test_normalized_product(self):
        fg = three_cycle_factor_graph((0.1, 0.2, 0.3))
        p = uniform_params(fg.variables, prior=0.5)
        state = init_messages(fg, p)
        state.to_var[(2, 1)] = np.array([0.8, 0.2])
        msg = var_to_factor(state, fg, p, 1, 0)
        assert msg == pytest.approx([0.8, 0.2])
        assert msg.sum() == pytest.approx(1.0)


class TestFactorToVar:
    def test_single_member_proportional_to_likelihood(self):
        fg = single_cycle_fg(z=0.25, k=1, n_fixed=2)
        p = uniform_params((0,))
        state = init_messages(fg, p)
        msg = factor_to_var(state, fg, p, 0, 0)
        factor = fg.factors[0]
        raw = np.exp([
            log_cycle_likelihood(factor, 0, p),
            log_cycle_likelihood(factor, 1, p),
        ])
        assert msg == pytest.approx(raw / raw.sum(), abs=1e-12)

    def test_convolution_matches_enumeration_uniform(self):
        fg = single_cycle_fg(z=0.4, k=3, n_fixed=0)
        p = uniform_params((0, 1, 2))
        state = init_messages(fg, p)
        fast = factor_to_var(state, fg, p, 0, 1)
        slow = factor_to_var_enumerated(state, fg, p, 0, 1)
        assert fast == pytest.approx(slow, abs=1e-10)

    def test_convolution_matches_enumeration_random(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 6))
            fg = single_cycle_fg(z=float(rng.uniform(0, 1.0)), k=k, n_fixed=int(rng.integers(0, 4)))
            p = uniform_params(range(k))
            state = init_messages(fg, p)
            for member in range(k):
                state.to_factor[(member, 0)] = np.array(
                    sorted(rng.dirichlet([1, 1]), reverse=bool(rng.integers(2)))
                )
            target = int(rng.integers(k))
            fast = factor_to_var(state, fg, p, 0, target)
            slow = factor_to_var_enumerated(state, fg, p, 0, target)
            assert fast == pytest.approx(slow, abs=1e-10)


class TestRunBp:
    def test_single_cycle_matches_conditional(self, rng):
        # brute-force oracle: with one factor the exact posterior is the
        # cycle's own conditional
        for _ in range(5):
            k = int(rng.integers(1, 5))
            priors = {i: float(rng.uniform(0.2, 0.9)) for i in range(k)}
            p = ModelParams(0.03, 0.3, priors)
            fg = single_cycle_fg(z=float(rng.uniform(0, 0.8)), k=k, n_fixed=1)
            result = run_bp(fg, p, tol=1e-10)
            assert result.converged
            dist = cycle_conditional(fg.factors[0], p)
            for j, eid in enumerate(fg.factors[0].lc_members):
                assert result.edge_marginals[eid] == pytest.approx(
                    inlier_marginal(dist, j), abs=1e-8
                )

    def test_tree_factor_graph_exact(self):
        # two factors sharing no edges form a tree: BP is exact
        factors = (
            CycleFactor(0, (0, 1), 1, 0.2),
            CycleFactor(1, (2, 3), 0, 0.6),
        )
        fg = FactorGraph((0, 1, 2, 3), factors)
        p = uniform_params(range(4), prior=0.6)
        result = run_bp(fg, p, tol=1e-9)
        exact = exact_marginals(fg, p)
        for eid in fg.variables:
            assert result.edge_marginals[eid] == pytest.approx(
                exact.edge_marginals[eid], abs=1e-6
            )

    def test_tree_mean_count_matches_member_marginals(self):
        # two cycles sharing edge 2 form a tree: at BP's fixed point each
        # factor's count marginals agree with its members' marginals
        factors = (
            CycleFactor(0, (0, 1, 2), 1, 0.2),
            CycleFactor(1, (2, 3, 4), 2, 0.05),
        )
        fg = FactorGraph((0, 1, 2, 3, 4), factors)
        p = ModelParams(0.03, 0.3, {0: 0.9, 1: 0.8, 2: 0.7, 3: 0.9, 4: 0.6})
        result = run_bp(fg, p)
        assert result.converged
        assert mean_count_gaps(fg, result).max() <= 1e-6

    def test_count_marginals_at_the_floor(self):
        # all priors 1.0: every message into the 16-member factor sits at
        # MESSAGE_FLOOR, and at z = pi the weights underflow to 0 at s = 0
        # and s = 1, so only the floor on the weights keeps the total above 0
        fg = single_cycle_fg(z=math.pi, k=DEFAULT_LC_CAP, n_fixed=0)
        p = ModelParams(0.01, 0.03, {eid: 1.0 for eid in fg.variables})
        state = init_messages(fg, p)
        assert var_to_factor(state, fg, p, 0, 0)[1] == MESSAGE_FLOOR
        weights = likelihood_weights(fg.factors[0], p)
        assert weights[0] == 0.0 and weights[1] == 0.0
        counts = run_bp(fg, p).count_marginals
        assert np.all(np.isfinite(counts))
        assert abs(counts.sum() - 1.0) <= 1e-12
        _, expected, _, _ = reference_bp(fg, p, DEFAULT_DAMPING)
        assert np.abs(counts - expected).max() <= 1e-12

    def test_undamped_tree_converges_in_two_sweeps(self):
        # a chain of factors (variable 1 shared) has factor-graph diameter 4;
        # undamped BP settles within 2 sweeps of the schedule and is exact
        factors = (
            CycleFactor(0, (0, 1), 1, 0.2),
            CycleFactor(1, (1, 2), 1, 0.5),
        )
        fg = FactorGraph((0, 1, 2), factors)
        p = uniform_params(range(3), prior=0.7)
        result = run_bp(fg, p, damping=0.0)
        assert result.converged
        assert result.iterations <= 4
        exact = exact_marginals(fg, p)
        for eid in fg.variables:
            assert result.edge_marginals[eid] == pytest.approx(
                exact.edge_marginals[eid], abs=1e-9
            )

    def test_three_overlapping_cycles_against_exact(self, rng):
        # loopy case: the total-variation gap against enumeration is logged,
        # and must stay finite; loopy BP carries no accuracy guarantee here
        gaps = []
        for _ in range(10):
            z = tuple(float(v) for v in rng.uniform(0.0, 0.6, 3))
            fg = three_cycle_factor_graph(z)
            p = uniform_params(fg.variables)
            result = run_bp(fg, p)
            exact = exact_marginals(fg, p)
            gap = max(
                abs(result.edge_marginals[e] - exact.edge_marginals[e])
                for e in fg.variables
            )
            gaps.append(gap)
            assert math.isfinite(gap)
        print(f"\nthree-cycle BP total-variation gaps: median={sorted(gaps)[5]:.4f} max={max(gaps):.4f}")

    def test_messages_stay_normalized_and_positive(self):
        fg = three_cycle_factor_graph((0.05, 0.4, 0.8))
        p = uniform_params(fg.variables, prior=0.9)
        state = init_messages(fg, p)
        weights = None
        for _ in range(10):
            for f_idx, factor in enumerate(fg.factors):
                for eid in factor.lc_members:
                    state.to_var[(f_idx, eid)] = factor_to_var(state, fg, p, f_idx, eid)
            for eid in fg.variables:
                for f_idx in var_factors(fg)[eid]:
                    state.to_factor[(eid, f_idx)] = var_to_factor(state, fg, p, eid, f_idx)
            for msg in list(state.to_var.values()) + list(state.to_factor.values()):
                assert np.all(msg > 0)
                assert msg.sum() == pytest.approx(1.0)

    def test_damped_update_fixed_point(self):
        old = np.array([0.3, 0.7])
        blended = 0.5 * old + 0.5 * old
        assert np.array_equal(blended, old)

    def test_beliefs_invariant_to_factor_scaling(self):
        # likelihood tables are max-shifted internally, so two parameter sets
        # differing only by a per-cycle constant give identical beliefs;
        # here: same run twice must be bit-identical (determinism) and the
        # belief normalization makes any scaling moot
        fg = three_cycle_factor_graph((0.1, 0.2, 0.3))
        p = uniform_params(fg.variables)
        a = run_bp(fg, p)
        b = run_bp(fg, p)
        assert a.edge_marginals == b.edge_marginals
        assert a.count_marginals.tolist() == b.count_marginals.tolist()

    def test_nonconvergence_returns_flag(self):
        fg = three_cycle_factor_graph((0.05, 0.4, 0.8))
        p = uniform_params(fg.variables)
        result = run_bp(fg, p, max_iters=2)
        assert not result.converged
        assert result.iterations == 2
        assert set(result.edge_marginals) == set(fg.variables)

    @pytest.mark.parametrize(
        "limits, message",
        [
            ({"max_iters": 0}, "max_iters must be at least 1, got 0"),
            ({"max_iters": -3}, "max_iters must be at least 1, got -3"),
            ({"tol": -1.0}, "tol must be finite and >= 0, got -1.0"),
            ({"tol": math.nan}, "tol must be finite and >= 0, got nan"),
            ({"tol": math.inf}, "tol must be finite and >= 0, got inf"),
        ],
    )
    def test_invalid_limits_are_refused(self, limits, message):
        fg = three_cycle_factor_graph((0.05, 0.4, 0.8))
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_bp(fg, uniform_params(fg.variables), **limits)

    def test_uncovered_variable_keeps_prior(self):
        fg = FactorGraph((0, 1, 9), (CycleFactor(0, (0, 1), 0, 0.1),))
        p = ModelParams(0.03, 0.3, {0: 0.5, 1: 0.5, 9: 0.83})
        result = run_bp(fg, p)
        assert result.edge_marginals[9] == pytest.approx(0.83)

    def test_cycle_beliefs_on_single_cycle(self):
        fg = single_cycle_fg(z=0.3, k=2, n_fixed=1)
        p = uniform_params((0, 1), prior=0.6)
        result = run_bp(fg, p, tol=1e-10)
        expected = fold_by_count([cycle_conditional(fg.factors[0], p)])
        assert result.count_marginals == pytest.approx(expected, abs=1e-8)


class TestBpOnRealGraphs:
    def test_matches_exact_on_small_synth(self):
        g = generate(SynthSpec(m_lc=6, num_outliers=2, nodes_per_map=5, seed=21))
        basis = minimum_cycle_basis(g)
        p = ModelParams.from_graph(g, math.radians(2), math.radians(20))
        fg = build_factor_graph(g, basis)
        bp = run_bp(fg, p)
        exact = exact_marginals(fg, p)
        agree = sum(
            (bp.edge_marginals[e] < 0.5) == (exact.edge_marginals[e] < 0.5)
            for e in fg.variables
        )
        assert agree >= len(fg.variables) - 1

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mean_count_gaps
from loopsieve import infer_admm
from loopsieve.cycles import minimum_cycle_basis
from loopsieve.em import EmConfig, run_em
from loopsieve.factorgraph import FactorGraph, InferenceMethod, build_factor_graph, exact_marginals
from loopsieve.infer_bp import DEFAULT_DAMPING, run_bp
from loopsieve.model import CycleFactor, ModelParams
from loopsieve.synth import SynthSpec, generate, generate_suite, suite_specs
from reference import (
    connected_components,
    fold_by_count,
    reference_bp,
    reference_exact_marginals,
)


def assert_matches_reference(result, reference):
    """Elimination and enumeration add the same terms in another order, so
    they agree to 1e-12: absolute on probabilities, relative on the log
    evidence."""
    assert result.edge_marginals.keys() == reference.edge_marginals.keys()
    for eid, p in reference.edge_marginals.items():
        assert result.edge_marginals[eid] == pytest.approx(p, rel=0, abs=1e-12)
    assert result.log_evidence == pytest.approx(reference.log_evidence, rel=1e-12, abs=0)
    assert result.count_marginals.shape == reference.count_marginals.shape
    assert np.abs(result.count_marginals - reference.count_marginals).max(initial=0.0) <= 1e-12


@st.composite
def factor_graphs(draw):
    """1-3 blocks of cycle factors with k = 1..6 members, plus variables no
    factor covers; at most 14 variables, ids in a shuffled order."""
    sizes = draw(
        st.lists(st.integers(1, 12), min_size=1, max_size=3).filter(lambda s: sum(s) <= 14)
    )
    uncovered = draw(st.integers(0, 14 - sum(sizes)))
    ids = draw(st.permutations(range(sum(sizes) + uncovered)))
    factors = []
    first = 0
    for size in sizes:
        block = ids[first : first + size]
        first += size
        for _ in range(draw(st.integers(1, 5))):
            members = draw(st.lists(st.sampled_from(block), min_size=1, max_size=6, unique=True))
            z = draw(st.floats(0.0, math.pi))
            factors.append(CycleFactor(len(factors), tuple(members), draw(st.integers(0, 3)), z))
    prior = st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0)
    priors = {eid: draw(prior) for eid in ids}
    sigma = draw(st.sampled_from([0.01, math.radians(2.0), 0.2]))
    params = ModelParams(sigma, sigma * draw(st.sampled_from([3.0, 10.0])), priors)
    return FactorGraph(tuple(ids), tuple(factors)), params


def desk_suite_block():
    """The 20-edge graph of the desk-scale suite, seed 3, whose factors form
    one 20-variable block."""
    (spec,) = suite_specs((20,), seed=3, scale=1 / 20)
    g = generate(spec)
    fg = build_factor_graph(g, minimum_cycle_basis(g))
    assert [len(v) for v, _ in connected_components(fg)] == [20]
    return fg, ModelParams.from_graph(g, math.radians(2.0), math.radians(20.0))


class TestMatchesFullLengthEnumeration:
    """exact_marginals against the reference's enumeration of every state
    of each connected block, with per-factor state arrays."""

    @settings(max_examples=150, deadline=None)
    @given(factor_graphs())
    def test_random_factor_graphs(self, case):
        fg, params = case
        assert_matches_reference(exact_marginals(fg, params), reference_exact_marginals(fg, params))

    def test_twenty_variable_block(self):
        fg, params = desk_suite_block()
        assert_matches_reference(exact_marginals(fg, params), reference_exact_marginals(fg, params))

    def test_twenty_variable_block_with_certain_priors(self):
        # priors of exactly 0 and 1 put -inf into the tables and into the
        # messages sent down the elimination tree; no RuntimeWarning may
        # escape (pyproject.toml makes one an error)
        fg, params = desk_suite_block()
        certain = {eid: (0.0, 1.0, params.prior(eid))[i % 3] for i, eid in enumerate(fg.variables)}
        params = ModelParams(params.sigma, params.sigma_bar, certain)
        result = exact_marginals(fg, params)
        assert_matches_reference(result, reference_exact_marginals(fg, params))
        for eid, p in certain.items():
            if p in (0.0, 1.0):
                assert result.edge_marginals[eid] == p


def em_fit_graph(outliers: int, seed: int = 1):
    """One m = 100 graph of perfbench's em-fit workload for the given seed."""
    graph_seed = int(np.random.SeedSequence([seed, 100, outliers, 0]).generate_state(1)[0])
    return generate(SynthSpec(m_lc=100, num_outliers=outliers, seed=graph_seed))


class TestCoverage:
    """Elimination is bounded by its cliques, not by block size: every graph
    of the criterion-7 suite and of em-fit is solved, though most have a
    block over the 22 edges that enumeration could take."""

    def test_criterion_7_suite(self):
        blocks = []
        for _, g in generate_suite(m_values=range(10, 51, 5), seed=7):
            fg = build_factor_graph(g, minimum_cycle_basis(g))
            result = exact_marginals(fg, ModelParams.from_graph(g, math.radians(2.0), math.radians(20.0)))
            assert math.isfinite(result.log_evidence)
            assert mean_count_gaps(fg, result).max(initial=0.0) <= 1e-9
            blocks.append(max(len(v) for v, _ in connected_components(fg)))
        assert len(blocks) == 261
        assert sum(b > 22 for b in blocks) == 219

    @pytest.mark.parametrize("outliers", [10, 20, 30, 40])
    def test_em_fit_graphs(self, outliers):
        g = em_fit_graph(outliers)
        fg = build_factor_graph(g, minimum_cycle_basis(g))
        assert max(len(v) for v, _ in connected_components(fg)) > 22
        result = exact_marginals(fg, ModelParams.from_graph(g, math.radians(2.0), math.radians(20.0)))
        assert math.isfinite(result.log_evidence)
        assert mean_count_gaps(fg, result).max(initial=0.0) <= 1e-9

    def test_exact_e_step_em_at_em_fit_scale(self):
        g = em_fit_graph(20)
        fg = build_factor_graph(g, minimum_cycle_basis(g))
        init = ModelParams.from_graph(g, math.radians(4.0), math.radians(30.0))
        params, trace, _ = run_em(fg, init, EmConfig(max_rounds=10, inference=InferenceMethod.EXACT))
        assert len(trace.rounds) >= 2
        assert all(math.isfinite(r.data_log_likelihood) for r in trace.rounds)
        # synth draws 2 and 20 degree angles; per-axis scales near them / sqrt(3)
        assert 0.5 <= math.degrees(params.sigma) <= 2.0
        assert 5.0 <= math.degrees(params.sigma_bar) <= 20.0


def admm_and_final_u(fg, params):
    """run_admm's result and the simplex copies u_c it ends with, one 2^k
    array per factor in factor order, normalized as the fold takes them.
    Each iteration's u-step projects once per group, so the last groups'
    projections are the final u."""
    project = infer_admm._project_rows
    projected = []

    def recording(matrix):
        u = project(matrix)
        projected.append(u)
        return u

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(infer_admm, "_project_rows", recording)
        result = infer_admm.run_admm(fg, params)
    groups = fg.cycle_groups
    u: list = [None] * len(fg.factors)
    for group, block in zip(groups, projected[len(projected) - len(groups) :]):
        for f_idx, row in zip(group.factors, block):
            u[f_idx] = np.maximum(row, 0.0) / row.sum()
    return result, u


class TestCountMarginals:
    """Each back-end's count marginals against the reference's 2^k
    configuration distributions folded by outlier count."""

    @settings(max_examples=100, deadline=None)
    @given(factor_graphs())
    def test_bp_matches_reference_fold(self, case):
        fg, params = case
        _, expected, _, _ = reference_bp(fg, params, DEFAULT_DAMPING)
        counts = run_bp(fg, params).count_marginals
        assert counts.shape == expected.shape
        assert np.abs(counts - expected).max(initial=0.0) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(factor_graphs())
    def test_admm_equals_fold_of_its_distributions(self, case):
        fg, params = case
        result, u = admm_and_final_u(fg, params)
        assert result.count_marginals.tolist() == fold_by_count(u).tolist()

    @settings(max_examples=150, deadline=None)
    @given(factor_graphs())
    def test_exact_mean_count_matches_member_marginals(self, case):
        fg, params = case
        assert mean_count_gaps(fg, exact_marginals(fg, params)).max(initial=0.0) <= 1e-12


def test_twenty_variable_block_peak_memory():
    """Elimination never builds the block's 2^20 states: its cliques have
    at most 4 edges, and the whole run stays under 1 MiB where one 2^20
    float64 table alone takes 8 MiB."""
    fg, params = desk_suite_block()
    tracemalloc.start()
    try:
        exact_marginals(fg, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mean_count_gaps
from loopsieve import infer_admm
from loopsieve.cycles import minimum_cycle_basis
from loopsieve.factorgraph import (
    FactorGraph,
    _connected_components,
    build_factor_graph,
    exact_marginals,
)
from loopsieve.infer_bp import DEFAULT_DAMPING, run_bp
from loopsieve.model import CycleFactor, ModelParams
from loopsieve.synth import generate, suite_specs
from reference import fold_by_count, reference_bp, reference_exact_marginals


def pinned(result):
    """The outputs of exact enumeration that the reference reproduces bit
    for bit: the count marginals add their bins in another order."""
    return result.edge_marginals, float.hex(result.log_evidence)


def assert_matches_reference(result, reference):
    assert pinned(result) == pinned(reference)
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
    assert [len(v) for v, _ in _connected_components(fg)] == [20]
    return fg, ModelParams.from_graph(g, math.radians(2.0), math.radians(20.0))


class TestMatchesFullLengthEnumeration:
    """exact_marginals against the per-factor state arrays of the reference:
    the same floating-point operations in the same order, so equal bits for
    the edge marginals and the log evidence. The count marginals are binned
    by count directly, where the reference folds 2^k bins, so they agree
    to 1e-12."""

    @settings(max_examples=150, deadline=None)
    @given(factor_graphs())
    def test_random_factor_graphs(self, case):
        fg, params = case
        assert_matches_reference(exact_marginals(fg, params), reference_exact_marginals(fg, params))

    def test_twenty_variable_block(self):
        fg, params = desk_suite_block()
        assert_matches_reference(exact_marginals(fg, params), reference_exact_marginals(fg, params))


def admm_and_final_v(fg, params):
    """run_admm's result and the distributions v_c it ends with, one 2^k
    array per factor in factor order, normalized as the fold takes them."""
    solve = infer_admm._solve_batch
    solved = []

    def recording(*args):
        v, steps = solve(*args)
        solved.append(v)
        return v, steps

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(infer_admm, "_solve_batch", recording)
        result = infer_admm.run_admm(fg, params)
    groups = fg.cycle_groups
    v: list = [None] * len(fg.factors)
    for group, block in zip(groups, solved[len(solved) - len(groups) :]):
        for f_idx, row in zip(group.factors, block):
            v[f_idx] = np.maximum(row, 0.0) / row.sum()
    return result, v


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
        result, v = admm_and_final_v(fg, params)
        assert result.count_marginals.tolist() == fold_by_count(v).tolist()

    @settings(max_examples=150, deadline=None)
    @given(factor_graphs())
    def test_exact_mean_count_matches_member_marginals(self, case):
        fg, params = case
        assert mean_count_gaps(fg, exact_marginals(fg, params)).max(initial=0.0) <= 1e-12


def test_twenty_variable_block_peak_memory():
    """At most four 2^20 float64 arrays alive at once; the reference's per-
    factor state arrays take about 26."""
    fg, params = desk_suite_block()
    tracemalloc.start()
    try:
        exact_marginals(fg, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (1 << 20) * 8

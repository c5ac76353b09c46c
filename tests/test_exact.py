import math
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from loopsieve.cycles import minimum_cycle_basis
from loopsieve.factorgraph import (
    FactorGraph,
    _connected_components,
    build_factor_graph,
    exact_marginals,
)
from loopsieve.model import CycleFactor, ModelParams
from loopsieve.synth import generate, suite_specs
from reference import reference_exact_marginals


def pinned(result):
    """Every output of exact enumeration, at full precision."""
    return (
        result.edge_marginals,
        float.hex(result.log_evidence),
        [None if b is None else b.values.tobytes() for b in result.cycle_beliefs],
    )


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
    the same floating-point operations in the same order, so equal bits."""

    @settings(max_examples=150, deadline=None)
    @given(factor_graphs())
    def test_random_factor_graphs(self, case):
        fg, params = case
        assert pinned(exact_marginals(fg, params)) == pinned(reference_exact_marginals(fg, params))

    def test_twenty_variable_block(self):
        fg, params = desk_suite_block()
        assert pinned(exact_marginals(fg, params)) == pinned(reference_exact_marginals(fg, params))


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

import math

import numpy as np
import pytest

from loopsieve.cycles import cycle_error, minimum_cycle_basis
from loopsieve.graph import EdgeKind, TruthLabel, graph_to_text, loop_closure_edges
from loopsieve.synth import (
    DEFAULT_M_VALUES,
    SynthSpec,
    child_seed,
    generate,
    generate_suite,
    outlier_counts,
    suite_specs,
)


class TestSpecValidation:
    def test_outlier_bounds(self):
        SynthSpec(m_lc=10, num_outliers=9)  # m - 1 is allowed
        with pytest.raises(ValueError):
            SynthSpec(m_lc=10, num_outliers=10)
        with pytest.raises(ValueError):
            SynthSpec(m_lc=10, num_outliers=0)

    def test_band_ordering(self):
        with pytest.raises(ValueError):
            SynthSpec(m_lc=5, num_outliers=1, inlier_band=(0.1, 0.05))

    def test_collapsed_bands_allowed(self):
        SynthSpec(m_lc=5, num_outliers=1, inlier_band=(0.0, 0.0), outlier_band=(0.0, 0.0))

    def test_too_many_edges_for_distinct_pairs(self):
        with pytest.raises(ValueError, match="cross-map"):
            SynthSpec(m_lc=20, num_outliers=5, nodes_per_map=3)


class TestGenerate:
    def test_structure(self):
        spec = SynthSpec(m_lc=12, num_outliers=4, nodes_per_map=15, seed=3)
        g = generate(spec)
        assert len(g.nodes) == 30
        ego = [e for e in g.edges if e.kind is EdgeKind.EGO]
        lc = loop_closure_edges(g)
        assert len(ego) == 28  # two chains of 14
        assert len(lc) == 12
        assert all(e.prior_inlier == 1.0 for e in ego)
        assert all(e.prior_inlier == 0.5 for e in lc)

    def test_outlier_fraction_exact(self):
        spec = SynthSpec(m_lc=10, num_outliers=3, nodes_per_map=6, seed=1)
        g = generate(spec)
        lc = loop_closure_edges(g)
        outliers = [e for e in lc if e.truth is TruthLabel.OUTLIER]
        assert len(outliers) == 3
        assert all(e.truth is not None for e in lc)

    def test_lc_edges_cross_maps(self):
        spec = SynthSpec(m_lc=15, num_outliers=5, nodes_per_map=8, seed=7)
        g = generate(spec)
        map_of = {n.id: n.map_id for n in g.nodes}
        for e in loop_closure_edges(g):
            assert map_of[e.src] != map_of[e.dst]

    def test_no_duplicate_lc_pairs(self):
        spec = SynthSpec(m_lc=20, num_outliers=5, nodes_per_map=8, seed=2)
        g = generate(spec)
        pairs = set()
        for e in loop_closure_edges(g):
            key = frozenset((e.src, e.dst))
            assert key not in pairs
            pairs.add(key)

    def test_same_seed_identical_bytes(self):
        spec = SynthSpec(m_lc=8, num_outliers=2, nodes_per_map=6, seed=11)
        assert graph_to_text(generate(spec)) == graph_to_text(generate(spec))

    def test_different_seed_differs(self):
        a = SynthSpec(m_lc=8, num_outliers=2, nodes_per_map=6, seed=11)
        b = SynthSpec(m_lc=8, num_outliers=2, nodes_per_map=6, seed=12)
        assert graph_to_text(generate(a)) != graph_to_text(generate(b))

    def test_collapsed_bands_give_zero_cycle_errors(self):
        spec = SynthSpec(
            m_lc=8,
            num_outliers=2,
            nodes_per_map=6,
            seed=5,
            inlier_band=(0.0, 0.0),
            outlier_band=(0.0, 0.0),
        )
        g = generate(spec)
        basis = minimum_cycle_basis(g)
        assert basis.cycles  # the two-map layout always has cycles
        for cycle in basis.cycles:
            assert cycle_error(g, cycle) < 1e-7

    def test_noiseless_ego_flag(self):
        base = dict(m_lc=6, num_outliers=2, nodes_per_map=5, seed=9)
        noisy = generate(SynthSpec(**base))
        clean = generate(SynthSpec(**base, noiseless_ego=True))
        assert graph_to_text(noisy) != graph_to_text(clean)

    def test_ego_chain_per_map(self):
        spec = SynthSpec(m_lc=6, num_outliers=1, nodes_per_map=7, seed=0)
        g = generate(spec)
        map_of = {n.id: n.map_id for n in g.nodes}
        for map_id in (0, 1):
            ego = [e for e in g.edges if e.kind is EdgeKind.EGO and map_of[e.src] == map_id]
            assert len(ego) == 6
            assert all(e.dst == e.src + 1 for e in ego)

    def test_three_maps(self):
        spec = SynthSpec(m_lc=9, num_outliers=2, nodes_per_map=5, num_maps=3, seed=4)
        g = generate(spec)
        assert {n.map_id for n in g.nodes} == {0, 1, 2}
        map_of = {n.id: n.map_id for n in g.nodes}
        assert all(map_of[e.src] != map_of[e.dst] for e in loop_closure_edges(g))

    def test_noise_magnitudes_in_band(self):
        # with exact ego edges, each loop-closure measurement deviates from
        # the truth-consistent value by an angle inside its band
        spec = SynthSpec(
            m_lc=10, num_outliers=4, nodes_per_map=6, seed=13, noiseless_ego=True
        )
        g = generate(spec)
        # reconstruct ground-truth relative rotation from the ego chains is
        # not possible across maps, but band membership shows in cycle
        # errors of two-edge checks; rely on truth labels instead: outlier
        # band is far from inlier band so the two groups must separate
        basis = minimum_cycle_basis(g)
        errs = [cycle_error(g, c) for c in basis.cycles]
        assert max(errs) >= math.radians(16.0) * 0.5  # some outlier influence
        assert min(errs) <= math.radians(2.4) * 4  # some clean cycles


class TestSuite:
    def test_outlier_counts_full(self):
        assert outlier_counts(10) == list(range(1, 10))

    def test_outlier_counts_scaled(self):
        counts = outlier_counts(50, scale=0.1)
        assert counts == list(range(1, 50, 10))
        assert len(counts) == 5

    def test_m10_gives_nine_graphs(self):
        assert len(suite_specs([10])) == 9

    def test_full_grid_size_closed_form(self):
        # sum over m in {10, 15, ..., 200} of (m - 1)
        expected = sum(m - 1 for m in DEFAULT_M_VALUES)
        assert expected == 4056
        assert len(suite_specs()) == expected

    def test_scaled_suite_fraction(self):
        full = len(suite_specs())
        scaled = len(suite_specs(scale=0.1))
        assert 0.08 * full <= scaled <= 0.12 * full

    def test_specs_deterministic(self):
        a = suite_specs([10, 15], seed=5)
        b = suite_specs([10, 15], seed=5)
        assert a == b
        assert len(a) == 9 + 14

    def test_child_seed_stable(self):
        assert child_seed(0, 10, 1) == child_seed(0, 10, 1)
        assert child_seed(0, 10, 1) != child_seed(0, 10, 2)
        assert child_seed(0, 10, 1) != child_seed(1, 10, 1)

    def test_generate_suite_yields_m_graphs(self):
        items = list(generate_suite([10], seed=0, nodes_per_map=5))
        assert len(items) == 9
        for spec, g in items:
            assert len(loop_closure_edges(g)) == 10
            outliers = [e for e in loop_closure_edges(g) if e.truth is TruthLabel.OUTLIER]
            assert len(outliers) == spec.num_outliers

import math

import numpy as np
import pytest

from conftest import brute_force_mcb_weight, make_graph, random_multigraph
from loopsieve import cycles
from loopsieve.cycles import (
    Cycle,
    CycleError,
    Direction,
    cycle_error,
    cycle_rotation,
    minimum_cycle_basis,
    validate_cycle,
)
from loopsieve.graph import EdgeKind
from loopsieve.so3 import exp_so3
from loopsieve.synth import SynthSpec, generate
from reference import reference_lifted_shortest_path


def basis_edge_sets(basis):
    return sorted(tuple(sorted(c.edge_ids)) for c in basis.cycles)


class TestMinimumCycleBasis:
    def test_triangle(self):
        g = make_graph(3, [(0, 0, 1), (1, 1, 2), (2, 0, 2)])
        basis = minimum_cycle_basis(g)
        assert len(basis.cycles) == 1
        assert basis.cycles[0].length == 3

    def test_two_triangles_sharing_an_edge(self):
        # brute force over this 5-edge graph confirms minimum weight 6,
        # i.e. two triangles, not the length-4 outer cycle
        g = make_graph(4, [(0, 0, 1), (1, 1, 2), (2, 0, 2), (3, 1, 3), (4, 2, 3)])
        oracle_weight, nu = brute_force_mcb_weight(g)
        assert (oracle_weight, nu) == (6, 2)
        basis = minimum_cycle_basis(g)
        assert len(basis.cycles) == 2
        assert sum(c.length for c in basis.cycles) == 6
        assert all(c.length == 3 for c in basis.cycles)

    def test_tree_gives_empty_basis(self):
        g = make_graph(4, [(0, 0, 1), (1, 1, 2), (2, 1, 3)])
        basis = minimum_cycle_basis(g)
        assert basis.cycles == ()
        assert basis.covered_lc_edges == frozenset()

    def test_parallel_edges_form_two_cycle(self):
        g = make_graph(2, [(0, 0, 1), (1, 0, 1), (2, 0, 1)])
        basis = minimum_cycle_basis(g)
        assert len(basis.cycles) == 2
        assert all(c.length == 2 for c in basis.cycles)

    def test_disconnected_components(self):
        g = make_graph(
            6,
            [(0, 0, 1), (1, 1, 2), (2, 0, 2), (3, 3, 4), (4, 4, 5), (5, 3, 5)],
        )
        basis = minimum_cycle_basis(g)
        assert len(basis.cycles) == 2

    def test_matches_brute_force_on_random_graphs(self, rng):
        for trial in range(60):
            g = random_multigraph(rng)
            oracle_weight, nu = brute_force_mcb_weight(g)
            basis = minimum_cycle_basis(g)
            assert len(basis.cycles) == nu, f"trial {trial}"
            assert sum(c.length for c in basis.cycles) == oracle_weight, f"trial {trial}"

    def test_basis_is_independent_over_gf2(self, rng):
        for _ in range(20):
            g = random_multigraph(rng)
            basis = minimum_cycle_basis(g)
            ids = sorted(e.id for e in g.edges)
            pos = {eid: i for i, eid in enumerate(ids)}
            masks = [sum(1 << pos[e] for e in c.edge_ids) for c in basis.cycles]
            assert _gf2_rank(masks) == len(masks)

    def test_deterministic(self, rng):
        for _ in range(10):
            g = random_multigraph(rng)
            a = basis_edge_sets(minimum_cycle_basis(g))
            b = basis_edge_sets(minimum_cycle_basis(g))
            assert a == b

    def test_every_cycle_validates(self, rng):
        for _ in range(20):
            g = random_multigraph(rng)
            for cycle in minimum_cycle_basis(g).cycles:
                validate_cycle(g, cycle)

    def test_covers_loop_closures_in_cyclic_parts(self):
        g = generate(SynthSpec(m_lc=8, num_outliers=2, nodes_per_map=6, seed=11))
        basis = minimum_cycle_basis(g)
        lc_ids = {e.id for e in g.edges if e.kind is EdgeKind.LOOP_CLOSURE}
        # with two chain maps, every loop-closure edge lies in some cycle
        assert basis.covered_lc_edges == lc_ids

    def test_synth_cycles_have_two_or_more_lc_members(self):
        g = generate(SynthSpec(m_lc=10, num_outliers=3, nodes_per_map=7, seed=2))
        lc_ids = {e.id for e in g.edges if e.kind is EdgeKind.LOOP_CLOSURE}
        for cycle in minimum_cycle_basis(g).cycles:
            members = [e for e in cycle.edge_ids if e in lc_ids]
            assert len(members) >= 2

    def test_same_ordered_basis_as_tuple_keyed_search(self, monkeypatch, rng):
        # the m = 100 graphs of the perfbench em-fit workload, seeds 1-5,
        # one m = 200 graph and small random multigraphs
        graphs = [
            generate(SynthSpec(m_lc=100, num_outliers=k, seed=int(
                np.random.SeedSequence([seed, 100, k, 0]).generate_state(1)[0]
            )))
            for seed in range(1, 6)
            for k in (10, 20, 30, 40)
        ]
        graphs.append(generate(SynthSpec(m_lc=200, num_outliers=40, nodes_per_map=50, seed=1)))
        graphs += [random_multigraph(rng, max_edges=10) for _ in range(30)]
        library = [minimum_cycle_basis(g) for g in graphs]
        monkeypatch.setattr(cycles, "_lifted_shortest_path", reference_lifted_shortest_path)
        assert [minimum_cycle_basis(g) for g in graphs] == library


def _gf2_rank(masks):
    rows = [m for m in masks if m]
    rank = 0
    while rows:
        pivot = max(rows, key=int.bit_length)
        rows.remove(pivot)
        bit = pivot.bit_length()
        rows = [r ^ pivot if r.bit_length() == bit else r for r in rows]
        rows = [r for r in rows if r]
        rank += 1
    return rank


class TestCycleRotation:
    def test_identity_edges_give_identity(self):
        g = make_graph(3, [(0, 0, 1), (1, 1, 2), (2, 0, 2)])
        cycle = minimum_cycle_basis(g).cycles[0]
        assert np.allclose(cycle_rotation(g, cycle), np.eye(3))

    def test_repeated_edge_rejected(self):
        g = make_graph(2, [(0, 0, 1)])
        bad = Cycle(((0, Direction.FORWARD), (0, Direction.REVERSE)))
        with pytest.raises(CycleError, match="more than once"):
            cycle_rotation(g, bad)

    def test_broken_walk_rejected(self):
        g = make_graph(4, [(0, 0, 1), (1, 2, 3)])
        bad = Cycle(((0, Direction.FORWARD), (1, Direction.FORWARD)))
        with pytest.raises(CycleError):
            validate_cycle(g, bad)

    def test_noise_free_synthetic_cycle_is_identity(self):
        spec = SynthSpec(
            m_lc=6,
            num_outliers=1,
            nodes_per_map=5,
            seed=4,
            inlier_band=(0.0, 0.0),
            outlier_band=(0.0, 0.0),
            noiseless_ego=True,
        )
        g = generate(spec)
        for cycle in minimum_cycle_basis(g).cycles:
            assert np.linalg.norm(cycle_rotation(g, cycle) - np.eye(3)) < 1e-12

    def test_reverse_uses_transpose(self):
        # both edges measure the same relative rotation but point opposite
        # ways, so the walk composes r with r^T and closes exactly
        r = exp_so3((0.2, -0.1, 0.4))
        g = make_graph(2, [(0, 0, 1, r), (1, 1, 0, r.T)])
        cycle = minimum_cycle_basis(g).cycles[0]
        assert np.allclose(cycle_rotation(g, cycle), np.eye(3), atol=1e-15)
        assert cycle_error(g, cycle) < 1e-7


class TestCycleError:
    def test_noise_free_is_zero(self):
        g = make_graph(3, [(0, 0, 1), (1, 1, 2), (2, 0, 2)])
        cycle = minimum_cycle_basis(g).cycles[0]
        assert cycle_error(g, cycle) == 0.0

    def test_single_perturbation_passes_through(self):
        r = exp_so3(np.array([0.0, 0.0, 0.3]))
        g = make_graph(3, [(0, 0, 1, r), (1, 1, 2), (2, 0, 2)])
        cycle = minimum_cycle_basis(g).cycles[0]
        assert abs(cycle_error(g, cycle) - 0.3) < 1e-12

    def test_invariant_to_shift_and_reversal(self, rng):
        rots = [exp_so3(rng.normal(0, 0.2, 3)) for _ in range(4)]
        g = make_graph(
            4,
            [(0, 0, 1, rots[0]), (1, 1, 2, rots[1]), (2, 2, 3, rots[2]), (3, 3, 0, rots[3])],
        )
        base = minimum_cycle_basis(g).cycles[0]
        z = cycle_error(g, base)
        n = base.length
        for shift in range(n):
            shifted = Cycle(base.steps[shift:] + base.steps[:shift])
            assert abs(cycle_error(g, shifted) - z) < 1e-12
        flip = {Direction.FORWARD: Direction.REVERSE, Direction.REVERSE: Direction.FORWARD}
        reversed_cycle = Cycle(tuple((e, flip[d]) for e, d in reversed(base.steps)))
        assert abs(cycle_error(g, reversed_cycle) - z) < 1e-12

    def test_range_is_zero_to_pi(self, rng):
        for _ in range(20):
            rots = [exp_so3(rng.uniform(-math.pi, math.pi, 3)) for _ in range(3)]
            g = make_graph(
                3, [(0, 0, 1, rots[0]), (1, 1, 2, rots[1]), (2, 0, 2, rots[2])]
            )
            z = cycle_error(g, minimum_cycle_basis(g).cycles[0])
            assert 0.0 <= z <= math.pi

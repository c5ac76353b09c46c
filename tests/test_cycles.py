import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_mcb_weight, identity_edge, make_graph, random_multigraph
from loopsieve.cycles import (
    Cycle,
    CycleError,
    Direction,
    cycle_error,
    cycle_errors,
    cycle_rotation,
    minimum_cycle_basis,
    validate_cycle,
)
from loopsieve.factorgraph import build_factor_graph
from loopsieve.graph import EdgeKind, Node, PoseGraph
from loopsieve.so3 import exp_so3
from loopsieve.synth import SynthSpec, generate, suite_specs
from reference import (
    library_roots,
    reference_candidate_basis,
    reference_cycle_error,
    reference_minimum_cycle_basis,
)


def basis_edge_sets(basis):
    return sorted(tuple(sorted(c.edge_ids)) for c in basis.cycles)


@st.composite
def relabelled_multigraphs(draw):
    """Disjoint components, each a forest or a multigraph with parallel
    edges (one-node components are isolated nodes), under sparse node and
    edge ids that do not follow the structure, listed in shuffled order."""
    pairs = []
    n_nodes = 0
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 6))
        if draw(st.booleans()):
            local = [(i, draw(st.integers(0, i - 1))) for i in range(1, size)]
        elif size > 1:
            local = draw(st.lists(
                st.tuples(st.integers(0, size - 1), st.integers(1, size - 1)).map(
                    lambda p: (p[0], (p[0] + p[1]) % size)
                ),
                max_size=10,
            ))
        else:
            local = []
        pairs += [(n_nodes + u, n_nodes + v) for u, v in local]
        n_nodes += size
    ids = st.integers(0, 10**6)
    if draw(st.booleans()):
        node_ids = [7 * i + 3 for i in draw(st.permutations(range(n_nodes)))]
        edge_ids = [7 * i + 3 for i in draw(st.permutations(range(len(pairs))))]
    else:
        node_ids = draw(st.lists(ids, min_size=n_nodes, max_size=n_nodes, unique=True))
        edge_ids = draw(st.lists(ids, min_size=len(pairs), max_size=len(pairs), unique=True))
    kinds = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    nodes = [Node(node_id, 0) for node_id in node_ids]
    edges = [
        identity_edge(eid, node_ids[u], node_ids[v], EdgeKind.EGO if ego else EdgeKind.LOOP_CLOSURE)
        for eid, (u, v), ego in zip(edge_ids, pairs, kinds)
    ]
    return PoseGraph(
        tuple(draw(st.permutations(nodes))), tuple(draw(st.permutations(edges)))
    )


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
        assert build_factor_graph(g, basis).covered_variables == ()

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
        assert set(build_factor_graph(g, basis).covered_variables) == lc_ids

    def test_synth_cycles_have_two_or_more_lc_members(self):
        g = generate(SynthSpec(m_lc=10, num_outliers=3, nodes_per_map=7, seed=2))
        lc_ids = {e.id for e in g.edges if e.kind is EdgeKind.LOOP_CLOSURE}
        for cycle in minimum_cycle_basis(g).cycles:
            members = [e for e in cycle.edge_ids if e in lc_ids]
            assert len(members) >= 2

    def test_same_basis_as_naive_candidate_greedy(self, rng):
        # the m = 100 graphs of the perfbench em-fit workload, seeds 1-5,
        # one m = 200 graph, small random multigraphs and the desk-suite
        # graphs of seed 1
        graphs = [
            generate(SynthSpec(m_lc=100, num_outliers=k, seed=int(
                np.random.SeedSequence([seed, 100, k, 0]).generate_state(1)[0]
            )))
            for seed in range(1, 6)
            for k in (10, 20, 30, 40)
        ]
        graphs.append(generate(SynthSpec(m_lc=200, num_outliers=40, nodes_per_map=50, seed=1)))
        graphs += [random_multigraph(rng, max_edges=10) for _ in range(30)]
        graphs += [
            generate(spec)
            for spec in suite_specs(tuple(range(10, 51, 5)), seed=1, scale=1 / 20)
        ]
        assert len(graphs) == 68
        for g in graphs:
            _assert_matches_oracles(g)

    @settings(max_examples=200, deadline=None)
    @given(g=relabelled_multigraphs())
    def test_same_basis_as_naive_candidate_greedy_under_any_ids(self, g):
        _assert_matches_oracles(g)

    def test_roots_are_a_feedback_vertex_set(self, rng):
        for _ in range(200):
            g = random_multigraph(rng, max_edges=12)
            roots = set(library_roots(g))
            component = {n.id: n.id for n in g.nodes}

            def find(v):
                while component[v] != v:
                    v = component[v]
                return v

            for e in g.edges:
                if e.src in roots or e.dst in roots:
                    continue
                a, b = find(e.src), find(e.dst)
                assert a != b, "deleting the roots leaves a cycle"
                component[a] = b

    def test_roots_peel_then_take_the_highest_degree(self):
        # the path 4-5 hanging off node 3 is peeled; node 1 has degree 5
        # and is taken first, which leaves the triangle 0-2-3 to node 0 (the
        # lowest of three degree-2 nodes)
        g = make_graph(6, [
            (0, 0, 1), (1, 1, 2), (2, 1, 3), (3, 1, 0), (4, 0, 2), (5, 2, 3),
            (6, 3, 0), (7, 3, 4), (8, 4, 5), (9, 1, 2),
        ])
        assert library_roots(g) == [1, 0]


def _assert_matches_oracles(g):
    """The basis equals the naive candidate greedy over the same roots, in
    order, and has the sorted cycle lengths of de Pina's search."""
    basis = minimum_cycle_basis(g)
    assert basis == reference_candidate_basis(g, library_roots(g))
    old = reference_minimum_cycle_basis(g)
    assert sorted(c.length for c in basis.cycles) == sorted(c.length for c in old.cycles)


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


class TestCycleErrors:
    def test_bit_identical_to_one_cycle_at_a_time(self, rng):
        graphs = [
            generate(spec)
            for spec in suite_specs(tuple(range(10, 51, 10)), seed=3, scale=1 / 20)
        ]
        for _ in range(20):
            rots = [exp_so3(rng.uniform(-math.pi, math.pi, 3)) for _ in range(7)]
            graphs.append(make_graph(4, [
                (eid, u, v, rot)
                for eid, (u, v), rot in zip(
                    range(7), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (1, 3), (3, 1)], rots
                )
            ]))
        for g in graphs:
            cycles = minimum_cycle_basis(g).cycles
            z = cycle_errors(g, cycles)
            assert z.dtype == np.float64 and z.shape == (len(cycles),)
            assert z.tolist() == [reference_cycle_error(g, c) for c in cycles]
            assert [cycle_error(g, c) for c in cycles] == z.tolist()

    def test_no_cycles(self):
        g = make_graph(2, [(0, 0, 1)])
        assert cycle_errors(g, ()).shape == (0,)

    def test_invalid_cycle_rejected(self):
        g = make_graph(3, [(0, 0, 1), (1, 1, 2), (2, 0, 2)])
        good = minimum_cycle_basis(g).cycles[0]
        bad = Cycle(((0, Direction.FORWARD), (1, Direction.REVERSE)))
        with pytest.raises(CycleError):
            cycle_errors(g, (good, bad))

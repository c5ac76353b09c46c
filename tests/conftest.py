"""Shared helpers: small-graph builders and brute-force oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from loopsieve import so3
from loopsieve.cycles import Cycle, Direction
from loopsieve.factorgraph import FactorGraph
from loopsieve.graph import Edge, EdgeKind, Node, PoseGraph
from loopsieve.model import CycleFactor, ModelParams


def identity_edge(eid: int, src: int, dst: int, kind=EdgeKind.LOOP_CLOSURE, prior=0.5):
    return Edge(eid, src, dst, np.eye(3), kind, 1.0 if kind is EdgeKind.EGO else prior)


def make_graph(n_nodes: int, edge_spec, map_of=None):
    """edge_spec: iterable of (eid, src, dst[, rotation[, kind[, prior]]])."""
    nodes = tuple(
        Node(i, map_of[i] if map_of else 0) for i in range(n_nodes)
    )
    edges = []
    for item in edge_spec:
        eid, src, dst = item[0], item[1], item[2]
        rotation = item[3] if len(item) > 3 else np.eye(3)
        kind = item[4] if len(item) > 4 else EdgeKind.LOOP_CLOSURE
        prior = item[5] if len(item) > 5 else (1.0 if kind is EdgeKind.EGO else 0.5)
        edges.append(Edge(eid, src, dst, rotation, kind, prior))
    return PoseGraph(nodes, tuple(edges))


def simple_cycles_by_edges(g: PoseGraph):
    """All simple cycles of g as edge-id frozensets (exhaustive; tiny graphs)."""
    endpoints = {e.id: (e.src, e.dst) for e in g.edges}
    ids = sorted(endpoints)
    cycles = set()
    for r in range(2, len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            degree = {}
            for eid in combo:
                u, v = endpoints[eid]
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
            if any(d != 2 for d in degree.values()):
                continue
            # connectivity over the touched vertices
            verts = list(degree)
            adj = {v: set() for v in verts}
            for eid in combo:
                u, v = endpoints[eid]
                adj[u].add(v)
                adj[v].add(u)
            seen = {verts[0]}
            stack = [verts[0]]
            while stack:
                for nxt in adj[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            if len(seen) == len(verts):
                cycles.add(frozenset(combo))
    return sorted(cycles, key=lambda s: (len(s), tuple(sorted(s))))


def brute_force_mcb_weight(g: PoseGraph):
    """Minimum total weight of a full-rank independent cycle set.

    The cycle space over GF(2) is a vector matroid, so scanning all simple
    cycles in weight order and keeping each one that is independent of the
    kept set yields a minimum-weight basis.
    """
    all_cycles = simple_cycles_by_edges(g)
    ids = sorted(e.id for e in g.edges)
    pos = {eid: i for i, eid in enumerate(ids)}
    nu = len(g.edges) - len(g.nodes) + _component_count(g)
    if nu == 0:
        return 0, 0
    masks = [sum(1 << pos[eid] for eid in c) for c in all_cycles]
    weights = [len(c) for c in all_cycles]
    order = sorted(range(len(all_cycles)), key=lambda i: weights[i])
    basis_masks: list[int] = []
    total = 0
    for i in order:
        if _rank(basis_masks + [masks[i]]) > len(basis_masks):
            basis_masks.append(masks[i])
            total += weights[i]
            if len(basis_masks) == nu:
                return total, nu
    raise AssertionError("graph has fewer independent cycles than |E| - |V| + c")


def _rank(masks) -> int:
    rows = list(masks)
    rank = 0
    for bit in range(max((m.bit_length() for m in rows), default=0), -1, -1):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i] >> bit & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] >> bit & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def _component_count(g: PoseGraph) -> int:
    adj = {n.id: set() for n in g.nodes}
    for e in g.edges:
        adj[e.src].add(e.dst)
        adj[e.dst].add(e.src)
    seen = set()
    comps = 0
    for start in adj:
        if start in seen:
            continue
        comps += 1
        stack = [start]
        seen.add(start)
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return comps


def random_multigraph(rng: np.random.Generator, max_edges: int = 8) -> PoseGraph:
    """Random small graph (parallel edges allowed) with identity rotations."""
    n_nodes = int(rng.integers(3, 7))
    n_edges = int(rng.integers(2, max_edges + 1))
    edges = []
    for eid in range(n_edges):
        u = int(rng.integers(n_nodes))
        v = int(rng.integers(n_nodes))
        while v == u:
            v = int(rng.integers(n_nodes))
        edges.append((eid, u, v))
    return make_graph(n_nodes, edges)


def loop_closure_ring(n: int) -> PoseGraph:
    """n nodes joined in one ring of n truth-labeled loop closures: a single
    basis cycle with n loop-closure members."""
    from loopsieve.graph import TruthLabel

    nodes = tuple(Node(i, i % 2) for i in range(n))
    edges = tuple(
        Edge(i, i, (i + 1) % n, np.eye(3), EdgeKind.LOOP_CLOSURE, 0.5, TruthLabel.INLIER)
        for i in range(n)
    )
    return PoseGraph(nodes, edges)


def three_cycle_factor_graph(z_values) -> FactorGraph:
    """Five loop-closure variables in three overlapping cycle factors."""
    z1, z2, z3 = z_values
    factors = (
        CycleFactor(0, (1, 2, 3), 0, z1),
        CycleFactor(1, (3, 4, 5), 0, z2),
        CycleFactor(2, (1, 2, 4, 5), 0, z3),
    )
    return FactorGraph((1, 2, 3, 4, 5), factors)


def gaussian_model_graph(
    m_lc: int,
    n_out: int,
    nodes_per_map: int,
    sigma: float,
    sigma_bar: float,
    seed: int,
    id_base: int = 0,
):
    """Two chain maps whose measurements carry Gaussian rotation noise.

    Unlike the band-noise generator in the package, this draws noise from
    the model the estimator assumes, which is what parameter-recovery
    experiments need.
    """
    from loopsieve.so3 import exp_so3, sample_noisy_rotation
    from loopsieve.graph import TruthLabel

    rng = np.random.default_rng(seed)
    nodes, rotations = [], {}
    for map_id in range(2):
        for i in range(nodes_per_map):
            nid = id_base + map_id * nodes_per_map + i
            nodes.append(Node(nid, map_id))
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            rotations[nid] = exp_so3(v * rng.uniform(0, math.pi))
    edges = []
    eid = id_base
    for map_id in range(2):
        base = id_base + map_id * nodes_per_map
        for i in range(nodes_per_map - 1):
            rel = rotations[base + i + 1] @ rotations[base + i].T
            edges.append(
                Edge(eid, base + i, base + i + 1,
                     sample_noisy_rotation(rel, sigma, rng), EdgeKind.EGO, 1.0)
            )
            eid += 1
    pairs, used = [], set()
    while len(pairs) < m_lc:
        u = id_base + int(rng.integers(nodes_per_map))
        v = id_base + nodes_per_map + int(rng.integers(nodes_per_map))
        if (u, v) in used:
            continue
        used.add((u, v))
        pairs.append((u, v))
    outlier_slots = set(int(i) for i in rng.permutation(m_lc)[:n_out])
    for slot, (u, v) in enumerate(pairs):
        rel = rotations[v] @ rotations[u].T
        scale = sigma_bar if slot in outlier_slots else sigma
        truth = TruthLabel.OUTLIER if slot in outlier_slots else TruthLabel.INLIER
        edges.append(
            Edge(eid, u, v, sample_noisy_rotation(rel, scale, rng),
                 EdgeKind.LOOP_CLOSURE, 0.5, truth)
        )
        eid += 1
    return PoseGraph(tuple(nodes), tuple(edges))


def pooled_factor_graph(graphs) -> FactorGraph:
    """Disjoint union of per-graph factor graphs (edge ids must not clash)."""
    from loopsieve.cycles import minimum_cycle_basis
    from loopsieve.factorgraph import build_factor_graph

    variables: list[int] = []
    factors: list[CycleFactor] = []
    for g in graphs:
        fg = build_factor_graph(g, minimum_cycle_basis(g))
        variables.extend(fg.variables)
        for f in fg.factors:
            factors.append(CycleFactor(len(factors), f.lc_members, f.n_fixed, f.z))
    return FactorGraph(tuple(sorted(variables)), tuple(factors))


def mean_count_gaps(fg: FactorGraph, result) -> np.ndarray:
    """Per factor, |sum_s s c_f(s) - sum_j (1 - p_inlier(j))|: the mean
    outlier count of its count marginals against the outlier probabilities
    of its members. Zero whenever the two are consistent."""
    gaps = []
    for factor, start in zip(fg.factors, fg.row_starts):
        k = len(factor.lc_members)
        mean = float(np.arange(k + 1) @ result.count_marginals[start : start + k + 1])
        expected = sum(1.0 - result.edge_marginals[eid] for eid in factor.lc_members)
        gaps.append(abs(mean - expected))
    return np.array(gaps)


def uniform_params(edge_ids, sigma=math.radians(2.0), sigma_bar=math.radians(20.0), prior=0.5):
    return ModelParams(sigma, sigma_bar, {eid: prior for eid in edge_ids})


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

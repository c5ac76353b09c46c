"""Scalar and per-message reference implementations, for the tests only.

The library computes with arrays: `model.log_likelihood_rows` is its one
likelihood, `run_bp` updates messages in batches of equal cycle size, all
excluded slots at once, `run_admm` reaches its optimum by ADMM steps over
batches of equal-size cycles, and `exact_marginals` eliminates variables
bucket by bucket. The functions here compute the same quantities one
scalar, one factor, one message or one full-length state array at a time,
and solve ADMM's whole problem at once by a general-purpose QP solver; the
tests compare the library against them.

The library reports each cycle's posterior only as the marginals of its
outlier count. The references here keep the posterior over all 2^k
configurations of each cycle, as a plain array whose bit j of the index is
1 when member j is an outlier, and :func:`fold_by_count` reduces those to
the library's layout.

Import them as `from reference import ...`, like `conftest`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import pytest

from loopsieve import so3
from loopsieve.cycles import (
    Cycle,
    CycleBasis,
    Direction,
    _feedback_vertices,
    _orient_cycle,
    validate_cycle,
)
from loopsieve.factorgraph import FactorGraph, InferenceResult
from loopsieve.graph import EdgeKind, PoseGraph, loop_closure_edges
from loopsieve.infer_admm import _project_rows
from loopsieve.infer_bp import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    MESSAGE_FLOOR,
    _excluded_slots,
    _factor_messages,
    _normalize,
)
from loopsieve.model import (
    CycleFactor,
    ModelParams,
    _std,
    factors_from_basis,
    log_likelihood_rows,
    log_prior_vector,
    truncated_gaussian_mass,
)

# --- the rotation test, in numpy -----------------------------------------


def reference_is_rotation(r, tol: float = so3.ORTHONORMAL_TOL) -> bool:
    """so3.is_rotation's rule by numpy's matrix product, norm and LU
    determinant: finite, |R R^T - I| <= tol in Frobenius norm and
    |det R - 1| <= tol."""
    a = np.asarray(r, dtype=float)
    if a.shape != (3, 3) or not np.all(np.isfinite(a)):
        return False
    if np.linalg.norm(a @ a.T - np.eye(3)) > tol:
        return False
    return bool(abs(np.linalg.det(a) - 1.0) <= tol)


# --- priors by edge id ---------------------------------------------------


def priors_by_id(variables, params: ModelParams) -> dict[int, float]:
    """Each variable's prior inlier probability by edge id, params.priors
    being in the order of variables: the one place the oracles turn the
    library's prior array back into a mapping."""
    return dict(zip(variables, params.priors.tolist()))


# --- the likelihood, one (factor, s) at a time ---------------------------


def mixture_std(factor: CycleFactor, s: int, params: ModelParams) -> float:
    """Error scale of the cycle when s of its free members are outliers."""
    k = len(factor.lc_members)
    if not 0 <= s <= k:
        raise ValueError(f"s must be in [0, {k}], got {s}")
    return _std(s, factor.n_fixed + k - s, params.sigma, params.sigma_bar)


def log_cycle_likelihood(factor: CycleFactor, s: int, params: ModelParams) -> float:
    """log p(z | s outliers), up to the per-cycle constant that cancels
    in inference: -3 ln(std) - z^2 / (2 std^2) - ln(truncated mass)."""
    std = mixture_std(factor, s, params)
    return (
        -3.0 * math.log(std)
        - factor.z**2 / (2.0 * std**2)
        - math.log(truncated_gaussian_mass(std))
    )


def log_likelihood_table(factor: CycleFactor, params: ModelParams) -> np.ndarray:
    """log p(z | s) for s = 0 .. k."""
    k = len(factor.lc_members)
    return np.array([log_cycle_likelihood(factor, s, params) for s in range(k + 1)])


def cycle_conditional(factor: CycleFactor, params: ModelParams, variables) -> np.ndarray:
    """Posterior over the cycle's own 2^k configurations given its error alone,
    as a loop over member bits; params.priors is in the order of variables.

    p(mask) is proportional to p(z | popcount(mask)) times the member priors.
    """
    k = len(factor.lc_members)
    masks = np.arange(1 << k)
    log_p = log_likelihood_table(factor, params)[[bin(m).count("1") for m in masks]]
    prior = priors_by_id(variables, params)
    log_in, log_out = log_prior_vector(np.array([prior[e] for e in factor.lc_members]))
    for j in range(k):
        bit = (masks >> j) & 1
        log_p = log_p + np.where(bit == 1, log_out[j], log_in[j])
    log_p -= np.max(log_p)
    p = np.exp(log_p)
    return p / p.sum()


def inlier_marginal(dist: np.ndarray, member_index: int) -> float:
    """P(member is an inlier): total mass of masks with that bit clear."""
    masks = np.arange(dist.shape[0])
    keep = (masks >> member_index) & 1 == 0
    return float(dist[keep].sum())


def fold_by_count(dists) -> np.ndarray:
    """Configuration distributions, one per factor in factor order, folded
    into the count-marginal layout: the mass of the masks with s bits set,
    s = 0 .. k, for each factor in turn."""
    out = [np.zeros(0)]
    for dist in dists:
        k = dist.shape[0].bit_length() - 1
        popcounts = np.array([bin(mask).count("1") for mask in range(1 << k)])
        out.append(np.bincount(popcounts, weights=dist, minlength=k + 1))
    return np.concatenate(out)


def joint_log_density(
    g: PoseGraph,
    basis: CycleBasis,
    x: Mapping[int, int],
    params: ModelParams,
) -> float:
    """Log of the unnormalized joint: edge priors times cycle likelihoods.

    ``x`` must assign 0 (inlier) or 1 (outlier) to every loop-closure edge,
    and params.priors is in loop_closure_edges(g) order.
    """
    prior = priors_by_id([e.id for e in loop_closure_edges(g)], params)
    total = 0.0
    for edge in g.edges:
        if edge.kind is not EdgeKind.LOOP_CLOSURE:
            continue
        if edge.id not in x:
            raise ValueError(f"configuration is missing loop-closure edge {edge.id}")
        state = x[edge.id]
        if state not in (0, 1):
            raise ValueError(f"edge {edge.id}: state must be 0 or 1, got {state}")
        term = prior[edge.id] if state == 0 else 1.0 - prior[edge.id]
        total += math.log(term) if term > 0 else -math.inf
    for factor in factors_from_basis(g, basis):
        s = sum(x[eid] for eid in factor.lc_members)
        total += log_cycle_likelihood(factor, s, params)
    return total


# --- the cycle error, one step at a time ---------------------------------


def reference_cycle_error(g: PoseGraph, cycle: Cycle) -> float:
    """Geodesic angle of the cycle's rotation, composed one step at a time."""
    validate_cycle(g, cycle)
    total = np.eye(3)
    for edge_id, direction in cycle.steps:
        rot = g.edge_by_id[edge_id].rotation
        step = rot if direction is Direction.FORWARD else rot.T
        total = step @ total
    return so3.geodesic_angle(total)


# --- the cycle basis: Horton candidates, one explicit path at a time ------


def library_roots(g: PoseGraph) -> list[int]:
    """The node ids that `minimum_cycle_basis` roots its BFS trees at."""
    node_ids = sorted(n.id for n in g.nodes)
    index = {node_id: i for i, node_id in enumerate(node_ids)}
    adjacency: list[list[tuple[int, int]]] = [[] for _ in node_ids]
    for e in g.edges:
        adjacency[index[e.src]].append((e.id, index[e.dst]))
        adjacency[index[e.dst]].append((e.id, index[e.src]))
    return [node_ids[i] for i in _feedback_vertices(adjacency)]


def reference_candidate_basis(g: PoseGraph, roots) -> CycleBasis:
    """Greedy minimum basis over Horton candidates rooted at ``roots``.

    One BFS tree per root, neighbours in edge-id order, keeps each vertex's
    tree path as a list of edge ids and of vertices. A non-tree edge xy whose
    two tree paths share only the root gives the candidate P(r, x) + xy +
    P(y, r). Distinct candidates are sorted by (length, sorted edge ids) and
    kept while they raise the GF(2) rank of the kept set, found by
    elimination over all edges.
    """
    endpoints = {e.id: (e.src, e.dst) for e in g.edges}
    adjacency: dict[int, list[tuple[int, int]]] = {n.id: [] for n in g.nodes}
    for eid, (u, v) in sorted(endpoints.items()):
        adjacency[u].append((eid, v))
        adjacency[v].append((eid, u))

    candidates: set[tuple[int, ...]] = set()
    for root in roots:
        edge_path: dict[int, list[int]] = {root: []}
        vertex_path: dict[int, list[int]] = {root: [root]}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for eid, y in adjacency[x]:
                if y not in edge_path:
                    edge_path[y] = edge_path[x] + [eid]
                    vertex_path[y] = vertex_path[x] + [y]
                    queue.append(y)
        for eid, (x, y) in endpoints.items():
            if x not in edge_path or eid in edge_path[x] or eid in edge_path[y]:
                continue
            if set(vertex_path[x]) & set(vertex_path[y]) == {root}:
                candidates.add(tuple(sorted(edge_path[x] + edge_path[y] + [eid])))

    basis: list[Cycle] = []
    rows: list[set[int]] = []  # kept cycles reduced to echelon form, pivot = min id
    for ids in sorted(candidates, key=lambda c: (len(c), c)):
        row = set(ids)
        for kept in rows:
            if min(kept) in row:
                row ^= kept
        if row:
            rows = [kept ^ row if min(row) in kept else kept for kept in rows] + [row]
            basis.append(_orient_cycle(list(ids), endpoints))

    return CycleBasis(tuple(basis))


# --- de Pina's cycle basis search on tuple-keyed lifted vertices ---------


def reference_minimum_cycle_basis(g: PoseGraph) -> CycleBasis:
    """de Pina's basis on a dict adjacency keyed by node id: one witness at
    a time, a set-membership test per scanned edge in the lifted BFS, and
    every path split into simple cycles."""
    endpoints = {e.id: (e.src, e.dst) for e in g.edges}
    adjacency: dict[int, list[tuple[int, int]]] = {n.id: [] for n in g.nodes}
    for eid, (u, v) in sorted(endpoints.items()):
        adjacency[u].append((eid, v))
        adjacency[v].append((eid, u))
    for lst in adjacency.values():
        lst.sort()

    chords = _chords(adjacency, endpoints)
    chord_pos = {eid: i for i, eid in enumerate(chords)}
    witnesses = [1 << i for i in range(len(chords))]

    basis: list[Cycle] = []
    for i in range(len(chords)):
        odd_edges = {chords[b] for b in range(len(chords)) if witnesses[i] >> b & 1}
        cycle_edges = _min_odd_cycle(adjacency, endpoints, odd_edges)
        cycle_mask = 0
        for eid in cycle_edges:
            if eid in chord_pos:
                cycle_mask |= 1 << chord_pos[eid]
        if not _parity(cycle_mask & witnesses[i]):
            raise AssertionError("cycle is not odd against its witness")
        for j in range(i + 1, len(chords)):
            if _parity(cycle_mask & witnesses[j]):
                witnesses[j] ^= witnesses[i]
        basis.append(_orient_cycle(sorted(cycle_edges), endpoints))

    return CycleBasis(tuple(basis))


def _chords(adjacency, endpoints) -> list[int]:
    """Non-tree edges of a BFS spanning forest, sorted by edge id."""
    tree_edges: set[int] = set()
    visited: set[int] = set()
    for root in sorted(adjacency):
        if root in visited:
            continue
        visited.add(root)
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for eid, other in adjacency[node]:
                if other not in visited:
                    visited.add(other)
                    tree_edges.add(eid)
                    queue.append(other)
    return sorted(eid for eid in endpoints if eid not in tree_edges)


def _parity(mask: int) -> int:
    return mask.bit_count() & 1


def _min_odd_cycle(adjacency, endpoints, odd_edges: set[int]) -> set[int]:
    """Minimum-weight cycle whose intersection with odd_edges is odd.

    Searches the parity-lifted graph: traversing an edge in odd_edges flips
    the parity bit, and any shortest (v, 0) -> (v, 1) path projects onto a
    closed odd edge set. Such a set is an edge-disjoint union of simple
    cycles, at least one of which is odd; the best odd piece is kept.
    """
    sources: list[int] = sorted({v for eid in odd_edges for v in endpoints[eid]})
    best_key = None
    best: set[int] | None = None
    for source in sources:
        path = reference_lifted_shortest_path(adjacency, odd_edges, source)
        if path is None:
            continue
        edge_set: set[int] = set()
        for eid in path:
            edge_set.symmetric_difference_update({eid})
        for piece in _split_into_simple_cycles(edge_set, endpoints):
            if len(piece & odd_edges) % 2 == 0:
                continue
            key = (len(piece), tuple(sorted(piece)))
            if best_key is None or key < best_key:
                best_key = key
                best = piece
    if best is None:
        raise AssertionError("no odd cycle found for a chord witness")
    return best


def reference_lifted_shortest_path(adjacency, odd_edges, source: int) -> list[int] | None:
    """BFS from (source, 0) to (source, 1) on (vertex, parity) tuples, run
    until the goal is dequeued; returns the edge ids of the path."""
    start = (source, 0)
    goal = (source, 1)
    parents: dict[tuple[int, int], tuple[tuple[int, int], int]] = {start: (start, -1)}
    queue = deque([start])
    while queue:
        node, parity = queue.popleft()
        if (node, parity) == goal:
            break
        for eid, other in adjacency[node]:
            flip = 1 if eid in odd_edges else 0
            nxt = (other, parity ^ flip)
            if nxt not in parents:
                parents[nxt] = ((node, parity), eid)
                queue.append(nxt)
    if goal not in parents:
        return None
    path: list[int] = []
    cursor = goal
    while cursor != start:
        cursor, eid = parents[cursor]
        path.append(eid)
    path.reverse()
    return path


def _split_into_simple_cycles(edge_set: set[int], endpoints) -> list[set[int]]:
    """Decompose an even-degree edge set into edge-disjoint simple cycles."""
    remaining = set(edge_set)
    incident: dict[int, list[int]] = {}
    for eid in sorted(edge_set):
        u, v = endpoints[eid]
        incident.setdefault(u, []).append(eid)
        incident.setdefault(v, []).append(eid)
    pieces: list[set[int]] = []
    while remaining:
        start = min(v for v, eids in incident.items() if any(e in remaining for e in eids))
        path_edges: list[int] = []
        position = {start: 0}
        vertices = [start]
        current = start
        while True:
            eid = next(e for e in incident[current] if e in remaining and e not in path_edges)
            u, v = endpoints[eid]
            nxt = v if u == current else u
            path_edges.append(eid)
            if nxt in position:
                loop = set(path_edges[position[nxt]:])
                pieces.append(loop)
                remaining -= loop
                break
            vertices.append(nxt)
            position[nxt] = len(vertices) - 1
            current = nxt
    return pieces


# --- exact enumeration on full-length state arrays -----------------------

# enumeration is O(2^n): refuse blocks of more coupled variables than this
ENUMERATION_LIMIT = 22


def var_factors(fg: FactorGraph) -> dict[int, tuple[int, ...]]:
    """The factors each variable is a member of, in factor order."""
    out: dict[int, list[int]] = {eid: [] for eid in fg.variables}
    for f_idx, factor in enumerate(fg.factors):
        for eid in factor.lc_members:
            out[eid].append(f_idx)
    return {eid: tuple(v) for eid, v in out.items()}


def connected_components(fg: FactorGraph) -> list[tuple[list[int], list[int]]]:
    """(variable ids, factor indices) per connected block of the factor graph."""
    factors_of = var_factors(fg)
    seen_vars: set[int] = set()
    seen_factors: set[int] = set()
    components = []
    for start in fg.covered_variables:
        if start in seen_vars:
            continue
        vars_here: list[int] = []
        factors_here: list[int] = []
        stack = [start]
        seen_vars.add(start)
        while stack:
            eid = stack.pop()
            vars_here.append(eid)
            for f_idx in factors_of[eid]:
                if f_idx in seen_factors:
                    continue
                seen_factors.add(f_idx)
                factors_here.append(f_idx)
                for other in fg.factors[f_idx].lc_members:
                    if other not in seen_vars:
                        seen_vars.add(other)
                        stack.append(other)
        components.append((sorted(vars_here), sorted(factors_here)))
    return components


def reference_exact_marginals(fg: FactorGraph, params: ModelParams) -> InferenceResult:
    """Posterior marginals by enumeration, one connected block at a time,
    with one int64 array of 2^n states per factor and per-member bit masks;
    each factor's 2^k configuration posterior is folded by count."""
    prior = priors_by_id(fg.variables, params)
    marginals = dict(prior)
    beliefs: list[np.ndarray | None] = [None] * len(fg.factors)
    # factor f's log p(z | s), s = 0 .. k, is rows[offsets[f] : offsets[f + 1]]
    rows = log_likelihood_rows(fg.factors, [(params.sigma, params.sigma_bar)])[0]
    offsets = np.cumsum([0] + [len(f.lc_members) + 1 for f in fg.factors])
    log_z = 0.0
    for var_ids, factor_indices in connected_components(fg):
        n = len(var_ids)
        if n > ENUMERATION_LIMIT:
            raise ValueError(
                f"exact enumeration over a {n}-edge block exceeds the limit of "
                f"{ENUMERATION_LIMIT}"
            )
        position = {eid: i for i, eid in enumerate(var_ids)}
        masks = np.arange(1 << n, dtype=np.int64)
        log_p = np.zeros(1 << n)
        for eid in var_ids:
            log_in, log_out = log_prior_vector(np.array([prior[eid]]))
            bit = (masks >> position[eid]) & 1
            log_p = log_p + np.where(bit == 1, log_out[0], log_in[0])
        local_masks = {}
        for f_idx in factor_indices:
            factor = fg.factors[f_idx]
            table = rows[offsets[f_idx] : offsets[f_idx + 1]]
            s = np.zeros(1 << n, dtype=np.int64)
            local = np.zeros(1 << n, dtype=np.int64)
            for j, eid in enumerate(factor.lc_members):
                bit = (masks >> position[eid]) & 1
                s += bit
                local += bit << j
            log_p = log_p + table[s]
            local_masks[f_idx] = local
        peak = float(np.max(log_p))
        weights = np.exp(log_p - peak)
        total = float(weights.sum())
        prob = weights / total
        log_z += peak + np.log(total)
        for eid in var_ids:
            bit = (masks >> position[eid]) & 1
            marginals[eid] = float(prob[bit == 0].sum())
        for f_idx in factor_indices:
            factor = fg.factors[f_idx]
            k = len(factor.lc_members)
            values = np.bincount(local_masks[f_idx], weights=prob, minlength=1 << k)
            beliefs[f_idx] = values / values.sum()

    return InferenceResult(
        fg.variables,
        np.array([marginals[eid] for eid in fg.variables]),
        fold_by_count(beliefs),
        True,
        1,
        log_evidence=log_z,
    )


# --- BP, one message at a time -------------------------------------------


@dataclass
class MessageState:
    """Mutable message tables for one BP run.

    to_var[(f_idx, eid)] and to_factor[(eid, f_idx)] are normalized 2-vectors.
    """

    to_var: dict[tuple[int, int], np.ndarray]
    to_factor: dict[tuple[int, int], np.ndarray]


def prior_message(fg: FactorGraph, params: ModelParams, edge_id: int) -> np.ndarray:
    pi = priors_by_id(fg.variables, params)[edge_id]
    return np.array([pi, 1.0 - pi])


def likelihood_weights(factor, params: ModelParams) -> np.ndarray:
    """exp of the per-count log-likelihoods, rescaled by the max.

    Beliefs are invariant to positive per-factor scaling, so the shift only
    guards against underflow.
    """
    table = log_likelihood_table(factor, params)
    return np.exp(table - table.max())


def var_to_factor(
    state: MessageState,
    fg: FactorGraph,
    params: ModelParams,
    edge_id: int,
    f_idx: int,
) -> np.ndarray:
    """Product of the prior and all other incoming factor messages."""
    out = prior_message(fg, params, edge_id).copy()
    for other in var_factors(fg)[edge_id]:
        if other != f_idx:
            out = out * state.to_var[(other, edge_id)]
    return _normalize(out)


def factor_to_var(
    state: MessageState,
    fg: FactorGraph,
    params: ModelParams,
    f_idx: int,
    edge_id: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Marginalize the cycle factor against the other members' messages.

    Convolves the incoming Bernoulli messages into a distribution over the
    other members' outlier count, then contracts with the likelihood table.
    """
    factor = fg.factors[f_idx]
    if weights is None:
        weights = likelihood_weights(factor, params)
    poly = np.array([1.0])
    for member in factor.lc_members:
        if member == edge_id:
            continue
        n0, n1 = state.to_factor[(member, f_idx)]
        nxt = np.zeros(poly.shape[0] + 1)
        nxt[:-1] += poly * n0
        nxt[1:] += poly * n1
        poly = nxt
    out = np.array(
        [
            float(poly @ weights[: poly.shape[0]]),
            float(poly @ weights[1 : poly.shape[0] + 1]),
        ]
    )
    return _normalize(out)


def factor_to_var_enumerated(
    state: MessageState,
    fg: FactorGraph,
    params: ModelParams,
    f_idx: int,
    edge_id: int,
) -> np.ndarray:
    """Reference marginalization by explicit 2^(k-1) enumeration."""
    factor = fg.factors[f_idx]
    weights = likelihood_weights(factor, params)
    others = [m for m in factor.lc_members if m != edge_id]
    out = np.zeros(2)
    for value in (0, 1):
        total = 0.0
        for mask in range(1 << len(others)):
            term = 1.0
            s = value
            for j, member in enumerate(others):
                bit = (mask >> j) & 1
                term *= state.to_factor[(member, f_idx)][bit]
                s += bit
            total += term * weights[s]
        out[value] = total
    return _normalize(out)


def init_messages(fg: FactorGraph, params: ModelParams) -> MessageState:
    to_var = {}
    to_factor = {}
    for f_idx, factor in enumerate(fg.factors):
        for eid in factor.lc_members:
            to_var[(f_idx, eid)] = np.array([0.5, 0.5])
            to_factor[(eid, f_idx)] = prior_message(fg, params, eid)
    return MessageState(to_var, to_factor)


def factor_beliefs(state: MessageState, fg: FactorGraph, params: ModelParams) -> list[np.ndarray]:
    """Each factor's belief over its 2^k configurations, in the log domain:
    its likelihood weights times the incoming variable messages, each
    clipped at MESSAGE_FLOOR."""
    beliefs = []
    for f_idx, factor in enumerate(fg.factors):
        k = len(factor.lc_members)
        masks = np.arange(1 << k)
        s = np.zeros(1 << k, dtype=np.intp)
        log_b = np.zeros(1 << k)
        for j, eid in enumerate(factor.lc_members):
            bit = (masks >> j) & 1
            s += bit
            log_b += np.log(np.maximum(state.to_factor[(eid, f_idx)], MESSAGE_FLOOR))[bit]
        log_b += np.log(np.maximum(likelihood_weights(factor, params), MESSAGE_FLOOR))[s]
        b = np.exp(log_b - log_b.max())
        beliefs.append(b / b.sum())
    return beliefs


def reference_count_convolution(incoming: np.ndarray, members) -> np.ndarray:
    """Distribution of the outlier count among the given members of each
    factor: incoming is (F, k, 2), the result (F, len(members) + 1)."""
    poly = np.ones((incoming.shape[0], 1))
    for member in members:
        nxt = np.zeros((incoming.shape[0], poly.shape[1] + 1))
        nxt[:, :-1] += poly * incoming[:, member, 0:1]
        nxt[:, 1:] += poly * incoming[:, member, 1:2]
        poly = nxt
    return poly


def reference_factor_messages(
    to_factor: np.ndarray, rows: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Every factor-to-variable message of one k group, one excluded slot
    at a time: the batched `infer_bp._factor_messages` must match it bit
    for bit.

    rows is the group's (F, k) incidence matrix and weights its (F, k + 1)
    likelihood weights; out[r, j] is the message along incidence rows[r, j].
    """
    n_factors, k = rows.shape
    incoming = to_factor[rows]
    out = np.empty((n_factors, k, 2))
    for j in range(k):
        poly = reference_count_convolution(incoming, [m for m in range(k) if m != j])
        # A stacked (1, k) @ (k, 1) product adds in the same order as the
        # reference's 1-D dot, so each message is bit-identical.
        stacked = poly[:, None, :]
        out[:, j, 0] = (stacked @ weights[:, :k, None])[:, 0, 0]
        out[:, j, 1] = (stacked @ weights[:, 1:, None])[:, 0, 0]
    return out


def reference_bp(
    fg, params, damping, max_iters=DEFAULT_MAX_ITERS, tol=DEFAULT_TOL, always_damped=False
):
    """BP one message at a time: all factor messages from the old variable
    messages, then all variable messages from the new factor messages.

    As in `run_bp`, updates start undamped, and from the third iteration on
    the first rise of the residual damps the rest of the run; always_damped
    damps every update instead.

    Returns (edge marginals, count marginals, iterations, converged).
    """
    state = init_messages(fg, params)
    weights = [likelihood_weights(f, params) for f in fg.factors]
    converged = False
    damped = always_damped
    last_delta = math.inf
    iterations = 0
    for iterations in range(1, max_iters + 1):
        delta = 0.0
        for f_idx, factor in enumerate(fg.factors):
            for eid in factor.lc_members:
                old = state.to_var[(f_idx, eid)]
                new = factor_to_var(state, fg, params, f_idx, eid, weights[f_idx])
                if damped:
                    new = damping * old + (1.0 - damping) * new
                delta = max(delta, float(np.max(np.abs(new - old))))
                state.to_var[(f_idx, eid)] = new
        for eid in fg.variables:
            for f_idx in var_factors(fg)[eid]:
                old = state.to_factor[(eid, f_idx)]
                new = var_to_factor(state, fg, params, eid, f_idx)
                if damped:
                    new = damping * old + (1.0 - damping) * new
                delta = max(delta, float(np.max(np.abs(new - old))))
                state.to_factor[(eid, f_idx)] = new
        if delta < tol:
            converged = True
            break
        damped = damped or (iterations >= 3 and delta > last_delta)
        last_delta = delta

    marginals = {}
    for eid in fg.variables:
        belief = prior_message(fg, params, eid)
        for f_idx in var_factors(fg)[eid]:
            belief = belief * state.to_var[(f_idx, eid)]
            belief = belief / belief.max()
        marginals[eid] = belief[0] / belief.sum()
    counts = fold_by_count(factor_beliefs(state, fg, params))
    return marginals, counts, iterations, converged


def always_damped_bp(fg, params, damping=DEFAULT_DAMPING, max_iters=DEFAULT_MAX_ITERS, tol=DEFAULT_TOL):
    """`run_bp`'s batched arithmetic with every update damped from the first
    iteration: the schedule `run_bp` had before it damped only once its
    residual rose, kept as the oracle for its convergence and fixed point.

    Returns (marginals in variables order, iterations, converged).
    """
    groups = fg.cycle_groups
    rows, pi = fg.evidence(params)
    weights = [np.exp(t - t.max(axis=1, keepdims=True)) for t in (rows[g.count_rows] for g in groups)]
    slots = [_excluded_slots(g.rows) for g in groups]
    n_inc = len(fg.incidence_var)
    prior = np.stack([pi, 1.0 - pi], axis=1)
    inc_prior = prior[fg.incidence_var]
    others = fg.var_incidences[fg.incidence_var]
    others[others == np.arange(n_inc)[:, None]] = n_inc
    to_var = np.full((n_inc + 1, 2), 0.5)
    to_var[n_inc] = 1.0
    to_factor = inc_prior
    delta = math.inf
    iterations = 0
    for iterations in range(1, max_iters + 1):
        fresh = np.empty((n_inc, 2))
        for group, index, w in zip(groups, slots, weights):
            fresh[group.rows] = _factor_messages(to_factor, index, w)
        new = damping * to_var[:n_inc] + (1.0 - damping) * _normalize(fresh)
        delta = float(np.abs(new - to_var[:n_inc]).max(initial=0.0))
        to_var[:n_inc] = new
        fresh = inc_prior
        for d in range(others.shape[1]):
            fresh = fresh * to_var[others[:, d]]
        new = damping * to_factor + (1.0 - damping) * _normalize(fresh)
        delta = max(delta, float(np.abs(new - to_factor).max(initial=0.0)))
        to_factor = new
        if delta < tol:
            break
    belief = prior
    for d in range(fg.var_incidences.shape[1]):
        belief = belief * to_var[fg.var_incidences[:, d]]
    return _normalize(belief)[:, 0], iterations, delta < tol


# --- ADMM's problem, solved whole ----------------------------------------


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1}."""
    return _project_rows(np.asarray(v, dtype=float)[None, :])[0]


def consensus_qp_optimum(fg: FactorGraph, params: ModelParams) -> dict[int, float]:
    """The optimum w of the problem `run_admm` solves, by one SLSQP solve
    over every v_c and w at once:

        minimize   sum_c ||v_c - cycle_conditional(c)||^2
        subject to sum(v_c) = 1, v_c >= 0, 0 <= w <= 1, and for every
                   member j of cycle c, inlier_marginal(v_c, j) = w_e(j).

    Returns w for the covered edges only; the others are in no constraint.
    """
    scipy_opt = pytest.importorskip("scipy.optimize")
    covered = sorted({eid for f in fg.factors for eid in f.lc_members})
    at_w = {eid: i for i, eid in enumerate(covered)}
    targets = [cycle_conditional(f, params, fg.variables) for f in fg.factors]
    starts = np.cumsum([0] + [t.shape[0] for t in targets])
    n_v = int(starts[-1])
    equalities = []  # rows (a, b): a @ x = b
    for f, start, target in zip(fg.factors, starts, targets):
        masks = np.arange(target.shape[0])
        row = np.zeros(n_v + len(covered))
        row[start : start + target.shape[0]] = 1.0
        equalities.append((row, 1.0))
        for j, eid in enumerate(f.lc_members):
            row = np.zeros(n_v + len(covered))
            row[start + masks[(masks >> j) & 1 == 0]] = 1.0
            row[n_v + at_w[eid]] = -1.0
            equalities.append((row, 0.0))
    a_eq = np.array([a for a, _ in equalities])
    b_eq = np.array([b for _, b in equalities])
    v_hat = np.concatenate(targets)

    def objective(x):
        return float(np.sum((x[:n_v] - v_hat) ** 2))

    def gradient(x):
        return np.concatenate([2.0 * (x[:n_v] - v_hat), np.zeros(len(covered))])

    x0 = np.concatenate([v_hat, np.full(len(covered), 0.5)])
    out = scipy_opt.minimize(
        objective,
        x0,
        jac=gradient,
        bounds=[(0.0, None)] * n_v + [(0.0, 1.0)] * len(covered),
        constraints=[{"type": "eq", "fun": lambda x: a_eq @ x - b_eq, "jac": lambda x: a_eq}],
        method="SLSQP",
        options={"ftol": 1e-16, "maxiter": 2000},
    )
    assert np.abs(a_eq @ out.x - b_eq).max() <= 1e-9, out.message
    return {eid: float(out.x[n_v + i]) for i, eid in enumerate(covered)}

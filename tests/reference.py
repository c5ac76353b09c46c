"""Scalar and per-message reference implementations, for the tests only.

The library computes with arrays: `model.log_likelihood_rows` is its one
likelihood, `run_bp` updates messages in batches of equal cycle size,
`run_admm` solves the cycle subproblems of equal size in one batch, and
`exact_marginals` adds small broadcast tables into one (2,)^n view per
block. The functions here compute the same quantities one scalar, one
factor, one message or one full-length state array at a time; the tests
compare the library against them.

Import them as `from reference import ...`, like `conftest`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from loopsieve.cycles import CycleBasis
from loopsieve.factorgraph import (
    EXACT_ENUMERATION_LIMIT,
    FactorGraph,
    InferenceResult,
    _connected_components,
)
from loopsieve.graph import EdgeKind, PoseGraph
from loopsieve.infer_admm import (
    SUBPROBLEM_MAX_ITERS,
    SUBPROBLEM_TOL,
    _project_rows,
    _solve_batch,
    marginalization_matrix,
)
from loopsieve.infer_bp import _normalize
from loopsieve.model import (
    CycleDistribution,
    CycleFactor,
    ModelParams,
    _std,
    cycle_conditionals,
    factors_from_basis,
    log_likelihood_rows,
    log_prior_vector,
    log_psi_table,
    truncated_gaussian_mass,
)

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


def log_psi(factor: CycleFactor, params: ModelParams) -> float:
    """Log of the configuration-sum normalizer: sum_s C(k, s) p(z | s).

    Constant per cycle for fixed parameters, so it never enters inference;
    it matters only when comparing parameter values in the EM objective.
    """
    table = log_likelihood_rows((factor,), [(params.sigma, params.sigma_bar)])
    return float(log_psi_table((factor,), table)[0, 0])


def cycle_conditional(factor: CycleFactor, params: ModelParams) -> CycleDistribution:
    """Posterior over the cycle's own configurations given its error alone.

    p(mask) is proportional to p(z | popcount(mask)) times the member priors.
    """
    return CycleDistribution(cycle_conditionals((factor,), params)[0])


def inlier_marginal(dist: CycleDistribution, member_index: int) -> float:
    """P(member is an inlier): total mass of masks with that bit clear."""
    masks = np.arange(dist.values.shape[0])
    keep = (masks >> member_index) & 1 == 0
    return float(dist.values[keep].sum())


def joint_log_density(
    g: PoseGraph,
    basis: CycleBasis,
    x: Mapping[int, int],
    params: ModelParams,
) -> float:
    """Log of the unnormalized joint: edge priors times cycle likelihoods.

    ``x`` must assign 0 (inlier) or 1 (outlier) to every loop-closure edge.
    """
    total = 0.0
    for edge in g.edges:
        if edge.kind is not EdgeKind.LOOP_CLOSURE:
            continue
        if edge.id not in x:
            raise ValueError(f"configuration is missing loop-closure edge {edge.id}")
        state = x[edge.id]
        if state not in (0, 1):
            raise ValueError(f"edge {edge.id}: state must be 0 or 1, got {state}")
        pi = params.prior(edge.id)
        term = pi if state == 0 else 1.0 - pi
        total += math.log(term) if term > 0 else -math.inf
    for factor in factors_from_basis(g, basis):
        s = sum(x[eid] for eid in factor.lc_members)
        total += log_cycle_likelihood(factor, s, params)
    return total


# --- the cycle basis search on tuple-keyed lifted vertices ----------------


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


# --- exact enumeration on full-length state arrays -----------------------


def reference_exact_marginals(fg: FactorGraph, params: ModelParams) -> InferenceResult:
    """Posterior marginals by enumeration, one connected block at a time,
    with one int64 array of 2^n states per factor and per-member bit masks."""
    marginals: dict[int, float] = {
        eid: params.prior(eid) for eid in fg.variables
    }
    beliefs: list[CycleDistribution | None] = [None] * len(fg.factors)
    # factor f's log p(z | s), s = 0 .. k, is rows[offsets[f] : offsets[f + 1]]
    rows = log_likelihood_rows(fg.factors, [(params.sigma, params.sigma_bar)])[0]
    offsets = np.cumsum([0] + [len(f.lc_members) + 1 for f in fg.factors])
    log_z = 0.0
    for var_ids, factor_indices in _connected_components(fg):
        n = len(var_ids)
        if n > EXACT_ENUMERATION_LIMIT:
            raise ValueError(
                f"exact enumeration over a {n}-edge block exceeds the limit of "
                f"{EXACT_ENUMERATION_LIMIT}"
            )
        position = {eid: i for i, eid in enumerate(var_ids)}
        masks = np.arange(1 << n, dtype=np.int64)
        log_p = np.zeros(1 << n)
        for eid in var_ids:
            log_in, log_out = log_prior_vector(np.array([params.prior(eid)]))
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
            beliefs[f_idx] = CycleDistribution(values / values.sum())

    return InferenceResult(
        marginals,
        tuple(beliefs),  # type: ignore[arg-type]
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


def prior_message(params: ModelParams, edge_id: int) -> np.ndarray:
    pi = params.prior(edge_id)
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
    out = prior_message(params, edge_id).copy()
    for other in fg.var_factors[edge_id]:
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
            to_factor[(eid, f_idx)] = prior_message(params, eid)
    return MessageState(to_var, to_factor)


# --- ADMM, one cycle subproblem at a time --------------------------------


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1}."""
    return _project_rows(np.asarray(v, dtype=float)[None, :])[0]


def solve_cycle_subproblem(
    v_hat: np.ndarray,
    y: np.ndarray,
    w_c: np.ndarray,
    rho: float,
    tol: float = SUBPROBLEM_TOL,
    max_iters: int = SUBPROBLEM_MAX_ITERS,
) -> np.ndarray:
    """Minimize ||v - v_hat||^2 + y^T P v + (rho/2)||P v - w_c||^2 on the simplex."""
    v_hat = np.asarray(v_hat, dtype=float)
    k = int(v_hat.shape[0]).bit_length() - 1
    p_matrix = marginalization_matrix(k)
    lam = float(np.linalg.eigvalsh(p_matrix @ p_matrix.T).max())
    v0 = _project_rows(v_hat[None, :])
    out = _solve_batch(
        v0,
        v_hat[None, :],
        np.asarray(y, dtype=float)[None, :],
        np.asarray(w_c, dtype=float)[None, :],
        rho,
        p_matrix,
        lam,
        tol,
        max_iters,
    )
    return out[0]

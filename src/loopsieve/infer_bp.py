"""Loopy belief propagation on the edge/cycle factor graph.

Messages are 2-vectors over {inlier, outlier}, normalized to sum 1. The
schedule is synchronous and two-phase (flooding; Murphy, Weiss & Jordan,
UAI 1999): each iteration computes every factor-to-variable message from
the previous variable-to-factor messages, then every variable-to-factor
message from the new factor-to-variable messages. Updates are damped:
new = damping * old + (1 - damping) * computed. Cycle factors depend on a
configuration only through its outlier count, so factor-to-variable
messages marginalize via an O(k^2) counting convolution instead of
2^(k-1) enumeration.

:func:`run_bp` keeps all messages in arrays indexed by incidence row (see
:class:`~loopsieve.factorgraph.FactorGraph`) and updates them in batches,
one per cycle size k. The per-message functions (:func:`init_messages`,
:func:`factor_to_var`, :func:`var_to_factor`) compute single messages with
the same arithmetic; the tests use them as the reference for the batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factorgraph import FactorGraph, InferenceResult
from .model import CycleDistribution, ModelParams, log_likelihood_table

MESSAGE_FLOOR = 1e-300

DEFAULT_DAMPING = 0.5
DEFAULT_MAX_ITERS = 200
DEFAULT_TOL = 1e-6


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


def _normalize(msgs: np.ndarray) -> np.ndarray:
    """Clip at MESSAGE_FLOOR and scale to sum 1: one message, or each row."""
    clipped = np.maximum(msgs, MESSAGE_FLOOR)
    return clipped / clipped.sum(axis=-1, keepdims=True)


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


def _factor_messages(
    to_factor: np.ndarray, rows: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """factor_to_var for every incidence of one k group, at once.

    rows is the group's (F, k) incidence matrix and weights its (F, k + 1)
    likelihood weights; out[r, j] is the message along incidence rows[r, j].
    """
    n_factors, k = rows.shape
    incoming = to_factor[rows]
    out = np.empty((n_factors, k, 2))
    for j in range(k):
        poly = np.ones((n_factors, 1))
        for member in range(k):
            if member == j:
                continue
            nxt = np.zeros((n_factors, poly.shape[1] + 1))
            nxt[:, :-1] += poly * incoming[:, member, 0:1]
            nxt[:, 1:] += poly * incoming[:, member, 1:2]
            poly = nxt
        # A stacked (1, k) @ (k, 1) product adds in the same order as the
        # 1-D dot of factor_to_var, so each message is bit-identical.
        stacked = poly[:, None, :]
        out[:, j, 0] = (stacked @ weights[:, :k, None])[:, 0, 0]
        out[:, j, 1] = (stacked @ weights[:, 1:, None])[:, 0, 0]
    return out


def run_bp(
    fg: FactorGraph,
    params: ModelParams,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    damping: float = DEFAULT_DAMPING,
) -> InferenceResult:
    """Damped loopy BP; non-convergence yields best-effort beliefs."""
    groups = fg.cycle_groups
    weights = [
        np.stack([likelihood_weights(fg.factors[f], params) for f in group.factors])
        for group in groups
    ]
    inc_var = fg.incidence_var
    n_inc = len(inc_var)
    var_rows = fg.var_incidences
    pi = np.array([params.prior(eid) for eid in fg.variables])
    prior = np.stack([pi, 1.0 - pi], axis=1)
    inc_prior = prior[inc_var]
    # Row i of others lists the other factor->variable messages into i's
    # variable, in factor order; its own slot points at the sentinel row.
    others = var_rows[inc_var]
    others[others == np.arange(n_inc)[:, None]] = n_inc

    # to_var carries the sentinel row n_inc, fixed at exactly 1.0.
    to_var = np.full((n_inc + 1, 2), 0.5)
    to_var[n_inc] = 1.0
    to_factor = inc_prior
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        fresh = np.empty((n_inc, 2))
        for group, w in zip(groups, weights):
            fresh[group.rows] = _factor_messages(to_factor, group.rows, w)
        fresh = _normalize(fresh)
        old = to_var[:n_inc]
        blended = _normalize(damping * old + (1.0 - damping) * fresh)
        delta = float(np.abs(blended - old).max(initial=0.0))
        to_var[:n_inc] = blended

        fresh = inc_prior
        for d in range(others.shape[1]):
            fresh = fresh * to_var[others[:, d]]
        fresh = _normalize(fresh)
        blended = _normalize(damping * to_factor + (1.0 - damping) * fresh)
        delta = max(delta, float(np.abs(blended - to_factor).max(initial=0.0)))
        to_factor = blended
        if delta < tol:
            converged = True
            break

    belief = prior
    for d in range(var_rows.shape[1]):
        belief = belief * to_var[var_rows[:, d]]
    belief = _normalize(belief)
    marginals = {eid: float(b) for eid, b in zip(fg.variables, belief[:, 0])}

    beliefs: list[CycleDistribution | None] = [None] * len(fg.factors)
    log_msg = np.log(np.maximum(to_factor, MESSAGE_FLOOR))
    for group, w in zip(groups, weights):
        masks = np.arange(1 << group.k)
        log_b = np.zeros((len(group.factors), 1 << group.k))
        counts = np.zeros(1 << group.k, dtype=int)
        for j in range(group.k):
            bit = (masks >> j) & 1
            counts += bit
            member = log_msg[group.rows[:, j]]
            log_b += np.where(bit == 1, member[:, 1:2], member[:, 0:1])
        log_b += np.log(np.maximum(w[:, counts], MESSAGE_FLOOR))
        log_b -= log_b.max(axis=1, keepdims=True)
        b = np.exp(log_b)
        b /= b.sum(axis=1, keepdims=True)
        for f_idx, row in zip(group.factors, b):
            beliefs[f_idx] = CycleDistribution(row)

    return InferenceResult(marginals, tuple(beliefs), converged, iterations)  # type: ignore[arg-type]

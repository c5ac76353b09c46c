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
one per cycle size k. Each factor's weights over s = 0 .. k are
exp(log p(z | s)) from :func:`~loopsieve.model.log_likelihood_rows`,
rescaled by the factor's maximum; beliefs are invariant to that positive
per-factor scaling, and the shift guards against underflow. A factor's
count marginals are the same convolution over all k of its incoming
messages, times its weights. The per-message reference, the same
arithmetic one message at a time, is in ``tests/reference.py``; the tests
check the batches against it.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .factorgraph import FactorGraph, InferenceResult
from .model import ModelParams, log_likelihood_rows

MESSAGE_FLOOR = 1e-300

DEFAULT_DAMPING = 0.5
DEFAULT_MAX_ITERS = 200
DEFAULT_TOL = 1e-6


def _normalize(msgs: np.ndarray) -> np.ndarray:
    """Clip at MESSAGE_FLOOR and scale to sum 1: one message, or each row."""
    clipped = np.maximum(msgs, MESSAGE_FLOOR)
    return clipped / clipped.sum(axis=-1, keepdims=True)


def _count_convolution(incoming: np.ndarray, members: Iterable[int]) -> np.ndarray:
    """Distribution of the outlier count among the given members of each
    factor: incoming is (F, k, 2), the result (F, len(members) + 1)."""
    poly = np.ones((incoming.shape[0], 1))
    for member in members:
        nxt = np.zeros((incoming.shape[0], poly.shape[1] + 1))
        nxt[:, :-1] += poly * incoming[:, member, 0:1]
        nxt[:, 1:] += poly * incoming[:, member, 1:2]
        poly = nxt
    return poly


def _factor_messages(
    to_factor: np.ndarray, rows: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Every factor-to-variable message of one k group, at once.

    rows is the group's (F, k) incidence matrix and weights its (F, k + 1)
    likelihood weights; out[r, j] is the message along incidence rows[r, j].
    """
    n_factors, k = rows.shape
    incoming = to_factor[rows]
    out = np.empty((n_factors, k, 2))
    for j in range(k):
        poly = _count_convolution(incoming, [m for m in range(k) if m != j])
        # A stacked (1, k) @ (k, 1) product adds in the same order as the
        # reference's 1-D dot, so each message is bit-identical.
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
    rows = log_likelihood_rows(fg.factors, [(params.sigma, params.sigma_bar)])[0]
    weights = []
    for group in groups:
        table = rows[group.count_rows]
        weights.append(np.exp(table - table.max(axis=1, keepdims=True)))
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

    # Each message sums to 1, so each convolution does and its largest entry
    # is at least 1 / (k + 1); the floor on w keeps every total above 0.
    counts = np.empty_like(rows)
    for group, w in zip(groups, weights):
        c = _count_convolution(to_factor[group.rows], range(group.k))
        c *= np.maximum(w, MESSAGE_FLOOR)
        counts[group.count_rows] = c / c.sum(axis=1, keepdims=True)

    return InferenceResult(marginals, counts, converged, iterations)

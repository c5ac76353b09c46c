"""Loopy belief propagation on the edge/cycle factor graph.

Messages are 2-vectors over {inlier, outlier}, normalized to sum 1. The
schedule is synchronous and two-phase (flooding; Murphy, Weiss & Jordan,
UAI 1999): each iteration computes every factor-to-variable message from
the previous variable-to-factor messages, then every variable-to-factor
message from the new factor-to-variable messages. Updates are damped:
new = damping * old + (1 - damping) * computed. Cycle factors are count
potentials (Tarlow, Givoni & Zemel, AISTATS 2010): a factor-to-variable
message convolves the other members' messages into an outlier-count
distribution instead of enumerating 2^(k-1) configurations.

:func:`run_bp` keeps all messages in arrays indexed by incidence row (see
:class:`~loopsieve.factorgraph.FactorGraph`) and updates them in batches,
one per cycle size k, each over all (factor, excluded slot) pairs at once:
per group and iteration, one batched convolution over k - 1 members, with
O(k^3) flops per factor and O(k) numpy calls. Each factor's weights over
s = 0 .. k are exp(log p(z | s)) from
:meth:`~loopsieve.factorgraph.FactorGraph.evidence`, rescaled by the factor's
maximum, which beliefs are invariant to and which guards against
underflow. A factor's count marginals are the same convolution over all k
of its messages, times its weights. The tests check the batches against
``tests/reference.py``, the same arithmetic one message or one slot at a
time.
"""

from __future__ import annotations

import numpy as np

from .factorgraph import FactorGraph, InferenceResult, check_iteration_limits
from .model import ModelParams

MESSAGE_FLOOR = 1e-300

DEFAULT_DAMPING = 0.5
DEFAULT_MAX_ITERS = 200
DEFAULT_TOL = 1e-6


def _normalize(msgs: np.ndarray) -> np.ndarray:
    """Clip at MESSAGE_FLOOR and scale to sum 1: one message, or each row."""
    clipped = np.maximum(msgs, MESSAGE_FLOOR)
    return clipped / clipped.sum(axis=-1, keepdims=True)


def _count_convolution(incoming: np.ndarray) -> np.ndarray:
    """Distribution of the outlier count among n members, over any leading
    axes: incoming is (..., n, 2), one message per member, the result
    (..., n + 1)."""
    lead, n = incoming.shape[:-2], incoming.shape[-2]
    # Starting from the first message skips a step that scales a 1 by each
    # entry and adds it to a 0: exact for the positive messages BP passes.
    poly = incoming[..., 0, :].copy() if n else np.ones(lead + (1,))
    for member in range(1, n):
        nxt = np.zeros(lead + (poly.shape[-1] + 1,))
        nxt[..., :-1] += poly * incoming[..., member, 0:1]
        nxt[..., 1:] += poly * incoming[..., member, 1:2]
        poly = nxt
    return poly


def _excluded_slots(rows: np.ndarray) -> np.ndarray:
    """(F, k) incidence rows to (F, k, k - 1): entry [r, j] holds the rows
    of factor r's members other than slot j, in member order."""
    k = rows.shape[1]
    others = np.arange(k - 1)
    return rows[:, others + (others >= np.arange(k)[:, None])]


def _factor_messages(
    to_factor: np.ndarray, slots: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Every factor-to-variable message of one k group, at once.

    slots is the group's (F, k, k - 1) index from :func:`_excluded_slots`
    and weights its (F, k + 1) likelihood weights; out[r, j] is the message
    along incidence rows[r, j].
    """
    k = slots.shape[1]
    # A stacked (1, k) @ (k, 1) product adds in the same order as the
    # reference's 1-D dot, so each message is bit-identical.
    poly = _count_convolution(to_factor[slots])[..., None, :]
    w = weights[:, None, :, None]
    both = np.concatenate((poly @ w[:, :, :k], poly @ w[:, :, 1:]), axis=-1)
    return both[..., 0, :]


def run_bp(
    fg: FactorGraph,
    params: ModelParams,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    damping: float = DEFAULT_DAMPING,
) -> InferenceResult:
    """Damped loopy BP; non-convergence yields best-effort beliefs.

    Raises ValueError unless max_iters >= 1 and tol is finite and >= 0.
    """
    check_iteration_limits(max_iters, tol)
    groups = fg.cycle_groups
    rows, pi = fg.evidence(params)
    weights = []
    for group in groups:
        table = rows[group.count_rows]
        weights.append(np.exp(table - table.max(axis=1, keepdims=True)))
    slots = [_excluded_slots(group.rows) for group in groups]
    inc_var = fg.incidence_var
    n_inc = len(inc_var)
    var_rows = fg.var_incidences
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
        for group, index, w in zip(groups, slots, weights):
            fresh[group.rows] = _factor_messages(to_factor, index, w)
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
        c = _count_convolution(to_factor[group.rows])
        c *= np.maximum(w, MESSAGE_FLOOR)
        counts[group.count_rows] = c / c.sum(axis=1, keepdims=True)

    return InferenceResult(marginals, counts, converged, iterations)

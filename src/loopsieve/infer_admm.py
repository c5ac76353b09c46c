"""Consensus ADMM over per-cycle distributions.

Each cycle keeps a local distribution v_c over its 2^k configurations,
pulled toward the data-only conditional v_hat_c, while the marginal inlier
probability each cycle implies for a shared edge is forced to agree on a
global consensus value w_e in [0, 1]:

    minimize   sum_c ||v_c - v_hat_c||^2
    subject to P_c v_c = w_c for every cycle c, 0 <= w <= 1,
               every v_c on the probability simplex,

where row e of P_c indicates the configurations in which edge e is an
inlier. The cycle subproblems are strongly convex QPs over the simplex,
solved by accelerated projected gradient with an exact sort-based simplex
projection; cycles of equal member count are solved in one vectorized
batch.

The penalty rho follows the residual-balancing rule of Boyd et al.,
"Distributed Optimization and Statistical Learning via ADMM" (2011,
section 3.4.1) for the first RHO_FREEZE_AFTER iterations: it doubles when
the primal residual exceeds ten times the dual residual, halves in the
opposite case, and stays within [1e-4, 1e4]. After that rho is fixed,
which is plain ADMM with its convergence guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .factorgraph import FactorGraph, InferenceResult
from .model import ModelParams, _popcounts, cycle_conditionals


# Residual balancing (see update_rho): rho is multiplied or divided by
# RHO_TAU when one residual exceeds RHO_MU times the other, within
# [RHO_MIN, RHO_MAX].
RHO_MU = 10.0
RHO_TAU = 2.0
RHO_MIN = 1e-4
RHO_MAX = 1e4
# Adapting rho forever can limit-cycle near the solution; after this many
# iterations the penalty stays fixed, restoring plain (convergent) ADMM.
RHO_FREEZE_AFTER = 100
SUBPROBLEM_TOL = 1e-8
SUBPROBLEM_MAX_ITERS = 10000


@dataclass(frozen=True)
class AdmmOptions:
    """Solver settings.

    rho0 is the initial penalty. rho then follows residual balancing
    (RHO_MU = 10, RHO_TAU = 2, clipped to [RHO_MIN, RHO_MAX] = [1e-4, 1e4];
    see :func:`update_rho`) for RHO_FREEZE_AFTER = 100 iterations and stays
    fixed afterwards. The run stops after max_iters iterations or once both
    residuals are at most tol, scaled by the square root of the (edge,
    cycle) incidence count when scale_tol is set. record_trace keeps
    per-iteration statistics.
    """

    rho0: float = 1.0
    max_iters: int = 500
    tol: float = 1e-6
    scale_tol: bool = True
    record_trace: bool = False


@dataclass(frozen=True)
class AdmmIterationStats:
    iteration: int
    primal_residual: float
    dual_residual: float
    rho: float
    max_simplex_gap: float  # worst |1^T v - 1| across cycles
    min_v: float
    w_min: float
    w_max: float


@dataclass(frozen=True)
class AdmmResult(InferenceResult):
    rho_final: float = 1.0
    primal_residual: float = float("nan")
    dual_residual: float = float("nan")
    trace: tuple[AdmmIterationStats, ...] = field(default_factory=tuple)


def marginalization_matrix(k: int) -> np.ndarray:
    """(k, 2^k) indicator rows: row j is 1 where bit j of the mask is 0."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    masks = np.arange(1 << k)
    rows = np.zeros((k, 1 << k))
    for j in range(k):
        rows[j, ((masks >> j) & 1) == 0] = 1.0
    return rows


def _project_rows(matrix: np.ndarray) -> np.ndarray:
    n = matrix.shape[1]
    ordered = -np.sort(-matrix, axis=1)
    cumulative = (np.cumsum(ordered, axis=1) - 1.0) / np.arange(1, n + 1)
    support = np.sum(ordered > cumulative, axis=1) - 1
    threshold = cumulative[np.arange(matrix.shape[0]), support]
    return np.maximum(matrix - threshold[:, None], 0.0)


def _gradient(
    v: np.ndarray,
    v_hat: np.ndarray,
    y_p: np.ndarray,
    w_rows: np.ndarray,
    rho: float,
    p_matrix: np.ndarray,
) -> np.ndarray:
    return 2.0 * (v - v_hat) + y_p + rho * ((v @ p_matrix.T) - w_rows) @ p_matrix


def _solve_batch(
    v0: np.ndarray,
    v_hat: np.ndarray,
    y: np.ndarray,
    w_rows: np.ndarray,
    rho: float,
    p_matrix: np.ndarray,
    lam_max: float,
    tol: float,
    max_iters: int,
) -> np.ndarray:
    """Accelerated projected gradient on a batch of simplex QPs.

    The objective is 2-strongly convex with curvature at most
    2 + rho * lam_max(P P^T), so a constant-momentum scheme converges
    linearly. Stops on the projected-gradient residual.
    """
    lipschitz = 2.0 + rho * lam_max
    kappa = np.sqrt(2.0 / lipschitz)
    momentum = (1.0 - kappa) / (1.0 + kappa)
    y_p = y @ p_matrix
    x = v0
    z = v0
    for _ in range(max_iters):
        grad = _gradient(z, v_hat, y_p, w_rows, rho, p_matrix)
        x_new = _project_rows(z - grad / lipschitz)
        z = x_new + momentum * (x_new - x)
        residual = float(np.max(np.abs(x_new - x)))
        x = x_new
        if residual <= tol:
            grad = _gradient(x, v_hat, y_p, w_rows, rho, p_matrix)
            mapped = _project_rows(x - grad / lipschitz)
            if float(np.max(np.abs(mapped - x))) <= tol:
                break
            z = x
    return x


def _in_group_order(blocks: list[np.ndarray], dtype=float) -> np.ndarray:
    """The blocks' entries concatenated: blocks in order, each in row order."""
    return np.concatenate([np.zeros(0, dtype)] + [np.ravel(b) for b in blocks])


def update_w(
    marginals: list[np.ndarray],
    duals: list[np.ndarray],
    members_pos: list[np.ndarray],
    rho: float,
    w_prev: np.ndarray,
) -> np.ndarray:
    """Average the per-cycle marginals (plus scaled duals) and clamp to [0, 1].

    Each list entry holds one cycle, or a 2-D block of cycles one per row,
    here and in :func:`update_duals` and :func:`residuals`. Edges in no
    cycle keep their previous value. Each edge's terms are summed in block
    order, rows in order.
    """
    pos = _in_group_order(members_pos, np.intp)
    terms = _in_group_order([marg + y / rho for marg, y in zip(marginals, duals)])
    numerator = np.bincount(pos, weights=terms, minlength=w_prev.shape[0])
    counts = np.bincount(pos, minlength=w_prev.shape[0])
    w = w_prev.copy()
    covered = counts > 0
    w[covered] = np.clip(numerator[covered] / counts[covered], 0.0, 1.0)
    return w


def update_duals(
    duals: list[np.ndarray],
    marginals: list[np.ndarray],
    members_pos: list[np.ndarray],
    w: np.ndarray,
    rho: float,
) -> list[np.ndarray]:
    """Dual ascent: y_c += rho (P_c v_c - w_c), with the fresh w."""
    return [
        y + rho * (marg - w[pos])
        for y, marg, pos in zip(duals, marginals, members_pos)
    ]


def residuals(
    marginals: list[np.ndarray],
    members_pos: list[np.ndarray],
    w: np.ndarray,
    w_prev: np.ndarray,
    rho: float,
) -> tuple[float, float]:
    """Primal: sum of squared consensus gaps. Dual: rho^2 times the squared
    w change, counted once per (edge, cycle) incidence."""
    primal = 0.0
    for marg, pos in zip(marginals, members_pos):
        primal += float(np.sum((marg - w[pos]) ** 2))
    counts = np.bincount(_in_group_order(members_pos, np.intp), minlength=w.shape[0])
    dual = float(rho**2 * np.sum(counts * (w - w_prev) ** 2))
    return primal, dual


def update_rho(rho: float, r: float, t: float) -> float:
    """Penalty schedule: grow when r <= RHO_MU t, shrink when t <= RHO_MU r,
    and leave rho unchanged when both tests fire at once.

    With r the dual and t the primal residual, as :func:`run_admm` calls
    it, this is residual balancing: rho grows when the primal residual
    exceeds RHO_MU times the dual one and shrinks in the opposite case.
    """
    grow = r <= RHO_MU * t
    shrink = t <= RHO_MU * r
    if grow and not shrink:
        rho = rho * RHO_TAU
    elif shrink and not grow:
        rho = rho / RHO_TAU
    return float(np.clip(rho, RHO_MIN, RHO_MAX))


def run_admm(
    fg: FactorGraph,
    params: ModelParams,
    opts: AdmmOptions | None = None,
) -> AdmmResult:
    """Consensus ADMM until both residuals fall under tolerance.

    Returns the consensus inlier probabilities w as edge marginals and the
    outlier-count marginals of the per-cycle distributions v_c.
    """
    opts = opts or AdmmOptions()
    variables = fg.variables
    n_edges = len(variables)

    # Cycles of equal member count k form one group; every per-cycle array
    # below is a list with one 2-D block per group, rows in factor order.
    groups = fg.cycle_groups
    p_matrices = [marginalization_matrix(group.k) for group in groups]
    lam_max = [float(np.linalg.eigvalsh(p @ p.T).max()) for p in p_matrices]
    v_hat = [
        cycle_conditionals([fg.factors[i] for i in group.factors], params)
        for group in groups
    ]
    members_pos = [fg.incidence_var[group.rows] for group in groups]
    v = v_hat
    duals = [np.zeros(pos.shape) for pos in members_pos]
    rho = opts.rho0

    # Warm start w at the average of the incident data-only marginals,
    # and uncovered edges at their prior.
    w = np.array([params.prior(eid) for eid in variables])
    marginals = [hats @ p.T for hats, p in zip(v_hat, p_matrices)]
    w = update_w(marginals, duals, members_pos, rho, w)

    n_rows = len(fg.incidence_var)
    eps = opts.tol * (np.sqrt(max(n_rows, 1)) if opts.scale_tol else 1.0)

    converged = False
    iterations = 0
    primal = float("nan")
    dual = float("nan")
    trace: list[AdmmIterationStats] = []
    for iterations in range(1, opts.max_iters + 1):
        v = [
            _solve_batch(
                v[g], v_hat[g], duals[g], w[members_pos[g]], rho,
                p_matrices[g], lam_max[g], SUBPROBLEM_TOL, SUBPROBLEM_MAX_ITERS,
            )
            for g in range(len(groups))
        ]
        marginals = [block @ p.T for block, p in zip(v, p_matrices)]

        w_prev = w
        w = update_w(marginals, duals, members_pos, rho, w_prev)
        duals = update_duals(duals, marginals, members_pos, w, rho)

        primal, dual = residuals(marginals, members_pos, w, w_prev, rho)
        if opts.record_trace:
            trace.append(
                AdmmIterationStats(
                    iterations,
                    primal,
                    dual,
                    rho,
                    max(float(np.abs(block.sum(axis=1) - 1.0).max()) for block in v)
                    if v else 0.0,
                    min(float(block.min()) for block in v) if v else 0.0,
                    float(w.min()) if n_edges else 0.0,
                    float(w.max()) if n_edges else 0.0,
                )
            )
        if primal <= eps and dual <= eps:
            converged = True
            break
        if iterations >= RHO_FREEZE_AFTER:
            continue
        new_rho = update_rho(rho, dual, primal)
        if new_rho != rho:
            scale = new_rho / rho
            duals = [y * scale for y in duals]
            rho = new_rho

    marginal_map = {eid: float(w[i]) for i, eid in enumerate(variables)}
    counts = np.empty(n_rows + len(fg.factors))
    for group, block in zip(groups, v):
        # bin r (k + 1) + s adds the entries of row r with s outliers, in mask order
        bins = np.arange(len(block))[:, None] * (group.k + 1) + _popcounts(group.k)
        normalized = np.maximum(block, 0.0) / block.sum(axis=1, keepdims=True)
        folded = np.bincount(bins.ravel(), weights=normalized.ravel())
        counts[group.count_rows] = folded.reshape(group.count_rows.shape)
    return AdmmResult(
        edge_marginals=marginal_map,
        count_marginals=counts,
        converged=converged,
        iterations=iterations,
        rho_final=rho,
        primal_residual=primal,
        dual_residual=dual,
        trace=tuple(trace),
    )

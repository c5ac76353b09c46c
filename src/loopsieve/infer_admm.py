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

The consensus state is one flat float64 array per quantity over the
(factor, member) incidences: the marginals P_c v_c, the duals y and each
member's position in w. The arrays run in group order: groups in
FactorGraph.cycle_groups order, each group's incidence rows raveled, so a
group's batch is a contiguous slice reshaped to (cycles, k). Group order,
not incidence-row order, is kept because np.bincount adds each edge's
terms in array order, and incidence-row order moves w in the last bits.
Only cycles with k <= DEFAULT_LC_CAP members are solved, since each v_c
has 2^k entries; run_admm raises CycleCapError before building any table.

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
from .model import (
    DEFAULT_LC_CAP,
    CycleCapError,
    ModelParams,
    _popcounts,
    cycle_conditionals,
)


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


def consensus_step(
    marginals: np.ndarray,
    y: np.ndarray,
    pos: np.ndarray,
    degree: np.ndarray,
    slices: list[slice],
    w_prev: np.ndarray,
    rho: float,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The w-update, the dual step and both residuals on flat incidence arrays.

    marginals (P_c v_c), y and pos (each member's position in w) hold one
    entry per incidence; degree is np.bincount(pos) over w, and slices[g]
    holds group g's incidences. w averages marginals + y / rho over each
    edge's incidences, in array order, and is clamped to [0, 1]; edges in no
    cycle keep w_prev. Then y += rho (P_c v_c - w_c) with the fresh w.
    Primal residual: the sum of squared consensus gaps, summed per group and
    the group sums added in order. Dual: rho^2 times the squared w change,
    counted once per incidence. Returns (w, y, primal, dual).
    """
    numerator = np.bincount(pos, weights=marginals + y / rho, minlength=w_prev.shape[0])
    w = w_prev.copy()
    covered = degree > 0
    w[covered] = np.clip(numerator[covered] / degree[covered], 0.0, 1.0)
    gap = marginals - w[pos]
    primal = sum((float(np.sum(gap[part] ** 2)) for part in slices), 0.0)
    dual = float(rho**2 * np.sum(degree * (w - w_prev) ** 2))
    return w, y + rho * gap, primal, dual


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

    # Cycles of equal member count k form one group, solved as one 2-D
    # block of v, rows in factor order. The per-incidence arrays run in
    # group order (see the module docstring): group g owns slices[g].
    groups = fg.cycle_groups
    for group in groups:  # refuse before any 2^k table is built
        if group.k > DEFAULT_LC_CAP:
            raise CycleCapError(fg.factors[group.factors[0]].cycle_id, group.k)
    p_matrices = [marginalization_matrix(group.k) for group in groups]
    lam_max = [float(np.linalg.eigvalsh(p @ p.T).max()) for p in p_matrices]
    v_hat = [
        cycle_conditionals([fg.factors[i] for i in group.factors], params)
        for group in groups
    ]
    span = np.cumsum([0] + [group.rows.size for group in groups])
    slices = [slice(a, b) for a, b in zip(span[:-1], span[1:])]
    pos = fg.incidence_var[
        np.concatenate([np.zeros(0, np.intp)] + [group.rows.ravel() for group in groups])
    ]
    degree = np.bincount(pos, minlength=n_edges)
    n_rows = len(pos)
    marginals = np.empty(n_rows)
    y = np.zeros(n_rows)
    v = list(v_hat)
    rho = opts.rho0

    # Warm start w at the average of the incident data-only marginals,
    # and uncovered edges at their prior.
    for part, block, p in zip(slices, v, p_matrices):
        marginals[part] = (block @ p.T).ravel()
    w = np.array([params.prior(eid) for eid in variables])
    w = consensus_step(marginals, y, pos, degree, slices, w, rho)[0]

    eps = opts.tol * (np.sqrt(max(n_rows, 1)) if opts.scale_tol else 1.0)

    converged = False
    iterations = 0
    primal = float("nan")
    dual = float("nan")
    trace: list[AdmmIterationStats] = []
    for iterations in range(1, opts.max_iters + 1):
        for g, (part, group, p) in enumerate(zip(slices, groups, p_matrices)):
            v[g] = _solve_batch(
                v[g], v_hat[g], y[part].reshape(-1, group.k), w[pos[part]].reshape(-1, group.k),
                rho, p, lam_max[g], SUBPROBLEM_TOL, SUBPROBLEM_MAX_ITERS,
            )
            marginals[part] = (v[g] @ p.T).ravel()

        w, y, primal, dual = consensus_step(marginals, y, pos, degree, slices, w, rho)
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
            y = y * (new_rho / rho)
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

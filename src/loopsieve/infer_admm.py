"""Consensus ADMM over per-cycle distributions.

Each cycle keeps a local distribution v_c over its 2^k configurations,
pulled toward the data-only conditional v_hat_c, while the marginal inlier
probability each cycle implies for a shared edge is forced to agree on a
global consensus value w_e in [0, 1]:

    minimize   sum_c ||v_c - v_hat_c||^2
    subject to P_c v_c = w_c for every cycle c, 0 <= w <= 1,
               every v_c on the probability simplex,

where row e of P_c indicates the configurations in which edge e is an
inlier. The cycle subproblems are strongly convex QPs over the simplex.
Each is solved on its k-dimensional dual by damped semismooth Newton, with
an exact sort-based simplex projection mapping the dual back to v (see
_solve_batch); cycles of equal member count are solved in one vectorized
batch, and each call starts from the previous iteration's v.

The consensus state is one flat float64 array per quantity over the
(factor, member) incidences, in the factor graph's incidence-row order:
the marginals P_c v_c and the duals y, with FactorGraph.incidence_var
giving each member's position in w: the general-form consensus of Boyd et
al. 2011, section 7.2. Each group of FactorGraph.cycle_groups reads and
writes its (cycles, k) block through CycleGroup.rows. np.bincount adds
each edge's terms in this order, so the order fixes the last bits of w.
Only cycles with k <= DEFAULT_LC_CAP members are solved, since each v_c
has 2^k entries; run_admm raises CycleCapError before building any table.

The penalty is fixed at RHO = 2, which is plain ADMM with its
convergence guarantee (Boyd et al., "Distributed Optimization and
Statistical Learning via ADMM", 2011, section 3.2). Every variable is a
probability, so the problem is well scaled, and residual balancing
(section 3.4.1) gains nothing here: on the synth suites a fixed 2 takes
fewer iterations than the adaptive rule, and 1, 4 or 8 more.

The consensus step is over-relaxed (Boyd et al. 2011, section 3.4.3): the
w-update and the dual step read x_hat_c = RELAXATION * P_c v_c +
(1 - RELAXATION) * w_c^prev in place of P_c v_c. For any RELAXATION in
(0, 2) this keeps the fixed point and the convergence guarantee of plain
ADMM (Eckstein & Bertsekas, Math. Programming 55, 1992), and at 1.7 it
takes about a third fewer iterations on the synth suites. The primal
residual stays sum_c ||P_c v_c - w_c||^2 on the unrelaxed marginals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .factorgraph import FactorGraph, InferenceResult, check_iteration_limits
from .model import ModelParams, _popcounts, log_prior_vector


# The augmented Lagrangian's penalty, the same in every iteration.
RHO = 2.0
# Over-relaxation of the consensus step (Boyd et al. 2011, section 3.4.3);
# any value in (0, 2) keeps ADMM's convergence (Eckstein & Bertsekas 1992),
# and 1 is plain ADMM.
RELAXATION = 1.7
# The cycle subproblems' Newton solver (see _solve_batch) raises when rows
# are still unsolved after NEWTON_MAX_STEPS steps; its line search accepts a
# step t along the Newton direction once g gains ARMIJO_FRACTION * t times
# its initial slope along that direction.
# Warm-started from the previous iteration, a batch takes 1-6 steps on the
# synth suites; cold starts at RHO take at most about a dozen at k <= 5,
# and at rho = 1e4 over a hundred.
NEWTON_MAX_STEPS = 500
ARMIJO_FRACTION = 1e-4
EPS = float(np.finfo(float).eps)
# run_admm refuses cycles with more loop-closure members than this: each
# v_c has 2^k entries.
DEFAULT_LC_CAP = 16


class CycleCapError(ValueError):
    """Cycle has too many loop-closure members for a 2^k state space."""

    def __init__(self, cycle_id: int, size: int):
        super().__init__(
            f"cycle {cycle_id} has {size} loop-closure members, over the cap of "
            f"{DEFAULT_LC_CAP}: each cycle's configuration table has 2^k entries"
        )
        self.cycle_id = cycle_id


@dataclass(frozen=True)
class AdmmOptions:
    """Solver settings.

    The run stops after max_iters iterations or once both residuals are
    at most tol, scaled by the square root of the (edge, cycle) incidence
    count when scale_tol is set. record_trace keeps per-iteration
    statistics. Construction raises ValueError unless max_iters >= 1 and
    tol is finite and >= 0.

    The penalty RHO = 2 and the consensus step's over-relaxation
    RELAXATION = 1.7 are module constants, not options.
    """

    max_iters: int = 500
    tol: float = 1e-6
    scale_tol: bool = True
    record_trace: bool = False

    def __post_init__(self):
        check_iteration_limits(self.max_iters, self.tol)


@dataclass(frozen=True)
class AdmmIterationStats:
    iteration: int
    primal_residual: float
    dual_residual: float
    max_simplex_gap: float  # worst |1^T v - 1| across cycles
    min_v: float
    w_min: float
    w_max: float
    subproblem_steps: int  # Newton steps of _solve_batch, summed over groups


@dataclass(frozen=True)
class AdmmResult(InferenceResult):
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


def cycle_conditionals(log_rows: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """Posterior over each cycle's own configurations given its error
    alone, for F cycles of k members each: log_rows (F, k + 1) holds
    log p(z | s), s = 0 .. k, and priors (F, k) the members' prior inlier
    probabilities. Returns shape (F, 2^k), one row each.

    p(mask) is proportional to p(z | popcount(mask)) times the member priors.
    """
    k = priors.shape[1]
    log_p = log_rows[:, _popcounts(k)]
    log_in, log_out = log_prior_vector(priors)
    masks = np.arange(1 << k)
    for j in range(k):
        bit = (masks >> j) & 1
        log_p = log_p + np.where(bit == 1, log_out[:, j, None], log_in[:, j, None])
    log_p -= np.max(log_p, axis=1, keepdims=True)
    p = np.exp(log_p)
    return p / p.sum(axis=1, keepdims=True)


def _project_rows(matrix: np.ndarray) -> np.ndarray:
    n = matrix.shape[1]
    ordered = -np.sort(-matrix, axis=1)
    cumulative = (np.cumsum(ordered, axis=1) - 1.0) / np.arange(1, n + 1)
    support = np.sum(ordered > cumulative, axis=1) - 1
    threshold = cumulative[np.arange(matrix.shape[0]), support]
    return np.maximum(matrix - threshold[:, None], 0.0)


def _dual(v, a, nu, residual, rho):
    """Per row, the concave dual g(nu) of the cycle QP up to a constant, and
    the sum of its terms' magnitudes, which scales the rounding error of g."""
    half_nu = 0.5 * nu
    g = (v * (v - 2.0 * a)).sum(axis=1) + rho * (nu * (residual + half_nu)).sum(axis=1)
    size = (v * (v + 2.0 * np.abs(a))).sum(axis=1) + rho * (
        np.abs(nu) * (np.abs(residual) + np.abs(half_nu))
    ).sum(axis=1)
    return g, size


def _solve_batch(
    v0: np.ndarray,
    v_hat: np.ndarray,
    y: np.ndarray,
    w_rows: np.ndarray,
    rho: float,
    p_matrix: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Damped semismooth Newton on the k-dimensional dual of a batch of
    simplex QPs, one row per cycle.

    Row c minimizes ||v - v_hat||^2 + y^T P v + (rho/2)||P v - w||^2 over
    the simplex. With a = v_hat - P^T y / 2 and nu = lambda / rho for the
    multiplier lambda of P v = mu, the minimizer over v is
    v(nu) = proj(a - (rho/2) P^T nu), and the QP's optimum is the root of
    F(nu) = P v(nu) - w - nu, the gradient of the concave dual g(nu) over
    rho. On the support s of v the projection has the Jacobian
    D = diag(s) - s s^T / |s|, so -(I + (rho/2) P D P^T) is a generalized
    Jacobian of F, and a step solves one k x k system per row (Qi & Sun,
    Math. Programming 1993; Li, Sun & Toh, SIAM J. Optim. 2018). nu starts
    at P v0 - w, the root when v0 is already the optimum.

    g is quadratic, and F affine, while the support stays fixed. So a full
    step that keeps the support lands on the root: the row is solved. A
    step that changes the support is damped by per-row Armijo backtracking
    on g, since undamped the iterates can jump between two supports
    forever. A row also leaves the work set once max |F| is within the
    rounding of P v. Rows still at work after NEWTON_MAX_STEPS steps raise.
    Returns the solutions, each on the simplex as _project_rows leaves it,
    and the number of Newton steps.
    """
    k = p_matrix.shape[0]
    unit = EPS * (1 << k)  # relative rounding of a sum over the 2^k entries
    a = v_hat - 0.5 * (y @ p_matrix)
    half_rho_p = 0.5 * rho * p_matrix
    nu = v0 @ p_matrix.T - w_rows
    b = a - nu @ half_rho_p
    v = _project_rows(b)
    residual = v @ p_matrix.T - w_rows - nu
    rounding = unit * (1.0 + np.abs(b).max(axis=1))
    work = np.flatnonzero(np.abs(residual).max(axis=1) > rounding)
    steps = 0
    while work.size:
        if steps == NEWTON_MAX_STEPS:
            raise RuntimeError(f"cycle subproblem unsolved after {steps} Newton steps")
        steps += 1
        support = v[work] > 0.0
        s = support.astype(float)
        sp = s @ p_matrix.T
        pdp = (s[:, None, :] * p_matrix) @ p_matrix.T
        pdp -= sp[:, :, None] * sp[:, None, :] / s.sum(axis=1)[:, None, None]
        f = residual[work]
        direction = np.linalg.solve(np.eye(k) + 0.5 * rho * pdp, f[..., None])[..., 0]
        ascent = ARMIJO_FRACTION * rho * (f * direction).sum(axis=1)
        g = None
        t = 1.0
        trying = np.arange(work.size)
        while trying.size and t >= EPS:
            rows = work[trying]
            nu_t = nu[rows] + t * direction[trying]
            b_t = a[rows] - nu_t @ half_rho_p
            v_t = _project_rows(b_t)
            residual_t = v_t @ p_matrix.T - w_rows[rows] - nu_t
            if t == 1.0:
                settled = ((v_t > 0.0) == support).all(axis=1)
                ok = settled.copy()
            else:
                ok = np.zeros(trying.size, dtype=bool)
            if not ok.all():
                if g is None:
                    g, size = _dual(v[work], a[work], nu[work], residual[work], rho)
                g_t, size_t = _dual(v_t, a[rows], nu_t, residual_t, rho)
                slack = unit * (size[trying] + size_t)
                ok |= g_t - g[trying] >= t * ascent[trying] - slack
            accepted = rows[ok]
            nu[accepted], v[accepted], residual[accepted] = nu_t[ok], v_t[ok], residual_t[ok]
            rounding[accepted] = unit * (1.0 + np.abs(b_t[ok]).max(axis=1))
            trying = trying[~ok]
            t *= 0.5
        settled |= np.abs(residual[work]).max(axis=1) <= rounding[work]
        work = work[~settled]
    return v, steps


def consensus_step(
    marginals: np.ndarray,
    y: np.ndarray,
    pos: np.ndarray,
    degree: np.ndarray,
    w_prev: np.ndarray,
    rho: float,
    alpha: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The w-update, the dual step and both residuals on flat incidence arrays.

    marginals (P_c v_c), y and pos (each member's position in w) hold one
    entry per incidence; degree is np.bincount(pos) over w. With the relaxed
    marginals x_hat = alpha P_c v_c + (1 - alpha) w_c^prev (alpha = 1 is
    plain ADMM), w averages x_hat + y / rho over each edge's incidences, in
    array order, and is clamped to [0, 1]; edges in no cycle keep w_prev.
    Then y += rho (x_hat - w_c) with the fresh w. Primal residual: the sum of
    squared consensus gaps P_c v_c - w_c of the unrelaxed marginals. Dual:
    rho^2 times the squared w change, counted once per incidence. Returns
    (w, y, primal, dual).
    """
    relaxed = alpha * marginals + (1.0 - alpha) * w_prev[pos]
    numerator = np.bincount(pos, weights=relaxed + y / rho, minlength=w_prev.shape[0])
    w = w_prev.copy()
    covered = degree > 0
    w[covered] = np.clip(numerator[covered] / degree[covered], 0.0, 1.0)
    w_rows = w[pos]
    gap = marginals - w_rows
    primal = float(np.sum(gap**2))
    dual = float(rho**2 * np.sum(degree * (w - w_prev) ** 2))
    return w, y + rho * (relaxed - w_rows), primal, dual


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
    # block of v, rows in factor order; member_pos[g] holds the positions
    # in w of its members, (cycles, k).
    groups = fg.cycle_groups
    for group in groups:  # refuse before any 2^k table is built
        if group.k > DEFAULT_LC_CAP:
            raise CycleCapError(fg.factors[group.factors[0]].cycle_id, group.k)
    rows, prior = fg.evidence(params)
    pos = fg.incidence_var
    member_pos = [pos[group.rows] for group in groups]
    p_matrices = [marginalization_matrix(group.k) for group in groups]
    v_hat = [
        cycle_conditionals(rows[group.count_rows], prior[at])
        for group, at in zip(groups, member_pos)
    ]
    degree = np.bincount(pos, minlength=n_edges)
    n_rows = len(pos)
    marginals = np.empty(n_rows)
    y = np.zeros(n_rows)
    v = list(v_hat)

    # Warm start w at the average of the incident data-only marginals,
    # and uncovered edges at their prior.
    for group, block, p in zip(groups, v, p_matrices):
        marginals[group.rows] = block @ p.T
    w = consensus_step(marginals, y, pos, degree, prior, RHO)[0]

    eps = opts.tol * (np.sqrt(max(n_rows, 1)) if opts.scale_tol else 1.0)

    converged = False
    iterations = 0
    primal = float("nan")
    dual = float("nan")
    trace: list[AdmmIterationStats] = []
    for iterations in range(1, opts.max_iters + 1):
        steps = 0
        for g, (group, p) in enumerate(zip(groups, p_matrices)):
            v[g], group_steps = _solve_batch(
                v[g], v_hat[g], y[group.rows], w[member_pos[g]], RHO, p
            )
            steps += group_steps
            marginals[group.rows] = v[g] @ p.T

        w, y, primal, dual = consensus_step(marginals, y, pos, degree, w, RHO, RELAXATION)
        if opts.record_trace:
            trace.append(
                AdmmIterationStats(
                    iterations,
                    primal,
                    dual,
                    max(float(np.abs(block.sum(axis=1) - 1.0).max()) for block in v)
                    if v else 0.0,
                    min(float(block.min()) for block in v) if v else 0.0,
                    float(w.min()) if n_edges else 0.0,
                    float(w.max()) if n_edges else 0.0,
                    steps,
                )
            )
        if primal <= eps and dual <= eps:
            converged = True
            break

    marginal_map = {eid: float(w[i]) for i, eid in enumerate(variables)}
    counts = np.empty_like(rows)
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
        primal_residual=primal,
        dual_residual=dual,
        trace=tuple(trace),
    )

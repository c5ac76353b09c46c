"""Consensus ADMM over per-cycle distributions.

Each cycle keeps a local distribution v_c over its 2^k configurations,
pulled toward the data-only conditional v_hat_c, while the marginal inlier
probability each cycle implies for a shared edge is forced to agree on a
global consensus value w_e in [0, 1]:

    minimize   sum_c ||v_c - v_hat_c||^2
    subject to P_c v_c = w_c for every cycle c, 0 <= w <= 1,
               every v_c on the probability simplex,

where row e of P_c indicates the configurations in which edge e is an
inlier. Each cycle keeps a free v_c and a copy u_c constrained to the
simplex, tied by v_c = u_c with its own dual lambda_c, and P_c v_c = w_c
with the dual y: two-block ADMM (Boyd et al., "Distributed Optimization
and Statistical Learning via ADMM", 2011, sections 3.2, 5 and 7.2), where
the first block is v and the second is (u, w), which separate. Every step
is in closed form. The v-step is one linear solve per cycle,

    v_c = M^-1 (2 v_hat_c + RHO u_c - lambda_c + P_c^T (RHO w_c - y_c)),
    M = (2 + RHO) I + RHO P_c^T P_c,

applied by Woodbury as v_c = r / (2 + RHO) - (r P_c^T) G with the
(k, 2^k) factor G = RHO S^-1 P_c / (2 + RHO), S = (2 + RHO) I + RHO P_c
P_c^T; the u-step is the sort-based simplex projection (_project_rows);
the w-step averages and clamps (consensus_step). Cycles of equal member
count are solved in one vectorized batch.

Each run evaluates a per-graph plan. Everything that does not depend on
the parameters is built once and shared, read-only, by every run on the
graph: FactorGraph caches each group's incidence rows and member
positions (cycle_groups), each edge's degree and the covered-edge index,
the bins that fold u into count marginals (count_bins) and the likelihood
row keys that evidence evaluates; _cycle_constants caches P, a contiguous
P^T and G for each k, since they depend on k and RHO alone. A run builds
only what the parameters change: the likelihood rows, v_hat and 2 v_hat.
So EM, which solves one graph once per round, builds the plan once per
fit.

The consensus state is one flat float64 array per quantity over the
(factor, member) incidences, in the factor graph's incidence-row order:
the marginals P_c v_c and the duals y, with FactorGraph.incidence_var
giving each member's position in w: the general-form consensus of Boyd et
al. 2011, section 7.2. Each group of FactorGraph.cycle_groups reads and
writes its (cycles, k) block through CycleGroup.rows. np.bincount adds
each edge's terms in this order, so the order fixes the last bits of w.
Only cycles with k <= DEFAULT_LC_CAP members are solved, since each v_c
has 2^k entries; run_admm raises CycleCapError before building any table.

The penalty is fixed at RHO = 4, which is plain ADMM with its
convergence guarantee (section 3.2). Every variable is a probability, so
the problem is well scaled and residual balancing (section 3.4.1) gains
nothing. On the synth suites 4 stops closest to the optimum for its
iterations: 2 ends farther from it at the same tolerance, and 8 takes
more iterations.

Both second-block steps are over-relaxed (section 3.4.3): the u- and
w-updates and the dual steps read RELAXATION * v_c + (1 - RELAXATION) *
u_c^prev and RELAXATION * P_c v_c + (1 - RELAXATION) * w_c^prev in place
of v_c and P_c v_c. For any RELAXATION in (0, 2) this keeps the fixed
point and the convergence guarantee of plain ADMM (Eckstein & Bertsekas,
Math. Programming 55, 1992), and at 1.7 it takes about a third fewer
iterations on the synth suites. The primal residual is
sum_c ||v_c - u_c||^2 + ||P_c v_c - w_c||^2 of the unrelaxed v, and the
dual residual RHO^2 times the squared change of u and w.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .factorgraph import FactorGraph, InferenceResult, check_iteration_limits
from .model import ModelParams, _popcounts, log_prior_vector


# The augmented Lagrangian's penalty, the same in every iteration.
RHO = 4.0
# Over-relaxation of the second block's steps (Boyd et al. 2011, section 3.4.3);
# any value in (0, 2) keeps ADMM's convergence (Eckstein & Bertsekas 1992),
# and 1 is plain ADMM.
RELAXATION = 1.7
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

    The penalty RHO = 4 and the over-relaxation RELAXATION = 1.7 are
    module constants, not options. Both residuals are sums of squares, so
    the default tol of 1e-7 stops once the iterates are within about 1e-3
    of the optimum in w on the synth suites.
    """

    max_iters: int = 500
    tol: float = 1e-7
    scale_tol: bool = True
    record_trace: bool = False

    def __post_init__(self):
        check_iteration_limits(self.max_iters, self.tol)


@dataclass(frozen=True)
class AdmmIterationStats:
    iteration: int
    primal_residual: float
    dual_residual: float
    max_simplex_gap: float  # worst |1^T u - 1| across cycles
    min_v: float  # smallest entry of u
    w_min: float
    w_max: float


@dataclass(frozen=True)
class AdmmResult(InferenceResult):
    primal_residual: float = float("nan")
    dual_residual: float = float("nan")
    trace: tuple[AdmmIterationStats, ...] = field(default_factory=tuple)


@functools.lru_cache(maxsize=None)
def _outlier_bits(k: int) -> np.ndarray:
    """(k, 2^k) read-only: row j is True where bit j of the mask is 1, the
    configurations in which member j is an outlier."""
    bits = (np.arange(1 << k) >> np.arange(k)[:, None]) & 1 == 1
    bits.setflags(write=False)
    return bits


def marginalization_matrix(k: int) -> np.ndarray:
    """(k, 2^k) indicator rows: row j is 1 where bit j of the mask is 0."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return np.logical_not(_outlier_bits(k)).astype(float)


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
    for j, outlier in enumerate(_outlier_bits(k)):
        log_p = log_p + np.where(outlier, log_out[:, j, None], log_in[:, j, None])
    log_p -= np.max(log_p, axis=1, keepdims=True)
    p = np.exp(log_p)
    return p / p.sum(axis=1, keepdims=True)


@functools.lru_cache(maxsize=None)
def _cycle_constants(k: int, rho: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P, P^T, G) of k-member cycles at penalty rho, read-only: P is
    marginalization_matrix(k), P^T a contiguous copy, and G = rho S^-1 P /
    (2 + rho) the Woodbury factor, S = (2 + rho) I + rho P P^T, so that the
    v-step M^-1 r is r / (2 + rho) - (r P^T) G. They stay cached for the
    life of the process: 3 k 2^k floats, 24 MiB at k = DEFAULT_LC_CAP."""
    p = marginalization_matrix(k)
    s_inv = np.linalg.inv((2.0 + rho) * np.eye(k) + rho * p @ p.T)
    constants = (p, np.ascontiguousarray(p.T), rho * s_inv @ p / (2.0 + rho))
    for array in constants:
        array.setflags(write=False)
    return constants


@functools.lru_cache(maxsize=None)
def _projection_steps(n: int) -> np.ndarray:
    """1 .. n as floats, read-only: the divisors of the simplex projection's
    running sums."""
    steps = np.arange(1.0, n + 1.0)
    steps.setflags(write=False)
    return steps


def _project_rows(matrix: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex, by
    sorting (Held, Wolfe & Crowder 1974)."""
    rows, n = matrix.shape
    ordered = -np.sort(-matrix, axis=1)
    cumulative = (ordered.cumsum(axis=1) - 1.0) / _projection_steps(n)
    support = (ordered > cumulative).sum(axis=1) - 1
    threshold = cumulative[np.arange(rows), support]
    return np.maximum(matrix - threshold[:, None], 0.0)


def consensus_step(
    marginals: np.ndarray,
    y: np.ndarray,
    pos: np.ndarray,
    degree: np.ndarray,
    w_prev: np.ndarray,
    rho: float,
    alpha: float,
    covered: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The w-update, the dual step and both residuals on flat incidence arrays.

    marginals (P_c v_c), y and pos (each member's position in w) hold one
    entry per incidence; degree is np.bincount(pos) over w, and covered its
    nonzero positions (FactorGraph.degree and covered_index). With the
    relaxed marginals x_hat = alpha P_c v_c + (1 - alpha) w_c^prev (alpha =
    1 is plain ADMM), w averages x_hat + y / rho over each edge's
    incidences, in array order, and is clamped to [0, 1]; edges in no cycle
    keep w_prev. Then y += rho (x_hat - w_c) with the fresh w. Primal
    residual: the sum of squared consensus gaps P_c v_c - w_c of the
    unrelaxed marginals. Dual: rho^2 times the squared w change, counted
    once per incidence. Returns (w, y, primal, dual).
    """
    relaxed = alpha * marginals + (1.0 - alpha) * w_prev[pos]
    numerator = np.bincount(pos, weights=relaxed + y / rho, minlength=w_prev.shape[0])
    w = w_prev.copy()
    w[covered] = np.minimum(np.maximum(numerator[covered] / degree[covered], 0.0), 1.0)
    w_rows = w[pos]
    gap = marginals - w_rows
    primal = float((gap**2).sum())
    dual = float(rho**2 * (degree * (w - w_prev) ** 2).sum())
    return w, y + rho * (relaxed - w_rows), primal, dual


def run_admm(
    fg: FactorGraph,
    params: ModelParams,
    opts: AdmmOptions | None = None,
) -> AdmmResult:
    """Consensus ADMM until both residuals fall under tolerance.

    Returns the consensus inlier probabilities w as edge marginals and the
    outlier-count marginals of the per-cycle distributions u_c.
    """
    opts = opts or AdmmOptions()
    variables = fg.variables
    n_edges = len(variables)

    # Cycles of equal member count k form one group, solved as one 2-D
    # block of v, rows in factor order (FactorGraph.cycle_groups).
    groups = fg.cycle_groups
    for group in groups:  # refuse before any 2^k table is built
        if group.k > DEFAULT_LC_CAP:
            raise CycleCapError(fg.factors[group.factors[0]].cycle_id, group.k)
    rows, prior = fg.evidence(params)
    pos, degree, covered = fg.incidence_var, fg.degree, fg.covered_index
    constants = [_cycle_constants(group.k, RHO) for group in groups]
    v_hat = [
        cycle_conditionals(rows[group.count_rows], prior[group.positions]) for group in groups
    ]
    two_v_hat = [2.0 * block for block in v_hat]
    n_rows = len(pos)
    marginals = np.empty(n_rows)
    y = np.zeros(n_rows)
    u = list(v_hat)
    lam = [np.zeros_like(block) for block in v_hat]

    # Warm start w at the average of the incident data-only marginals,
    # and uncovered edges at their prior.
    for group, block, (_, p_t, _) in zip(groups, u, constants):
        marginals[group.rows] = block @ p_t
    w = consensus_step(marginals, y, pos, degree, prior, RHO, 1.0, covered)[0]

    eps = opts.tol * (np.sqrt(max(n_rows, 1)) if opts.scale_tol else 1.0)

    converged = False
    iterations = 0
    primal = float("nan")
    dual = float("nan")
    trace: list[AdmmIterationStats] = []
    for iterations in range(1, opts.max_iters + 1):
        simplex_primal = simplex_change = 0.0
        target = RHO * w[pos] - y  # RHO w_c - y_c of every incidence
        for g, (group, (p, p_t, woodbury)) in enumerate(zip(groups, constants)):
            at = group.rows
            r = two_v_hat[g] + RHO * u[g] - lam[g] + target[at] @ p
            v = r / (2.0 + RHO) - (r @ p_t) @ woodbury
            marginals[at] = v @ p_t
            relaxed = RELAXATION * v + (1.0 - RELAXATION) * u[g]
            u_next = _project_rows(relaxed + lam[g] / RHO)
            lam[g] += RHO * (relaxed - u_next)
            simplex_primal += float(((v - u_next) ** 2).sum())
            simplex_change += float(((u_next - u[g]) ** 2).sum())
            u[g] = u_next

        w, y, primal, dual = consensus_step(
            marginals, y, pos, degree, w, RHO, RELAXATION, covered
        )
        primal += simplex_primal
        dual += RHO**2 * simplex_change
        if opts.record_trace:
            trace.append(
                AdmmIterationStats(
                    iterations,
                    primal,
                    dual,
                    max(float(np.abs(block.sum(axis=1) - 1.0).max()) for block in u)
                    if u else 0.0,
                    min(float(block.min()) for block in u) if u else 0.0,
                    float(w.min()) if n_edges else 0.0,
                    float(w.max()) if n_edges else 0.0,
                )
            )
        if primal <= eps and dual <= eps:
            converged = True
            break

    # fold each u_c into its count rows (FactorGraph.count_bins); each bin
    # adds its entries in mask order
    folded = [(np.maximum(block, 0.0) / block.sum(axis=1, keepdims=True)).ravel() for block in u]
    counts = np.bincount(
        fg.count_bins, weights=np.concatenate([np.empty(0)] + folded), minlength=len(rows)
    )
    return AdmmResult(
        edge_marginals=dict(zip(variables, w.tolist())),
        count_marginals=counts,
        converged=converged,
        iterations=iterations,
        primal_residual=primal,
        dual_residual=dual,
        trace=tuple(trace),
    )

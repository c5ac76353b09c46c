"""Expectation-Maximization over the noise scales and edge priors.

The E-step obtains edge responsibilities and each cycle's outlier-count
marginals from any inference back-end. The M-step sets the prior array to
the marginal array, both in FactorGraph.variables order (edge ids are read
only for output), and picks the (sigma, sigma_bar) grid pair maximizing the
expected log-likelihood of the cycle errors. That depends on a cycle's
configuration only through the outlier count, so k + 1 terms per cycle
suffice. The grid is scored from one table built once per fit, since it
depends only on the factors and the grid: log p(z | s) for every (cycle, s)
row under every candidate pair. Each M-step weights it by that round's
count marginals, which share its row layout, with ties going to the first
(smallest) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .factorgraph import (
    FactorGraph,
    InferenceMethod,
    InferenceResult,
    exact_marginals,
)
from .infer_admm import AdmmOptions, run_admm
from .infer_bp import run_bp
from .model import ModelParams, likelihood_table, log_prior_vector


def default_sigma_grid() -> tuple[float, ...]:
    """0.5 to 5 degrees in half-degree steps, in radians."""
    return tuple(math.radians(0.5 * i) for i in range(1, 11))


def default_sigma_bar_grid() -> tuple[float, ...]:
    """5 to 45 degrees in five-degree steps, in radians."""
    return tuple(math.radians(5.0 * i) for i in range(1, 10))


# EM stops once a round improves the Q value by less than this.
LL_TOL = 1e-6


@dataclass(frozen=True)
class EmConfig:
    """Settings of one EM fit.

    The (sigma, sigma_bar) M-step searches the pairs of the two ascending
    grids with sigma_bar > sigma; their likelihood table is built once per
    fit and each round's M-step weights it. The fit runs at least one and
    at most max_rounds rounds (construction refuses max_rounds < 1) and
    stops early once Q improves by less than LL_TOL. `inference`
    picks the E-step back-end, run with its default settings (see
    :func:`e_step`). freeze_priors keeps the edge priors fixed.
    """

    sigma_grid: tuple[float, ...] = field(default_factory=default_sigma_grid)
    sigma_bar_grid: tuple[float, ...] = field(default_factory=default_sigma_bar_grid)
    max_rounds: int = 20
    inference: InferenceMethod = InferenceMethod.EXACT
    freeze_priors: bool = False

    def __post_init__(self) -> None:
        for name, grid in (("sigma_grid", self.sigma_grid), ("sigma_bar_grid", self.sigma_bar_grid)):
            if not grid:
                raise ValueError(f"{name} must be non-empty")
            if any(v <= 0 for v in grid):
                raise ValueError(f"{name} entries must be positive")
            if list(grid) != sorted(grid):
                raise ValueError(f"{name} must be sorted ascending")
        if not self.pairs:
            raise ValueError("no (sigma, sigma_bar) grid pair satisfies sigma_bar > sigma")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be at least 1, got {self.max_rounds}")

    @property
    def pairs(self) -> list[tuple[float, float]]:
        """The candidate (sigma, sigma_bar) pairs, sigma_bar > sigma, in grid
        order: sigma outer, sigma_bar inner."""
        return [
            (sigma, sigma_bar)
            for sigma in self.sigma_grid
            for sigma_bar in self.sigma_bar_grid
            if sigma_bar > sigma
        ]


@dataclass(frozen=True)
class EmRound:
    round: int
    sigma: float
    sigma_bar: float
    q_value: float
    data_log_likelihood: float  # NaN unless the e-step is exact
    inference_converged: bool


@dataclass(frozen=True)
class EmTrace:
    rounds: tuple[EmRound, ...]


def e_step(
    fg: FactorGraph, params: ModelParams, method: InferenceMethod, **options
) -> InferenceResult:
    """Edge responsibilities and count marginals under the current
    parameters.

    This is the library's one map from an InferenceMethod to its back-end;
    `bench.classify` and `cli infer` screen through it too. `options` go to
    the back-end as they are: run_bp's keywords, AdmmOptions' fields, or
    none for exact, which raises TypeError on any.
    """
    if method is InferenceMethod.EXACT:
        return exact_marginals(fg, params, **options)
    if method is InferenceMethod.BP:
        return run_bp(fg, params, **options)
    if method is InferenceMethod.ADMM:
        return run_admm(fg, params, AdmmOptions(**options))
    raise ValueError(f"unknown inference method {method}")


def m_step_priors(marginals: np.ndarray) -> np.ndarray:
    """Each variable's prior becomes its inlier responsibility, clipped to
    [0, 1]; both arrays are in variables order."""
    return np.clip(marginals, 0.0, 1.0)


def m_step_sigmas(
    count_marginals: np.ndarray,
    table: np.ndarray,
    pairs: list[tuple[float, float]],
) -> tuple[tuple[float, float], float]:
    """Grid-search the noise scales; ties break toward smaller values.

    `table` is log_likelihood_rows(factors, pairs). Returns the winning
    pair and its expected cycle log-likelihood; with no factors the first
    pair wins.
    """
    # a row-wise sum, so that equal rows score equal and ties stay ties
    best = int(np.argmax((table * count_marginals).sum(axis=1)))
    # the winning row summed on its own, as a one-pair table would be: the
    # table is not C-contiguous, so its row sums can differ in the last bit
    return pairs[best], float((table[best] * count_marginals).sum())


def q_value(
    responsibilities: InferenceResult, params: ModelParams, cycle_term: float
) -> float:
    """Expected complete-data log-likelihood of `params` under the given
    responsibilities: the prior terms of every variable plus `cycle_term`,
    the expected cycle log-likelihood that :func:`m_step_sigmas` returned."""
    gamma = responsibilities.marginals
    log_in, log_out = log_prior_vector(params.priors)
    with np.errstate(invalid="ignore"):  # a term of weight 0 adds 0, even at -inf
        terms = np.where(gamma > 0.0, gamma * log_in, 0.0) + np.where(
            gamma < 1.0, (1.0 - gamma) * log_out, 0.0
        )
    return float(terms.sum()) + cycle_term


def run_em(
    fg: FactorGraph,
    init: ModelParams,
    cfg: EmConfig | None = None,
) -> tuple[ModelParams, EmTrace, InferenceResult]:
    """Alternate E and M steps until the Q value stops improving.

    With the exact e-step (and an initial sigma pair on the grid), the
    observed-data log-likelihood recorded per round is non-decreasing.
    The returned responsibilities are re-computed under the final
    parameters.
    """
    cfg = cfg or EmConfig()
    pairs = cfg.pairs
    table = likelihood_table(fg.row_keys, pairs)
    params = init
    rounds: list[EmRound] = []
    previous_q: float | None = None
    for round_index in range(1, cfg.max_rounds + 1):
        responsibilities = e_step(fg, params, cfg.inference)
        priors = params.priors if cfg.freeze_priors else m_step_priors(responsibilities.marginals)
        (sigma, sigma_bar), cycle_term = m_step_sigmas(
            responsibilities.count_marginals, table, pairs
        )
        params = ModelParams(sigma, sigma_bar, priors)
        q = q_value(responsibilities, params, cycle_term)
        rounds.append(
            EmRound(
                round_index,
                sigma,
                sigma_bar,
                q,
                responsibilities.log_evidence,
                responsibilities.converged,
            )
        )
        if previous_q is not None and q - previous_q < LL_TOL:
            break
        previous_q = q
    final = e_step(fg, params, cfg.inference)
    return params, EmTrace(tuple(rounds)), final

"""Mixture model linking cycle errors to per-edge inlier/outlier states.

A cycle with s outlier members out of k free (loop-closure) edges plus
n_fixed trusted ego edges has error standard deviation

    std(s) = sqrt(s * sigma_bar^2 + (n_fixed + k - s) * sigma^2)

and the cycle error z follows a truncated Gaussian on [0, pi] with that
scale. Likelihoods depend on a configuration only through its outlier
count, which the inference back-ends exploit.

:func:`log_likelihood_rows` is the library's single density: BP's message
weights, exact enumeration, the cycle conditionals that ADMM starts from,
log psi and the EM objective all read it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .cycles import CycleBasis, cycle_error
from .graph import EdgeKind, PoseGraph

DEFAULT_LC_CAP = 16

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


class CycleCapError(ValueError):
    """Cycle has too many loop-closure members for a 2^k state space."""

    def __init__(self, cycle_id: int, size: int):
        super().__init__(
            f"cycle {cycle_id} has {size} loop-closure members, over the cap of "
            f"{DEFAULT_LC_CAP}: each cycle's configuration table has 2^k entries"
        )
        self.cycle_id = cycle_id


@dataclass(frozen=True)
class ModelParams:
    """Noise scales (radians) and per-edge prior inlier probabilities."""

    sigma: float
    sigma_bar: float
    priors: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 < self.sigma < self.sigma_bar):
            raise ValueError(
                f"need 0 < sigma < sigma_bar, got sigma={self.sigma}, "
                f"sigma_bar={self.sigma_bar}"
            )
        for eid, p in self.priors.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"prior for edge {eid} must be in [0, 1], got {p}")
        object.__setattr__(self, "priors", dict(self.priors))

    def prior(self, edge_id: int) -> float:
        try:
            return self.priors[edge_id]
        except KeyError:
            raise KeyError(f"no prior recorded for edge {edge_id}") from None

    @classmethod
    def from_graph(cls, g: PoseGraph, sigma: float, sigma_bar: float) -> "ModelParams":
        """Take loop-closure priors from the graph's per-edge values."""
        priors = {
            e.id: e.prior_inlier for e in g.edges if e.kind is EdgeKind.LOOP_CLOSURE
        }
        return cls(sigma, sigma_bar, priors)


@dataclass(frozen=True)
class CycleFactor:
    """One basis cycle as evidence: free members, fixed count, observed error."""

    cycle_id: int
    lc_members: tuple[int, ...]
    n_fixed: int
    z: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lc_members", tuple(self.lc_members))
        if len(set(self.lc_members)) != len(self.lc_members):
            raise ValueError(f"cycle {self.cycle_id}: duplicate loop-closure member")
        if self.n_fixed < 0:
            raise ValueError(f"cycle {self.cycle_id}: negative n_fixed")
        if not 0.0 <= self.z <= math.pi + 1e-12:
            raise ValueError(f"cycle {self.cycle_id}: z must be in [0, pi], got {self.z}")

    @property
    def length(self) -> int:
        return self.n_fixed + len(self.lc_members)


@dataclass(frozen=True, eq=False)
class CycleDistribution:
    """Probabilities over the 2^k outlier configurations of a cycle.

    Bit k of the index mask is 1 when lc_members[k] is an outlier.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        n = vals.shape[0]
        if vals.ndim != 1 or n == 0 or n & (n - 1):
            raise ValueError("values must be a length-2^k vector")
        if np.any(vals < 0) or abs(float(vals.sum()) - 1.0) > 1e-9:
            raise ValueError("values must be a normalized probability vector")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_members(self) -> int:
        return int(self.values.shape[0]).bit_length() - 1

    def outlier_count_marginals(self) -> np.ndarray:
        """Distribution of the outlier count s; length n_members + 1."""
        return np.bincount(
            _popcounts(self.n_members), weights=self.values, minlength=self.n_members + 1
        )


def truncated_gaussian_mass(sigma: float) -> float:
    """Integral of exp(-t^2 / (2 sigma^2)) over [0, pi]."""
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    return sigma * _SQRT_HALF_PI * math.erf(math.pi / (sigma * math.sqrt(2.0)))


def _std(s: int, n_inlier: int, sigma: float, sigma_bar: float) -> float:
    return math.sqrt(s * sigma_bar**2 + n_inlier * sigma**2)


def log_likelihood_rows(
    factors: Sequence[CycleFactor], pairs: Sequence[tuple[float, float]]
) -> np.ndarray:
    """log p(z | s) of every (factor, s) row under every (sigma, sigma_bar)
    pair: shape (pairs, rows), rows running through the factors in order and
    s = 0 .. k within a factor.

    Each element is -3 ln(std) - z^2 / (2 std^2) - ln(truncated mass),
    up to the per-cycle constant that cancels in inference. The libm calls
    and the squares run as Python scalars, once per pair and distinct
    (s, n_inlier) and once per factor (CPython's x**2 is pow, which can
    differ from numpy's x*x in the last bit); the rest is numpy arithmetic
    in that order, so each element equals the scalar formula bit for bit.
    """
    keys: dict[tuple[int, int], int] = {}
    key_of_row: list[int] = []
    z_squared: list[float] = []
    for factor in factors:
        k = len(factor.lc_members)
        z2 = factor.z**2
        for s in range(k + 1):
            key_of_row.append(keys.setdefault((s, factor.n_fixed + k - s), len(keys)))
            z_squared.append(z2)
    scale = np.empty((len(pairs), len(keys)))
    denom = np.empty_like(scale)
    log_mass = np.empty_like(scale)
    for p, (sigma, sigma_bar) in enumerate(pairs):
        for (s, n_inlier), j in keys.items():
            std = _std(s, n_inlier, sigma, sigma_bar)
            scale[p, j] = -3.0 * math.log(std)
            denom[p, j] = 2.0 * std**2
            log_mass[p, j] = math.log(truncated_gaussian_mass(std))
    rows = np.array(key_of_row, dtype=np.intp)
    return scale[:, rows] - np.array(z_squared) / denom[:, rows] - log_mass[:, rows]


def log_psi_table(factors: Sequence[CycleFactor], table: np.ndarray) -> np.ndarray:
    """log psi of each factor under each pair, from the rows that
    log_likelihood_rows(factors, pairs) returned: shape (pairs, factors)."""
    log_binom = np.array([
        math.lgamma(k + 1) - math.lgamma(s + 1) - math.lgamma(k - s + 1)
        for k in (len(f.lc_members) for f in factors)
        for s in range(k + 1)
    ])
    sizes = np.array([len(f.lc_members) + 1 for f in factors], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    terms = table + log_binom
    peak = np.maximum.reduceat(terms, starts, axis=1)
    total = np.add.reduceat(np.exp(terms - np.repeat(peak, sizes, axis=1)), starts, axis=1)
    return peak + np.log(total)


def log_prior_vector(member_priors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log pi, log pi_bar) with -inf where a prior is exactly 0 or 1."""
    pri = np.asarray(member_priors, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log(pri), np.log1p(-pri)


def cycle_conditionals(factors: Sequence[CycleFactor], params: ModelParams) -> np.ndarray:
    """Posterior over each cycle's own configurations given its error
    alone, for factors that share their member count k: shape
    (factors, 2^k), one row each.

    p(mask) is proportional to p(z | popcount(mask)) times the member priors.
    """
    k = len(factors[0].lc_members)
    if k == 0:
        raise ValueError(f"cycle {factors[0].cycle_id} has no loop-closure members")
    if k > DEFAULT_LC_CAP:
        raise CycleCapError(factors[0].cycle_id, k)
    table = log_likelihood_rows(factors, [(params.sigma, params.sigma_bar)])
    log_p = table.reshape(len(factors), k + 1)[:, _popcounts(k)]
    priors = np.array([[params.prior(eid) for eid in f.lc_members] for f in factors])
    log_in, log_out = log_prior_vector(priors)
    masks = np.arange(1 << k)
    for j in range(k):
        bit = (masks >> j) & 1
        log_p = log_p + np.where(bit == 1, log_out[:, j, None], log_in[:, j, None])
    log_p -= np.max(log_p, axis=1, keepdims=True)
    p = np.exp(log_p)
    return p / p.sum(axis=1, keepdims=True)


def factors_from_basis(g: PoseGraph, basis: CycleBasis) -> tuple[CycleFactor, ...]:
    """One factor per basis cycle, members ordered as they occur in the walk."""
    factors = []
    for cycle_id, cycle in enumerate(basis.cycles):
        members = []
        n_fixed = 0
        for eid, _ in cycle.steps:
            if g.edge_by_id[eid].kind is EdgeKind.LOOP_CLOSURE:
                members.append(eid)
            else:
                n_fixed += 1
        factors.append(CycleFactor(cycle_id, tuple(members), n_fixed, cycle_error(g, cycle)))
    return tuple(factors)


@functools.lru_cache(maxsize=None)
def _popcounts(k: int) -> np.ndarray:
    """Outlier count of each mask 0 .. 2^k - 1; a read-only table per k."""
    counts = np.zeros(1, dtype=np.intp)
    for _ in range(k):
        counts = np.concatenate([counts, counts + 1])
    counts.setflags(write=False)
    return counts

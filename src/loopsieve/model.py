"""Mixture model linking cycle errors to per-edge inlier/outlier states.

A cycle with s outlier members out of k free (loop-closure) edges plus
n_fixed trusted ego edges has error standard deviation

    std(s) = sqrt(s * sigma_bar^2 + (n_fixed + k - s) * sigma^2)

and the cycle error z follows a truncated Gaussian on [0, pi] with that
scale. Likelihoods depend on a configuration only through its outlier
count, which the inference back-ends exploit: each reports a cycle's
posterior as the k + 1 marginals of its outlier count, and EM weights the
rows of :func:`log_likelihood_rows` by them.

:func:`log_likelihood_rows` is the library's single density: BP's message
weights, exact elimination, the cycle conditionals that ADMM starts from
and the EM objective all read it, through :func:`likelihood_table` of row
keys that each factor graph builds once. :class:`ModelParams` holds the
priors as an array in FactorGraph.variables order, without edge ids.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .cycles import CycleBasis, cycle_errors
from .graph import EdgeKind, PoseGraph, loop_closure_edges

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Noise scales (radians) and each variable's prior inlier probability,
    a read-only float64 array in FactorGraph.variables order."""

    sigma: float
    sigma_bar: float
    priors: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        if not (0.0 < self.sigma < self.sigma_bar):
            raise ValueError(
                f"need 0 < sigma < sigma_bar, got sigma={self.sigma}, "
                f"sigma_bar={self.sigma_bar}"
            )
        if isinstance(self.priors, Mapping):
            raise TypeError("priors must be an array in FactorGraph.variables order, not a mapping")
        priors = np.array(self.priors, dtype=np.float64)
        if priors.ndim != 1:
            raise ValueError(f"priors must be 1-D, got shape {priors.shape}")
        bad = np.flatnonzero(~((priors >= 0.0) & (priors <= 1.0)))
        if bad.size:
            raise ValueError(f"prior at position {bad[0]} must be in [0, 1], got {priors[bad[0]]}")
        priors.setflags(write=False)
        object.__setattr__(self, "priors", priors)

    @classmethod
    def from_graph(cls, g: PoseGraph, sigma: float, sigma_bar: float) -> "ModelParams":
        """Loop-closure priors from the graph's edges, in loop_closure_edges(g) order."""
        return cls(sigma, sigma_bar, [e.prior_inlier for e in loop_closure_edges(g)])


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


def truncated_gaussian_mass(sigma: float) -> float:
    """Integral of exp(-t^2 / (2 sigma^2)) over [0, pi]."""
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    return sigma * _SQRT_HALF_PI * math.erf(math.pi / (sigma * math.sqrt(2.0)))


def _std(s: int, n_inlier: int, sigma: float, sigma_bar: float) -> float:
    return math.sqrt(s * sigma_bar**2 + n_inlier * sigma**2)


class RowKeys(NamedTuple):
    """What log p(z | s) reads of the factors, for every (factor, s) row in
    the layout of :func:`log_likelihood_rows`: the distinct (s, n_inlier)
    keys, the index in keys of each row's key, and each row's z^2."""

    keys: tuple[tuple[int, int], ...]
    key_of_row: np.ndarray
    z_squared: np.ndarray


def likelihood_row_keys(factors: Sequence[CycleFactor]) -> RowKeys:
    """The parameter-free half of :func:`log_likelihood_rows`, one Python
    pass over the factors' rows."""
    keys: dict[tuple[int, int], int] = {}
    key_of_row: list[int] = []
    z_squared: list[float] = []
    for factor in factors:
        k = len(factor.lc_members)
        z2 = factor.z**2
        for s in range(k + 1):
            key_of_row.append(keys.setdefault((s, factor.n_fixed + k - s), len(keys)))
            z_squared.append(z2)
    return RowKeys(tuple(keys), np.array(key_of_row, dtype=np.intp), np.array(z_squared))


def likelihood_table(row_keys: RowKeys, pairs: Sequence[tuple[float, float]]) -> np.ndarray:
    """:func:`log_likelihood_rows` of the factors that row_keys was built from."""
    keys, rows, z_squared = row_keys
    scale = np.empty((len(pairs), len(keys)))
    denom = np.empty_like(scale)
    log_mass = np.empty_like(scale)
    for p, (sigma, sigma_bar) in enumerate(pairs):
        for j, (s, n_inlier) in enumerate(keys):
            std = _std(s, n_inlier, sigma, sigma_bar)
            scale[p, j] = -3.0 * math.log(std)
            denom[p, j] = 2.0 * std**2
            log_mass[p, j] = math.log(truncated_gaussian_mass(std))
    return scale[:, rows] - z_squared / denom[:, rows] - log_mass[:, rows]


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
    A caller that evaluates the same factors under many parameters builds
    :func:`likelihood_row_keys` once and calls :func:`likelihood_table`.
    """
    return likelihood_table(likelihood_row_keys(factors), pairs)


def log_prior_vector(member_priors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log pi, log pi_bar) with -inf where a prior is exactly 0 or 1."""
    pri = np.asarray(member_priors, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log(pri), np.log1p(-pri)


def factors_from_basis(g: PoseGraph, basis: CycleBasis) -> tuple[CycleFactor, ...]:
    """One factor per basis cycle, members ordered as they occur in the walk."""
    factors = []
    z = cycle_errors(g, basis.cycles)
    for cycle_id, cycle in enumerate(basis.cycles):
        members = []
        n_fixed = 0
        for eid, _ in cycle.steps:
            if g.edge_by_id[eid].kind is EdgeKind.LOOP_CLOSURE:
                members.append(eid)
            else:
                n_fixed += 1
        factors.append(CycleFactor(cycle_id, tuple(members), n_fixed, float(z[cycle_id])))
    return tuple(factors)


@functools.lru_cache(maxsize=None)
def _popcounts(k: int) -> np.ndarray:
    """Outlier count of each mask 0 .. 2^k - 1; a read-only table per k,
    one byte per entry."""
    counts = np.zeros(1, dtype=np.uint8)
    for _ in range(k):
        counts = np.concatenate([counts, counts + 1])
    counts.setflags(write=False)
    return counts

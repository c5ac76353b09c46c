"""Factor graph over loop-closure edges, plus exact inference by enumeration.

Every loop-closure edge is a binary variable (0 = inlier, 1 = outlier) with a
unary prior factor; every basis cycle that contains at least one loop-closure
edge contributes an evidence factor. Exact posterior marginals are available
by enumerating configurations, which is the reference all approximate
back-ends are tested against.

Enumeration runs per connected block. A block of n variables is one float64
table of 2^n states, viewed as (2,)^n with variable i on axis n-1-i; each
prior and cycle term is a small table broadcast into it in place, so the
peak is about three 2^n float64 arrays per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .cycles import CycleBasis
from .graph import PoseGraph, loop_closure_edges
from .model import (
    DEFAULT_LC_CAP,
    CycleCapError,
    CycleDistribution,
    CycleFactor,
    ModelParams,
    factors_from_basis,
    log_likelihood_rows,
    log_prior_vector,
)

# Exact enumeration is O(2^n); refuse beyond this many coupled variables.
# Its (2,)^n view also needs n <= 32, numpy 1.x's limit on array dimensions.
EXACT_ENUMERATION_LIMIT = 22


@dataclass(frozen=True)
class CycleGroup:
    """The factors with k loop-closure members.

    factors holds their indices in factor order; row r of rows holds the
    incidence rows of factor factors[r], one per member in member order.
    """

    k: int
    factors: np.ndarray
    rows: np.ndarray


def _read_only(array: np.ndarray) -> np.ndarray:
    """Freeze an array cached on a FactorGraph; every back-end run shares it."""
    array.setflags(write=False)
    return array


class InferenceMethod(Enum):
    BP = "bp"
    ADMM = "admm"
    EXACT = "exact"


@dataclass(frozen=True)
class FactorGraph:
    """Variables are loop-closure edge ids; factors are basis cycles.

    An incidence is one (factor, member) pair. Incidence rows are numbered
    in factor order, members in member order, so the rows of factor f are
    contiguous; the array-backed views below are built once per graph.
    """

    variables: tuple[int, ...]
    factors: tuple[CycleFactor, ...]

    @cached_property
    def var_factors(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {eid: [] for eid in self.variables}
        for f_idx, factor in enumerate(self.factors):
            for eid in factor.lc_members:
                out[eid].append(f_idx)
        return {eid: tuple(v) for eid, v in out.items()}

    @cached_property
    def covered_variables(self) -> tuple[int, ...]:
        in_cycle = {eid for f in self.factors for eid in f.lc_members}
        return tuple(eid for eid in self.variables if eid in in_cycle)

    @cached_property
    def incidence_var(self) -> np.ndarray:
        """Position in variables of each incidence row's member."""
        index = {eid: i for i, eid in enumerate(self.variables)}
        return _read_only(np.array(
            [index[eid] for f in self.factors for eid in f.lc_members], dtype=np.intp
        ))

    @cached_property
    def cycle_groups(self) -> tuple[CycleGroup, ...]:
        """Factors grouped by member count k, groups in first-appearance order."""
        by_k: dict[int, list[int]] = {}
        for f_idx, factor in enumerate(self.factors):
            by_k.setdefault(len(factor.lc_members), []).append(f_idx)
        starts = np.cumsum([0] + [len(f.lc_members) for f in self.factors])
        return tuple(
            CycleGroup(
                k,
                _read_only(np.array(f_indices, dtype=np.intp)),
                _read_only(starts[f_indices][:, None] + np.arange(k, dtype=np.intp)),
            )
            for k, f_indices in by_k.items()
        )

    @cached_property
    def var_incidences(self) -> np.ndarray:
        """(variables, max degree) incidence rows of each variable, in factor
        order, padded with the sentinel row len(incidence_var)."""
        sentinel = len(self.incidence_var)
        per_var: list[list[int]] = [[] for _ in self.variables]
        for row, var in enumerate(self.incidence_var):
            per_var[var].append(row)
        degree = max((len(rows) for rows in per_var), default=0)
        out = np.full((len(self.variables), degree), sentinel, dtype=np.intp)
        for var, rows in enumerate(per_var):
            out[var, : len(rows)] = rows
        return _read_only(out)


@dataclass(frozen=True)
class InferenceResult:
    """Marginals from any back-end, in a common shape.

    edge_marginals maps every loop-closure edge id to its inlier probability;
    cycle_beliefs align with the factor graph's factors. log_evidence is
    filled in only by exact enumeration.
    """

    edge_marginals: dict[int, float]
    cycle_beliefs: tuple[CycleDistribution, ...]
    converged: bool
    iterations: int
    log_evidence: float = float("nan")


def build_factor_graph(g: PoseGraph, basis: CycleBasis) -> FactorGraph:
    """Assemble the factor graph; rejects cycles over DEFAULT_LC_CAP members."""
    variables = tuple(e.id for e in loop_closure_edges(g))
    factors = []
    for factor in factors_from_basis(g, basis):
        if not factor.lc_members:
            continue  # all-ego cycles carry no free variables
        if len(factor.lc_members) > DEFAULT_LC_CAP:
            raise CycleCapError(factor.cycle_id, len(factor.lc_members))
        factors.append(factor)
    return FactorGraph(variables, tuple(factors))


def _connected_components(fg: FactorGraph) -> list[tuple[list[int], list[int]]]:
    """(variable ids, factor indices) per connected block of the factor graph."""
    var_factors = fg.var_factors
    seen_vars: set[int] = set()
    seen_factors: set[int] = set()
    components = []
    for start in fg.covered_variables:
        if start in seen_vars:
            continue
        vars_here: list[int] = []
        factors_here: list[int] = []
        stack = [start]
        seen_vars.add(start)
        while stack:
            eid = stack.pop()
            vars_here.append(eid)
            for f_idx in var_factors[eid]:
                if f_idx in seen_factors:
                    continue
                seen_factors.add(f_idx)
                factors_here.append(f_idx)
                for other in fg.factors[f_idx].lc_members:
                    if other not in seen_vars:
                        seen_vars.add(other)
                        stack.append(other)
        components.append((sorted(vars_here), sorted(factors_here)))
    return components


def exact_marginals(fg: FactorGraph, params: ModelParams) -> InferenceResult:
    """Posterior marginals by enumeration, one connected block at a time.

    Blocks of the factor graph are independent, so each is enumerated
    separately; the per-block size limit is what matters. Edges outside
    every cycle factor keep their prior.
    """
    marginals: dict[int, float] = {
        eid: params.prior(eid) for eid in fg.variables
    }
    beliefs: list[CycleDistribution | None] = [None] * len(fg.factors)
    # factor f's log p(z | s), s = 0 .. k, is rows[offsets[f] : offsets[f + 1]]
    rows = log_likelihood_rows(fg.factors, [(params.sigma, params.sigma_bar)])[0]
    offsets = np.cumsum([0] + [len(f.lc_members) + 1 for f in fg.factors])
    log_z = 0.0
    for var_ids, factor_indices in _connected_components(fg):
        n = len(var_ids)
        if n > EXACT_ENUMERATION_LIMIT:
            raise ValueError(
                f"exact enumeration over a {n}-edge block exceeds the limit of "
                f"{EXACT_ENUMERATION_LIMIT}"
            )
        position = {eid: i for i, eid in enumerate(var_ids)}
        prob = np.zeros(1 << n)  # log p of every state until normalized in place
        cube = prob.reshape((2,) * n)
        # bits[i]: bit i of the state index, broadcast along axis n-1-i of cube
        bits = [np.arange(2).reshape((1,) * (n - 1 - i) + (2,) + (1,) * i) for i in range(n)]
        for i, eid in enumerate(var_ids):
            log_in, log_out = log_prior_vector(np.array([params.prior(eid)]))
            cube += np.where(bits[i] == 1, log_out[0], log_in[0])
        local_masks = []
        for f_idx in factor_indices:
            # the factor's own 2^k configurations: member j is local bit j
            s = local = 0
            for j, eid in enumerate(fg.factors[f_idx].lc_members):
                bit = bits[position[eid]]
                s = s + bit
                local = local + (bit << j)
            cube += rows[offsets[f_idx] : offsets[f_idx + 1]][s]
            local_masks.append(local)
        peak = float(np.max(prob))
        prob -= peak
        np.exp(prob, out=prob)
        total = float(prob.sum())
        prob /= total
        log_z += peak + np.log(total)
        for i, eid in enumerate(var_ids):
            # a contiguous copy in state order: summed as one flat array
            inlier = np.take(cube, 0, axis=n - 1 - i)
            marginals[eid] = float(inlier.ravel().sum())
        for f_idx, local in zip(factor_indices, local_masks):
            k = len(fg.factors[f_idx].lc_members)
            values = np.bincount(
                np.broadcast_to(local, cube.shape).ravel(), weights=prob, minlength=1 << k
            )
            beliefs[f_idx] = CycleDistribution(values / values.sum())

    return InferenceResult(
        marginals,
        tuple(beliefs),  # type: ignore[arg-type]
        True,
        1,
        log_evidence=log_z,
    )


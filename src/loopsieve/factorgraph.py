"""Factor graph over loop-closure edges, plus exact inference by elimination.

Every loop-closure edge is a binary variable (0 = inlier, 1 = outlier) with a
unary prior factor; every basis cycle that contains at least one loop-closure
edge contributes an evidence factor. FactorGraph.evidence(params) is all
that BP, ADMM and exact inference read of the model parameters: log p(z | s)
for every (factor, s) row and the prior array. Inference addresses a
variable by its position in FactorGraph.variables: priors and every
back-end's marginals are arrays in that order, and the edge ids there serve
output only. Exact posterior marginals, the reference all approximate
back-ends are tested against, come from sum-product bucket elimination in
the log domain (Dechter, "Bucket elimination", Artificial Intelligence 1999;
Koller & Friedman, Probabilistic Graphical Models, 2009, ch. 9-10).

The cost is set by the elimination cliques, not by the size of a connected
block: a clique of c edges is one float64 table of 2^c entries, and the
greedy min-fill order keeps c at 9 or less on every graph of the desk-scale
suite. Cliques over EXACT_CLIQUE_LIMIT edges are refused before any table
is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import islice

import numpy as np

from .cycles import CycleBasis
from .graph import PoseGraph, loop_closure_edges
from .model import (
    CycleFactor,
    ModelParams,
    RowKeys,
    _popcounts,
    factors_from_basis,
    likelihood_row_keys,
    likelihood_table,
    log_prior_vector,
)

# Exact inference refuses an elimination clique of more edges than this: the
# clique's table has 2^size float64 entries (32 MiB at 22), and its (2,)^size
# view needs size <= 32, numpy 1.x's limit on array dimensions.
EXACT_CLIQUE_LIMIT = 22


@dataclass(frozen=True)
class CycleGroup:
    """The factors with k loop-closure members.

    factors holds their indices in factor order; row r of rows holds the
    incidence rows of factor factors[r], one per member in member order,
    row r of positions those members' positions in variables, and row r
    of count_rows its k + 1 count rows, s = 0 .. k.
    """

    k: int
    factors: np.ndarray
    rows: np.ndarray
    positions: np.ndarray
    count_rows: np.ndarray


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
    """Variables are loop-closure edge ids, kept for output; factors are cycles.

    An incidence is one (factor, member) pair. Incidence rows are numbered
    in factor order, members in member order, so the rows of factor f are
    contiguous. Count rows, one per (factor, s) with s = 0 .. k, run the same
    way: the layout of log_likelihood_rows(factors, pairs) and of
    InferenceResult.count_marginals. The array-backed views below hold
    everything parameter-free that a back-end or EM reads, built once per
    graph, read-only and shared by every run; :meth:`evidence` is what each
    back-end reads of the model parameters, once per run.
    """

    variables: tuple[int, ...]
    factors: tuple[CycleFactor, ...]

    def evidence(self, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
        """(rows, params.priors): log p(z | s) of every count row under
        (sigma, sigma_bar), and the priors, checked to be one per variable."""
        if len(params.priors) != len(self.variables):
            raise ValueError(f"got {len(params.priors)} priors for {len(self.variables)} variables")
        rows = likelihood_table(self.row_keys, [(params.sigma, params.sigma_bar)])[0]
        return rows, params.priors

    @cached_property
    def row_keys(self) -> RowKeys:
        """The factors' likelihood row keys (model.likelihood_row_keys), which
        evidence and EM's grid table evaluate under each parameter setting."""
        keys = likelihood_row_keys(self.factors)
        _read_only(keys.key_of_row)
        _read_only(keys.z_squared)
        return keys

    @cached_property
    def covered_variables(self) -> tuple[int, ...]:
        """Ids of the edges in at least one factor, for output."""
        return tuple(self.variables[i] for i in self.covered_index)

    @cached_property
    def incidence_var(self) -> np.ndarray:
        """Position in variables of each incidence row's member."""
        index = {eid: i for i, eid in enumerate(self.variables)}
        return _read_only(np.array(
            [index[eid] for f in self.factors for eid in f.lc_members], dtype=np.intp
        ))

    @cached_property
    def degree(self) -> np.ndarray:
        """Number of incidences of each variable, in variables order."""
        return _read_only(np.bincount(self.incidence_var, minlength=len(self.variables)))

    @cached_property
    def covered_index(self) -> np.ndarray:
        """Positions in variables of the edges in at least one factor."""
        return _read_only(np.flatnonzero(self.degree))

    @cached_property
    def cycle_groups(self) -> tuple[CycleGroup, ...]:
        """Factors grouped by member count k, groups in first-appearance order."""
        by_k: dict[int, list[int]] = {}
        for f_idx, factor in enumerate(self.factors):
            by_k.setdefault(len(factor.lc_members), []).append(f_idx)
        starts = np.cumsum([0] + [len(f.lc_members) for f in self.factors])
        groups = []
        for k, f_indices in by_k.items():
            rows = starts[f_indices][:, None] + np.arange(k, dtype=np.intp)
            groups.append(CycleGroup(
                k,
                _read_only(np.array(f_indices, dtype=np.intp)),
                _read_only(rows),
                _read_only(self.incidence_var[rows]),
                _read_only(self.row_starts[f_indices][:, None] + np.arange(k + 1, dtype=np.intp)),
            ))
        return tuple(groups)

    @cached_property
    def count_bins(self) -> np.ndarray:
        """Count row of every (factor, configuration) pair, groups in order,
        each group's factors in order and configurations in mask order: the
        bins that fold a group's (factors, 2^k) tables into count marginals."""
        return _read_only(np.concatenate([np.empty(0, dtype=np.intp)] + [
            group.count_rows[:, _popcounts(group.k)].ravel() for group in self.cycle_groups
        ]))

    @cached_property
    def row_starts(self) -> np.ndarray:
        """First count row of each factor; factor f has k + 1 rows from there."""
        sizes = np.array([len(f.lc_members) + 1 for f in self.factors], dtype=np.intp)
        return _read_only(np.cumsum(sizes) - sizes)

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


@dataclass(frozen=True, eq=False)
class InferenceResult:
    """Marginals from any back-end, in a common shape.

    marginals holds each variable's inlier probability, in the order of
    variables. count_marginals holds each factor's distribution of its
    outlier count s, one float64 entry per count row of the factor graph
    (s = 0 .. k per factor, factors in order). log_evidence is filled in
    only by exact inference.
    """

    variables: tuple[int, ...]
    marginals: np.ndarray
    count_marginals: np.ndarray
    converged: bool
    iterations: int
    log_evidence: float = float("nan")

    @cached_property
    def edge_marginals(self) -> dict[int, float]:
        """Each edge id's inlier probability, for output."""
        return dict(zip(self.variables, self.marginals.tolist()))


def check_iteration_limits(max_iters: int, tol: float) -> None:
    """Refuse stopping limits under which an iterative back-end cannot run:
    max_iters below 1, or a tol that is negative or not finite."""
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def build_factor_graph(g: PoseGraph, basis: CycleBasis) -> FactorGraph:
    """Assemble the factor graph; all-ego cycles carry no free variables
    and are left out."""
    variables = tuple(e.id for e in loop_closure_edges(g))
    factors = tuple(f for f in factors_from_basis(g, basis) if f.lc_members)
    return FactorGraph(variables, factors)


def _min_fill_cliques(fg: FactorGraph, scopes: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Greedy min-fill elimination of the covered variables, symbolically.

    The members of each scope, one factor's member positions, are pairwise
    adjacent. Each step eliminates the variable whose neighbours lack the
    fewest edges among themselves, ties going to the lower degree and then
    the lower edge id, and joins its neighbours. Returns one clique of
    positions per step: the variable eliminated at that step first, then its
    neighbours at that time in elimination order. Raises ValueError on a
    clique over EXACT_CLIQUE_LIMIT before any table exists.
    """
    adjacent: dict[int, set[int]] = {v: set() for v in fg.covered_index.tolist()}
    for scope in scopes:
        members = set(scope)
        for v in members:
            adjacent[v] |= members - {v}

    def score(v: int) -> tuple[int, int, int, int]:
        nbrs = adjacent[v]
        missing = sum(len(nbrs - adjacent[u]) - 1 for u in nbrs) // 2
        return missing, len(nbrs), fg.variables[v], v

    scores = {v: score(v) for v in adjacent}
    steps: list[tuple[int, set[int]]] = []
    while scores:
        v = min(scores.values())[3]
        del scores[v]
        nbrs = adjacent.pop(v)
        if len(nbrs) + 1 > EXACT_CLIQUE_LIMIT:
            raise ValueError(
                f"exact inference needs an elimination clique of {len(nbrs) + 1} "
                f"edges, over the limit of {EXACT_CLIQUE_LIMIT}; use method bp"
            )
        for u in nbrs:
            adjacent[u] |= nbrs
            adjacent[u] -= {u, v}
        for u in nbrs.union(*(adjacent[u] for u in nbrs)):
            scores[u] = score(u)
        steps.append((v, nbrs))
    rank = {v: i for i, (v, _) in enumerate(steps)}
    return [(v, *sorted(nbrs, key=rank.__getitem__)) for v, nbrs in steps]


def _log_sum_exp(table: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """log of the sum of exp(table) over axes; -inf where every term is."""
    peak = np.max(table, axis=axes, keepdims=True)
    peak[np.isneginf(peak)] = 0.0
    shifted = table - peak
    np.exp(shifted, out=shifted)
    with np.errstate(divide="ignore"):
        total = np.log(np.sum(shifted, axis=axes, keepdims=True))
    return np.squeeze(total + peak, axis=axes)


def _broadcast(table: np.ndarray, scope: tuple[int, ...], clique: tuple[int, ...]) -> np.ndarray:
    """A table on scope, a sub-sequence of clique, as a view that
    broadcasts against the clique's table."""
    return table.reshape([2 if u in scope else 1 for u in clique])


def _axes_outside(clique: tuple[int, ...], scope: tuple[int, ...]) -> tuple[int, ...]:
    """Axes of the clique's table that scope sums out."""
    return tuple(a for a, u in enumerate(clique) if u not in scope)


def exact_marginals(fg: FactorGraph, params: ModelParams) -> InferenceResult:
    """Posterior marginals and log evidence by sum-product bucket elimination.

    The elimination order is greedy min-fill (_min_fill_cliques); bucket i
    holds the clique of its step, with axes in elimination order, one log
    table of 2^size entries. Each prior goes to its variable's bucket and
    each cycle factor, a (2,)^k table of its rows indexed by outlier count,
    to the bucket of its first-eliminated member. A collect pass sends each
    bucket's sum, with its own variable summed out, to the bucket of its
    first-eliminated neighbour; a bucket with none is the root of one
    connected block and adds to the log evidence. A Shafer-Shenoy
    distribute pass, which never divides, sends every bucket the sum of all
    tables outside its subtree, so priors of exactly 0 or 1 stay exact.
    Edge marginals and count marginals are read from the calibrated bucket
    beliefs. Edges outside every cycle factor keep their prior.
    """
    flat = iter(fg.incidence_var.tolist())  # each factor's member positions
    scopes = [tuple(islice(flat, len(f.lc_members))) for f in fg.factors]
    cliques = _min_fill_cliques(fg, scopes)
    rows, prior = fg.evidence(params)
    marginals = prior.copy()
    counts = np.zeros_like(rows)
    bucket_of = {clique[0]: i for i, clique in enumerate(cliques)}
    log_in, log_out = log_prior_vector(prior[[clique[0] for clique in cliques]])
    local: list[np.ndarray | None] = []
    for i, clique in enumerate(cliques):
        table = np.zeros((2,) * len(clique))
        table += _broadcast(np.array([log_in[i], log_out[i]]), clique[:1], clique)
        local.append(table)
    assigned: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in cliques]
    for f_idx, members in enumerate(scopes):
        scope = tuple(sorted(members, key=bucket_of.__getitem__))
        bucket = bucket_of[scope[0]]
        start = fg.row_starts[f_idx]
        by_count = rows[start : start + len(scope) + 1]
        local[bucket] += _broadcast(by_count[_popcounts(len(scope))], scope, cliques[bucket])
        assigned[bucket].append((f_idx, scope))

    # collect: up[i] is bucket i's message to its parent, on cliques[i][1:]
    log_z = 0.0
    up: list[np.ndarray | None] = []
    children: list[list[int]] = [[] for _ in cliques]
    for i, clique in enumerate(cliques):
        total = local[i]
        for c in children[i]:
            total = total + _broadcast(up[c], cliques[c][1:], clique)
        up.append(_log_sum_exp(total, (0,)))
        if len(clique) == 1:
            log_z += float(up[i])
        else:
            children[bucket_of[clique[1]]].append(i)

    # distribute: down[i] is the message from bucket i's parent, on cliques[i][1:];
    # each bucket's table becomes its belief in place
    down: list[np.ndarray | None] = [None] * len(cliques)
    for i in reversed(range(len(cliques))):
        clique = cliques[i]
        belief = local[i]
        if down[i] is not None:
            belief += _broadcast(down[i], clique[1:], clique)
        incoming = [_broadcast(up[c], cliques[c][1:], clique) for c in children[i]]
        for j, c in enumerate(children[i]):
            outside = belief
            for other in incoming[:j] + incoming[j + 1 :]:
                outside = outside + other
            down[c] = _log_sum_exp(outside, _axes_outside(clique, cliques[c][1:]))
        for message in incoming:
            belief += message
        belief -= np.max(belief)
        prob = np.exp(belief, out=belief)
        marginals[clique[0]] = prob[0].sum() / prob.sum()
        for f_idx, scope in assigned[i]:
            axes = _axes_outside(clique, scope)
            table = prob.sum(axis=axes) if axes else prob
            values = np.bincount(_popcounts(len(scope)), weights=table.ravel())
            start = fg.row_starts[f_idx]
            counts[start : start + len(scope) + 1] = values / values.sum()
        local[i] = down[i] = None  # release tables as the pass goes
        for c in children[i]:
            up[c] = None

    return InferenceResult(fg.variables, marginals, counts, True, 1, log_evidence=log_z)

"""Minimum cycle basis extraction and per-cycle rotation error.

The basis is chosen from Horton's candidate set (Horton, SIAM J. Comput.
1987; Kavitha et al., Computer Science Review 2009). From each root r, one
BFS tree is grown with neighbours in edge-id order, and each non-tree edge
xy whose tree paths P(r, x) and P(r, y) meet only at r gives the candidate
P(r, x) + xy + P(y, r). The distinct candidates are sorted by (length,
sorted edge ids) and kept greedily while they are independent over GF(2),
tested on their chord bits against a spanning forest, until the basis has
|E| - |V| + (components) cycles. Edge weight is 1 per edge, so the basis is
minimal in total edge count.

The roots are a greedy feedback vertex set rather than every vertex: every
cycle passes through a root, and Horton's exchange argument holds for any
vertex of the cycle, so the candidates still contain a minimum basis.

Nodes are numbered 0 .. V-1 in sorted id order. A cycle is a Python int
edge mask with edge column c (in id order) at bit E-1-c, so the key
(length, -mask) gives the (length, sorted edge ids) order. The basis is the
greedy one over this candidate set; a cycle outside the set may make
another minimum basis lexicographically smaller.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import so3
from .graph import PoseGraph


class Direction(Enum):
    FORWARD = 1
    REVERSE = -1


class CycleError(ValueError):
    """A step sequence that is not a valid simple cycle in the graph."""


@dataclass(frozen=True)
class Cycle:
    """Closed walk of (edge id, direction) steps; each edge appears once."""

    steps: tuple[tuple[int, Direction], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple((int(e), d) for e, d in self.steps))

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.steps)


@dataclass(frozen=True)
class CycleBasis:
    cycles: tuple[Cycle, ...]


def validate_cycle(g: PoseGraph, cycle: Cycle) -> None:
    """Check the closed-walk and edge-uniqueness invariants against g."""
    if not cycle.steps:
        raise CycleError("cycle has no steps")
    seen: set[int] = set()
    start = None
    expected = None
    for edge_id, direction in cycle.steps:
        if edge_id in seen:
            raise CycleError(f"edge {edge_id} appears more than once in the cycle")
        seen.add(edge_id)
        edge = g.edge_by_id.get(edge_id)
        if edge is None:
            raise CycleError(f"cycle references unknown edge {edge_id}")
        u, v = (edge.src, edge.dst) if direction is Direction.FORWARD else (edge.dst, edge.src)
        if start is None:
            start = u
        elif u != expected:
            raise CycleError(f"walk is broken at edge {edge_id}")
        expected = v
    if expected != start:
        raise CycleError("walk does not return to its start vertex")


def _compose(g: PoseGraph, cycles) -> np.ndarray:
    """Each cycle's product of edge rotations along the walk (transposed when
    reversed), as one (n, 3, 3) array.

    Step j of every cycle is composed in one stacked product; cycles shorter
    than the longest are padded with identity steps, which leave the product
    as it is.
    """
    for cycle in cycles:
        validate_cycle(g, cycle)
    steps = np.tile(np.eye(3), (max((c.length for c in cycles), default=0), len(cycles), 1, 1))
    for i, cycle in enumerate(cycles):
        for j, (edge_id, direction) in enumerate(cycle.steps):
            rot = g.edge_by_id[edge_id].rotation
            steps[j, i] = rot if direction is Direction.FORWARD else rot.T
    total = np.tile(np.eye(3), (len(cycles), 1, 1))
    for step in steps:
        total = step @ total
    return total


def cycle_rotation(g: PoseGraph, cycle: Cycle) -> np.ndarray:
    """Product of edge rotations along the walk (transposed when reversed)."""
    return _compose(g, (cycle,))[0]


def cycle_error(g: PoseGraph, cycle: Cycle) -> float:
    """Geodesic angle of the composed rotation around the cycle, in [0, pi]."""
    return so3.geodesic_angle(cycle_rotation(g, cycle))


def cycle_errors(g: PoseGraph, cycles) -> np.ndarray:
    """:func:`cycle_error` of each cycle, as one float64 array."""
    return so3.geodesic_angle_many(_compose(g, cycles))


def minimum_cycle_basis(g: PoseGraph) -> CycleBasis:
    """Minimum-total-edge-count cycle basis of g, treated as undirected.

    Forests yield an empty basis. The number of cycles equals
    |E| - |V| + (connected components). Cycles come in the order they were
    kept: by length, then by sorted edge ids. Output is deterministic.
    """
    endpoints = {e.id: (e.src, e.dst) for e in g.edges}
    index = {node_id: i for i, node_id in enumerate(sorted(n.id for n in g.nodes))}
    ids = sorted(endpoints)
    top = len(ids) - 1
    # edge column c (in id order) is bit top - c: of two cycles of one length,
    # the one with the smaller sorted ids has the larger mask
    ends = [(index[endpoints[eid][0]], index[endpoints[eid][1]]) for eid in ids]
    # rows come out in edge-id order, since edges are visited in that order
    adjacency: list[list[tuple[int, int]]] = [[] for _ in index]
    for c, (u, v) in enumerate(ends):
        adjacency[u].append((c, v))
        adjacency[v].append((c, u))

    candidates: set[int] = set()
    chord_mask = 0  # non-tree edges of the first BFS tree in each component
    nu = 0
    reached = [False] * len(adjacency)
    for root in _feedback_vertices(adjacency):
        path: list[int | None] = [None] * len(adjacency)  # tree path to root, as a mask
        branch = [-1] * len(adjacency)  # child of root that x hangs from
        parent_edge = [-1] * len(adjacency)
        path[root] = 0
        queue = [root]
        for x in queue:
            for c, y in adjacency[x]:
                if path[y] is None:
                    path[y] = path[x] | 1 << (top - c)
                    branch[y] = y if x == root else branch[x]
                    parent_edge[y] = c
                    queue.append(y)
        first = not reached[root]  # the first tree of its component
        for x in queue:
            reached[x] = True
            for c, y in adjacency[x]:
                if x > y or c == parent_edge[x] or c == parent_edge[y]:
                    continue
                if first:
                    chord_mask |= 1 << (top - c)
                    nu += 1
                if branch[x] != branch[y]:
                    candidates.add(path[x] | path[y] | 1 << (top - c))

    basis: list[Cycle] = []
    pivots: dict[int, int] = {}  # reduced chord bits, keyed by their top bit
    for mask in sorted(candidates, key=lambda m: (m.bit_count(), -m)):
        if len(basis) == nu:
            break
        bits = mask & chord_mask
        while bits and (pivot := pivots.get(bits.bit_length())) is not None:
            bits ^= pivot
        if bits:
            pivots[bits.bit_length()] = bits
            edge_ids = []
            while mask:
                low = mask & -mask
                edge_ids.append(ids[top + 1 - low.bit_length()])
                mask ^= low
            basis.append(_orient_cycle(edge_ids, endpoints))

    return CycleBasis(tuple(basis))


def _feedback_vertices(adjacency) -> list[int]:
    """Greedy feedback vertex set: peel vertices of degree <= 1, then take
    the vertex of highest degree (ties to the lowest index), and repeat
    until no vertex is left. The vertices not taken induce a forest."""
    degree = [len(row) for row in adjacency]
    alive = [True] * len(adjacency)

    def remove(stack: list[int]) -> None:
        while stack:
            x = stack.pop()
            if not alive[x]:
                continue
            alive[x] = False
            for _, y in adjacency[x]:
                if alive[y]:
                    degree[y] -= 1
                    if degree[y] <= 1:
                        stack.append(y)

    remove([v for v in range(len(adjacency)) if degree[v] <= 1])
    roots: list[int] = []
    while any(alive):
        root = max((v for v in range(len(adjacency)) if alive[v]), key=lambda v: (degree[v], -v))
        roots.append(root)
        remove([root])
    return roots


def _orient_cycle(edge_ids: list[int], endpoints) -> Cycle:
    """Order an edge set into a directed walk, starting at the smallest vertex."""
    incident: dict[int, list[int]] = {}
    for eid in edge_ids:
        u, v = endpoints[eid]
        incident.setdefault(u, []).append(eid)
        incident.setdefault(v, []).append(eid)
    for lst in incident.values():
        lst.sort()
    start = min(incident)
    steps: list[tuple[int, Direction]] = []
    used: set[int] = set()
    current = start
    while len(used) < len(edge_ids):
        eid = next(e for e in incident[current] if e not in used)
        used.add(eid)
        u, v = endpoints[eid]
        if u == current:
            steps.append((eid, Direction.FORWARD))
            current = v
        else:
            steps.append((eid, Direction.REVERSE))
            current = u
    if current != start:
        raise AssertionError("edge set does not close into a cycle")
    return Cycle(tuple(steps))

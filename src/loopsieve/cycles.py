"""Minimum cycle basis extraction and per-cycle rotation error.

The basis is computed with de Pina's algorithm: GF(2) witness vectors
supported on the chords of a spanning forest, and for each witness a
shortest cycle with odd intersection found via breadth-first search in a
parity-lifted (doubled) graph. Edge weight is 1 per edge, so the basis is
minimal in total edge count.

Nodes are numbered 0 .. V-1 in sorted id order and lifted vertex
(v, parity) is 2*v + parity. The lifted adjacency is built once per graph,
and each witness patches only its odd edges' endpoint rows to flip parity.
Tie-breaking is deterministic but local: for each witness, one BFS runs
from each endpoint of its odd edges and keeps the first shortest path it
finds (neighbours in edge-id order); each path is split into simple cycles
(a path through distinct vertices is one already), and among the odd
pieces of those paths the one with the smallest (length, sorted edge ids)
wins. A shortest odd cycle that no such path traces is never a candidate,
so the basis need not be the lexicographically smallest minimum basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import so3
from .graph import EdgeKind, PoseGraph


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
    covered_lc_edges: frozenset[int]


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


def cycle_rotation(g: PoseGraph, cycle: Cycle) -> np.ndarray:
    """Product of edge rotations along the walk (transposed when reversed)."""
    validate_cycle(g, cycle)
    total = np.eye(3)
    for edge_id, direction in cycle.steps:
        rot = g.edge_by_id[edge_id].rotation
        step = rot if direction is Direction.FORWARD else rot.T
        total = step @ total
    return total


def cycle_error(g: PoseGraph, cycle: Cycle) -> float:
    """Geodesic angle of the composed rotation around the cycle, in [0, pi]."""
    return so3.geodesic_angle(cycle_rotation(g, cycle))


def minimum_cycle_basis(g: PoseGraph) -> CycleBasis:
    """Minimum-total-edge-count cycle basis of g, treated as undirected.

    Forests yield an empty basis. The number of cycles equals
    |E| - |V| + (connected components). Output is deterministic.
    """
    endpoints = {e.id: (e.src, e.dst) for e in g.edges}
    index = {node_id: i for i, node_id in enumerate(sorted(n.id for n in g.nodes))}
    # rows come out in edge-id order, since edges are visited in that order
    adjacency: list[list[tuple[int, int]]] = [[] for _ in index]
    for eid, (u, v) in sorted(endpoints.items()):
        adjacency[index[u]].append((eid, index[v]))
        adjacency[index[v]].append((eid, index[u]))
    lifted = [[(2 * w + p, eid) for eid, w in row] for row in adjacency for p in (0, 1)]

    chords = _chords(adjacency, endpoints)
    chord_pos = {eid: i for i, eid in enumerate(chords)}
    witnesses = [1 << i for i in range(len(chords))]

    basis: list[Cycle] = []
    for i in range(len(chords)):
        odd_edges: set[int] = set()
        bits = witnesses[i]
        while bits:
            low = bits & -bits
            odd_edges.add(chords[low.bit_length() - 1])
            bits ^= low
        cycle_edges = _shortest_odd_cycle(lifted, index, endpoints, odd_edges)
        cycle_mask = 0
        for eid in cycle_edges:
            if eid in chord_pos:
                cycle_mask |= 1 << chord_pos[eid]
        if not (cycle_mask & witnesses[i]).bit_count() & 1:
            raise AssertionError("cycle is not odd against its witness")
        for j in range(i + 1, len(chords)):
            if (cycle_mask & witnesses[j]).bit_count() & 1:
                witnesses[j] ^= witnesses[i]
        basis.append(_orient_cycle(list(cycle_edges), endpoints))

    lc_ids = {e.id for e in g.edges if e.kind is EdgeKind.LOOP_CLOSURE}
    covered = frozenset(
        eid for cycle in basis for eid in cycle.edge_ids if eid in lc_ids
    )
    return CycleBasis(tuple(basis), covered)


def _chords(adjacency, endpoints) -> list[int]:
    """Non-tree edges of a BFS spanning forest, sorted by edge id."""
    tree_edges: set[int] = set()
    visited = [False] * len(adjacency)
    for root in range(len(adjacency)):
        if visited[root]:
            continue
        visited[root] = True
        queue = [root]
        for node in queue:
            for eid, other in adjacency[node]:
                if not visited[other]:
                    visited[other] = True
                    tree_edges.add(eid)
                    queue.append(other)
    return sorted(eid for eid in endpoints if eid not in tree_edges)


def _shortest_odd_cycle(lifted, index, endpoints, odd_edges: set[int]) -> tuple[int, ...]:
    """Sorted edge ids of a minimum-weight cycle whose intersection with
    odd_edges is odd.

    Searches the parity-lifted graph, in which traversing an edge in
    odd_edges flips the parity bit: the rows of the odd edges' endpoints are
    patched for the search and restored after it. Any shortest (v, 0) ->
    (v, 1) path projects onto a closed odd edge set. Such a set is an
    edge-disjoint union of simple cycles, at least one of which is odd; the
    best odd piece is kept.
    """
    sources = sorted({index[v] for eid in odd_edges for v in endpoints[eid]})
    saved = {x: lifted[x] for v in sources for x in (2 * v, 2 * v + 1)}
    for x, row in saved.items():
        lifted[x] = [(t ^ 1, e) if e in odd_edges else (t, e) for t, e in row]
    best_len = len(endpoints) + 1
    best: tuple[int, ...] = ()
    for source in sources:
        found = _lifted_path(lifted, 2 * source)
        if found is None:
            continue
        path, simple = found
        # a closed walk through distinct vertices is its own only piece and,
        # crossing odd_edges an odd number of times, is odd
        pieces = [path] if simple else [
            piece
            for piece in _split_into_simple_cycles(
                {eid for eid in path if path.count(eid) % 2}, endpoints
            )
            if len(piece & odd_edges) % 2
        ]
        for piece in pieces:
            if len(piece) > best_len:
                continue
            ids = tuple(sorted(piece))
            if len(ids) < best_len or ids < best:
                best_len, best = len(ids), ids
    for x, row in saved.items():
        lifted[x] = row
    if not best:
        raise AssertionError("no odd cycle found for a chord witness")
    return best


def _lifted_path(lifted, start: int) -> tuple[list[int], bool] | None:
    """BFS from lifted vertex start = (s, 0) to start + 1 = (s, 1).

    Returns the path's edge ids and whether its projected vertices are
    distinct. The search ends when the goal is first discovered: its parent,
    and so the path, is fixed then.
    """
    goal = start + 1
    parent = [-1] * len(lifted)
    parent_edge = [-1] * len(lifted)
    parent[start] = start
    queue = [start]
    for x in queue:
        for t, eid in lifted[x]:
            if parent[t] < 0:
                parent[t] = x
                parent_edge[t] = eid
                if t == goal:
                    path: list[int] = []
                    vertices: set[int] = set()
                    while t != start:
                        path.append(parent_edge[t])
                        t = parent[t]
                        vertices.add(t >> 1)
                    path.reverse()
                    return path, len(vertices) == len(path)
                queue.append(t)
    return None


def _split_into_simple_cycles(edge_set: set[int], endpoints) -> list[set[int]]:
    """Decompose an even-degree edge set into edge-disjoint simple cycles."""
    remaining = set(edge_set)
    incident: dict[int, list[int]] = {}
    for eid in sorted(edge_set):
        u, v = endpoints[eid]
        incident.setdefault(u, []).append(eid)
        incident.setdefault(v, []).append(eid)
    pieces: list[set[int]] = []
    while remaining:
        start = min(v for v, eids in incident.items() if any(e in remaining for e in eids))
        path_edges: list[int] = []
        position = {start: 0}
        vertices = [start]
        current = start
        while True:
            eid = next(e for e in incident[current] if e in remaining and e not in path_edges)
            u, v = endpoints[eid]
            nxt = v if u == current else u
            path_edges.append(eid)
            if nxt in position:
                loop = set(path_edges[position[nxt]:])
                pieces.append(loop)
                remaining -= loop
                break
            vertices.append(nxt)
            position[nxt] = len(vertices) - 1
            current = nxt
    return pieces


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

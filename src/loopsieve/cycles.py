"""Minimum cycle basis extraction and per-cycle rotation error.

The basis is computed with de Pina's algorithm: GF(2) witness vectors
supported on the chords of a spanning forest, and for each witness a
shortest cycle with odd intersection found via breadth-first search in a
parity-lifted (doubled) graph. Edge weight is 1 per edge, so the basis is
minimal in total edge count. Tie-breaking is deterministic: among
equal-weight candidates the lexicographically smallest sorted edge-id set
wins.
"""

from __future__ import annotations

from collections import deque
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
    adjacency: dict[int, list[tuple[int, int]]] = {n.id: [] for n in g.nodes}
    for eid, (u, v) in sorted(endpoints.items()):
        adjacency[u].append((eid, v))
        adjacency[v].append((eid, u))
    for lst in adjacency.values():
        lst.sort()

    chords = _chords(adjacency, endpoints)
    chord_pos = {eid: i for i, eid in enumerate(chords)}
    witnesses = [1 << i for i in range(len(chords))]

    basis: list[Cycle] = []
    for i in range(len(chords)):
        odd_edges = {chords[b] for b in range(len(chords)) if witnesses[i] >> b & 1}
        cycle_edges = _min_odd_cycle(adjacency, endpoints, odd_edges)
        cycle_mask = 0
        for eid in cycle_edges:
            if eid in chord_pos:
                cycle_mask |= 1 << chord_pos[eid]
        if not _parity(cycle_mask & witnesses[i]):
            raise AssertionError("cycle is not odd against its witness")
        for j in range(i + 1, len(chords)):
            if _parity(cycle_mask & witnesses[j]):
                witnesses[j] ^= witnesses[i]
        basis.append(_orient_cycle(sorted(cycle_edges), endpoints))

    lc_ids = {e.id for e in g.edges if e.kind is EdgeKind.LOOP_CLOSURE}
    covered = frozenset(
        eid for cycle in basis for eid in cycle.edge_ids if eid in lc_ids
    )
    return CycleBasis(tuple(basis), covered)


def _chords(adjacency, endpoints) -> list[int]:
    """Non-tree edges of a BFS spanning forest, sorted by edge id."""
    tree_edges: set[int] = set()
    visited: set[int] = set()
    for root in sorted(adjacency):
        if root in visited:
            continue
        visited.add(root)
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for eid, other in adjacency[node]:
                if other not in visited:
                    visited.add(other)
                    tree_edges.add(eid)
                    queue.append(other)
    return sorted(eid for eid in endpoints if eid not in tree_edges)


def _parity(mask: int) -> int:
    return mask.bit_count() & 1


def _min_odd_cycle(adjacency, endpoints, odd_edges: set[int]) -> set[int]:
    """Minimum-weight cycle whose intersection with odd_edges is odd.

    Searches the parity-lifted graph: traversing an edge in odd_edges flips
    the parity bit, and any shortest (v, 0) -> (v, 1) path projects onto a
    closed odd edge set. Such a set is an edge-disjoint union of simple
    cycles, at least one of which is odd; the best odd piece is kept.
    """
    sources: list[int] = sorted({v for eid in odd_edges for v in endpoints[eid]})
    best_key = None
    best: set[int] | None = None
    for source in sources:
        path = _lifted_shortest_path(adjacency, odd_edges, source)
        if path is None:
            continue
        edge_set: set[int] = set()
        for eid in path:
            edge_set.symmetric_difference_update({eid})
        for piece in _split_into_simple_cycles(edge_set, endpoints):
            if len(piece & odd_edges) % 2 == 0:
                continue
            key = (len(piece), tuple(sorted(piece)))
            if best_key is None or key < best_key:
                best_key = key
                best = piece
    if best is None:
        raise AssertionError("no odd cycle found for a chord witness")
    return best


def _lifted_shortest_path(adjacency, odd_edges, source: int) -> list[int] | None:
    """BFS from (source, 0) to (source, 1); returns the edge ids of the path.

    Lifted vertex (v, parity) is the integer 2*v + parity. The search ends
    when the goal is first discovered: its parent, and so the path, is fixed
    then.
    """
    start = 2 * source
    goal = start + 1
    parents: dict[int, tuple[int, int]] = {start: (start, -1)}
    queue = deque([start])
    while queue and goal not in parents:
        lifted = queue.popleft()
        parity = lifted & 1
        for eid, other in adjacency[lifted >> 1]:
            nxt = 2 * other + (parity ^ (eid in odd_edges))
            if nxt not in parents:
                parents[nxt] = (lifted, eid)
                queue.append(nxt)
    if goal not in parents:
        return None
    path: list[int] = []
    cursor = goal
    while cursor != start:
        cursor, eid = parents[cursor]
        path.append(eid)
    path.reverse()
    return path


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

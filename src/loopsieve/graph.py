"""Pose-graph data model and text I/O.

Nodes carry a map id so graphs from several agents can coexist; directed
edges carry a measured rotation, an ego / loop-closure kind, a prior inlier
probability, and (for benchmarks) an optional ground-truth label.

File format (UTF-8, one record per line, '#' starts a comment):

    PGRAPH 1
    NODE <id> <map_id>
    EDGE <EGO|LC> <id> <src> <dst> <r00> <r01> ... <r22> [PRIOR <p>] [TRUTH <IN|OUT>]

PRIOR defaults to 1.0 for EGO edges and 0.5 for LC edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import IO, Iterable, Optional

import numpy as np

from . import so3

# Rotations farther than this from SO(3) (Frobenius of R R^T - I) are rejected;
# anything between ORTHONORMAL_TOL and this is re-projected.
PROJECTION_TOL = 1e-6


class GraphFormatError(ValueError):
    """Malformed graph file; message carries the offending line number."""


class GraphValidationError(ValueError):
    """Structurally invalid graph (dangling endpoint, duplicate id, ...)."""


class EdgeKind(Enum):
    EGO = "EGO"
    LOOP_CLOSURE = "LC"


class TruthLabel(Enum):
    INLIER = "IN"
    OUTLIER = "OUT"


@dataclass(frozen=True)
class Node:
    id: int
    map_id: int

    def __post_init__(self) -> None:
        if self.id < 0 or self.map_id < 0:
            raise GraphValidationError(f"node ids must be >= 0, got {self}")


@dataclass(frozen=True, eq=False)
class Edge:
    id: int
    src: int
    dst: int
    rotation: np.ndarray
    kind: EdgeKind
    prior_inlier: float = 0.5
    truth: Optional[TruthLabel] = None

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise GraphValidationError(f"edge {self.id}: self-loops are not allowed")
        if not 0.0 <= self.prior_inlier <= 1.0:
            raise GraphValidationError(
                f"edge {self.id}: prior_inlier must be in [0, 1], got {self.prior_inlier}"
            )
        if self.kind is EdgeKind.EGO and self.prior_inlier != 1.0:
            raise GraphValidationError(
                f"edge {self.id}: ego edges must have prior_inlier == 1"
            )
        rot = np.array(self.rotation, dtype=float)
        if not so3.is_rotation(rot, tol=so3.ORTHONORMAL_TOL):
            raise GraphValidationError(f"edge {self.id}: rotation is not in SO(3)")
        rot.setflags(write=False)
        object.__setattr__(self, "rotation", rot)


@dataclass(frozen=True, eq=False)
class PoseGraph:
    nodes: tuple[Node, ...] = field(default_factory=tuple)
    edges: tuple[Edge, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        seen_nodes: set[int] = set()
        for node in self.nodes:
            if node.id in seen_nodes:
                raise GraphValidationError(f"duplicate node id {node.id}")
            seen_nodes.add(node.id)
        seen_edges: set[int] = set()
        for edge in self.edges:
            if edge.id in seen_edges:
                raise GraphValidationError(f"duplicate edge id {edge.id}")
            seen_edges.add(edge.id)
            for endpoint in (edge.src, edge.dst):
                if endpoint not in seen_nodes:
                    raise GraphValidationError(
                        f"edge {edge.id} references unknown node {endpoint}"
                    )

    @cached_property
    def edge_by_id(self) -> dict[int, Edge]:
        return {e.id: e for e in self.edges}


def loop_closure_edges(g: PoseGraph) -> list[Edge]:
    """All loop-closure edges, sorted by edge id."""
    return sorted(
        (e for e in g.edges if e.kind is EdgeKind.LOOP_CLOSURE), key=lambda e: e.id
    )


def parse_graph(lines: Iterable[str]) -> PoseGraph:
    """Parse the PGRAPH text format. Raises GraphFormatError with a line number."""
    nodes: list[Node] = []
    edges: list[Edge] = []
    saw_header = False
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        tokens = text.split()
        if not saw_header:
            if tokens[0] != "PGRAPH":
                raise GraphFormatError(f"line {lineno}: expected 'PGRAPH 1' header")
            if len(tokens) != 2 or tokens[1] != "1":
                raise GraphFormatError(f"line {lineno}: unsupported PGRAPH version")
            saw_header = True
            continue
        if tokens[0] == "NODE":
            nodes.append(_parse_node(tokens, lineno))
        elif tokens[0] == "EDGE":
            edges.append(_parse_edge(tokens, lineno))
        else:
            raise GraphFormatError(f"line {lineno}: unknown record '{tokens[0]}'")
    try:
        return PoseGraph(tuple(nodes), tuple(edges))
    except GraphValidationError as exc:
        raise GraphFormatError(str(exc)) from exc


def _parse_node(tokens: list[str], lineno: int) -> Node:
    if len(tokens) != 3:
        raise GraphFormatError(f"line {lineno}: NODE expects 'NODE <id> <map_id>'")
    try:
        return Node(int(tokens[1]), int(tokens[2]))
    except (ValueError, GraphValidationError) as exc:
        raise GraphFormatError(f"line {lineno}: {exc}") from exc


def _parse_edge(tokens: list[str], lineno: int) -> Edge:
    if len(tokens) < 14:
        raise GraphFormatError(
            f"line {lineno}: EDGE expects kind, id, src, dst and 9 rotation entries"
        )
    kind_token = tokens[1]
    try:
        kind = EdgeKind(kind_token)
    except ValueError:
        raise GraphFormatError(
            f"line {lineno}: edge kind must be EGO or LC, got '{kind_token}'"
        ) from None
    try:
        edge_id, src, dst = (int(t) for t in tokens[2:5])
        entries = [float(t) for t in tokens[5:14]]
    except ValueError as exc:
        raise GraphFormatError(f"line {lineno}: {exc}") from exc
    rotation = _check_rotation(np.array(entries).reshape(3, 3), lineno)
    prior = 1.0 if kind is EdgeKind.EGO else 0.5
    truth: Optional[TruthLabel] = None
    rest = tokens[14:]
    i = 0
    while i < len(rest):
        key = rest[i]
        if key == "PRIOR" and i + 1 < len(rest):
            try:
                prior = float(rest[i + 1])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: bad PRIOR value") from exc
            i += 2
        elif key == "TRUTH" and i + 1 < len(rest):
            try:
                truth = TruthLabel(rest[i + 1])
            except ValueError:
                raise GraphFormatError(
                    f"line {lineno}: TRUTH must be IN or OUT"
                ) from None
            i += 2
        else:
            raise GraphFormatError(f"line {lineno}: unexpected token '{key}'")
    try:
        return Edge(edge_id, src, dst, rotation, kind, prior, truth)
    except GraphValidationError as exc:
        raise GraphFormatError(f"line {lineno}: {exc}") from exc


def _check_rotation(candidate: np.ndarray, lineno: int) -> np.ndarray:
    """Accept rotations (so3.is_rotation), re-project near-misses with a
    positive determinant, refuse the rest, a non-finite entry among them."""
    if so3.is_rotation(candidate):
        return candidate
    if not np.isfinite(candidate).all():
        raise GraphFormatError(f"line {lineno}: rotation entries must be finite")
    gap, det = so3.orthonormal_defects(candidate)
    if gap <= PROJECTION_TOL and det > 0:
        return so3.project_to_so3(candidate)
    raise GraphFormatError(
        f"line {lineno}: rotation is not orthonormal (|R R^T - I| = {gap:.3g})"
    )


def write_graph(g: PoseGraph, stream: IO[str]) -> None:
    """Serialize a graph; floats use 17 significant digits so parsing is exact."""
    stream.write("PGRAPH 1\n")
    for node in g.nodes:
        stream.write(f"NODE {node.id} {node.map_id}\n")
    for edge in g.edges:
        entries = " ".join(f"{v:.17g}" for v in edge.rotation.reshape(-1))
        line = (
            f"EDGE {edge.kind.value} {edge.id} {edge.src} {edge.dst} {entries}"
            f" PRIOR {edge.prior_inlier:.17g}"
        )
        if edge.truth is not None:
            line += f" TRUTH {edge.truth.value}"
        stream.write(line + "\n")


def graph_to_text(g: PoseGraph) -> str:
    import io

    buf = io.StringIO()
    write_graph(g, buf)
    return buf.getvalue()


def parse_g2o(lines: Iterable[str]) -> PoseGraph:
    """Import shim for g2o-style files.

    Reads the rotation part of VERTEX_SE3:QUAT / EDGE_SE3:QUAT (and the
    rotation-only EDGE_SO3:QUAT variant); everything lands in map 0 and every
    edge becomes a loop closure, since g2o carries no map or kind tags.
    Nodes referenced only by edges are created implicitly.
    """
    nodes: dict[int, Node] = {}
    edges: list[Edge] = []
    next_edge_id = 0
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        tokens = text.split()
        tag = tokens[0].upper()
        if tag.startswith("VERTEX_SE3") or tag.startswith("VERTEX_SO3"):
            try:
                node_id = int(tokens[1])
            except (IndexError, ValueError) as exc:
                raise GraphFormatError(f"line {lineno}: bad vertex record") from exc
            nodes.setdefault(node_id, Node(node_id, 0))
        elif tag.startswith("EDGE_SE3") or tag.startswith("EDGE_SO3"):
            if len(tokens) < 3:
                raise GraphFormatError(f"line {lineno}: bad edge record")
            try:
                src, dst = int(tokens[1]), int(tokens[2])
                values = [float(t) for t in tokens[3:]]
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: bad edge record") from exc
            if tag.startswith("EDGE_SE3"):
                if len(values) < 7:
                    raise GraphFormatError(
                        f"line {lineno}: EDGE_SE3:QUAT needs translation + quaternion"
                    )
                quat = values[3:7]
            else:
                if len(values) < 4:
                    raise GraphFormatError(
                        f"line {lineno}: EDGE_SO3:QUAT needs a quaternion"
                    )
                quat = values[0:4]
            rotation = _quat_to_rotation(quat, lineno)
            for endpoint in (src, dst):
                nodes.setdefault(endpoint, Node(endpoint, 0))
            edges.append(
                Edge(next_edge_id, src, dst, rotation, EdgeKind.LOOP_CLOSURE, 0.5)
            )
            next_edge_id += 1
        # other record types (parameters, priors, SE2, ...) are ignored
    ordered = tuple(nodes[k] for k in sorted(nodes))
    return PoseGraph(ordered, tuple(edges))


def _quat_to_rotation(quat: list[float], lineno: int) -> np.ndarray:
    if not all(map(math.isfinite, quat)):
        raise GraphFormatError(f"line {lineno}: quaternion entries must be finite")
    # math.hypot does not overflow where the squares would; halving every
    # entry first keeps the norm finite up to the largest float
    half = [0.5 * q for q in quat]
    norm = math.hypot(*half)
    if norm < 0.5e-12:
        raise GraphFormatError(f"line {lineno}: zero-norm quaternion")
    qx, qy, qz, qw = (q / norm for q in half)
    return np.array(
        [
            [1 - 2 * (qy * qy + qz * qz), 2 * (qx * qy - qz * qw), 2 * (qx * qz + qy * qw)],
            [2 * (qx * qy + qz * qw), 1 - 2 * (qx * qx + qz * qz), 2 * (qy * qz - qx * qw)],
            [2 * (qx * qz - qy * qw), 2 * (qy * qz + qx * qw), 1 - 2 * (qx * qx + qy * qy)],
        ]
    )

"""Synthetic multi-map pose graphs with planted loop-closure outliers.

Each map is a chain of poses with random ground-truth rotations. Ego edges
measure consecutive relative rotations (with inlier-band noise unless
disabled); loop-closure edges connect uniformly chosen cross-map node pairs,
a chosen number of which are perturbed with outlier-band noise instead of
inlier-band noise. Noise is a rotation about a uniformly random axis with
magnitude drawn uniformly from the band. Everything is deterministic in the
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import so3
from .graph import Edge, EdgeKind, Node, PoseGraph, TruthLabel

DEFAULT_INLIER_BAND = (math.radians(1.6), math.radians(2.4))
DEFAULT_OUTLIER_BAND = (math.radians(16.0), math.radians(24.0))

DEFAULT_M_VALUES = tuple(range(10, 201, 5))


@dataclass(frozen=True)
class SynthSpec:
    m_lc: int
    num_outliers: int
    nodes_per_map: int = 15
    num_maps: int = 2
    inlier_band: tuple[float, float] = DEFAULT_INLIER_BAND
    outlier_band: tuple[float, float] = DEFAULT_OUTLIER_BAND
    seed: int = 0
    noiseless_ego: bool = False
    lc_prior: float = 0.5

    def __post_init__(self) -> None:
        if self.nodes_per_map < 2 or self.num_maps < 2:
            raise ValueError("need at least two maps of at least two nodes")
        if not 1 <= self.num_outliers <= self.m_lc - 1:
            raise ValueError(
                f"num_outliers must be in [1, m_lc - 1], got {self.num_outliers} "
                f"of {self.m_lc}"
            )
        for name, band in (("inlier_band", self.inlier_band), ("outlier_band", self.outlier_band)):
            lo, hi = band
            if not 0.0 <= lo <= hi:
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi, got {band}")
        if self.m_lc > self._cross_pair_count():
            raise ValueError("m_lc exceeds the number of distinct cross-map pairs")

    def _cross_pair_count(self) -> int:
        total = self.num_maps * self.nodes_per_map
        same = self.num_maps * self.nodes_per_map**2
        return total * total - same


def _random_axis(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    axis = _random_axis(rng)
    angle = rng.uniform(0.0, math.pi)
    return so3.exp_so3(axis * angle)


def _band_noise(rng: np.random.Generator, band: tuple[float, float]) -> np.ndarray:
    axis = _random_axis(rng)
    angle = rng.uniform(band[0], band[1])
    return so3.exp_so3(axis * angle)


def generate(spec: SynthSpec) -> PoseGraph:
    """Build one labeled graph; identical bytes for identical specs."""
    rng = np.random.default_rng(spec.seed)
    total_nodes = spec.num_maps * spec.nodes_per_map

    nodes = []
    truth_rotations = []
    for map_id in range(spec.num_maps):
        for i in range(spec.nodes_per_map):
            nodes.append(Node(map_id * spec.nodes_per_map + i, map_id))
            truth_rotations.append(_random_rotation(rng))

    edges = []
    edge_id = 0
    for map_id in range(spec.num_maps):
        base = map_id * spec.nodes_per_map
        for i in range(spec.nodes_per_map - 1):
            u, v = base + i, base + i + 1
            relative = truth_rotations[v] @ truth_rotations[u].T
            if spec.noiseless_ego:
                measured = relative
            else:
                measured = _band_noise(rng, spec.inlier_band) @ relative
            edges.append(Edge(edge_id, u, v, measured, EdgeKind.EGO, 1.0))
            edge_id += 1

    map_of = {n.id: n.map_id for n in nodes}
    pairs: list[tuple[int, int]] = []
    used: set[tuple[int, int]] = set()
    while len(pairs) < spec.m_lc:
        u = int(rng.integers(total_nodes))
        v = int(rng.integers(total_nodes))
        if map_of[u] == map_of[v]:
            continue
        if (u, v) in used or (v, u) in used:
            continue
        used.add((u, v))
        pairs.append((u, v))

    outlier_slots = set(int(i) for i in rng.permutation(spec.m_lc)[: spec.num_outliers])
    for slot, (u, v) in enumerate(pairs):
        is_outlier = slot in outlier_slots
        band = spec.outlier_band if is_outlier else spec.inlier_band
        relative = truth_rotations[v] @ truth_rotations[u].T
        measured = _band_noise(rng, band) @ relative
        truth = TruthLabel.OUTLIER if is_outlier else TruthLabel.INLIER
        edges.append(
            Edge(edge_id, u, v, measured, EdgeKind.LOOP_CLOSURE, spec.lc_prior, truth)
        )
        edge_id += 1

    return PoseGraph(tuple(nodes), tuple(edges))


def outlier_counts(m: int, scale: float = 1.0) -> list[int]:
    """The outlier sweep 1 .. m-1, optionally strided down by `scale`."""
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    step = max(1, round(1.0 / scale))
    return list(range(1, m, step))


def child_seed(master: int, m: int, outliers: int) -> int:
    """Stable per-graph seed derived from the master seed and grid position."""
    return int(np.random.SeedSequence([master, m, outliers]).generate_state(1)[0])


def suite_specs(
    m_values: Sequence[int] = DEFAULT_M_VALUES,
    seed: int = 0,
    scale: float = 1.0,
    nodes_per_map: int = 15,
    noiseless_ego: bool = False,
) -> list[SynthSpec]:
    specs = []
    for m in m_values:
        for k in outlier_counts(m, scale):
            specs.append(
                SynthSpec(
                    m_lc=m,
                    num_outliers=k,
                    nodes_per_map=nodes_per_map,
                    seed=child_seed(seed, m, k),
                    noiseless_ego=noiseless_ego,
                )
            )
    return specs


def generate_suite(
    m_values: Sequence[int] = DEFAULT_M_VALUES,
    seed: int = 0,
    scale: float = 1.0,
    nodes_per_map: int = 15,
    noiseless_ego: bool = False,
) -> Iterator[tuple[SynthSpec, PoseGraph]]:
    """The full benchmark grid: for each m, sweep outlier counts 1 .. m-1."""
    for spec in suite_specs(m_values, seed, scale, nodes_per_map, noiseless_ego):
        yield spec, generate(spec)

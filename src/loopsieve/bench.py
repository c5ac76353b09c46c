"""End-to-end classification and the precision/recall benchmark harness.

`classify` runs the whole pipeline on one graph: minimum cycle basis,
factor graph, the chosen inference back-end, then a threshold on the
inlier probability. The outlier class is the positive class for the
confusion matrix. `run_benchmark` sweeps a suite of labeled graphs and
emits a deterministic CSV: rows are sorted, floats are fixed-format, and
timing is zeroed unless explicitly requested so that outputs are
byte-reproducible.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import em
from .cycles import minimum_cycle_basis
from .factorgraph import InferenceMethod, build_factor_graph
from .graph import PoseGraph, TruthLabel, loop_closure_edges
from .model import ModelParams

# The screening defaults, which the CLI reads too; noise scales in degrees
DEFAULT_SIGMA_DEG = 2.0
DEFAULT_SIGMA_BAR_DEG = 20.0
DEFAULT_SIGMA = math.radians(DEFAULT_SIGMA_DEG)
DEFAULT_SIGMA_BAR = math.radians(DEFAULT_SIGMA_BAR_DEG)
DEFAULT_THRESHOLD = 0.5
DEFAULT_METHOD = InferenceMethod.ADMM

CSV_HEADER = "graph_id,m,outliers,method,tp,fp,fn,tn,precision,recall,f1,converged,iters,ms"


@dataclass(frozen=True)
class EdgeCall:
    edge_id: int
    p_inlier: float
    predicted: TruthLabel
    truth: TruthLabel | None
    covered: bool


@dataclass(frozen=True)
class ClassificationResult:
    edges: tuple[EdgeCall, ...]
    tp: int
    fp: int
    fn: int
    tn: int
    method: InferenceMethod
    threshold: float
    converged: bool
    iterations: int
    runtime_ms: float

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp > 0 else float("nan")

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn > 0 else float("nan")

    @property
    def f1(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denom if denom > 0 else float("nan")


def result_from_marginals(
    g: PoseGraph,
    marginals: dict[int, float],
    covered: set[int],
    method: InferenceMethod,
    threshold: float,
    converged: bool,
    iterations: int,
    runtime_ms: float,
) -> ClassificationResult:
    """Threshold inlier probabilities and tally the confusion matrix
    over truth-labeled loop-closure edges."""
    calls = []
    tp = fp = fn = tn = 0
    for edge in loop_closure_edges(g):
        p = float(marginals[edge.id])
        predicted = TruthLabel.OUTLIER if p < threshold else TruthLabel.INLIER
        calls.append(EdgeCall(edge.id, p, predicted, edge.truth, edge.id in covered))
        if edge.truth is None:
            continue
        if edge.truth is TruthLabel.OUTLIER:
            if predicted is TruthLabel.OUTLIER:
                tp += 1
            else:
                fn += 1
        else:
            if predicted is TruthLabel.OUTLIER:
                fp += 1
            else:
                tn += 1
    return ClassificationResult(
        tuple(calls), tp, fp, fn, tn, method, threshold, converged, iterations, runtime_ms
    )


def classify(
    g: PoseGraph,
    params: ModelParams | None = None,
    method: InferenceMethod = DEFAULT_METHOD,
    threshold: float = DEFAULT_THRESHOLD,
) -> ClassificationResult:
    """Classify every loop-closure edge of one graph.

    Without explicit params, band-midpoint noise scales are combined with
    the per-edge priors stored in the graph. Edges outside every basis
    cycle fall back to their prior and are flagged uncovered.
    """
    start = time.perf_counter()
    if params is None:
        params = ModelParams.from_graph(g, DEFAULT_SIGMA, DEFAULT_SIGMA_BAR)
    basis = minimum_cycle_basis(g)
    fg = build_factor_graph(g, basis)
    outcome = em.e_step(fg, params, method)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return result_from_marginals(
        g,
        outcome.edge_marginals,
        set(fg.covered_variables),
        method,
        threshold,
        outcome.converged,
        outcome.iterations,
        runtime_ms,
    )


@dataclass(frozen=True)
class BenchRow:
    graph_id: str
    m: int
    outliers: int
    method: InferenceMethod
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    converged: bool
    iterations: int
    runtime_ms: float

    @property
    def outlier_ratio(self) -> float:
        return self.outliers / self.m if self.m else float("nan")


@dataclass(frozen=True)
class BenchFailure:
    graph_id: str
    method: InferenceMethod
    error: str


def run_benchmark(
    items: Sequence[tuple[str, PoseGraph]],
    methods: Sequence[InferenceMethod],
    params_for: Callable[[PoseGraph], ModelParams] | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    threads: int = 1,
) -> tuple[list[BenchRow], list[BenchFailure]]:
    """Classify every graph with every method.

    Failures are recorded and the run continues. Rows come back sorted by
    (m, outliers, graph_id, method) regardless of thread count.
    """

    def one(item: tuple[str, PoseGraph], method: InferenceMethod):
        graph_id, g = item
        lc = loop_closure_edges(g)
        m = len(lc)
        n_out = sum(1 for e in lc if e.truth is TruthLabel.OUTLIER)
        try:
            params = params_for(g) if params_for is not None else None
            result = classify(g, params, method, threshold)
        except Exception as exc:  # noqa: BLE001 - recorded, run continues
            return BenchFailure(graph_id, method, str(exc))
        return BenchRow(
            graph_id,
            m,
            n_out,
            method,
            result.tp,
            result.fp,
            result.fn,
            result.tn,
            result.precision,
            result.recall,
            result.f1,
            result.converged,
            result.iterations,
            result.runtime_ms,
        )

    tasks = [(item, method) for item in items for method in methods]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outputs = list(pool.map(lambda t: one(*t), tasks))
    else:
        outputs = [one(*t) for t in tasks]

    rows = [o for o in outputs if isinstance(o, BenchRow)]
    failures = [o for o in outputs if isinstance(o, BenchFailure)]
    rows.sort(key=lambda r: (r.m, r.outliers, r.graph_id, r.method.value))
    failures.sort(key=lambda f: (f.graph_id, f.method.value))
    return rows, failures


def _fmt(value: float) -> str:
    return "nan" if math.isnan(value) else f"{value:.6f}"


def rows_to_csv(rows: Iterable[BenchRow], include_timing: bool = False) -> str:
    """Fixed-schema CSV. Timing is reported as 0 unless requested, keeping
    the output byte-identical across runs."""
    lines = [CSV_HEADER]
    for r in rows:
        ms = f"{r.runtime_ms:.3f}" if include_timing else "0"
        lines.append(
            f"{r.graph_id},{r.m},{r.outliers},{r.method.value},"
            f"{r.tp},{r.fp},{r.fn},{r.tn},"
            f"{_fmt(r.precision)},{_fmt(r.recall)},{_fmt(r.f1)},"
            f"{'true' if r.converged else 'false'},{r.iterations},{ms}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AggregateRow:
    method: InferenceMethod
    ratio_lo: float
    ratio_hi: float
    count: int
    mean_precision: float
    mean_recall: float
    mean_f1: float


def aggregate_by_outlier_ratio(
    rows: Sequence[BenchRow], n_bins: int = 10
) -> list[AggregateRow]:
    """Mean scores per (method, outlier-ratio bin); the recall curve data.

    NaN precisions (no predicted outliers) are skipped in the precision
    mean; recall and f1 are always defined on labeled suites.
    """
    out = []
    methods = sorted({r.method for r in rows}, key=lambda m: m.value)
    for method in methods:
        for b in range(n_bins):
            lo, hi = b / n_bins, (b + 1) / n_bins
            bucket = [
                r
                for r in rows
                if r.method is method
                and (lo <= r.outlier_ratio < hi or (b == n_bins - 1 and r.outlier_ratio == hi))
            ]
            if not bucket:
                continue
            precisions = [r.precision for r in bucket if not math.isnan(r.precision)]
            out.append(
                AggregateRow(
                    method,
                    lo,
                    hi,
                    len(bucket),
                    sum(precisions) / len(precisions) if precisions else float("nan"),
                    sum(r.recall for r in bucket) / len(bucket),
                    sum(r.f1 for r in bucket) / len(bucket),
                )
            )
    return out


def aggregates_to_csv(rows: Sequence[AggregateRow]) -> str:
    lines = ["method,ratio_lo,ratio_hi,count,mean_precision,mean_recall,mean_f1"]
    for r in rows:
        lines.append(
            f"{r.method.value},{r.ratio_lo:.2f},{r.ratio_hi:.2f},{r.count},"
            f"{_fmt(r.mean_precision)},{_fmt(r.mean_recall)},{_fmt(r.mean_f1)}"
        )
    return "\n".join(lines) + "\n"

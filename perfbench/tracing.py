"""In-memory spans around loopsieve's public calls, and the screening chain.

`screen_chain` re-runs one screening as the chain of public calls that
`loopsieve.bench.classify` makes, and `em_fit` runs one EM fit; both take a
tracer, which is a `NullTracer` when tracing is off. `patched_em` wraps the
`loopsieve.em` functions that `run_em` calls so their spans nest under the
fit, and restores them on exit. Spans stay in memory until `Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import threading
import time
from collections import defaultdict

SIGMA_MID_DEG = 2.0
SIGMA_BAR_MID_DEG = 20.0
EM_SIGMA0_DEG = 4.0
EM_SIGMA_BAR0_DEG = 30.0
EM_ROUNDS = 10
THRESHOLD = 0.5

INFER_SPAN = {"bp": "infer_bp.run", "admm": "infer_admm.run", "exact": "factorgraph.exact"}


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    @contextlib.contextmanager
    def span(self, name, screening=None):
        yield {}


class Tracer:
    """Spans as dicts: name, start, end, parent, screening id, thread, counts."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name, screening=None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if screening is None and parent is not None:
            screening = parent["screening"]
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": parent["id"] if parent else None,
            "screening": screening,
            "thread": threading.get_ident(),
            "counts": {},
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def totals(self):
        """Per span name: summed duration and summed counts."""
        seconds = defaultdict(float)
        counts = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            seconds[s["name"]] += s["end"] - s["start"]
            for key, value in s["counts"].items():
                counts[s["name"]][key] += value
        return seconds, counts

    def self_seconds(self):
        """Per span name: duration minus the time its direct children cover."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
        return dict(out)

    def dump(self, path, extra):
        payload = dict(extra)
        payload["spans"] = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1))


def block_sizes(fg):
    """Variable counts of the factor graph's connected blocks (union-find)."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for factor in fg.factors:
        members = factor.lc_members
        for other in members[1:]:
            parent[find(other)] = find(members[0])
        find(members[0])
    sizes = defaultdict(int)
    for eid in parent:
        sizes[find(eid)] += 1
    return list(sizes.values())


def _record_structure(counts_mcb, counts_build, basis, fg):
    counts_mcb["cycles"] = len(basis.cycles)
    counts_mcb["basis_edges"] = sum(c.length for c in basis.cycles)
    blocks = block_sizes(fg)
    counts_build["incidences"] = sum(len(f.lc_members) for f in fg.factors)
    counts_build["k_max"] = max((len(f.lc_members) for f in fg.factors), default=0)
    counts_build["block_max"] = max(blocks, default=0)
    counts_build["exact_states"] = sum(2**b for b in blocks)


def screen_chain(mods, tracer, sid, g, params, method):
    """One screening as classify runs it: MCB, factor graph, inference,
    threshold. Returns the ClassificationResult."""
    lib, bench = mods["loopsieve"], mods["loopsieve.bench"]
    infer = {
        "bp": lib.run_bp,
        "admm": lib.run_admm,
        "exact": lib.exact_marginals,
    }[method.value]
    start = time.perf_counter()
    with tracer.span("screening", sid):
        with tracer.span("cycles.mcb") as c_mcb:
            basis = lib.minimum_cycle_basis(g)
        with tracer.span("factorgraph.build") as c_build:
            fg = lib.build_factor_graph(g, basis)
        with tracer.span(INFER_SPAN[method.value]) as c_inf:
            outcome = infer(fg, params)
        runtime_ms = (time.perf_counter() - start) * 1000.0
        with tracer.span("bench.threshold"):
            result = bench.result_from_marginals(
                g, outcome.edge_marginals, set(fg.covered_variables), method,
                THRESHOLD, outcome.converged, outcome.iterations, runtime_ms,
            )
    if isinstance(tracer, Tracer):
        _record_structure(c_mcb, c_build, basis, fg)
        c_inf["runs"] = 1
        c_inf["iters"] = outcome.iterations
        c_inf["converged"] = int(outcome.converged)
        c_inf["incidences"] = c_build["incidences"]
        c_inf["exact_states"] = c_build["exact_states"]
    return result


def em_fit(mods, tracer, sid, g):
    """One EM fit from sigma 4 deg, sigma_bar 30 deg with the ADMM E-step,
    thresholded by result_from_marginals. Returns the ClassificationResult."""
    lib, bench = mods["loopsieve"], mods["loopsieve.bench"]
    cfg = lib.EmConfig(max_rounds=EM_ROUNDS, inference=lib.InferenceMethod.ADMM)
    start = time.perf_counter()
    with tracer.span("screening", sid):
        with tracer.span("cycles.mcb") as c_mcb:
            basis = lib.minimum_cycle_basis(g)
        with tracer.span("factorgraph.build") as c_build:
            fg = lib.build_factor_graph(g, basis)
        init = lib.ModelParams.from_graph(
            g, math.radians(EM_SIGMA0_DEG), math.radians(EM_SIGMA_BAR0_DEG)
        )
        with tracer.span("em.run") as c_em:
            _, trace, final = lib.run_em(fg, init, cfg)
        runtime_ms = (time.perf_counter() - start) * 1000.0
        with tracer.span("bench.threshold"):
            result = bench.result_from_marginals(
                g, final.edge_marginals, set(fg.covered_variables),
                lib.InferenceMethod.ADMM, THRESHOLD, final.converged,
                final.iterations, runtime_ms,
            )
    if isinstance(tracer, Tracer):
        rounds = len(trace.rounds)
        _record_structure(c_mcb, c_build, basis, fg)
        pairs = sum(
            1 for s in cfg.sigma_grid for sb in cfg.sigma_bar_grid if sb > s
        )
        c_em["rounds"] = rounds
        c_em["grid_evals"] = rounds * pairs * sum(
            len(f.lc_members) + 1 for f in fg.factors
        )
    return result


@contextlib.contextmanager
def patched_em(mods, tracer):
    """Wrap loopsieve.em's e_step, m_step_sigmas, q_value and run_admm with
    spans; restore the originals on exit."""
    em = mods["loopsieve.em"]
    names = {
        "e_step": "em.e_step",
        "m_step_sigmas": "em.m_step",
        "q_value": "em.q",
        "run_admm": "infer_admm.run",
    }
    originals = {name: getattr(em, name) for name in names}

    def wrap(name, fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            with tracer.span(names[name]) as counts:
                out = fn(*args, **kwargs)
            if name == "run_admm":
                counts["runs"] = 1
                counts["iters"] = out.iterations
                counts["converged"] = int(out.converged)
            return out

        return inner

    try:
        for name, fn in originals.items():
            setattr(em, name, wrap(name, fn))
        yield
    finally:
        for name, fn in originals.items():
            setattr(em, name, fn)


def layer_metrics(tracer, threads, cpu_s, wall_s, overhead_frac, parse_s, graph_bytes):
    """The per-layer metrics of one traced pass; absent layers read 0."""
    seconds, counts = tracer.totals()

    def converged(name):
        runs = counts[name]["runs"]
        return counts[name]["converged"] / runs if runs else 0.0

    bp = counts["infer_bp.run"]
    return {
        "graph.parse_s": (parse_s, "s"),
        "graph.bytes": (graph_bytes, "B"),
        "cycles.mcb_s": (seconds["cycles.mcb"], "s"),
        "cycles.count": (counts["cycles.mcb"]["cycles"], "count"),
        "cycles.basis_edges": (counts["cycles.mcb"]["basis_edges"], "count"),
        "factorgraph.build_s": (seconds["factorgraph.build"], "s"),
        "factorgraph.incidences": (counts["factorgraph.build"]["incidences"], "count"),
        "factorgraph.k_max": (max_count(tracer, "factorgraph.build", "k_max"), "count"),
        "factorgraph.block_max": (max_count(tracer, "factorgraph.build", "block_max"), "count"),
        "factorgraph.exact_s": (seconds["factorgraph.exact"], "s"),
        "factorgraph.exact_states": (counts["factorgraph.exact"]["exact_states"], "count"),
        "infer_bp.run_s": (seconds["infer_bp.run"], "s"),
        "infer_bp.iters": (bp["iters"], "count"),
        "infer_bp.messages": (messages(tracer), "count"),
        "infer_bp.converged": (converged("infer_bp.run"), "ratio"),
        "infer_admm.run_s": (seconds["infer_admm.run"], "s"),
        "infer_admm.iters": (counts["infer_admm.run"]["iters"], "count"),
        "infer_admm.converged": (converged("infer_admm.run"), "ratio"),
        "em.run_s": (seconds["em.run"], "s"),
        "em.rounds": (counts["em.run"]["rounds"], "count"),
        "em.e_step_s": (seconds["em.e_step"], "s"),
        "em.m_step_s": (seconds["em.m_step"], "s"),
        "em.q_s": (seconds["em.q"], "s"),
        "em.grid_evals": (counts["em.run"]["grid_evals"], "count"),
        "bench.threshold_s": (seconds["bench.threshold"], "s"),
        "bench.cpu_util": (cpu_s / (wall_s * threads), "ratio"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }


def max_count(tracer, name, key):
    return max((s["counts"].get(key, 0) for s in tracer.spans if s["name"] == name), default=0)


def messages(tracer):
    """Sum over BP runs of iterations x 2 x incidences."""
    return sum(
        s["counts"]["iters"] * 2 * s["counts"]["incidences"]
        for s in tracer.spans
        if s["name"] == "infer_bp.run"
    )

"""loopsieve benchmark: screen synthetic multi-map pose graphs end to end.

Run from the repository root:

    python3 perfbench/run.py --workload desk-suite --seed 1 --seconds 50 --trace 0

The benchmark generates its graphs from --seed with `loopsieve.synth`,
writes them as pgraph files under .bench_out/, and times the program on the
parsed files only. One client drives the program in a closed loop. The
timed phase repeats whole passes over the workload's graphs for about
--seconds (at least three passes), so every run covers the same mix of
graphs, and keeps each timed call's slowest pass. It then checks the
outputs, prints a report, times the set-up again and ends with one JSON
line. --trace 1 instead runs each screening once untraced and once as its
traced chain of calls, and reports per-layer metrics; spans go to
.bench_out/trace-<workload>-<seed>.json. See README.md here for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("desk-suite", "desk-par", "wide-maps", "em-fit")
SIZES = {
    "full": {
        "desk_m": tuple(range(10, 51, 5)),
        "desk_scale": 1 / 20,
        "wide_m": (400, 600, 800),
        "wide_nodes": 50,
        "em_m": 100,
        "em_outliers": (10, 20, 30, 40),
        "em_repeats": 1,
    },
    "tiny": {
        "desk_m": (10, 15),
        "desk_scale": 0.2,
        "wide_m": (40, 60),
        "wide_nodes": 20,
        "em_m": 30,
        "em_outliers": (3, 6),
        "em_repeats": 1,
    },
}
EXACT_MAX_M = 20
WIDE_OUTLIER_FRACTION = 0.2
SETUP_REPEATS = 4  # per group: before the timed phase, after its first two passes, after it
MIN_PASSES = 3
P90_MIN_SAMPLES = 100

LIB_MODULES = ("loopsieve", "loopsieve.bench", "loopsieve.em", "loopsieve.synth")


class BenchError(RuntimeError):
    """The benchmark cannot run here: no program to measure."""


# --- the program under test --------------------------------------------------

def import_loopsieve():
    """Import loopsieve from this checkout's src/, never from elsewhere."""
    if not (SRC / "loopsieve" / "__init__.py").is_file():
        raise BenchError(f"no loopsieve package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "loopsieve" or n.startswith("loopsieve.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(name) for name in LIB_MODULES}
    if not Path(mods["loopsieve"].__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"loopsieve imported from {mods['loopsieve'].__file__}, not {SRC}")
    return mods


def graph_specs(synth, workload, seed, size):
    """(graph id, SynthSpec) for every graph of one pass."""
    z = SIZES[size]
    out = []
    if workload in ("desk-suite", "desk-par"):
        for spec in synth.suite_specs(z["desk_m"], seed=seed, scale=z["desk_scale"]):
            out.append((f"m{spec.m_lc:03d}_o{spec.num_outliers:03d}", spec))
    elif workload == "wide-maps":
        for m in z["wide_m"]:
            k = round(m * WIDE_OUTLIER_FRACTION)
            spec = synth.SynthSpec(
                m_lc=m, num_outliers=k, nodes_per_map=z["wide_nodes"],
                seed=synth.child_seed(seed, m, k),
            )
            out.append((f"m{m:03d}_o{k:03d}", spec))
    else:
        m = z["em_m"]
        for k in z["em_outliers"]:
            for r in range(z["em_repeats"]):
                graph_seed = int(np.random.SeedSequence([seed, m, k, r]).generate_state(1)[0])
                spec = synth.SynthSpec(m_lc=m, num_outliers=k, seed=graph_seed)
                out.append((f"m{m:03d}_o{k:03d}_r{r}", spec))
    return out


def write_inputs(mods, workload, seed, size):
    """Generate the pass's graphs and write them as pgraph files."""
    synth = mods["loopsieve.synth"]
    directory = OUT / "inputs" / f"{workload}-{size}-{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    inputs = []
    for gid, spec in graph_specs(synth, workload, seed, size):
        path = directory / f"{gid}.pgraph"
        with open(path, "w") as fh:
            mods["loopsieve"].write_graph(synth.generate(spec), fh)
        inputs.append((gid, spec, path))
    return inputs


def setup_once(inputs, tracer):
    """Fresh import of loopsieve, then parse every graph file.

    numpy stays imported: it is a dependency, not the program.
    Returns (total seconds, parse seconds, modules, parsed graphs).
    """
    start = time.perf_counter()
    mods = import_loopsieve()
    parse_start = time.perf_counter()
    graphs = []
    for gid, _, path in inputs:
        with tracer.span("graph.parse", gid), open(path) as fh:
            graphs.append((gid, mods["loopsieve"].parse_graph(fh)))
    end = time.perf_counter()
    return end - start, end - parse_start, mods, graphs


# --- one pass over the workload ----------------------------------------------

class Workload:
    """A workload's methods, thread count and untraced pass."""

    def __init__(self, name, mods, graphs, threads):
        self.name = name
        self.mods = mods
        self.graphs = graphs
        self.threads = threads
        lib = mods["loopsieve"]
        self.method = lib.InferenceMethod
        if name in ("desk-suite", "desk-par"):
            self.methods = ("bp", "admm", "exact")
        elif name == "wide-maps":
            self.methods = ("admm",)
        else:
            self.methods = ("em",)
        self.lc = {gid: lib.loop_closure_edges(g) for gid, g in graphs}

    def params_for(self, g):
        return self.mods["loopsieve"].ModelParams.from_graph(
            g, math.radians(tracing.SIGMA_MID_DEG), math.radians(tracing.SIGMA_BAR_MID_DEG)
        )

    def tasks(self):
        """(graph id, graph, method) for each screening of a pass."""
        out = []
        for gid, g in self.graphs:
            for method in self.methods:
                if method == "exact" and len(self.lc[gid]) > EXACT_MAX_M:
                    continue
                out.append((gid, g, method))
        return out

    def units(self, results):
        """The timed calls of one pass, in order, as (key, call) pairs; each
        call returns (rows, failures).

        The serial workloads make one call per screening, so that every
        screening is timed on its own. desk-par makes one run_benchmark call
        per loop-closure count m, with all graphs of that m, on the pool.
        EM fits store their ClassificationResult in `results` unless it is
        None.
        """
        bench = self.mods["loopsieve.bench"]
        if self.name == "em-fit":
            return [((gid, "em"), functools.partial(self._em_call, gid, g, results))
                    for gid, g in self.graphs]
        if self.name == "desk-par":
            by_m = defaultdict(list)
            for gid, g in self.graphs:
                by_m[len(self.lc[gid])].append((gid, g))
            out = []
            for m, items in sorted(by_m.items()):
                methods = [x for x in self.methods if x != "exact" or m <= EXACT_MAX_M]
                out.append(((f"m{m:03d}", "+".join(methods)), functools.partial(
                    bench.run_benchmark, items, [self.method(x) for x in methods],
                    self.params_for, threads=self.threads,
                )))
            return out
        return [((gid, method), functools.partial(
            bench.run_benchmark, [(gid, g)], [self.method(method)], self.params_for, threads=1,
        )) for gid, g, method in self.tasks()]

    def _em_call(self, gid, g, results):
        try:
            result = tracing.em_fit(self.mods, tracing.NullTracer(), gid, g)
        except Exception as exc:  # noqa: BLE001 - counted as a failed screening
            failure = self.mods["loopsieve.bench"].BenchFailure(gid, self.method.ADMM, repr(exc))
            return [], [failure]
        if results is not None:
            results[(gid, "em")] = result
        return [self.row(gid, result)], []

    def row(self, gid, result):
        lc = self.lc[gid]
        return self.mods["loopsieve.bench"].BenchRow(
            gid, len(lc), self.outliers(gid), result.method, result.tp, result.fp, result.fn,
            result.tn, result.precision, result.recall, result.f1, result.converged,
            result.iterations, result.runtime_ms,
        )

    def outliers(self, gid):
        outlier = self.mods["loopsieve"].TruthLabel.OUTLIER
        return sum(1 for e in self.lc[gid] if e.truth is outlier)

    def untraced(self, gid, g, method):
        """One screening through its public entry point, tracing off."""
        if method == "em":
            return tracing.em_fit(self.mods, tracing.NullTracer(), gid, g)
        return self.mods["loopsieve"].classify(g, self.params_for(g), self.method(method))

    def chain(self, tracer, gid, g, method):
        """The same screening as its chain of public calls, with spans."""
        if method == "em":
            with tracing.patched_em(self.mods, tracer):
                return tracing.em_fit(self.mods, tracer, gid, g)
        return tracing.screen_chain(
            self.mods, tracer, gid, g, self.params_for(g), self.method(method)
        )

    def warm_up(self):
        """Untimed: first calls into each back-end on one small graph."""
        lib = self.mods["loopsieve"]
        synth = self.mods["loopsieve.synth"]
        g = synth.generate(synth.SynthSpec(m_lc=10, num_outliers=2, seed=0))
        for method in ("bp", "admm", "exact"):
            lib.classify(g, self.params_for(g), self.method(method))
        tracing.em_fit(self.mods, tracing.NullTracer(), "warm-up", g)


@contextlib.contextmanager
def capture_classify(bench, graphs, results):
    """Keep each ClassificationResult that run_benchmark's classify returns.

    Costs one dictionary store per screening. If the program stops calling
    loopsieve.bench.classify in this process, nothing is captured and the
    checks recompute the missing results untimed. With `results` None,
    nothing is wrapped.
    """
    if results is None:
        yield
        return
    original = bench.classify
    gid_of = {id(g): gid for gid, g in graphs}

    def capturing(g, *args, **kwargs):
        result = original(g, *args, **kwargs)
        results[(gid_of[id(g)], result.method.value)] = result
        return result

    bench.classify = capturing
    try:
        yield
    finally:
        bench.classify = original


# --- checks and metrics --------------------------------------------------------

def check_outputs(wl, specs, rows, failures, results):
    """Problems found in one pass's outputs; empty when all hold."""
    problems = []
    if len(rows) + len(failures) != len(wl.tasks()):
        problems.append(f"{len(rows)} rows and {len(failures)} failures for "
                        f"{len(wl.tasks())} screenings")
    for gid, spec in specs.items():
        found = (len(wl.lc[gid]), wl.outliers(gid))
        if found != (spec.m_lc, spec.num_outliers):
            problems.append(f"{gid}: parsed graph has {found[0]} closures, {found[1]} outliers")
    for r in rows:
        labeled = sum(1 for e in wl.lc[r.graph_id] if e.truth is not None)
        if r.tp + r.fp + r.fn + r.tn != labeled:
            problems.append(f"{r.graph_id}/{r.method.value}: confusion sums to "
                            f"{r.tp + r.fp + r.fn + r.tn}, {labeled} labeled edges")
    for (gid, method), res in results.items():
        ids = [e.id for e in wl.lc[gid]]
        if [c.edge_id for c in res.edges] != ids:
            problems.append(f"{gid}/{method}: result does not cover every loop closure")
        bad = [c.edge_id for c in res.edges if not 0.0 <= c.p_inlier <= 1.0]
        if bad:
            problems.append(f"{gid}/{method}: probabilities outside [0, 1] on edges {bad[:5]}")
    for r in rows:
        key = (r.graph_id, "em" if wl.name == "em-fit" else r.method.value)
        res = results.get(key)
        if res is not None and (res.tp, res.fp, res.fn, res.tn) != (r.tp, r.fp, r.fn, r.tn):
            problems.append(f"{key}: bench row and classification disagree")
    return problems


def paired_pass(wl, tracer, tasks):
    """Run each screening untraced through its public entry point, then
    traced as its chain of calls. Returns per task (untraced result, traced
    result, untraced s, traced s), and the pass's wall and CPU seconds.

    Per-task seconds are the calling thread's CPU time, which leaves out
    waiting for the interpreter lock when the pass runs on several threads.
    Every other task runs traced first, so first-call costs fall on both.
    """

    def timed(fn, *args):
        start = time.thread_time()
        return fn(*args), time.thread_time() - start

    def pair(indexed):
        i, (gid, g, method) = indexed
        if i % 2:
            traced, traced_s = timed(wl.chain, tracer, gid, g, method)
            plain, plain_s = timed(wl.untraced, gid, g, method)
        else:
            plain, plain_s = timed(wl.untraced, gid, g, method)
            traced, traced_s = timed(wl.chain, tracer, gid, g, method)
        return plain, traced, plain_s, traced_s

    cpu0 = cpu_seconds()
    start = time.perf_counter()
    if wl.threads > 1:
        with ThreadPoolExecutor(max_workers=wl.threads) as pool:
            out = list(pool.map(pair, enumerate(tasks)))
    else:
        out = [pair(t) for t in enumerate(tasks)]
    return out, time.perf_counter() - start, cpu_seconds() - cpu0


def fill_missing(wl, tasks, failures, results):
    """Recompute, untimed, results that capture_classify did not see."""
    lib = wl.mods["loopsieve"]
    failed = {(f.graph_id, f.method.value) for f in failures}
    for gid, g, method in tasks:
        if (gid, method) not in results and (gid, method) not in failed:
            results[(gid, method)] = lib.classify(g, wl.params_for(g), wl.method(method))


def quality(wl, rows, failures, results):
    """Seed-determined metrics of one pass: f1, exact gap, errors, convergence."""
    out = {}
    for method in wl.methods:
        f1s = [r.f1 for r in rows if wl.name == "em-fit" or r.method.value == method]
        out[f"f1.{method}"] = (statistics.fmean(f1s) if f1s else None, "ratio")
    for method in ("bp", "admm"):
        gaps = []
        for (gid, m), exact in results.items():
            other = results.get((gid, method)) if m == "exact" else None
            if other is None:
                continue
            p = {c.edge_id: c.p_inlier for c in other.edges}
            gaps += [abs(p[c.edge_id] - c.p_inlier) for c in exact.edges if c.covered]
        out[f"exact_gap.{method}"] = (statistics.fmean(gaps) if gaps else None, "probability")
        out[f"exact_gap.{method}.edges"] = (len(gaps), "count")
    attempted = len(rows) + len(failures)
    out["error_rate"] = (len(failures) / attempted, "ratio")
    inference = [r for r in rows if r.method.value != "exact"]
    out["converged_frac"] = (
        sum(r.converged for r in inference) / len(inference) if inference else None, "ratio"
    )
    return out


def csv_digest(bench, rows):
    """SHA-256 of the timing-free CSV of one pass, rows in run_benchmark order."""
    ordered = sorted(rows, key=lambda r: (r.m, r.outliers, r.graph_id, r.method.value))
    return hashlib.sha256(bench.rows_to_csv(ordered).encode()).hexdigest()


def cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def provenance(args, threads):
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "threads": threads,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# --- entry point ---------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="tiny runs the smoke-test sizes")
    return parser.parse_args(argv)


def emit(name, value, unit, note=""):
    shown = "n/a" if value is None else repr(value)
    print(f"metric {name} {shown} {unit}{'  # ' + note if note else ''}")


def main(argv=None):
    args = parse_args(argv)
    try:
        first = import_loopsieve()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0)) if args.workload == "desk-par" else 1
    prov = provenance(args, threads)
    print(f"loopsieve benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, size {args.size}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    inputs = write_inputs(first, args.workload, args.seed, args.size)
    specs = {gid: spec for gid, spec, _ in inputs}
    graph_bytes = sum(path.stat().st_size for _, _, path in inputs)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    before, mods, graphs = setups(inputs, SETUP_REPEATS, tracer)
    wl = Workload(args.workload, mods, graphs, threads)
    wl.warm_up()
    if args.trace:
        return traced_run(args, wl, tracer, specs, prov, min(p for _, p in before), graph_bytes)

    setup_times = [t for t, _ in before]

    def between_passes():
        times, _, _ = setups(inputs, SETUP_REPEATS, tracing.NullTracer(), keep_modules=True)
        setup_times.extend(t for t, _ in times)

    metrics, problems, attempted, failed = timed_run(args, wl, specs, between_passes)
    # The timed phase's state is dropped before the last group of set-ups.
    del wl, mods, graphs
    after, _, _ = setups(inputs, SETUP_REPEATS, tracing.NullTracer())
    setup_times.extend(t for t, _ in after)
    # Four groups spread over the run, so that one spell of the machine
    # does not cover them all (README.md, Limits).
    print("setup repeats (s): " + " ".join(f"{t:.4f}" for t in setup_times))
    metrics = {"setup_s": (percentile(setup_times, 90), "s"), **metrics}
    emit("setup_s", *metrics["setup_s"], f"90th percentile of {len(setup_times)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


def setups(inputs, n, tracer, keep_modules=False):
    """n set-ups in a row, each as in a fresh process: the garbage collector
    sees no object that was alive before it, and the earlier set-up is
    gone. The last one is traced with `tracer`. With keep_modules, the
    loopsieve modules in sys.modules are put back afterwards, so that a
    workload still running keeps importing its own.

    Returns [(total s, parse s)] and the last set-up's modules and graphs.
    """
    kept = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "loopsieve"}
    times = []
    mods = graphs = None
    for i in range(n):
        mods = graphs = None
        gc.collect()
        gc.freeze()
        try:
            total, parse, mods, graphs = setup_once(
                inputs, tracer if i == n - 1 else tracing.NullTracer()
            )
        finally:
            gc.unfreeze()
        times.append((total, parse))
    if keep_modules:
        for name in [k for k in sys.modules if k.split(".")[0] == "loopsieve"]:
            del sys.modules[name]
        sys.modules.update(kept)
    return times, mods, graphs


def timed_run(args, wl, specs, between_passes):
    """The timed passes, their checks and their report lines.

    The run makes whole passes, at least MIN_PASSES, and starts another
    only if it would end within --seconds at the last pass's pace. Each
    timed call keeps its slowest pass, and the throughput and latencies
    come from those: on a host whose speed changes in spells, that was the
    steadiest figure from run to run (README.md, Limits). `between_passes`
    runs, untimed, after each of the first MIN_PASSES - 1 passes.

    Returns the bounded metrics other than setup_s, the problems found, and
    the attempted and failed screening counts.
    """
    bench = wl.mods["loopsieve.bench"]
    tasks = wl.tasks()
    results = {}
    unit_s = defaultdict(list)  # timed call -> wall seconds in each pass
    latency_ms = defaultdict(list)  # (graph id, method) -> ms in each pass
    passes = []
    start = pass_start = time.perf_counter()
    while True:
        captured = results if not passes else None
        rows, failures = [], []
        with capture_classify(bench, wl.graphs, captured):
            for key, call in wl.units(captured):
                call_start = time.perf_counter()
                r, f = call()
                unit_s[key].append(time.perf_counter() - call_start)
                rows += r
                failures += f
                for row in r:
                    ms = row.runtime_ms if wl.threads > 1 else unit_s[key][-1] * 1000.0
                    latency_ms[(row.graph_id, row.method.value)].append(ms)
        passes.append((rows, failures))
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now + (now - pass_start) > start + args.seconds:
            break
        if len(passes) < MIN_PASSES:
            between_passes()
        pass_start = time.perf_counter()
    wall = time.perf_counter() - start
    calls_path = OUT / f"calls-{args.workload}-{args.seed}.json"
    calls_path.write_text(json.dumps({"/".join(k): v for k, v in unit_s.items()}, indent=1))
    pass_s = sum(max(times) for times in unit_s.values())
    screen_ms = [max(times) for times in latency_ms.values()]
    attempted = sum(len(r) + len(f) for r, f in passes)
    failed = sum(len(f) for _, f in passes)
    metrics = {
        "screens_per_s": (len(passes[0][0]) / pass_s, "1/s"),
        "latency_p50_ms": (statistics.median(screen_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }

    rows, failures = passes[0]
    fill_missing(wl, [t for t in tasks if t[2] != "em"], failures, results)
    problems = check_outputs(wl, specs, rows, failures, results)

    print(f"samples {len(passes)} passes of {len(tasks)} screenings ({len(wl.graphs)} graphs) "
          f"in {len(unit_s)} timed calls, {wall:.3f} s timed, {pass_s:.3f} s per slowest pass, "
          f"threads {wl.threads}")
    for name, (value, unit) in metrics.items():
        emit(name, value, unit)
    p90 = percentile(screen_ms, 90) if len(screen_ms) >= P90_MIN_SAMPLES else None
    emit("latency_p90_ms", p90, "ms",
         "" if p90 is not None else f"needs {P90_MIN_SAMPLES} screenings, have {len(screen_ms)}")
    quality_metrics = quality(wl, rows, failures, results)
    for method in ("bp", "admm", "exact", "em"):
        quality_metrics.setdefault(f"f1.{method}", (None, "ratio"))
    for name, (value, unit) in sorted(quality_metrics.items()):
        emit(name, value, unit)
    print(f"csv_sha256 {csv_digest(bench, rows)}")
    for problem in problems:
        print(f"check FAILED {problem}")
    print(f"checks {'passed' if not problems else 'FAILED'}: {len(results)} results, "
          f"{len(rows)} rows")
    return metrics, problems, attempted, failed


def traced_run(args, wl, tracer, specs, prov, parse_s, graph_bytes):
    """Each screening untraced, then traced; per-layer metrics and the
    check that both give the same inlier probabilities."""
    tasks = wl.tasks()
    out, wall, cpu = paired_pass(wl, tracer, tasks)
    results = {(gid, method): o[0] for (gid, _, method), o in zip(tasks, out)}
    rows = [wl.row(gid, res) for (gid, _), res in results.items()]
    problems = check_outputs(wl, specs, rows, [], results)
    for (gid, _, method), (plain, traced, _, _) in zip(tasks, out):
        if [(c.edge_id, c.p_inlier) for c in traced.edges] != [
            (c.edge_id, c.p_inlier) for c in plain.edges
        ]:
            problems.append(f"{gid}/{method}: chain marginals differ from the untraced call")
    untraced_s = sum(o[2] for o in out)
    traced_s = sum(o[3] for o in out)

    layers = tracing.layer_metrics(
        tracer, wl.threads, cpu, wall, traced_s / untraced_s - 1.0, parse_s, graph_bytes
    )
    print(f"samples {len(tasks)} screenings, each untraced and traced, in {wall:.3f} s; "
          f"thread CPU untraced {untraced_s:.3f} s, traced {traced_s:.3f} s; threads {wl.threads}")
    for name, (value, unit) in layers.items():
        emit(name, value, unit)
    seconds, _ = tracer.totals()
    total = seconds["screening"]
    for name in ("cycles.mcb", "factorgraph.build", "infer_bp.run", "infer_admm.run",
                 "factorgraph.exact", "em.run", "em.e_step", "em.m_step", "em.q",
                 "bench.threshold"):
        print(f"share {name} {100.0 * seconds[name] / total:.1f}% of screening wall")
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    tracer.dump(path, {
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "self_seconds": tracer.self_seconds(),
    })
    print(f"trace written to {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    for problem in problems:
        print(f"check FAILED {problem}")
    print(f"checks {'passed' if not problems else 'FAILED'}: {len(tasks)} screenings paired")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(tasks),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

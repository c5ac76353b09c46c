"""Command-line interface.

Subcommands: mcb, infer, classify, em, synth (with a `suite` subcommand),
and bench. Noise scales on the command line are in degrees; everything
internal is radians. Defaults are `bench`'s screening defaults and, for
`em --method`, `EmConfig`'s. `infer` runs its back-end through `em.e_step`.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from pathlib import Path

import click
from click.core import ParameterSource

from . import bench as bench_mod
from . import em as em_mod
from . import synth as synth_mod
from .cycles import CycleError, cycle_errors, minimum_cycle_basis
from .em import EmConfig, InferenceMethod, run_em
from .factorgraph import build_factor_graph
from .graph import (
    GraphFormatError,
    GraphValidationError,
    PoseGraph,
    parse_g2o,
    parse_graph,
    write_graph,
)
from .model import ModelParams


def _friendly_errors(fn):
    """Turn domain errors into one-line CLI failures instead of tracebacks."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (GraphFormatError, GraphValidationError, CycleError, ValueError) as exc:
            raise click.ClickException(str(exc)) from exc

    return wrapper


def _load_graph(path: str) -> PoseGraph:
    text = Path(path).read_text().splitlines()
    if path.endswith(".g2o"):
        return parse_g2o(text)
    return parse_graph(text)


def _params_from(g: PoseGraph, sigma_deg: float, sigma_bar_deg: float) -> ModelParams:
    return ModelParams.from_graph(
        g, math.radians(sigma_deg), math.radians(sigma_bar_deg)
    )


def _method_option(default: InferenceMethod):
    return click.option("--method", type=click.Choice([m.value for m in InferenceMethod]),
                        default=default.value, show_default=True)


def _params_option(help: str = "sigma and sigma_bar in degrees."):
    return click.option("--params", "params_deg", nargs=2, type=float, show_default=True,
                        default=(bench_mod.DEFAULT_SIGMA_DEG, bench_mod.DEFAULT_SIGMA_BAR_DEG),
                        help=help)


_threshold_option = click.option(
    "--threshold", type=float, default=bench_mod.DEFAULT_THRESHOLD, show_default=True
)


@click.group()
def main() -> None:
    """Loop-closure outlier screening via rotation cycle consistency."""


@main.command()
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@_friendly_errors
def mcb(graph_file: str) -> None:
    """Print the minimum cycle basis: one `CYCLE <len> <z> <edge ids...>` line each."""
    g = _load_graph(graph_file)
    basis = minimum_cycle_basis(g)
    for cycle, z in zip(basis.cycles, cycle_errors(g, basis.cycles)):
        ids = " ".join(str(e) for e in cycle.edge_ids)
        click.echo(f"CYCLE {cycle.length} {z:.9g} {ids}")


@main.command()
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@_method_option(bench_mod.DEFAULT_METHOD)
@_params_option()
@click.option("--max-iters", type=int, default=None, help="Iteration cap (bp, admm).")
@click.option("--tol", type=float, default=None, help="Convergence tolerance (bp, admm).")
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False), default=None,
              help="Write a per-iteration CSV of the primal and dual residuals, "
                   "iter,r,t (admm only).")
@_friendly_errors
def infer(graph_file, method, params_deg, max_iters, tol, trace_path) -> None:
    """Run inference and print per-edge inlier probabilities as TSV."""
    options = {}
    for flag, name, value, users in (
        ("--max-iters", "max_iters", max_iters, ("bp", "admm")),
        ("--tol", "tol", tol, ("bp", "admm")),
        ("--trace", "record_trace", None if trace_path is None else True, ("admm",)),
    ):
        if value is None:
            continue
        if method not in users:
            raise click.UsageError(f"{flag} is {' and '.join(users)} only, not {method}")
        options[name] = value
    g = _load_graph(graph_file)
    fg = build_factor_graph(g, minimum_cycle_basis(g))
    result = em_mod.e_step(fg, _params_from(g, *params_deg), InferenceMethod(method), **options)
    if trace_path is not None:
        lines = ["iter,r,t"]
        for row in result.trace:
            lines.append(f"{row.iteration},{row.primal_residual:.9g},{row.dual_residual:.9g}")
        Path(trace_path).write_text("\n".join(lines) + "\n")
    click.echo("edge_id\tp_inlier")
    for eid in fg.variables:
        click.echo(f"{eid}\t{result.edge_marginals[eid]:.9f}")
    click.echo(
        f"converged={str(result.converged).lower()} iterations={result.iterations}",
        err=True,
    )


@main.command()
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@_method_option(bench_mod.DEFAULT_METHOD)
@_threshold_option
@_params_option()
@click.option("--em", "use_em", is_flag=True, help="Estimate parameters by EM first.")
@click.option("--rounds", type=int, default=10, show_default=True,
              help="EM rounds (--em only).")
@click.option("--freeze-priors", is_flag=True, help="Do not refit the edge priors (--em only).")
@_friendly_errors
def classify(graph_file, method, threshold, params_deg, use_em, rounds, freeze_priors) -> None:
    """Label each loop-closure edge; outliers have inlier probability < threshold."""
    if not use_em:
        ctx = click.get_current_context()
        for name in ("rounds", "freeze_priors"):
            if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
                raise click.UsageError(f"--{name.replace('_', '-')} is --em only")
    g = _load_graph(graph_file)
    method_enum = InferenceMethod(method)
    if use_em:
        cfg = EmConfig(
            max_rounds=rounds, inference=method_enum, freeze_priors=freeze_priors
        )
        start = time.perf_counter()
        basis = minimum_cycle_basis(g)
        fg = build_factor_graph(g, basis)
        _, _, final = run_em(fg, _params_from(g, *params_deg), cfg)
        runtime_ms = (time.perf_counter() - start) * 1000.0
        result = bench_mod.result_from_marginals(
            g,
            final.edge_marginals,
            set(fg.covered_variables),
            method_enum,
            threshold,
            final.converged,
            final.iterations,
            runtime_ms,
        )
    else:
        result = bench_mod.classify(
            g, _params_from(g, *params_deg), method_enum, threshold
        )
    click.echo("edge_id\tp_inlier\tlabel\ttruth\tcovered")
    for call in result.edges:
        truth = call.truth.value if call.truth is not None else "-"
        covered = "yes" if call.covered else "uncovered"
        click.echo(
            f"{call.edge_id}\t{call.p_inlier:.9f}\t{call.predicted.value}\t{truth}\t{covered}"
        )
    click.echo(
        f"tp={result.tp} fp={result.fp} fn={result.fn} tn={result.tn} "
        f"precision={result.precision:.4f} recall={result.recall:.4f} f1={result.f1:.4f}",
        err=True,
    )


@main.command()
@click.argument("graph_file", type=click.Path(exists=True, dir_okay=False))
@_method_option(EmConfig.inference)
@click.option("--rounds", type=int, default=10, show_default=True)
@click.option("--freeze-priors", is_flag=True)
@_params_option("Initial sigma and sigma_bar in degrees.")
@click.option("-o", "output", type=click.Path(dir_okay=False), default=None,
              help="Write the trace CSV here instead of stdout.")
@_friendly_errors
def em(graph_file, method, rounds, freeze_priors, params_deg, output) -> None:
    """Estimate noise scales and priors by EM; emits the round trace as CSV."""
    cfg = EmConfig(
        max_rounds=rounds,
        inference=InferenceMethod(method),
        freeze_priors=freeze_priors,
    )
    g = _load_graph(graph_file)
    basis = minimum_cycle_basis(g)
    fg = build_factor_graph(g, basis)
    params, trace, _ = run_em(fg, _params_from(g, *params_deg), cfg)
    lines = ["round,sigma_deg,sigma_bar_deg,q,data_log_likelihood,inference_converged"]
    for row in trace.rounds:
        lines.append(
            f"{row.round},{math.degrees(row.sigma):.6f},{math.degrees(row.sigma_bar):.6f},"
            f"{row.q_value:.9g},{row.data_log_likelihood:.9g},"
            f"{str(row.inference_converged).lower()}"
        )
    text = "\n".join(lines) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        click.echo(text, nl=False)
    click.echo(
        f"sigma={math.degrees(params.sigma):.3f}deg "
        f"sigma_bar={math.degrees(params.sigma_bar):.3f}deg",
        err=True,
    )


@main.group(invoke_without_command=True)
@click.option("--m", "m_lc", type=int, default=None, help="Loop-closure edge count.")
@click.option("--outliers", type=int, default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--nodes-per-map", type=int, default=15, show_default=True)
@click.option("--maps", "num_maps", type=int, default=2, show_default=True)
@click.option("--noiseless-ego", is_flag=True)
@click.option("-o", "output", type=click.Path(dir_okay=False), default=None)
@click.pass_context
@_friendly_errors
def synth(ctx, m_lc, outliers, seed, nodes_per_map, num_maps, noiseless_ego, output) -> None:
    """Generate one synthetic graph (or a whole suite; see `synth suite`)."""
    if ctx.invoked_subcommand is not None:
        return
    if m_lc is None or outliers is None or output is None:
        raise click.UsageError("synth requires --m, --outliers and -o (or use `synth suite`)")
    spec = synth_mod.SynthSpec(
        m_lc=m_lc,
        num_outliers=outliers,
        nodes_per_map=nodes_per_map,
        num_maps=num_maps,
        seed=seed,
        noiseless_ego=noiseless_ego,
    )
    g = synth_mod.generate(spec)
    with open(output, "w") as handle:
        write_graph(g, handle)
    click.echo(f"wrote {output}", err=True)


@synth.command()
@click.option("--scale", type=float, default=1.0, show_default=True,
              help="Subsample the outlier sweep to roughly this fraction.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--m-min", type=int, default=10, show_default=True)
@click.option("--m-max", type=int, default=200, show_default=True)
@click.option("--m-step", type=int, default=5, show_default=True)
@click.option("--nodes-per-map", type=int, default=15, show_default=True)
@click.option("-o", "output_dir", type=click.Path(file_okay=False), required=True)
@_friendly_errors
def suite(scale, seed, m_min, m_max, m_step, nodes_per_map, output_dir) -> None:
    """Write the benchmark grid: for each m, outlier counts sweep 1 .. m-1."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    m_values = list(range(m_min, m_max + 1, m_step))
    count = 0
    for spec, g in synth_mod.generate_suite(
        m_values, seed=seed, scale=scale, nodes_per_map=nodes_per_map
    ):
        name = f"m{spec.m_lc:03d}_o{spec.num_outliers:03d}.pgraph"
        with open(out / name, "w") as handle:
            write_graph(g, handle)
        count += 1
    click.echo(f"wrote {count} graphs to {output_dir}", err=True)


class _MethodList(click.ParamType):
    """Comma-separated inference method names: an unknown name, or none, is
    a usage error."""

    name = "methods"

    def __init__(self):
        self.choice = click.Choice([m.value for m in InferenceMethod])

    def get_metavar(self, param, ctx=None):
        return "[" + "|".join(self.choice.choices) + "],..."

    def convert(self, value, param, ctx):
        names = [name.strip() for name in value.split(",") if name.strip()]
        if not names:
            raise click.UsageError("--methods names no method", ctx)
        return [InferenceMethod(self.choice.convert(name, param, ctx)) for name in names]


@main.command("bench")
@click.argument("suite_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--methods", type=_MethodList(), default="bp,admm", show_default=True,
              help="Comma-separated method names.")
@_threshold_option
@_params_option()
@click.option("--threads", type=int, default=1, show_default=True)
@click.option("--timing", is_flag=True,
              help="Report wall time per run; breaks byte-reproducibility.")
@click.option("--aggregate", "aggregate_path", type=click.Path(dir_okay=False), default=None,
              help="Also write mean scores per outlier-ratio bin.")
@click.option("-o", "output", type=click.Path(dir_okay=False), required=True)
@_friendly_errors
def bench(suite_dir, methods, threshold, params_deg, threads, timing, aggregate_path, output) -> None:
    """Classify every graph in a suite directory with every method."""
    paths = sorted(Path(suite_dir).glob("*.pgraph"))
    if not paths:
        raise click.UsageError(f"no .pgraph files in {suite_dir}")
    items = [(p.stem, _load_graph(str(p))) for p in paths]
    rows, failures = bench_mod.run_benchmark(
        items,
        methods,
        params_for=lambda g: _params_from(g, *params_deg),
        threshold=threshold,
        threads=threads,
    )
    Path(output).write_text(bench_mod.rows_to_csv(rows, include_timing=timing))
    if aggregate_path:
        aggregates = bench_mod.aggregate_by_outlier_ratio(rows)
        Path(aggregate_path).write_text(bench_mod.aggregates_to_csv(aggregates))
    for failure in failures:
        click.echo(
            f"FAILED {failure.graph_id} [{failure.method.value}]: {failure.error}",
            err=True,
        )
    click.echo(f"wrote {len(rows)} rows to {output}", err=True)
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()

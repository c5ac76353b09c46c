import math

import pytest
from click.testing import CliRunner

from conftest import loop_closure_ring
from loopsieve import bench, cli
from loopsieve.cli import main
from loopsieve.factorgraph import InferenceMethod
from loopsieve.graph import graph_to_text, parse_graph
from loopsieve.infer_admm import DEFAULT_LC_CAP
from loopsieve.model import ModelParams
from loopsieve.synth import SynthSpec, generate


def write_small_graph(path, m=8, k=2, seed=1, nodes_per_map=6):
    spec = SynthSpec(m_lc=m, num_outliers=k, nodes_per_map=nodes_per_map, seed=seed)
    path.write_text(graph_to_text(generate(spec)))
    return path


def test_mcb_lists_cycles(tmp_path):
    graph_file = write_small_graph(tmp_path / "g.pgraph")
    result = CliRunner().invoke(main, ["mcb", str(graph_file)])
    assert result.exit_code == 0, result.output
    lines = [l for l in result.output.splitlines() if l]
    assert all(l.startswith("CYCLE ") for l in lines)
    # two chain maps of 6 nodes with 8 cross edges: 18 - 12 + 1 cycles
    assert len(lines) == 7
    parts = lines[0].split()
    assert int(parts[1]) == len(parts) - 3  # length equals listed edge count


def test_infer_outputs_marginals(tmp_path):
    graph_file = write_small_graph(tmp_path / "g.pgraph")
    result = CliRunner().invoke(main, ["infer", str(graph_file), "--method", "bp"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0] == "edge_id\tp_inlier"
    assert len(lines) >= 9  # 8 edges + header


@pytest.mark.parametrize(
    "method, args, options",
    [
        ("bp", ["--max-iters", "7", "--tol", "1e-3"], {"max_iters": 7, "tol": 1e-3}),
        ("admm", ["--max-iters", "50", "--trace", "t.csv"], {"max_iters": 50, "record_trace": True}),
        ("exact", [], {}),
    ],
)
def test_infer_dispatches_through_em_e_step(tmp_path, monkeypatch, method, args, options):
    # one wrapper on loopsieve.em.e_step sees the screening, with the
    # options that infer forwards to the back-end
    import loopsieve.em as em

    seen = []
    original = em.e_step

    def recording(fg, params, m, **kwargs):
        seen.append((m, kwargs))
        return original(fg, params, m, **kwargs)

    monkeypatch.setattr(em, "e_step", recording)
    graph_file = write_small_graph(tmp_path / "g.pgraph")
    args = [str(tmp_path / a) if a.endswith(".csv") else a for a in args]
    result = CliRunner().invoke(main, ["infer", str(graph_file), "--method", method, *args])
    assert result.exit_code == 0, result.output
    assert seen == [(InferenceMethod(method), options)]


def test_infer_admm_trace(tmp_path):
    graph_file = write_small_graph(tmp_path / "g.pgraph")
    trace_file = tmp_path / "trace.csv"
    result = CliRunner().invoke(
        main,
        ["infer", str(graph_file), "--method", "admm", "--trace", str(trace_file)],
    )
    assert result.exit_code == 0, result.output
    lines = trace_file.read_text().splitlines()
    assert lines[0] == "iter,r,t"
    assert len(lines) > 1


@pytest.mark.parametrize(
    "method, option, users",
    [
        pytest.param("bp", "--trace", "admm", id="bp"),
        pytest.param("exact", "--trace", "admm", id="exact"),
        pytest.param("exact", "--max-iters", "bp and admm", id="exact-max-iters"),
        pytest.param("exact", "--tol", "bp and admm", id="exact-tol"),
    ],
)
def test_infer_trace_is_admm_only(tmp_path, method, option, users):
    # an option the back-end does not read is refused, even at its default
    graph_file = write_small_graph(tmp_path / "g.pgraph")
    trace_file = tmp_path / "trace.csv"
    value = {"--trace": str(trace_file), "--max-iters": "10", "--tol": "1e-3"}
    result = CliRunner().invoke(
        main,
        ["infer", str(graph_file), "--method", method, option, value[option]],
    )
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == f"Error: {option} is {users} only, not {method}"
    assert not trace_file.exists()


@pytest.mark.parametrize(
    "method, option, value, message",
    [
        ("admm", "--max-iters", "0", "max_iters must be at least 1, got 0"),
        ("bp", "--max-iters", "-3", "max_iters must be at least 1, got -3"),
        ("admm", "--tol", "-1", "tol must be finite and >= 0, got -1.0"),
        ("bp", "--tol", "nan", "tol must be finite and >= 0, got nan"),
    ],
)
def test_infer_invalid_limits_fail_with_one_line(tmp_path, method, option, value, message):
    graph_file = write_small_graph(tmp_path / "g.pgraph")
    result = CliRunner().invoke(
        main, ["infer", str(graph_file), "--method", method, option, value]
    )
    assert result.exit_code == 1
    assert result.output.splitlines() == [f"Error: {message}"]


def test_infer_admm_trace_without_cycles(tmp_path):
    # one loop closure joining two maps closes no cycle: the factor graph
    # has a variable but no cycle factor
    graph_file = tmp_path / "tree.pgraph"
    graph_file.write_text(
        "PGRAPH 1\n"
        "NODE 0 0\n"
        "NODE 1 0\n"
        "NODE 2 1\n"
        "EDGE EGO 0 0 1 1 0 0 0 1 0 0 0 1 PRIOR 1\n"
        "EDGE LC 1 1 2 1 0 0 0 1 0 0 0 1 PRIOR 0.7\n"
    )
    trace_file = tmp_path / "trace.csv"
    result = CliRunner().invoke(
        main,
        ["infer", str(graph_file), "--method", "admm", "--trace", str(trace_file)],
    )
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[:2] == ["edge_id\tp_inlier", "1\t0.700000000"]
    assert trace_file.read_text().splitlines() == ["iter,r,t", "1,0,0"]


def test_classify_tsv(tmp_path):
    graph_file = write_small_graph(tmp_path / "g.pgraph")
    result = CliRunner().invoke(
        main, ["classify", str(graph_file), "--method", "exact", "--params", "2", "20"]
    )
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0] == "edge_id\tp_inlier\tlabel\ttruth\tcovered"
    body = [l for l in lines[1:] if "\t" in l]
    assert len(body) == 8
    assert all(l.split("\t")[2] in ("IN", "OUT") for l in body)


def test_classify_defaults_are_bench_classify(tmp_path):
    graph_file = write_small_graph(tmp_path / "g.pgraph")
    result = CliRunner().invoke(main, ["classify", str(graph_file)])
    assert result.exit_code == 0, result.output
    body = [l.split("\t")[:3] for l in result.output.splitlines()[1:] if "\t" in l]
    expected = bench.classify(parse_graph(graph_file.read_text().splitlines()))
    assert body == [
        [str(call.edge_id), f"{call.p_inlier:.9f}", call.predicted.value]
        for call in expected.edges
    ]


@pytest.mark.parametrize("command", ["classify", "infer"])
def test_default_method_is_exact(tmp_path, command):
    assert bench.DEFAULT_METHOD is InferenceMethod.EXACT
    graph_file = write_small_graph(tmp_path / "g.pgraph")
    runner = CliRunner()
    default = runner.invoke(main, [command, str(graph_file)])
    exact = runner.invoke(main, [command, str(graph_file), "--method", "exact"])
    assert default.exit_code == exact.exit_code == 0, default.output
    assert default.output == exact.output


def test_clique_over_the_limit_names_bp_and_bp_runs(tmp_path):
    # five maps at m = 200: min-fill elimination needs a 24-edge clique
    graph_file = tmp_path / "g5.pgraph"
    runner = CliRunner()
    result = runner.invoke(main, [
        "synth", "--m", "200", "--outliers", "40", "--maps", "5", "--seed", "1",
        "-o", str(graph_file),
    ])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["classify", str(graph_file)])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "Error: exact inference needs an elimination clique of 24 edges, over the limit "
        "of 22; use method bp"
    ]
    result = runner.invoke(main, ["classify", str(graph_file), "--method", "bp"])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("method", [m.value for m in InferenceMethod])
def test_prior_array_of_the_wrong_length_fails_with_one_line(tmp_path, monkeypatch, method):
    graph_file = write_small_graph(tmp_path / "g.pgraph")

    def short(g, sigma_deg, sigma_bar_deg):
        params = ModelParams.from_graph(g, math.radians(sigma_deg), math.radians(sigma_bar_deg))
        return ModelParams(params.sigma, params.sigma_bar, params.priors[1:])

    monkeypatch.setattr(cli, "_params_from", short)
    result = CliRunner().invoke(main, ["classify", str(graph_file), "--method", method])
    assert result.exit_code == 1
    assert result.output.splitlines() == ["Error: got 7 priors for 8 variables"]


def test_classify_cycle_over_cap_fails_with_one_line(tmp_path):
    graph_file = tmp_path / "ring.pgraph"
    graph_file.write_text(graph_to_text(loop_closure_ring(DEFAULT_LC_CAP + 1)))
    result = CliRunner().invoke(main, ["classify", str(graph_file), "--method", "admm"])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        f"Error: cycle 0 has {DEFAULT_LC_CAP + 1} loop-closure members, over the cap "
        f"of {DEFAULT_LC_CAP}: each cycle's configuration table has 2^k entries"
    ]


def test_classify_with_em(tmp_path):
    graph_file = write_small_graph(tmp_path / "g.pgraph")
    result = CliRunner().invoke(
        main,
        ["classify", str(graph_file), "--method", "exact", "--em", "--rounds", "3"],
    )
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--rounds", "3"], "--rounds"),
        (["--rounds", "10"], "--rounds"),
        (["--freeze-priors"], "--freeze-priors"),
        (["--rounds", "3", "--freeze-priors"], "--rounds"),
    ],
)
def test_classify_em_options_need_em(tmp_path, args, flag):
    # without --em nothing reads them, so they are refused, even at the default
    graph_file = write_small_graph(tmp_path / "g.pgraph")
    result = CliRunner().invoke(main, ["classify", str(graph_file), "--method", "bp", *args])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == f"Error: {flag} is --em only"


def test_em_trace_csv(tmp_path):
    graph_file = write_small_graph(tmp_path / "g.pgraph")
    result = CliRunner().invoke(
        main, ["em", str(graph_file), "--method", "exact", "--rounds", "3"]
    )
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0].startswith("round,sigma_deg,sigma_bar_deg,q,")
    assert len(lines) >= 2


@pytest.mark.parametrize(
    "command, rounds",
    [
        (["em"], "0"),
        (["em"], "-3"),
        (["em", "--method", "admm"], "0"),
        (["classify", "--em"], "0"),
        (["classify", "--em", "--method", "admm"], "-1"),
    ],
)
def test_em_rounds_below_one_fail_with_one_line(tmp_path, command, rounds):
    # no EM round would run, and the initial scales would print as fitted
    graph_file = write_small_graph(tmp_path / "g.pgraph")
    result = CliRunner().invoke(
        main, [command[0], str(graph_file), *command[1:], "--rounds", rounds]
    )
    assert result.exit_code == 1
    assert result.output.splitlines() == [f"Error: max_rounds must be at least 1, got {rounds}"]


def test_em_default_exact_on_a_block_over_22_edges(tmp_path):
    # m = 40 couples every loop closure into one 40-edge block, which
    # enumeration refused; elimination needs cliques of a few edges
    graph_file = tmp_path / "g40.pgraph"
    runner = CliRunner()
    result = runner.invoke(
        main, ["synth", "--m", "40", "--outliers", "8", "--seed", "1", "-o", str(graph_file)]
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["em", str(graph_file), "--rounds", "3"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0] == "round,sigma_deg,sigma_bar_deg,q,data_log_likelihood,inference_converged"
    assert len(lines) >= 4
    assert all(l.endswith(",true") and "nan" not in l for l in lines[1:4])


def test_synth_single_graph(tmp_path):
    out = tmp_path / "synth.pgraph"
    result = CliRunner().invoke(
        main, ["synth", "--m", "10", "--outliers", "3", "--seed", "5", "-o", str(out)]
    )
    assert result.exit_code == 0, result.output
    text = out.read_text()
    assert text.startswith("PGRAPH 1\n")
    assert text.count("EDGE LC") == 10
    assert text.count("TRUTH OUT") == 3


def test_synth_requires_arguments(tmp_path):
    result = CliRunner().invoke(main, ["synth"])
    assert result.exit_code != 0


def test_synth_suite_and_bench(tmp_path):
    suite_dir = tmp_path / "suite"
    result = CliRunner().invoke(
        main,
        [
            "synth", "suite",
            "--m-min", "10", "--m-max", "15", "--m-step", "5",
            "--scale", "0.25", "--seed", "3",
            "--nodes-per-map", "6",
            "-o", str(suite_dir),
        ],
    )
    assert result.exit_code == 0, result.output
    files = sorted(suite_dir.glob("*.pgraph"))
    # m=10: outliers 1,5,9 ; m=15: outliers 1,5,9,13
    assert len(files) == 7

    out_csv = tmp_path / "results.csv"
    agg_csv = tmp_path / "agg.csv"
    result = CliRunner().invoke(
        main,
        [
            "bench", str(suite_dir),
            "--methods", "bp,admm",
            "-o", str(out_csv),
            "--aggregate", str(agg_csv),
        ],
    )
    assert result.exit_code == 0, result.output
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 1 + 2 * len(files)
    assert agg_csv.read_text().startswith("method,ratio_lo,")

    # determinism: a second run writes identical bytes
    out2 = tmp_path / "results2.csv"
    CliRunner().invoke(
        main, ["bench", str(suite_dir), "--methods", "bp,admm", "-o", str(out2)]
    )
    assert out2.read_text() == out_csv.read_text()


@pytest.mark.parametrize("methods", ["", ",", " , "])
def test_bench_without_methods_is_a_usage_error(tmp_path, methods):
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    write_small_graph(suite_dir / "g.pgraph")
    out = tmp_path / "r.csv"
    result = CliRunner().invoke(main, ["bench", str(suite_dir), "--methods", methods, "-o", str(out)])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == "Error: --methods names no method"
    assert not out.exists()


@pytest.mark.parametrize("methods", ["foo", "bp,foo", "bp, admm,BP"])
def test_bench_unknown_method_is_a_usage_error(tmp_path, methods):
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    write_small_graph(suite_dir / "g.pgraph")
    out = tmp_path / "r.csv"
    result = CliRunner().invoke(main, ["bench", str(suite_dir), "--methods", methods, "-o", str(out)])
    assert result.exit_code == 2
    bad = [m.strip() for m in methods.split(",") if m.strip() not in ("bp", "admm", "exact")][0]
    assert result.output.splitlines()[-1] == (
        f"Error: Invalid value for '--methods': '{bad}' is not one of 'bp', 'admm', 'exact'."
    )
    assert not out.exists()


def test_bench_help_lists_the_methods():
    result = CliRunner().invoke(main, ["bench", "--help"])
    assert result.exit_code == 0
    assert "--methods [bp|admm|exact],..." in result.output


def test_bench_threads_match(tmp_path):
    suite_dir = tmp_path / "suite"
    CliRunner().invoke(
        main,
        [
            "synth", "suite", "--m-min", "10", "--m-max", "10", "--scale", "0.5",
            "--seed", "4", "--nodes-per-map", "5", "-o", str(suite_dir),
        ],
    )
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    CliRunner().invoke(main, ["bench", str(suite_dir), "-o", str(a), "--threads", "1"])
    CliRunner().invoke(main, ["bench", str(suite_dir), "-o", str(b), "--threads", "3"])
    assert a.read_text() == b.read_text()


def test_g2o_import(tmp_path):
    q = math.sqrt(0.5)
    g2o = tmp_path / "g.g2o"
    g2o.write_text(
        "VERTEX_SE3:QUAT 0 0 0 0 0 0 0 1\n"
        "VERTEX_SE3:QUAT 1 0 0 0 0 0 0 1\n"
        f"EDGE_SE3:QUAT 0 1 0 0 0 0 0 {q} {q}\n"
    )
    result = CliRunner().invoke(main, ["mcb", str(g2o)])
    assert result.exit_code == 0, result.output

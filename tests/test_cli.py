import math

from click.testing import CliRunner

from conftest import loop_closure_ring
from loopsieve.cli import main
from loopsieve.graph import graph_to_text
from loopsieve.model import DEFAULT_LC_CAP
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

def test_infer_admm_trace(tmp_path):
    graph_file = write_small_graph(tmp_path / "g.pgraph")
    trace_file = tmp_path / "trace.csv"
    result = CliRunner().invoke(
        main,
        ["infer", str(graph_file), "--method", "admm", "--trace", str(trace_file)],
    )
    assert result.exit_code == 0, result.output
    lines = trace_file.read_text().splitlines()
    assert lines[0] == "iter,r,t,rho"
    assert len(lines) > 1


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
    assert trace_file.read_text().splitlines() == ["iter,r,t,rho", "1,0,0,1"]


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


def test_classify_cycle_over_cap_fails_with_one_line(tmp_path):
    graph_file = tmp_path / "ring.pgraph"
    graph_file.write_text(graph_to_text(loop_closure_ring(DEFAULT_LC_CAP + 1)))
    result = CliRunner().invoke(main, ["classify", str(graph_file), "--method", "bp"])
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


def test_em_trace_csv(tmp_path):
    graph_file = write_small_graph(tmp_path / "g.pgraph")
    result = CliRunner().invoke(
        main, ["em", str(graph_file), "--method", "exact", "--rounds", "3"]
    )
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0].startswith("round,sigma_deg,sigma_bar_deg,q,")
    assert len(lines) >= 2


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

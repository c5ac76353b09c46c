import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsieve.graph import (
    Edge,
    EdgeKind,
    GraphFormatError,
    GraphValidationError,
    Node,
    PoseGraph,
    TruthLabel,
    graph_to_text,
    loop_closure_edges,
    parse_g2o,
    parse_graph,
    write_graph,
)
from loopsieve.so3 import exp_so3, is_rotation
from loopsieve.synth import SynthSpec, generate


ROT = " ".join(str(v) for v in np.eye(3).reshape(-1))


class TestParse:
    def test_minimal_file(self):
        text = f"PGRAPH 1\nNODE 0 0\nNODE 1 0\nEDGE LC 0 0 1 {ROT}\n"
        g = parse_graph(text.splitlines())
        assert len(g.nodes) == 2 and len(g.edges) == 1
        assert g.edges[0].kind is EdgeKind.LOOP_CLOSURE
        assert g.edges[0].prior_inlier == 0.5

    def test_empty_file_is_empty_graph(self):
        g = parse_graph([])
        assert g.nodes == () and g.edges == ()

    def test_comments_and_blank_lines(self):
        text = "# hello\nPGRAPH 1  # header\n\nNODE 0 1\n# trailing\n"
        g = parse_graph(text.splitlines())
        assert g.nodes == (Node(0, 1),)

    def test_unknown_node_names_it(self):
        text = f"PGRAPH 1\nNODE 0 0\nEDGE LC 0 0 99 {ROT}\n"
        with pytest.raises(GraphFormatError, match="node 99"):
            parse_graph(text.splitlines())

    def test_malformed_line_reports_number(self):
        text = "PGRAPH 1\nNODE 0 0\nNODE bogus\n"
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_graph(text.splitlines())

    def test_missing_header_rejected(self):
        with pytest.raises(GraphFormatError, match="PGRAPH"):
            parse_graph(["NODE 0 0"])

    def test_prior_and_truth_tokens(self):
        text = f"PGRAPH 1\nNODE 0 0\nNODE 1 1\nEDGE LC 5 0 1 {ROT} PRIOR 0.25 TRUTH OUT\n"
        g = parse_graph(text.splitlines())
        assert g.edges[0].prior_inlier == 0.25
        assert g.edges[0].truth is TruthLabel.OUTLIER

    def test_ego_defaults_prior_one(self):
        text = f"PGRAPH 1\nNODE 0 0\nNODE 1 0\nEDGE EGO 0 0 1 {ROT}\n"
        g = parse_graph(text.splitlines())
        assert g.edges[0].prior_inlier == 1.0

    def test_near_orthonormal_projected(self):
        r = exp_so3((0.1, 0.2, 0.3)) + 1e-8 * np.ones((3, 3))
        entries = " ".join(f"{v:.17g}" for v in r.reshape(-1))
        text = f"PGRAPH 1\nNODE 0 0\nNODE 1 0\nEDGE LC 0 0 1 {entries}\n"
        g = parse_graph(text.splitlines())
        rot = g.edges[0].rotation
        assert np.linalg.norm(rot @ rot.T - np.eye(3)) < 1e-9

    def test_far_from_orthonormal_rejected(self):
        bad = np.eye(3) * 1.5
        entries = " ".join(str(v) for v in bad.reshape(-1))
        text = f"PGRAPH 1\nNODE 0 0\nNODE 1 0\nEDGE LC 0 0 1 {entries}\n"
        with pytest.raises(GraphFormatError, match="orthonormal"):
            parse_graph(text.splitlines())

    def test_self_loop_rejected(self):
        text = f"PGRAPH 1\nNODE 0 0\nEDGE LC 0 0 0 {ROT}\n"
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_graph(text.splitlines())


class TestValidation:
    def test_duplicate_node_id(self):
        with pytest.raises(GraphValidationError, match="duplicate node"):
            PoseGraph((Node(0, 0), Node(0, 1)), ())

    def test_duplicate_edge_id(self):
        e = Edge(0, 0, 1, np.eye(3), EdgeKind.LOOP_CLOSURE)
        with pytest.raises(GraphValidationError, match="duplicate edge"):
            PoseGraph((Node(0, 0), Node(1, 0)), (e, e))

    def test_ego_prior_must_be_one(self):
        with pytest.raises(GraphValidationError, match="ego"):
            Edge(0, 0, 1, np.eye(3), EdgeKind.EGO, prior_inlier=0.7)

    def test_prior_bounds(self):
        with pytest.raises(GraphValidationError):
            Edge(0, 0, 1, np.eye(3), EdgeKind.LOOP_CLOSURE, prior_inlier=1.5)

    def test_parallel_edges_allowed(self):
        edges = (
            Edge(0, 0, 1, np.eye(3), EdgeKind.LOOP_CLOSURE),
            Edge(1, 0, 1, np.eye(3), EdgeKind.LOOP_CLOSURE),
        )
        g = PoseGraph((Node(0, 0), Node(1, 0)), edges)
        assert len(g.edges) == 2


class TestRoundTrip:
    def test_empty_graph_header_only(self):
        assert graph_to_text(PoseGraph()) == "PGRAPH 1\n"

    def test_synth_round_trip_identity(self):
        g = generate(SynthSpec(m_lc=6, num_outliers=2, nodes_per_map=5, seed=3))
        text = graph_to_text(g)
        h = parse_graph(text.splitlines())
        assert [n.id for n in h.nodes] == [n.id for n in g.nodes]
        assert [n.map_id for n in h.nodes] == [n.map_id for n in g.nodes]
        for a, b in zip(g.edges, h.edges):
            assert (a.id, a.src, a.dst, a.kind, a.prior_inlier, a.truth) == (
                b.id, b.src, b.dst, b.kind, b.prior_inlier, b.truth,
            )
            assert np.array_equal(a.rotation, b.rotation)
        # serialization is reproducible byte for byte
        assert graph_to_text(h) == text

    def test_truth_labels_preserved(self):
        g = generate(SynthSpec(m_lc=5, num_outliers=1, nodes_per_map=4, seed=1))
        h = parse_graph(graph_to_text(g).splitlines())
        truths = {e.id: e.truth for e in g.edges}
        assert {e.id: e.truth for e in h.edges} == truths

    def test_write_graph_stream(self):
        g = generate(SynthSpec(m_lc=4, num_outliers=1, nodes_per_map=3, seed=0))
        buf = io.StringIO()
        write_graph(g, buf)
        assert buf.getvalue().startswith("PGRAPH 1\n")


class TestLoopClosureEdges:
    def test_only_ego_gives_empty(self):
        g = parse_graph(
            f"PGRAPH 1\nNODE 0 0\nNODE 1 0\nEDGE EGO 0 0 1 {ROT}\n".splitlines()
        )
        assert loop_closure_edges(g) == []

    def test_synth_count_matches_m(self):
        m = 12
        g = generate(SynthSpec(m_lc=m, num_outliers=3, nodes_per_map=8, seed=5))
        lc = loop_closure_edges(g)
        assert len(lc) == m

    def test_stable_id_order(self):
        g = generate(SynthSpec(m_lc=7, num_outliers=2, nodes_per_map=5, seed=9))
        ids = [e.id for e in loop_closure_edges(g)]
        assert ids == sorted(ids)
        assert ids == [e.id for e in loop_closure_edges(g)]


class TestG2oShim:
    def test_edge_se3_quat(self):
        # 90 degree rotation about z as a quaternion
        q = math.sqrt(0.5)
        lines = [
            "VERTEX_SE3:QUAT 0 0 0 0 0 0 0 1",
            "VERTEX_SE3:QUAT 1 1 0 0 0 0 0 1",
            f"EDGE_SE3:QUAT 0 1 0.5 0 0 0 0 {q} {q} 1 0 0 0 0 0",
        ]
        g = parse_g2o(lines)
        assert len(g.nodes) == 2 and len(g.edges) == 1
        edge = g.edges[0]
        assert edge.kind is EdgeKind.LOOP_CLOSURE
        assert all(n.map_id == 0 for n in g.nodes)
        expected = exp_so3((0, 0, math.pi / 2))
        assert np.allclose(edge.rotation, expected, atol=1e-9)

    def test_implicit_nodes(self):
        lines = ["EDGE_SE3:QUAT 3 7 0 0 0 0 0 0 1"]
        g = parse_g2o(lines)
        assert {n.id for n in g.nodes} == {3, 7}

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_quaternion_refused_without_a_warning(self, value):
        lines = ["VERTEX_SE3:QUAT 0 0 0 0 0 0 0 1", f"EDGE_SO3:QUAT 0 1 {value} 0 0 1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphFormatError, match="^line 2: quaternion entries must be finite$"):
                parse_g2o(lines)

    def test_huge_quaternion_normalizes_without_overflow(self):
        # |q| overflows as a sum of squares; the direction (1, 1, 0, 0)/sqrt(2)
        # is the half-turn about (1, 1, 0)/sqrt(2): R = 2 n n^T - I
        for value in ("1e200", "1.7e308"):
            g = parse_g2o([f"EDGE_SO3:QUAT 0 1 {value} {value} 0 0"])
            n = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
            expected = 2.0 * np.outer(n, n) - np.eye(3)
            assert np.allclose(g.edges[0].rotation, expected, rtol=0.0, atol=1e-12)

    def test_zero_quaternion_refused(self):
        with pytest.raises(GraphFormatError, match="^line 1: zero-norm quaternion$"):
            parse_g2o(["EDGE_SO3:QUAT 0 1 0 0 0 0"])


class TestNonFiniteRotations:
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400", "-1e400"])
    def test_refused_with_the_line_and_no_warning(self, value):
        entries = ROT.split()
        entries[4] = value
        text = f"PGRAPH 1\nNODE 0 0\nNODE 1 0\nEDGE LC 0 0 1 {' '.join(entries)}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphFormatError, match="^line 4: rotation entries must be finite$"):
                parse_graph(text.splitlines())

    def test_overflowing_entry_is_not_orthonormal(self):
        entries = ROT.split()
        entries[1] = "1e300"
        text = f"PGRAPH 1\nNODE 0 0\nNODE 1 0\nEDGE LC 0 0 1 {' '.join(entries)}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphFormatError, match="^line 4: rotation is not orthonormal"):
                parse_graph(text.splitlines())


# --- fuzzing: only the two graph errors may escape either parser ----------

NUMBERS = st.one_of(
    st.sampled_from([
        "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "1e200", "1e308",
        "0", "-0", "1", "-1", "0.5", "1.0000000001", "0.9999999", "2",
        str(10**30), str(-(10**30)), "9" * 5000,
    ]),
    st.integers(-3, 6).map(str),
    st.floats().map(repr),
)


def _fuzz_file(header, keywords, structured):
    random_line = st.lists(st.one_of(NUMBERS, st.sampled_from(keywords)), max_size=18)
    line = st.one_of(structured, random_line.map(" ".join))
    return st.lists(line, max_size=8).map(lambda lines: header + lines)


def _entries(base):
    """base with some entries replaced by fuzzed numbers."""
    return st.lists(st.one_of(st.sampled_from(base), NUMBERS), min_size=len(base),
                    max_size=len(base))


_PGRAPH_EDGE = st.tuples(
    st.sampled_from(["EGO", "LC", "BAD"]), NUMBERS, NUMBERS, NUMBERS,
    _entries(ROT.split()),
    st.sampled_from(["", "PRIOR 0.3", "PRIOR nan", "PRIOR inf", "PRIOR 1e400", "TRUTH IN",
                     "TRUTH OUT", "TRUTH MAYBE", "PRIOR"]),
).map(lambda t: f"EDGE {t[0]} {t[1]} {t[2]} {t[3]} {' '.join(t[4])} {t[5]}")
_PGRAPH_NODE = st.tuples(NUMBERS, NUMBERS).map(lambda t: f"NODE {t[0]} {t[1]}")
_G2O_EDGE = st.tuples(
    st.sampled_from(["EDGE_SO3:QUAT", "EDGE_SE3:QUAT"]), NUMBERS, NUMBERS,
    _entries(["0", "0", "0", "0", "0", "0", "1"]),
).map(lambda t: f"{t[0]} {t[1]} {t[2]} {' '.join(t[3] if t[0] == 'EDGE_SE3:QUAT' else t[3][3:])}")
_G2O_VERTEX = NUMBERS.map(lambda n: f"VERTEX_SE3:QUAT {n} 0 0 0 0 0 0 1")


def _parse_strictly(parse, lines):
    """Parse with every warning an error; only GraphFormatError and
    GraphValidationError may escape, and every parsed rotation is one."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            g = parse(lines)
        except (GraphFormatError, GraphValidationError):
            return
    assert all(is_rotation(e.rotation) for e in g.edges)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_fuzz_file(["PGRAPH 1", "NODE 0 0", "NODE 1 0"],
                      ["PGRAPH", "NODE", "EDGE", "EGO", "LC", "PRIOR", "TRUTH", "IN", "OUT", "#"],
                      st.one_of(_PGRAPH_EDGE, _PGRAPH_NODE)))
    def test_parse_graph(self, lines):
        _parse_strictly(parse_graph, lines)

    @settings(max_examples=300, deadline=None)
    @given(_fuzz_file([], ["VERTEX_SE3:QUAT", "EDGE_SE3:QUAT", "EDGE_SO3:QUAT", "VERTEX_SO3:QUAT",
                           "EDGE_SE2", "FIX", "#"],
                      st.one_of(_G2O_EDGE, _G2O_VERTEX)))
    def test_parse_g2o(self, lines):
        _parse_strictly(parse_g2o, lines)

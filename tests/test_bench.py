import math

import numpy as np
import pytest

from conftest import loop_closure_ring
from loopsieve.bench import (
    BenchRow,
    aggregate_by_outlier_ratio,
    aggregates_to_csv,
    classify,
    result_from_marginals,
    rows_to_csv,
    run_benchmark,
)
from loopsieve.factorgraph import InferenceMethod
from loopsieve.graph import Edge, EdgeKind, PoseGraph, TruthLabel, loop_closure_edges
from loopsieve.infer_admm import DEFAULT_LC_CAP
from loopsieve.model import ModelParams
from loopsieve.synth import SynthSpec, generate

MID_IN = math.radians(2.0)
MID_OUT = math.radians(20.0)


def midpoint_graph(m, k, seed, nodes_per_map=15):
    spec = SynthSpec(
        m_lc=m,
        num_outliers=k,
        nodes_per_map=nodes_per_map,
        seed=seed,
        inlier_band=(MID_IN, MID_IN),
        outlier_band=(MID_OUT, MID_OUT),
    )
    return generate(spec)


class TestClassify:
    def test_zero_noise_all_inlier(self):
        spec = SynthSpec(
            m_lc=8,
            num_outliers=2,
            nodes_per_map=6,
            seed=1,
            inlier_band=(0.0, 0.0),
            outlier_band=(0.0, 0.0),
        )
        g = generate(spec)
        result = classify(g, None, InferenceMethod.EXACT)
        assert all(c.predicted is TruthLabel.INLIER for c in result.edges)
        assert result.fn == 2  # the two labeled outliers carry no noise

    def test_exact_recalls_all_midpoint_outliers(self):
        # frozen oracle run: m=20, 4 outliers, band-midpoint magnitudes
        g = midpoint_graph(20, 4, seed=0)
        result = classify(g, None, InferenceMethod.EXACT)
        assert result.tp == 4 and result.fn == 0
        assert result.recall == 1.0

    def test_degenerate_thresholds(self):
        g = midpoint_graph(10, 3, seed=2, nodes_per_map=6)
        everything_in = classify(g, None, InferenceMethod.EXACT, threshold=0.0)
        assert all(c.predicted is TruthLabel.INLIER for c in everything_in.edges)
        everything_out = classify(g, None, InferenceMethod.EXACT, threshold=1.0)
        assert all(c.predicted is TruthLabel.OUTLIER for c in everything_out.edges)

    def test_confusion_counts_cover_labeled_edges(self):
        g = midpoint_graph(12, 5, seed=3, nodes_per_map=8)
        result = classify(g, None, InferenceMethod.ADMM)
        labeled = [e for e in loop_closure_edges(g) if e.truth is not None]
        assert result.tp + result.fp + result.fn + result.tn == len(labeled)

    def test_undefined_precision_marker(self):
        result = result_from_marginals(
            midpoint_graph(6, 2, seed=4, nodes_per_map=5),
            {e.id: 0.99 for e in loop_closure_edges(midpoint_graph(6, 2, seed=4, nodes_per_map=5))},
            set(),
            InferenceMethod.EXACT,
            0.5,
            True,
            1,
            0.0,
        )
        assert result.tp == 0 and result.fp == 0
        assert math.isnan(result.precision)
        assert result.recall == 0.0

    def test_relabeling_equivariance(self):
        g = generate(SynthSpec(m_lc=8, num_outliers=3, nodes_per_map=6, seed=17))
        rng = np.random.default_rng(0)
        perm = {
            old.id: int(new)
            for old, new in zip(g.edges, rng.permutation(len(g.edges)) * 10 + 3)
        }
        relabeled = PoseGraph(
            g.nodes,
            tuple(
                Edge(perm[e.id], e.src, e.dst, e.rotation, e.kind, e.prior_inlier, e.truth)
                for e in g.edges
            ),
        )
        for method in InferenceMethod:
            a = {c.edge_id: c.p_inlier for c in classify(g, None, method).edges}
            b = {c.edge_id: c.p_inlier for c in classify(relabeled, None, method).edges}
            for eid, p in a.items():
                assert b[perm[eid]] == pytest.approx(p, abs=1e-12)

    def test_uncovered_edges_flagged_and_prior_labeled(self):
        # an isolated pair of nodes joined by one loop closure is in no cycle
        g = generate(SynthSpec(m_lc=6, num_outliers=2, nodes_per_map=5, seed=6))
        from loopsieve.graph import Node

        extra_nodes = g.nodes + (Node(100, 0), Node(101, 1))
        extra_edge = Edge(999, 100, 101, np.eye(3), EdgeKind.LOOP_CLOSURE, 0.5)
        g2 = PoseGraph(extra_nodes, g.edges + (extra_edge,))
        result = classify(g2, None, InferenceMethod.BP)
        call = next(c for c in result.edges if c.edge_id == 999)
        assert not call.covered
        assert call.p_inlier == pytest.approx(0.5)
        assert call.predicted is TruthLabel.INLIER  # 0.5 is not < 0.5


    @pytest.mark.parametrize("method", list(InferenceMethod))
    def test_dispatches_through_em_e_step(self, monkeypatch, method):
        import loopsieve.em as em

        seen = []
        original = em.e_step

        def counting(fg, params, m):
            seen.append(m)
            return original(fg, params, m)

        monkeypatch.setattr(em, "e_step", counting)
        result = classify(midpoint_graph(10, 3, seed=2, nodes_per_map=6), None, method)
        assert seen == [method]
        assert result.method is method


class TestRunBenchmark:
    def make_items(self, n=4):
        items = []
        for i in range(n):
            g = midpoint_graph(8, 2 + (i % 3), seed=40 + i, nodes_per_map=6)
            items.append((f"g{i:02d}", g))
        return items

    def test_row_count(self):
        items = self.make_items(4)
        rows, failures = run_benchmark(items, [InferenceMethod.BP, InferenceMethod.ADMM])
        assert len(rows) == 8
        assert failures == []

    def test_csv_byte_identical_across_runs(self):
        items = self.make_items(3)
        methods = [InferenceMethod.BP, InferenceMethod.ADMM]
        a, _ = run_benchmark(items, methods)
        b, _ = run_benchmark(items, methods)
        assert rows_to_csv(a) == rows_to_csv(b)

    def test_csv_byte_identical_across_thread_counts(self):
        items = self.make_items(4)
        methods = [InferenceMethod.BP, InferenceMethod.ADMM]
        serial, _ = run_benchmark(items, methods, threads=1)
        threaded, _ = run_benchmark(items, methods, threads=4)
        assert rows_to_csv(serial) == rows_to_csv(threaded)

    def test_csv_schema(self):
        rows, _ = run_benchmark(self.make_items(1), [InferenceMethod.ADMM])
        text = rows_to_csv(rows)
        header = text.splitlines()[0]
        assert header == (
            "graph_id,m,outliers,method,tp,fp,fn,tn,"
            "precision,recall,f1,converged,iters,ms"
        )
        first = text.splitlines()[1].split(",")
        assert len(first) == 14
        assert first[-1] == "0"  # timing zeroed by default

    def test_timing_flag_fills_ms(self):
        rows, _ = run_benchmark(self.make_items(1), [InferenceMethod.ADMM])
        text = rows_to_csv(rows, include_timing=True)
        ms = float(text.splitlines()[1].split(",")[-1])
        assert ms > 0

    def test_failures_recorded_and_run_continues(self):
        good = self.make_items(2)
        # a graph one over ADMM's cycle cap: one cycle of 17 loop closures
        bad = loop_closure_ring(DEFAULT_LC_CAP + 1)
        items = good[:1] + [("bad", bad)] + good[1:]
        rows, failures = run_benchmark(items, [InferenceMethod.ADMM])
        assert len(rows) == 2
        assert len(failures) == 1
        assert failures[0].graph_id == "bad"
        assert "cycle 0 has 17 loop-closure members, over the cap of 16" in failures[0].error

    def test_f1_definition(self):
        row = BenchRow("x", 10, 3, InferenceMethod.BP, 2, 1, 1, 6, 2 / 3, 2 / 3, 2 / 3, True, 5, 0.0)
        assert row.outlier_ratio == pytest.approx(0.3)


class TestAggregate:
    def test_bins_and_means(self):
        rows = [
            BenchRow("a", 10, 1, InferenceMethod.BP, 1, 0, 0, 9, 1.0, 1.0, 1.0, True, 3, 0.0),
            BenchRow("b", 10, 1, InferenceMethod.BP, 1, 1, 0, 8, 0.5, 0.5, 0.5, True, 3, 0.0),
            BenchRow("c", 10, 9, InferenceMethod.BP, 5, 0, 4, 1, 1.0, 5 / 9, 10 / 13, True, 3, 0.0),
        ]
        aggregates = aggregate_by_outlier_ratio(rows, n_bins=10)
        first = aggregates[0]
        assert first.ratio_lo == 0.1 and first.count == 2
        assert first.mean_recall == pytest.approx(0.75)
        last = aggregates[-1]
        assert last.ratio_lo == 0.9 and last.count == 1

    def test_csv_output(self):
        rows = [
            BenchRow("a", 10, 1, InferenceMethod.BP, 1, 0, 0, 9, 1.0, 1.0, 1.0, True, 3, 0.0),
        ]
        text = aggregates_to_csv(aggregate_by_outlier_ratio(rows))
        assert text.startswith("method,ratio_lo,ratio_hi,count,")
        assert "bp,0.10,0.20,1," in text

    def test_nan_precision_skipped_in_mean(self):
        rows = [
            BenchRow("a", 10, 1, InferenceMethod.BP, 0, 0, 1, 9, float("nan"), 0.0, 0.0, True, 3, 0.0),
            BenchRow("b", 10, 1, InferenceMethod.BP, 1, 0, 0, 9, 1.0, 1.0, 1.0, True, 3, 0.0),
        ]
        agg = aggregate_by_outlier_ratio(rows, n_bins=10)[0]
        assert agg.mean_precision == pytest.approx(1.0)
        assert agg.mean_recall == pytest.approx(0.5)


class TestParamsDefaults:
    def test_uses_graph_priors_by_default(self):
        g = midpoint_graph(8, 2, seed=50, nodes_per_map=6)
        explicit = ModelParams.from_graph(g, MID_IN, MID_OUT)
        a = classify(g, None, InferenceMethod.EXACT)
        b = classify(g, explicit, InferenceMethod.EXACT)
        assert {c.edge_id: c.p_inlier for c in a.edges} == {
            c.edge_id: c.p_inlier for c in b.edges
        }

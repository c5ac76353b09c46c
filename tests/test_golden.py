"""Outputs pinned across commits.

`golden_outputs.json` holds the timing-free bench CSV of a small fixed
suite (bp, admm and exact) and the per-round trace of one EM fit with the
ADMM E-step, as the code produced them when the file was recorded. A
refactor that is meant to keep outputs must reproduce them.

It also pins the back-ends at full precision, on the EM graph and on a
smaller graph that exact also runs on: each back-end's edge
marginals as `float.hex`, a SHA-256 of its count-marginal bytes, exact's
log evidence, and the BP-, ADMM- and exact-E-step EM traces (sigma,
sigma_bar, q and the data log-likelihood as `float.hex`). These are
compared with `==`; the ADMM-E-step round trace above allows q to move in
its last digits.

Record the file (only when an output change is intended and explained):

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from loopsieve.bench import rows_to_csv, run_benchmark
from loopsieve.cycles import minimum_cycle_basis
from loopsieve.em import EmConfig, run_em
from loopsieve.factorgraph import InferenceMethod, build_factor_graph, exact_marginals
from loopsieve.infer_admm import run_admm
from loopsieve.infer_bp import run_bp
from loopsieve.model import ModelParams
from loopsieve.synth import SynthSpec, generate, generate_suite

GOLDEN = Path(__file__).with_name("golden_outputs.json")


def suite_csv() -> str:
    items = [
        (f"m{spec.m_lc:03d}_o{spec.num_outliers:03d}", g)
        for spec, g in generate_suite(m_values=[10, 20], nodes_per_map=8)
    ]
    methods = [InferenceMethod.BP, InferenceMethod.ADMM, InferenceMethod.EXACT]
    params_for = lambda g: ModelParams.from_graph(g, math.radians(2.0), math.radians(20.0))
    rows, failures = run_benchmark(items, methods, params_for=params_for)
    assert not failures
    return rows_to_csv(rows)


def em_graph(m_lc: int = 30, num_outliers: int = 6):
    """The EM graph (m = 30) or a smaller one for exact, with their
    initial parameters."""
    g = generate(SynthSpec(m_lc=m_lc, num_outliers=num_outliers, nodes_per_map=8, seed=5))
    fg = build_factor_graph(g, minimum_cycle_basis(g))
    init = ModelParams.from_graph(g, math.radians(4.0), math.radians(30.0))
    return fg, init


def exact_graph():
    return em_graph(m_lc=18, num_outliers=4)


def em_rounds() -> list[list[float]]:
    fg, init = em_graph()
    cfg = EmConfig(max_rounds=10, inference=InferenceMethod.ADMM)
    _, trace, _ = run_em(fg, init, cfg)
    return [[r.sigma, r.sigma_bar, r.q_value] for r in trace.rounds]


def pinned(result) -> dict:
    out = {
        "edge_marginals": {str(eid): float.hex(p) for eid, p in result.edge_marginals.items()},
        "count_marginals_sha256": hashlib.sha256(result.count_marginals.tobytes()).hexdigest(),
        "converged": result.converged,
        "iterations": result.iterations,
    }
    if not math.isnan(result.log_evidence):
        out["log_evidence"] = float.hex(result.log_evidence)
    return out


def backend_outputs() -> dict:
    """Each back-end's output under the initial parameters: bp and admm on
    the EM graph, all three on the smaller graph."""
    fg, init = em_graph()
    small, small_init = exact_graph()
    return {
        "em_graph": {"bp": pinned(run_bp(fg, init)), "admm": pinned(run_admm(fg, init))},
        "exact_graph": {
            "bp": pinned(run_bp(small, small_init)),
            "admm": pinned(run_admm(small, small_init)),
            "exact": pinned(exact_marginals(small, small_init)),
        },
    }


def trace_hex(fg, init, method: InferenceMethod) -> list[list[str]]:
    _, trace, _ = run_em(fg, init, EmConfig(max_rounds=10, inference=method))
    return [
        [float.hex(v) for v in (r.sigma, r.sigma_bar, r.q_value, r.data_log_likelihood)]
        for r in trace.rounds
    ]


def em_traces() -> dict:
    """Every round of the BP- and ADMM-E-step fits on the EM graph and of
    the BP- and exact-E-step fits on the smaller graph."""
    fg, init = em_graph()
    small, small_init = exact_graph()
    return {
        "em_graph": {
            "bp": trace_hex(fg, init, InferenceMethod.BP),
            "admm": trace_hex(fg, init, InferenceMethod.ADMM),
        },
        "exact_graph": {
            "bp": trace_hex(small, small_init, InferenceMethod.BP),
            "exact": trace_hex(small, small_init, InferenceMethod.EXACT),
        },
    }


def golden_outputs() -> dict:
    return {
        "suite_csv": suite_csv(),
        "em_rounds": em_rounds(),
        "backends": backend_outputs(),
        "em_traces": em_traces(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_suite_csv_matches_golden(golden):
    assert suite_csv() == golden["suite_csv"]


def test_em_rounds_match_golden(golden):
    rounds = em_rounds()
    assert len(rounds) == len(golden["em_rounds"])
    for (sigma, sigma_bar, q), (g_sigma, g_sigma_bar, g_q) in zip(rounds, golden["em_rounds"]):
        assert sigma == g_sigma and sigma_bar == g_sigma_bar
        # ADMM's consensus sums may add in another order; q may move only
        # in its last digits.
        assert q == pytest.approx(g_q, rel=1e-12, abs=1e-12)


def test_backends_match_golden_bitwise(golden):
    assert backend_outputs() == golden["backends"]


def test_em_traces_match_golden_bitwise(golden):
    assert em_traces() == golden["em_traces"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_outputs(), indent=1) + "\n")

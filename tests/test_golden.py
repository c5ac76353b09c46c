"""Outputs pinned across commits.

`golden_outputs.json` holds the timing-free bench CSV of a small fixed
suite (bp, admm and exact) and the per-round trace of one EM fit with the
ADMM E-step, as the code produced them when the file was recorded. A
refactor that is meant to keep outputs must reproduce them.

Record the file (only when an output change is intended and explained):

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from pathlib import Path

import pytest

from loopsieve.bench import rows_to_csv, run_benchmark
from loopsieve.cycles import minimum_cycle_basis
from loopsieve.em import EmConfig, run_em
from loopsieve.factorgraph import InferenceMethod, build_factor_graph
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


def em_rounds() -> list[list[float]]:
    g = generate(SynthSpec(m_lc=30, num_outliers=6, nodes_per_map=8, seed=5))
    fg = build_factor_graph(g, minimum_cycle_basis(g))
    init = ModelParams.from_graph(g, math.radians(4.0), math.radians(30.0))
    cfg = EmConfig(max_rounds=10, inference=InferenceMethod.ADMM)
    _, trace, _ = run_em(fg, init, cfg)
    return [[r.sigma, r.sigma_bar, r.q_value] for r in trace.rounds]


def golden_outputs() -> dict:
    return {"suite_csv": suite_csv(), "em_rounds": em_rounds()}


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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_outputs(), indent=1) + "\n")

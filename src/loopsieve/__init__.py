"""Loop-closure outlier screening for multi-map pose graphs.

Classifies loop-closure edges as inliers or outliers from the geometric
consistency of rotation measurements around minimum-cycle-basis cycles,
with belief propagation, consensus-ADMM and exact inference back-ends,
plus EM estimation of the noise scales. No trajectory initialization is
needed.
"""

from .bench import ClassificationResult, classify, run_benchmark
from .cycles import Cycle, CycleBasis, cycle_error, cycle_rotation, minimum_cycle_basis
from .em import EmConfig, EmTrace, run_em
from .factorgraph import (
    FactorGraph,
    InferenceMethod,
    InferenceResult,
    build_factor_graph,
    exact_marginals,
)
from .graph import (
    Edge,
    EdgeKind,
    Node,
    PoseGraph,
    TruthLabel,
    loop_closure_edges,
    parse_g2o,
    parse_graph,
    write_graph,
)
from .infer_admm import AdmmOptions, AdmmResult, run_admm
from .infer_bp import run_bp
from .model import CycleFactor, ModelParams
from .synth import SynthSpec, generate, generate_suite

__version__ = "0.1.0"

__all__ = [
    "AdmmOptions",
    "AdmmResult",
    "ClassificationResult",
    "Cycle",
    "CycleBasis",
    "CycleFactor",
    "Edge",
    "EdgeKind",
    "EmConfig",
    "EmTrace",
    "FactorGraph",
    "InferenceMethod",
    "InferenceResult",
    "ModelParams",
    "Node",
    "PoseGraph",
    "SynthSpec",
    "TruthLabel",
    "build_factor_graph",
    "classify",
    "cycle_error",
    "cycle_rotation",
    "exact_marginals",
    "generate",
    "generate_suite",
    "loop_closure_edges",
    "minimum_cycle_basis",
    "parse_g2o",
    "parse_graph",
    "run_admm",
    "run_benchmark",
    "run_bp",
    "run_em",
    "write_graph",
]

"""Query-competitive computation over interval-uncertain data.

Selection (k-th smallest, plain and lexicographic), minimum spanning trees
with uncertain edge weights, witness-set solvers with proven competitive
bounds, a brute-force optimum search, and the adversary fixtures that show
the bounds are tight.
"""
from .core import (
    Area,
    AreaVector,
    TieRule,
    contains,
    format_rational,
    order_l,
    order_u,
    parse_rational,
    surely_leq,
    surely_lt,
)
from .models import (
    ModelCategory,
    ModelSpec,
    TypeSet,
    UncertainInstance,
    area_shape,
    classify_model,
    validate_instance,
    validate_response,
)
from .selection import (
    Objective,
    STRATEGY_NAMES,
    SelectionProblem,
    kmin_bypass_witness,
    kmin_verifier,
    kmin_witness,
    make_strategy,
    min1_bypass_witness,
    min1_witness,
)
from .engine import (
    EngineError,
    OracleResponseError,
    RunReport,
    RunStatus,
    SolverStrategy,
    StrategyModelError,
    default_budget,
    solve,
)
from .oracles import (
    CpAnomalyAdversary,
    ExactPolicy,
    FIXTURE_BUILDERS,
    Fixture,
    GroundTruthOracle,
    HalvePolicy,
    KMinPointAdversary,
    MinTightAdversary,
    OpoCounterOracle,
    Oracle,
    OracleError,
    ScriptedOracle,
)
from .mst import (
    MstAnswer,
    UncertainGraph,
    mst_pass,
    mst_verifier,
    umst_solve,
)
from .optbrute import (
    OptResult,
    OptSearchError,
    opt_value,
)
from .harness import (
    ExperimentConfig,
    GenParams,
    GraphGenParams,
    compete,
    generate_graph_instance,
    generate_instance,
    instance_from_json,
    instance_to_json,
    report_emit,
)

__version__ = "0.1.0"

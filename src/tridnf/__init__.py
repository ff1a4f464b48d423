"""Learning of low-complexity DNF formulas from partially known 0/1 data.

The package learns a disjunctive normal form that is consistent with every
training instance, including instances with Unknown cells, by ranking
candidate literals with exact fuzzy relevance arithmetic.  See README.md
for the algorithm walk-through, the CLI, and the file formats.
"""

from .datasets import (
    ZooRecord,
    bundled_zoo_path,
    encode_zoo,
    load_ternary_csv,
    load_zoo,
    save_ternary_csv,
)
from .errors import (
    BudgetExceededError,
    CellOutOfRangeError,
    ConsistencyAbort,
    CountWarning,
    FractionOutOfRangeError,
    LengthMismatchError,
    ParseError,
    TridnfError,
)
from .experiments import (
    EvalReport,
    ExperimentReport,
    RunResult,
    SummaryRow,
    evaluate,
    run_experiment,
)
from .formula import DnfFormula, Literal, Term, parse_formula
from .learner import LearnerConfig, LearnResult, learn
from .masking import MaskPlan, SplitMix64, apply_mask, make_mask
from .oracle import ConsistencyCertificate, Verdict, verify_consistency
from .trits import (
    Dataset,
    Instance,
    Label,
    Trit,
    check_self_consistency,
    delete_repetitions,
    reduce_uncertainty,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CellOutOfRangeError",
    "ConsistencyAbort",
    "ConsistencyCertificate",
    "CountWarning",
    "Dataset",
    "DnfFormula",
    "EvalReport",
    "ExperimentReport",
    "FractionOutOfRangeError",
    "Instance",
    "Label",
    "LearnResult",
    "LearnerConfig",
    "LengthMismatchError",
    "Literal",
    "MaskPlan",
    "ParseError",
    "RunResult",
    "SplitMix64",
    "SummaryRow",
    "Term",
    "TridnfError",
    "Trit",
    "Verdict",
    "ZooRecord",
    "apply_mask",
    "bundled_zoo_path",
    "check_self_consistency",
    "delete_repetitions",
    "encode_zoo",
    "evaluate",
    "learn",
    "load_ternary_csv",
    "load_zoo",
    "make_mask",
    "parse_formula",
    "reduce_uncertainty",
    "run_experiment",
    "save_ternary_csv",
    "verify_consistency",
]

"""Priority derivation, consistency analysis, and Monte Carlo experiments
for pairwise comparison matrices."""

__version__ = "0.1.0"

from .consistency import (
    ConsistencyReport,
    RiProvenance,
    RiTable,
    build_ri_table,
    consistency_index,
    consistency_ratio,
    default_ri_table,
    estimate_random_index,
)
from .core import (
    PCMatrix,
    ReciprocityMode,
    ReciprocityPolicy,
    WeightVector,
    format_matrix_text,
    load_matrix,
    normalize,
    parse_matrix_text,
    reconcile_matrix_text,
    validate,
)
from .errors import (
    DimensionMismatchError,
    EmptyListError,
    MissingRiError,
    NoConvergenceError,
    NonPositiveEntryError,
    NonPositiveWeightError,
    NonSquareError,
    PcmError,
    ReciprocityViolationError,
)
from .metrics import (
    METRICS,
    ComparisonRecord,
    compare_methods,
)
from .weighting import (
    EigenResult,
    aggregate_matrices_geometric,
    aggregate_priorities_geometric,
    combined_eigenvector,
    eigen_system,
    inverse_left_eigenvector,
    right_eigenvector,
    row_geometric_mean,
)

# The simulation and the verification suite load on first use: a caller that
# weights one matrix does not pay for their import.
_LAZY = {
    **dict.fromkeys(("BinColumns", "GeneratorConfig", "SimulationConfig", "SimulationResult",
                     "bin_columns", "generate_perturbed", "run_simulation"), "montecarlo"),
    **dict.fromkeys(("CASES", "VerifyCase", "run_verification"), "verify"),
}


def __getattr__(name: str):
    # Any other name raises, so `from pcmkit import montecarlo` still falls
    # back to importing the submodule.
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})

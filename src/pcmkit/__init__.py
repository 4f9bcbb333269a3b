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
    Normalization,
    PCMatrix,
    ReciprocityMode,
    ReciprocityPolicy,
    WeightVector,
    consistent_from_weights,
    format_matrix_text,
    is_consistent,
    load_matrix,
    normalize,
    parse_matrix_text,
    permute,
    reconcile_matrix_text,
    transpose,
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
    chebyshev,
    compare_methods,
    euclidean,
    kendall_tau,
    max_ratio,
)
from .montecarlo import (
    BinColumns,
    CrHistogram,
    GeneratorConfig,
    SimulationConfig,
    SimulationResult,
    bin_columns,
    generate_perturbed,
    run_simulation,
)
from .verify import CASES, VerifyCase, run_verification
from .weighting import (
    EigenResult,
    aggregate_matrices_geometric,
    aggregate_priorities_geometric,
    combined_eigenvector,
    eigen_system,
    inverse_left_eigenvector,
    left_eigenvector,
    right_eigenvector,
    row_geometric_mean,
)

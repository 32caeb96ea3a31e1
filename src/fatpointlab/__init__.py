"""fatpointlab: exact regularity bounds for fat point schemes and the
matroid partition machinery behind them.

Everything is computed in exact arithmetic (rationals or prime fields).
The main entry points:

- :func:`fatpointlab.bounds.verify_main_theorem` compares the regularity
  index of a fat point scheme with its Segre bound.
- :func:`fatpointlab.partition.avoidance_partition` produces partition
  certificates with per-block closure-avoidance witnesses.
- :mod:`fatpointlab.cli` is the command-line harness (``fatpointlab``).
"""

__version__ = "0.1.0"

from .exact import ExactMatrix, ScalarField
from .matroid import RankOracle, VectorMatroid, fat_point_vector_matroid
from .constructions import (
    CountMatroid,
    count_matroid_rank_lower_bound_check,
    elementary_quotient,
    parallel_extension,
)
from .partition import (
    AvoidanceProblem,
    InfeasibilityWitness,
    PartitionCertificate,
    avoidance_partition,
    edmonds_fulkerson_partition,
    edmonds_partition,
    inductive_split,
    verify_partition_optimality_example,
)
from .schemes import (
    FatPointScheme,
    conditions_matrix,
    ctv_decomposition_check,
    hilbert_function,
    regularity_index,
    subscheme,
    veronese_inequality_check,
    veronese_lift,
)
from .bounds import (
    BoundReport,
    SegreWitness,
    cardinality_estimate_check,
    modified_bound,
    rational_normal_curve_sharpness,
    segre_bound,
    separating_hypersurface,
    verify_main_theorem,
)

__all__ = [
    "ExactMatrix",
    "ScalarField",
    "RankOracle",
    "VectorMatroid",
    "fat_point_vector_matroid",
    "CountMatroid",
    "count_matroid_rank_lower_bound_check",
    "elementary_quotient",
    "parallel_extension",
    "AvoidanceProblem",
    "InfeasibilityWitness",
    "PartitionCertificate",
    "avoidance_partition",
    "edmonds_fulkerson_partition",
    "edmonds_partition",
    "inductive_split",
    "verify_partition_optimality_example",
    "FatPointScheme",
    "conditions_matrix",
    "ctv_decomposition_check",
    "hilbert_function",
    "regularity_index",
    "subscheme",
    "veronese_inequality_check",
    "veronese_lift",
    "BoundReport",
    "SegreWitness",
    "cardinality_estimate_check",
    "modified_bound",
    "rational_normal_curve_sharpness",
    "segre_bound",
    "separating_hypersurface",
    "verify_main_theorem",
]

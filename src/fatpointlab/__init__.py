"""fatpointlab: exact regularity bounds for fat point schemes and the
matroid partition machinery behind them.

Everything is computed in exact arithmetic (rationals or prime fields).
The main entry points:

- :func:`fatpointlab.bounds.verify_main_theorem` compares the regularity
  index of a fat point scheme with its Segre bound.
- :func:`fatpointlab.partition.avoidance_partition` produces partition
  certificates with per-block closure-avoidance witnesses.
- :mod:`fatpointlab.cli` is the command-line harness (``fatpointlab``).

The package namespace is lazy (PEP 562): ``import fatpointlab`` loads no
submodule, and a public name's home module is imported the first time the
name is read, so a CLI process compiles only the modules its subcommand
runs.
"""

import importlib

__version__ = "0.1.0"

# each public name once, with the module that defines it
_HOMES = {
    "exact": ("ExactMatrix", "ScalarField"),
    "matroid": ("RankOracle", "VectorMatroid", "fat_point_vector_matroid"),
    "constructions": (
        "CountMatroid",
        "count_matroid_rank_lower_bound_check",
        "elementary_quotient",
        "parallel_extension",
    ),
    "partition": (
        "AvoidanceProblem",
        "InfeasibilityWitness",
        "PartitionCertificate",
        "avoidance_partition",
        "edmonds_fulkerson_partition",
        "edmonds_partition",
        "inductive_split",
        "verify_partition_optimality_example",
    ),
    "schemes": (
        "FatPointScheme",
        "conditions_matrix",
        "ctv_decomposition_check",
        "hilbert_function",
        "regularity_index",
        "subscheme",
        "veronese_inequality_check",
        "veronese_lift",
    ),
    "bounds": (
        "BoundReport",
        "SegreWitness",
        "cardinality_estimate_check",
        "modified_bound",
        "rational_normal_curve_sharpness",
        "segre_bound",
        "separating_hypersurface",
        "verify_main_theorem",
    ),
}

_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME_OF)


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value

"""Constant-memory streaming evaluation of symmetric means.

A mean is computed online: each input is encoded into a fixed-length state
vector living in a commutative semigroup, states from parallel shards merge
by the descriptor's ``combine`` (componentwise addition for the additive
families, a truncated polynomial product for hamy, sympoly and biplanar),
and a finalizer maps the state back to the input interval.  Seven
classical families are provided, together with a generalized power-sum
engine, a property-based verification harness, and an empirical Myhill-type
state-complexity probe.
"""

from .core import (
    AccumulatorState,
    ComplexityType,
    DomainInterval,
    MeanDescriptor,
    absorb,
    absorb_many,
    evaluate_stream,
    finalize,
    init,
    merge,
    parse_state,
    serialize_state,
)
from .families import (
    BajraktarevicPair,
    BiplanarParams,
    GeneratorFunction,
    bajraktarevic,
    biplanar,
    cube_over_square,
    descriptor_from_params,
    generator_by_name,
    gini,
    hamy,
    median_mean,
    pair_from_functions,
    pair_from_names,
    pair_power,
    piecewise_counterexample,
    power_mean,
    quasi_arithmetic,
    sympoly,
)
from .symfun import (
    ExponentMultiset,
    GammaTable,
    gamma_multi,
    power_sums,
    sigma_from_power,
    subset_sum_closure,
)
from .verify import (
    FunctionMean,
    PropertyReport,
    check_concatenation_betweenness,
    check_g23_inequality,
    check_homogeneity,
    check_mean_property,
    check_reflexivity,
    check_repetition_invariance,
    check_symmetry,
    detect_negligible_element,
    oracle_direct,
    run_suite,
)
from .myhill import ClassProfile, default_probes, enumerate_classes, growth_report, state_counts
from . import errors
from .errors import (
    DomainError,
    EmptyStateError,
    FamilyMismatch,
    MeanStreamError,
    NumericalFailure,
    ParseError,
)

__version__ = "0.1.0"

__all__ = [
    "AccumulatorState", "ComplexityType", "DomainInterval", "MeanDescriptor",
    "absorb", "absorb_many", "evaluate_stream", "finalize", "init", "merge",
    "parse_state", "serialize_state",
    "BajraktarevicPair", "BiplanarParams", "GeneratorFunction",
    "bajraktarevic", "biplanar", "cube_over_square", "descriptor_from_params",
    "generator_by_name", "gini", "hamy", "median_mean",
    "pair_from_functions", "pair_from_names", "pair_power",
    "piecewise_counterexample", "power_mean", "quasi_arithmetic", "sympoly",
    "ExponentMultiset", "GammaTable", "gamma_multi", "power_sums",
    "sigma_from_power", "subset_sum_closure",
    "FunctionMean", "PropertyReport", "check_concatenation_betweenness",
    "check_g23_inequality", "check_homogeneity", "check_mean_property",
    "check_reflexivity", "check_repetition_invariance", "check_symmetry",
    "detect_negligible_element", "oracle_direct", "run_suite",
    "ClassProfile", "default_probes", "enumerate_classes", "growth_report",
    "state_counts",
    "errors", "DomainError", "EmptyStateError", "FamilyMismatch",
    "MeanStreamError", "NumericalFailure", "ParseError",
]

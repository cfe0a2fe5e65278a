"""Constant-memory streaming evaluation of symmetric means.

A mean is computed online in a fixed-length state vector living in a
commutative semigroup: the descriptor's ``step`` pushes one element into a
state, its ``combine`` merges two states (componentwise addition for the
additive families, a truncated polynomial product for hamy, sympoly and
biplanar), and a finalizer maps the state back to the input interval.
Each fixed-length family is a block table of (kind, size, expression)
triples, which is its state layout, and from which core compiles a
domain-checked step, a leaf fold and a combine on first use.  Seven
classical families are provided, together with a generalized power-sum
engine, a property-based verification harness, and an empirical Myhill-type
state-complexity probe.

``import meanstream`` loads the streaming core and the families of fixed
form, and neither ``dataclasses``, ``fractions``, ``json``, ``numbers`` nor
``__future__``.  A biplanar descriptor checks its exponents on exact
integer ratios, so it loads none of them either; ``fractions`` loads with
``BiplanarParams.exponent_set`` or ``myhill``.  The state format
(``state_io``: ``serialize_state`` and ``parse_state``) loads, with
``json``, on the first serialize or parse, and ``json`` also with a merge
of two distinct descriptors.  The generators (``generators``:
``GeneratorFunction``, the registry and the Bajraktarevic pairs, which
build the quasi-arithmetic and Bajraktarevic means), the power-sum engine
(``symfun``), the verification harness (``verify``) and the probe
(``myhill``) load on first use of one of their names.
``core._lazy_names`` gives this package, ``core``, ``families`` and
``cli`` the module ``__getattr__`` that does so, from each one's table of
names (``_LAZY``), and stores a name it resolves.
"""

from .core import (
    AccumulatorState,
    ComplexityType,
    DomainInterval,
    MeanDescriptor,
    _lazy_names,
    absorb,
    absorb_many,
    evaluate_stream,
    finalize,
    init,
    merge,
)
from .families import (
    _GENERATOR_NAMES,
    BiplanarParams,
    biplanar,
    cube_over_square,
    descriptor_from_params,
    gini,
    hamy,
    median_mean,
    piecewise_counterexample,
    power_mean,
    sympoly,
)
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

# the names of the modules loaded on first use, and the names they export
_LAZY = {
    "generators": _GENERATOR_NAMES,
    "state_io": ("parse_state", "serialize_state"),
    "verify": ("FunctionMean", "PropertyReport",
               "check_concatenation_betweenness", "check_g23_inequality",
               "check_homogeneity", "check_mean_property",
               "check_reflexivity", "check_repetition_invariance",
               "check_symmetry", "detect_negligible_element",
               "oracle_direct", "run_suite"),
    "myhill": ("ClassProfile", "default_probes", "enumerate_classes",
               "growth_report", "state_counts"),
    "symfun": ("ExponentMultiset", "GammaTable", "gamma_multi", "power_sums",
               "sigma_from_power", "subset_sum_closure"),
}

__all__ = [
    "AccumulatorState", "ComplexityType", "DomainInterval", "MeanDescriptor",
    "absorb", "absorb_many", "evaluate_stream", "finalize", "init", "merge",
    "parse_state", "serialize_state",
    "BajraktarevicPair", "BiplanarParams", "GeneratorFunction",
    "bajraktarevic", "biplanar", "cube_over_square", "descriptor_from_params",
    "generator_by_name", "gini", "hamy", "median_mean",
    "pair_from_functions", "pair_from_names", "pair_power",
    "piecewise_counterexample", "power_mean", "quasi_arithmetic", "sympoly",
    *_LAZY["symfun"], *_LAZY["verify"], *_LAZY["myhill"],
    "errors", "DomainError", "EmptyStateError", "FamilyMismatch",
    "MeanStreamError", "NumericalFailure", "ParseError",
]


__getattr__ = _lazy_names(globals(), _LAZY)


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_LAZY))

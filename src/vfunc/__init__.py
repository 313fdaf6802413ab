"""Exact v-function and ramification data for (Z/p)^2 covers of F_q((t)).

The package computes the motivic weighting v attached to a pair of
Artin-Schreier generators by two independent routes (a closed formula and a
tuning-module determinant) and the upper/lower ramification filtrations of
the corresponding Galois extension, all in exact arithmetic.
"""

import gc

from .errors import (
    AInPrimeField,
    FieldTooLarge,
    G1Zero,
    G2DependentOnG1,
    InputError,
    InternalCheckFailed,
    LatticeAssertionFailed,
    MixedExtensions,
    NonSquare,
    NontrivialUnramifiedPart,
    NotInJ,
    NotInTheta,
    NumberingMismatch,
    PoleTooDeep,
    SamplingExhausted,
    TooManyTerms,
    VfuncError,
)
from .exact_linalg import det
from .extension_algebra import (
    SIGMA,
    TAU,
    ExtensionPair,
    LElement,
    act,
    binomial_basis,
    validate_pair,
)
from .finite_field import DEFAULT_MODULI, FieldParams, FqElem
from .laurent import INFINITY, LaurentPoly, reduce_to_J
from .ramification import (
    Filtration,
    HerbrandFn,
    Line,
    Subgroup,
    annihilator,
    filtration_fingerprint,
    filtration_report,
    herbrand_phi,
    herbrand_psi,
    lines,
    lower_filtration,
    quotient_compat_check,
    upper_filtration,
)
from .vfunction import (
    ThetaBasis,
    VResult,
    theta_lattice,
    theta_to_xi,
    v_formula,
    v_oracle,
)

__all__ = [
    "AInPrimeField",
    "DEFAULT_MODULI",
    "ExtensionPair",
    "FieldParams",
    "FieldTooLarge",
    "Filtration",
    "FqElem",
    "G1Zero",
    "G2DependentOnG1",
    "HerbrandFn",
    "INFINITY",
    "InputError",
    "InternalCheckFailed",
    "LElement",
    "LatticeAssertionFailed",
    "LaurentPoly",
    "Line",
    "MixedExtensions",
    "NonSquare",
    "NontrivialUnramifiedPart",
    "NotInJ",
    "NotInTheta",
    "NumberingMismatch",
    "PoleTooDeep",
    "SIGMA",
    "SamplingExhausted",
    "Subgroup",
    "TAU",
    "ThetaBasis",
    "TooManyTerms",
    "VResult",
    "VfuncError",
    "act",
    "annihilator",
    "binomial_basis",
    "det",
    "filtration_fingerprint",
    "filtration_report",
    "herbrand_phi",
    "herbrand_psi",
    "lines",
    "lower_filtration",
    "quotient_compat_check",
    "reduce_to_J",
    "theta_lattice",
    "theta_to_xi",
    "upper_filtration",
    "v_formula",
    "v_oracle",
    "validate_pair",
]

# Collect the youngest generation once the package is loaded, so that the
# collector's first pass over what the import made is paid by the import and
# not by whichever computation first fills that generation.
gc.collect(0)

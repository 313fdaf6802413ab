"""Exact v-function and ramification data for (Z/p)^2 covers of F_q((t)).

The package computes the motivic weighting v attached to a pair of
Artin-Schreier generators by two independent routes (a closed formula and a
tuning-module determinant) and the upper/lower ramification filtrations of
the corresponding Galois extension, all in exact arithmetic.
"""

from .errors import (
    AInPrimeField,
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
    VfuncError,
)
from .exact_linalg import LaurentMatrix, det, kernel
from .extension_algebra import (
    ExtensionPair,
    GroupElement,
    LElement,
    act,
    binomial_basis,
    group_elements,
    sigma,
    tau,
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
    theta_conditions_matrix,
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
    "Filtration",
    "FqElem",
    "G1Zero",
    "G2DependentOnG1",
    "GroupElement",
    "HerbrandFn",
    "INFINITY",
    "InputError",
    "InternalCheckFailed",
    "LElement",
    "LatticeAssertionFailed",
    "LaurentMatrix",
    "LaurentPoly",
    "Line",
    "MixedExtensions",
    "NonSquare",
    "NontrivialUnramifiedPart",
    "NotInJ",
    "NotInTheta",
    "NumberingMismatch",
    "Subgroup",
    "ThetaBasis",
    "VResult",
    "VfuncError",
    "act",
    "annihilator",
    "binomial_basis",
    "det",
    "filtration_fingerprint",
    "group_elements",
    "herbrand_phi",
    "herbrand_psi",
    "kernel",
    "lines",
    "lower_filtration",
    "quotient_compat_check",
    "reduce_to_J",
    "sigma",
    "tau",
    "theta_conditions_matrix",
    "theta_lattice",
    "theta_to_xi",
    "upper_filtration",
    "v_formula",
    "v_oracle",
    "validate_pair",
]

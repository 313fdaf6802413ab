"""Exception hierarchy shared across the package.

Everything raised on invalid *input* derives from InputError so the CLI can
map it to a single exit code; internal consistency failures derive from
InternalCheckFailed and are always bugs, never user errors.
"""

from __future__ import annotations


class VfuncError(Exception):
    """Base class for all package-specific errors."""


class InputError(VfuncError):
    """Invalid input data (bad field parameters, bad pair, bad job)."""


class NotInJ(InputError):
    """A series that must lie in J has a forbidden exponent."""


class G1Zero(InputError):
    """First defining series is zero."""


class G2DependentOnG1(InputError):
    """Second defining series lies in the prime-field span of the first."""


class AInPrimeField(InputError):
    """Action parameter lies in the prime field, so the two conditions collapse."""


class NontrivialUnramifiedPart(InputError):
    """Additive reduction hit a constant with nonzero absolute trace."""


class FieldTooLarge(InputError):
    """The field has more elements than its arithmetic tables allow."""


class MixedExtensions(InputError):
    """Operands belong to different extension pairs or different fields."""


class NonSquare(InputError):
    """Determinant of a non-square matrix was requested."""


class NotInTheta(InputError):
    """Element does not satisfy the tuning-module membership conditions."""


class NumberingMismatch(InputError):
    """A filtration with the wrong numbering was passed to a Herbrand map."""


class SamplingExhausted(InputError):
    """A random draw hit its retry cap without producing a valid input."""


class InternalCheckFailed(VfuncError):
    """An internal invariant failed; indicates a bug, not bad input."""


class LatticeAssertionFailed(InternalCheckFailed):
    """The measured lattice valuation violated an expected congruence."""

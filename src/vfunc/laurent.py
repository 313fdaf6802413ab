"""Laurent polynomials over F_q in one variable t, with exact valuations.

These are finite sums sum_e c_e * t^e with integer exponents of either sign,
used as truncated local-field elements: every quantity in scope (generators,
norms, determinants) has finite support, so no completion is needed.

Conventions:

* v_K is the t-adic valuation; v_K(0) is INFINITY, which absorbs under
  addition and min the way the zero series demands.
* J is the set of f whose exponents are all negative and prime to p (the
  zero series counts as a member).  J represents K / wp(K) where
  wp(x) = x^p - x, and reduce_to_J computes the representative together
  with a witness for the subtracted wp-part.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InputError, InternalCheckFailed, NontrivialUnramifiedPart
from .finite_field import FieldParams, FqElem

#: Valuation of the zero series.  Comparisons and arithmetic with it follow
#: float-infinity semantics, which match the absorbing rules needed here.
INFINITY = float("inf")


class LaurentPoly:
    """Immutable Laurent polynomial; terms held sorted with nonzero coeffs."""

    __slots__ = ("field", "terms")

    def __init__(self, field: FieldParams, terms: dict[int, FqElem] | Iterable[tuple[int, FqElem]]):
        items = terms.items() if isinstance(terms, dict) else terms
        clean = tuple(sorted((e, c) for e, c in items if not c.is_zero()))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldParams) -> LaurentPoly:
        return cls(field, ())

    @classmethod
    def one(cls, field: FieldParams) -> LaurentPoly:
        return cls(field, [(0, field.one())])

    @classmethod
    def t_pow(cls, field: FieldParams, e: int, coeff: FqElem | int = 1) -> LaurentPoly:
        c = field.elem(coeff) if isinstance(coeff, int) else coeff
        if c.field != field:
            raise InputError("coefficient over another field")
        return cls(field, [(e, c)])

    @classmethod
    def from_pairs(cls, field: FieldParams, pairs: Sequence[Sequence]) -> LaurentPoly:
        """Build from the JSON form [[exponent, "c0,c1"], ...].

        Exponents must be strictly increasing integers.
        """
        terms = []
        prev = None
        for pair in pairs:
            if len(pair) != 2:
                raise InputError(f"bad term {pair!r}: expected [exponent, coeffs]")
            e, txt = pair
            if not isinstance(e, int) or isinstance(e, bool):
                raise InputError(f"bad exponent {e!r}")
            if prev is not None and e <= prev:
                raise InputError("exponents must be strictly increasing")
            prev = e
            terms.append((e, field.parse(txt)))
        return cls(field, terms)

    def to_pairs(self) -> list[list]:
        return [[e, str(c)] for e, c in self.terms]

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def valuation(self) -> int | float:
        """t-adic valuation v_K; INFINITY for the zero series."""
        return self.terms[0][0] if self.terms else INFINITY

    def degree(self) -> int | float:
        return self.terms[-1][0] if self.terms else -INFINITY

    def coeff(self, e: int) -> FqElem:
        for exp, c in self.terms:
            if exp == e:
                return c
        return self.field.zero()

    def support(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.terms)

    def is_in_J(self) -> bool:
        """Membership in J: all exponents negative and prime to p."""
        p = self.field.p
        return all(e < 0 and e % p != 0 for e, _ in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: LaurentPoly) -> None:
        if self.field is not other.field and self.field != other.field:
            raise InputError("series over different fields")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.field, self.terms))

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            add_into(acc, e, c)
        return LaurentPoly(self.field, acc)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(self.field, [(e, -c) for e, c in self.terms])

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            self._check(other)
            return LaurentPoly(self.field,
                               self.field.convolve(self.terms, other.terms))
        if isinstance(other, (FqElem, int)):
            c = self.field.elem(other) if isinstance(other, int) else other
            if c.field != self.field:
                raise InputError("scalar from a different field")
            return LaurentPoly(self.field, [(e, a * c) for e, a in self.terms])
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by t^k."""
        return LaurentPoly(self.field, [(e + k, c) for e, c in self.terms])

    def frobenius(self) -> LaurentPoly:
        """The p-power map: coefficients to the p, exponents times p."""
        p = self.field.p
        return LaurentPoly(self.field, [(p * e, c.frobenius()) for e, c in self.terms])

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*t^{e}" for e, c in self.terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def add_into(acc: dict, key, c) -> None:
    """acc[key] += c, storing c itself on a new key.  A sum that cancels
    stays behind as a zero entry, so the caller drops zeros once at the end
    (the LaurentPoly constructor does)."""
    acc[key] = acc[key] + c if key in acc else c


def wp(h: LaurentPoly) -> LaurentPoly:
    """The additive-separable operator x^p - x."""
    return h.frobenius() - h


def reduce_to_J(g: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Reduce g modulo wp(K) to its J-representative.

    Returns (rep, witness) with rep in J and g - rep - wp(witness) supported
    in strictly positive exponents only.  The transformation repeats two
    moves until neither applies: a term c*t^(pe) with pe < 0 becomes
    c^(1/p)*t^e (witnessed by that same term), and a constant with zero
    absolute trace is removed by an Artin-Schreier solution.  A constant
    with nonzero trace means the class has an unramified part that J cannot
    represent, which is an error here.  Positive exponents are discarded
    without a witness.
    """
    field = g.field
    p = field.p
    work = {e: c for e, c in g.terms}
    witness: dict[int, FqElem] = {}
    while True:
        bad = sorted(e for e in work if e < 0 and e % p == 0)
        if not bad:
            break
        for e in bad:
            c = work.pop(e, None)
            if c is None or c.is_zero():
                continue
            r = c.pth_root()
            add_into(work, e // p, r)
            add_into(witness, e // p, r)
    c0 = work.pop(0, None)
    if c0 is not None and not c0.is_zero():
        if c0.abs_trace() != 0:
            raise NontrivialUnramifiedPart(
                f"constant term {c0} has absolute trace {c0.abs_trace()}")
        x = field.artin_schreier_solve(c0)
        if x is None:
            raise InternalCheckFailed(
                f"no Artin-Schreier root of trace-zero constant {c0}")
        add_into(witness, 0, x)
    rep = LaurentPoly(field, {e: c for e, c in work.items() if e < 0})
    return rep, LaurentPoly(field, witness)

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

A series is held on F_q codes (see finite_field), as elements of L are,
and its arithmetic runs on them through FieldParams.accumulate.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from .errors import InputError, InternalCheckFailed, NontrivialUnramifiedPart
from .finite_field import FieldParams, FqElem, Frozen

#: Valuation of the zero series.  Comparisons and arithmetic with it follow
#: float-infinity semantics, which match the absorbing rules needed here.
INFINITY = float("inf")


class LaurentPoly(Frozen):
    """Immutable Laurent polynomial: codes holds the (exponent, code) pairs
    of its nonzero coefficients by exponent, and terms reads them back."""

    __slots__ = ("field", "codes")

    def __init__(self, field: FieldParams, terms: dict[int, FqElem] | Iterable[tuple[int, FqElem]]):
        """terms: (exponent, FqElem) pairs or a dict; zeros are dropped, and
        an exponent that is not an int (a bool neither), a coefficient not
        in field or a repeated exponent raises InputError."""
        items = terms.items() if isinstance(terms, dict) else terms
        row: dict[int, int] = {}
        for e, c in items:
            # type(x) is int, unlike isinstance, rejects a bool
            if type(e) is not int:
                raise InputError(f"bad exponent {e!r}")
            if not isinstance(c, FqElem) or c.field != field:
                raise InputError(f"coefficient {c!r} is not in {field}")
            if c.is_zero():
                continue
            if e in row:
                raise InputError(f"exponent {e} given twice")
            row[e] = c.code
        self._set(field, tuple(sorted(row.items())))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_codes(cls, field: FieldParams,
                   row: dict[int, int]) -> LaurentPoly:
        """The series of an {exponent: code} row of nonzero codes, the form
        FieldParams.accumulate fills; the row itself is not kept."""
        return cls._make(field, tuple(sorted(row.items())))

    @classmethod
    def zero(cls, field: FieldParams) -> LaurentPoly:
        return cls(field, ())

    @classmethod
    def one(cls, field: FieldParams) -> LaurentPoly:
        return cls(field, [(0, field.one())])

    @classmethod
    def t_pow(cls, field: FieldParams, e: int, coeff: FqElem | int = 1) -> LaurentPoly:
        c = field.elem(coeff) if isinstance(coeff, int) else coeff
        return cls(field, [(e, c)])

    @classmethod
    def from_pairs(cls, field: FieldParams, pairs: Sequence[Sequence]) -> LaurentPoly:
        """Build from the JSON form [[exponent, "c0,c1"], ...].

        pairs is a list or tuple of terms.  Exponents must be strictly
        increasing integers, which also sorts the terms and rules out a
        repeated one.  Each term is checked in turn, the first fault raising
        InputError: its shape, its exponent, the order, then its
        coefficient, read as FieldParams.parse reads it; canonical text is
        one lookup in the field's text table.
        """
        if not isinstance(pairs, (list, tuple)):
            raise InputError(f"series {pairs!r} is not a list of terms")
        text_codes, zero = field._text_codes, field._units
        row = []
        prev = None
        for pair in pairs:
            try:
                e, txt = pair
            except (TypeError, ValueError):
                raise InputError(f"bad term {pair!r}: expected "
                                 "[exponent, coeffs]") from None
            # type(x) is int, unlike isinstance, rejects a bool
            if type(e) is not int:
                raise InputError(f"bad exponent {e!r}")
            if prev is not None and e <= prev:
                raise InputError("exponents must be strictly increasing")
            prev = e
            k = text_codes.get(txt) if type(txt) is str else None
            if k is None:
                k = field.parse(txt).code
            if k != zero:
                row.append((e, k))
        return cls._make(field, tuple(row))

    @property
    def terms(self) -> tuple[tuple[int, FqElem], ...]:
        """The nonzero coefficients as (exponent, FqElem), by exponent."""
        elem = self.field.from_code
        return tuple((e, elem(k)) for e, k in self.codes)

    def to_pairs(self) -> list[list]:
        texts = self.field._texts
        return [[e, texts[k]] for e, k in self.codes]

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.codes

    def __bool__(self) -> bool:
        return bool(self.codes)

    def valuation(self) -> int | float:
        """t-adic valuation v_K; INFINITY for the zero series."""
        return self.codes[0][0] if self.codes else INFINITY

    def degree(self) -> int | float:
        return self.codes[-1][0] if self.codes else -INFINITY

    def coeff(self, e: int) -> FqElem:
        """The coefficient of t^e, searched for in the sorted codes; an
        exponent that is not an int (a bool neither) raises InputError."""
        if type(e) is not int:
            raise InputError(f"exponent {e!r} is not an int")
        codes = self.codes
        # (e,) sorts just before every (e, code)
        i = bisect_left(codes, (e,))
        # _units is the code of zero
        hit = i < len(codes) and codes[i][0] == e
        return self.field.from_code(codes[i][1] if hit else self.field._units)

    def support(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.codes)

    def is_in_J(self) -> bool:
        """Membership in J: all exponents negative and prime to p."""
        p = self.field.p
        return all(e < 0 and e % p != 0 for e, _ in self.codes)

    # -- arithmetic, on codes through FieldParams.accumulate -----------------

    def _check(self, other: LaurentPoly) -> None:
        if self.field is not other.field and self.field != other.field:
            raise InputError("series over different fields")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.field == other.field and self.codes == other.codes

    def __hash__(self) -> int:
        return hash((self.field, self.codes))

    def _plus(self, k: int, other: LaurentPoly) -> LaurentPoly:
        """self + g^k * other."""
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        acc = dict(self.codes)
        self.field.accumulate(acc, k, other.codes)
        return LaurentPoly.from_codes(self.field, acc)

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        return self._plus(0, other)     # code 0 is g^0 = 1

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self._plus(self.field._neg_one, other)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly.zero(self.field) - self

    def __mul__(self, other):
        """Product with a series, or with a scalar in F_q as a constant."""
        if isinstance(other, (FqElem, int)):
            other = LaurentPoly.t_pow(self.field, 0, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        field, acc = self.field, {}
        for e, k in other.codes:
            field.accumulate(acc, k, self.codes, e)
        return LaurentPoly.from_codes(field, acc)

    __rmul__ = __mul__

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by t^k; a k that is not an int (a bool neither) raises
        InputError."""
        if type(k) is not int:
            raise InputError(f"shift {k!r} is not an int")
        return LaurentPoly.from_codes(self.field,
                                      {e + k: c for e, c in self.codes})

    def frobenius(self) -> LaurentPoly:
        """The p-power map: coefficients to the p, exponents times p."""
        p, units = self.field.p, self.field._units   # (g^k)^p = g^(k*p)
        return LaurentPoly.from_codes(
            self.field, {p * e: k * p % units for e, k in self.codes})

    def __str__(self) -> str:
        return " + ".join(f"({c})*t^{e}" for e, c in self.terms) or "0"

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def _member_valuation(k: int, g1: LaurentPoly,
                      g2: LaurentPoly) -> int | float:
    """v_K(g^k * g1 + g2), read off the fronts of the two sorted code rows;
    the sum itself is never built.

    The first exponent held by one row only, or shared with a nonzero sum
    (one Zech add), is the valuation.  The leading terms cancel only at a
    shared exponent and for one scale, -c2/c1, so of the members of a
    pencil at most one walks past its first step.
    """
    a, b = g1.codes, g2.codes
    accumulate = g1.field.accumulate
    for (ea, ka), (eb, kb) in zip(a, b):
        if ea != eb:
            return min(ea, eb)
        acc = {eb: kb}
        accumulate(acc, k, ((ea, ka),))
        if acc:
            return ea
    rest = a[len(b):] or b[len(a):]
    return rest[0][0] if rest else INFINITY


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
    It runs on codes, where the p-th root of g^k is g^(k*p^(n-1)); only a
    constant term becomes an FqElem, for its trace and root.
    """
    field = g.field
    p, units = field.p, field._units
    root = p ** (field.n - 1)
    work = dict(g.codes)
    witness: dict[int, int] = {}
    while bad := sorted(e for e in work if e < 0 and e % p == 0):
        for e in bad:
            k = work.pop(e, None)
            if k is None:   # cancelled by an earlier root this round
                continue
            r = ((e // p, k * root % units),)
            field.accumulate(work, 0, r)    # code 0 is g^0 = 1
            field.accumulate(witness, 0, r)
    k0 = work.pop(0, None)
    if k0 is not None:
        c0 = field.from_code(k0)
        if c0.abs_trace() != 0:
            raise NontrivialUnramifiedPart(
                f"constant term {c0} has absolute trace {c0.abs_trace()}")
        x = field.artin_schreier_solve(c0)
        if x is None:
            raise InternalCheckFailed(
                f"no Artin-Schreier root of trace-zero constant {c0}")
        witness[0] = x.code   # the witness so far has negative exponents
    rep = {e: k for e, k in work.items() if e < 0}
    return (LaurentPoly.from_codes(field, rep),
            LaurentPoly.from_codes(field, witness))

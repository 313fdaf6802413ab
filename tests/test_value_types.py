"""Value semantics of the record types ExtensionPair, VResult, ThetaBasis,
Line, Subgroup, Filtration and HerbrandFn: equal fields compare and hash
alike, fields refuse assignment and deletion, repr prints the fields, and
pickle gives an equal value back."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from vfunc.errors import AInPrimeField, InputError, InternalCheckFailed
from vfunc.extension_algebra import ExtensionPair, LElement, validate_pair
from vfunc.laurent import LaurentPoly
from vfunc.ramification import (Filtration, HerbrandFn, Line, Subgroup,
                                herbrand_phi, herbrand_psi, lines,
                                lower_filtration, upper_filtration)
from vfunc.vfunction import ThetaBasis, VResult, theta_lattice, v_formula

from conftest import unchecked_pair

PAIR_REPR = ("ExtensionPair(field=FieldParams(p=2, n=2, modulus=(1, 1, 1)), "
             "a=FqElem(2^2: 0,1), g1=LaurentPoly((1,0)*t^-3), "
             "g2=LaurentPoly((0,1)*t^-3 + (1,0)*t^-1))")


def _parts(field, g2_last: str = "1,0"):
    return dict(field=field, a=field.parse("0,1"),
                g1=LaurentPoly.from_pairs(field, [[-3, "1,0"]]),
                g2=LaurentPoly.from_pairs(field, [[-3, "0,1"],
                                                  [-1, g2_last]]))


def _values(f4) -> dict[str, tuple]:
    """Per type: (a value, an equal value built apart, a distinct value,
    a field name, the value's repr)."""
    pair = validate_pair(**_parts(f4))
    tb = theta_lattice(pair)
    upper, lower = upper_filtration(pair), lower_filtration(pair)
    trivial = Subgroup(2, ())
    return {
        "ExtensionPair": (pair, ExtensionPair(**_parts(f4)),
                          ExtensionPair(**_parts(f4, "1,1")), "g2",
                          PAIR_REPR),
        "VResult": (v_formula(pair), VResult(value=2, s=6, route="formula"),
                    VResult(2, 6, "oracle"), "value",
                    "VResult(value=2, s=6, route='formula')"),
        "ThetaBasis": (tb, ThetaBasis(LElement.one(pair), tb.m2, 0, 2, 6),
                       ThetaBasis(tb.m1, tb.m2, 0, 3, 6), "m2",
                       "ThetaBasis(m1=LElement(((1,0)*t^0)*A^0B^0), "
                       "m2=LElement(((1,1)*t^0)*A^0B^1 + "
                       "((1,0)*t^0)*A^1B^0), e1=0, e2=2, s_prime=6)"),
        "Line": (lines(pair)[2], Line(coeffs=(1, 1), jump=3),
                 Line((1, 1), 5), "jump", "Line(coeffs=(1, 1), jump=3)"),
        # generators are stored canonically: (2, 1) spans (1, 2) mod 3
        "Subgroup": (Subgroup(3, ((2, 1),)), Subgroup(p=3, gens=((1, 2),)),
                     Subgroup(3, ((1, 0),)), "gens",
                     "Subgroup(p=3, gens=((1, 2),))"),
        "Filtration": (upper, Filtration("upper", 2, ((3, trivial),)),
                       lower, "breaks",
                       "Filtration(numbering='upper', p=2, "
                       "breaks=((3, Subgroup(p=2, gens=())),))"),
        "HerbrandFn": (herbrand_phi(lower),
                       HerbrandFn(knots=((0, 0, 1), (3, 3, Fraction(1, 4)))),
                       herbrand_psi(upper), "knots",
                       "HerbrandFn(knots=((0, 0, 1), "
                       "(3, 3, Fraction(1, 4))))"),
    }


@pytest.mark.parametrize("name", ["ExtensionPair", "VResult", "ThetaBasis",
                                  "Line", "Subgroup", "Filtration",
                                  "HerbrandFn"])
def test_value_semantics(f4, name):
    value, same, other, field, text = _values(f4)[name]
    assert type(value).__name__ == name
    assert value == same and hash(value) == hash(same)
    assert value != other
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == getattr(same, field)
    assert repr(value) == text
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value)


def test_constructors_still_check(f4):
    with pytest.raises(AInPrimeField):
        ExtensionPair(**dict(_parts(f4), a=f4.one()))
    with pytest.raises(InputError):
        ExtensionPair(**dict(_parts(f4), g1=1))
    half = Subgroup(2, ((1, 0),))
    with pytest.raises(InternalCheckFailed):
        Filtration("upper", 2, ((3, half),))
    with pytest.raises(InternalCheckFailed):
        Filtration("upper", 2, ((3, half), (1, Subgroup(2, ()))))
    with pytest.raises(InputError):
        Filtration("sideways", 2, ())
    assert Subgroup(5, ((2, 4), (3, 6))).gens == ((1, 2),)
    assert Subgroup(3, ((1, 1), (1, 2))) == Subgroup.full(3)


def test_unchecked_pair_skips_validation(f4):
    # a lies in the prime field, which validation rejects
    parts = dict(_parts(f4), a=f4.one())
    pair = unchecked_pair(**parts)
    assert (pair.field, pair.a, pair.g1, pair.g2) == tuple(parts.values())
    assert pair == unchecked_pair(**parts)
    # unpickling trusts the pickled pair, as it does a LaurentPoly
    assert pickle.loads(pickle.dumps(pair)) == pair


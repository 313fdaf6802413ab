from __future__ import annotations

import itertools
import pickle

import pytest

from vfunc import finite_field
from vfunc.errors import FieldTooLarge, InputError, InternalCheckFailed
from vfunc.finite_field import DEFAULT_MODULI, MAX_Q, FieldParams, FqElem

from conftest import make_rng


def test_params_validation():
    with pytest.raises(InputError):
        FieldParams(4, 2, (1, 1, 1))
    with pytest.raises(InputError):
        FieldParams(2, 2, (1, 0, 1))   # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(InputError):
        FieldParams(2, 2, (1, 1))      # wrong degree
    with pytest.raises(InputError):
        FieldParams(3, 2, (1, 0, 2))   # not monic
    with pytest.raises(InputError):
        FieldParams(2, 0)


def test_modulus_text_reads_as_its_ints():
    text, ints = FieldParams(3, 2, "1,0,1"), FieldParams(3, 2, (1, 0, 1))
    assert text == ints and hash(text) == hash(ints)
    assert text.modulus == (1, 0, 1)
    assert FieldParams(5, 2, " 8 , -5,1").modulus == (3, 0, 1)
    assert FieldParams(5, 2, [3, 0, 1]) == FieldParams(5, 2)


@pytest.mark.parametrize("args", [
    (3, 2, (1.0, 0, 1)),
    (3, 2, (True, 0, 1)),
    (3, 2, ("1", 0, 1)),
    (5, 2, "+3,0,1"),
    (5, 2, "1_3,0,1"),
    (5, 2, "\u0663,0,1"),
    (3, 2, "3\t,0,1"),
    (3, 2, {1: 0}),
    (3, 2, 1),
    (3, True),
    (2.0, 2),
], ids=["float-entry", "bool-entry", "str-entry", "plus", "separator",
        "arabic-indic", "tab", "dict", "int", "bool-n", "float-p"])
def test_mistyped_field_arguments_rejected(args):
    """p, n and the modulus entries are ints and modulus text follows the
    coordinate grammar; anything else raises InputError, not TypeError,
    and is never read as an int."""
    with pytest.raises(InputError) as caught:
        FieldParams(*args)
    assert type(caught.value) is InputError


def test_default_moduli_are_irreducible():
    for (p, n), mod in DEFAULT_MODULI.items():
        fld = FieldParams(p, n)
        assert fld.modulus == mod
        assert fld.q == p ** n


def test_f4_multiplication_table(f4):
    w = f4.gen()
    assert w * w == f4.elem([1, 1])
    assert w * (w + 1) == f4.one()
    assert str(w * w) == "1,1"


def test_f9_generator_square(f9):
    u = f9.gen()
    assert u * u == f9.elem(2)


def test_parse_round_trip(f9, f25):
    for x in f9.elements():
        assert f9.parse(str(x)) == x
    with pytest.raises(InputError):
        f9.parse("1")
    with pytest.raises(InputError):
        f9.parse("1,x")
    # a coordinate is spaces, an optional "-", ASCII digits, spaces; int()
    # alone would read "1_0" as 10, "+3" as 3 and the Arabic-Indic "٣" as 3
    for bad in ("1_0,0", "+3,0", "\u0663,0", "- 3,0", "--3,0", "-,0",
                " ,0", "3\t,0"):
        with pytest.raises(InputError):
            f25.parse(bad)
    for text, coords in ((" 3 , 0", (3, 0)), ("8,5", (3, 0)),
                         ("-2,0", (3, 0)), ("007,-0", (2, 0))):
        assert f25.parse(text).coeffs == coords
    # anything but text is a bad value, named as such
    for bad in (1, [1, 0], (1, 0), None):
        with pytest.raises(InputError, match="is not text") as caught:
            f9.parse(bad)
        assert type(caught.value) is InputError


def test_inverse_and_division(f25):
    one = f25.one()
    for x in f25.elements():
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inv()
        else:
            assert x * x.inv() == one
            assert (one / x) * x == one


def test_pow_matches_repeated_multiplication(f9):
    rng = make_rng("pow")
    for _ in range(30):
        x = f9.random_element(rng)
        acc = f9.one()
        for e in range(7):
            assert x ** e == acc
            acc = acc * x
    u = f9.gen()
    assert u ** -1 == u.inv()
    assert u ** -3 == (u * u * u).inv()


def test_frobenius_is_field_automorphism(f4, f9, f25, f8):
    for fld in (f4, f9, f25, f8):
        els = list(fld.elements())
        for x in els:
            for y in els:
                assert (x + y).frobenius() == x.frobenius() + y.frobenius()
                assert (x * y).frobenius() == x.frobenius() * y.frobenius()
        # fixed field is exactly F_p
        fixed = [x for x in els if x.frobenius() == x]
        assert len(fixed) == fld.p
        assert all(x.is_in_prime_field() for x in fixed)


def test_pth_root_inverts_frobenius_exhaustively(f4, f9, f25, f8):
    for fld in (f4, f9, f25, f8):
        for x in fld.elements():
            assert x.frobenius().pth_root() == x
            assert x.pth_root().frobenius() == x


def test_f4_frobenius_example(f4):
    w = f4.gen()
    assert w.frobenius() == w + 1


def test_f9_pth_root_example(f9):
    u = f9.gen()
    assert (2 * u).pth_root() == u


def test_abs_trace_values(f4):
    w = f4.gen()
    assert w.abs_trace() == 1
    assert (w + 1).abs_trace() == 1
    assert f4.one().abs_trace() == 0   # 1 + 1 = 0 in char 2
    assert f4.zero().abs_trace() == 0


def test_trace_off_the_prime_field_fails_check(f9, monkeypatch):
    # with Frobenius the identity, the "trace" of w over F_9 is 2w
    monkeypatch.setattr(FqElem, "frobenius", lambda self: self)
    with pytest.raises(InternalCheckFailed, match="not in F_p"):
        f9.gen().abs_trace()


def test_trace_is_additive_onto_prime_field(f9, f25, f8):
    for fld in (f9, f25, f8):
        els = list(fld.elements())
        traces = {x.abs_trace() for x in els}
        assert traces == set(range(fld.p))
        for x in els[: fld.p ** 2]:
            for y in els[:5]:
                assert (x + y).abs_trace() == (x.abs_trace() + y.abs_trace()) % fld.p


def test_artin_schreier_solve_examples(f4):
    w = f4.gen()
    assert f4.artin_schreier_solve(f4.one()) == w       # both w, w+1 solve; w is lex-smaller
    assert f4.artin_schreier_solve(w) is None           # trace 1, no solution
    assert f4.artin_schreier_solve(f4.zero()) == f4.zero()


def test_artin_schreier_solvability_iff_trace_zero(f4, f9, f25, f8):
    for fld in (f4, f9, f25, f8):
        p = fld.p
        for c in fld.elements():
            sols = [x for x in fld.elements() if x.frobenius() - x == c]
            assert len(sols) in (0, p)
            assert (len(sols) == p) == (c.abs_trace() == 0)
            got = fld.artin_schreier_solve(c)
            if sols:
                assert got == min(sols, key=lambda x: x.coeffs)
            else:
                assert got is None


def test_field_mismatch_rejected(f4, f9):
    with pytest.raises(InputError):
        f4.gen() + f9.gen()
    with pytest.raises(InputError):
        f9.artin_schreier_solve(f4.one())


def test_equal_values_hash_equal(f9):
    values = list(f9.elements()) + list(range(9))
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y), (x, y)
    one = f9.one()
    assert one != 1 and one != 4 and len({one, 1}) == 2
    assert one + 1 == f9.elem(2) and 2 * one == f9.elem(2)


def test_elements_enumeration_order(f4):
    vecs = [x.coeffs for x in f4.elements()]
    assert vecs == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert vecs == sorted(vecs)


def test_immutability(f4):
    w = f4.gen()
    with pytest.raises(AttributeError):
        w.coeffs = (0, 0)
    with pytest.raises(AttributeError):
        f4.p = 3


def test_tables_agree_with_coordinate_arithmetic(f8):
    """Zech-logarithm sums and log products against vector arithmetic."""
    fields = (FieldParams(2, 1), FieldParams(5, 1), f8,
              FieldParams(2, 4, (1, 1, 0, 0, 1)),
              FieldParams(3, 3, (1, 2, 0, 1)), FieldParams(7, 2, (1, 0, 1)))
    for fld in fields:
        p = fld.p
        els = list(fld.elements())
        assert sorted(x.code for x in els) == list(range(fld.q))
        for x in els:
            assert FqElem(fld, x.coeffs) == x
            assert (-x).coeffs == tuple((-a) % p for a in x.coeffs)
            for y in els:
                assert (x * y).coeffs == fld._vec_mul(x.coeffs, y.coeffs)
                assert (x + y).coeffs == tuple(
                    (a + b) % p for a, b in zip(x.coeffs, y.coeffs))
                assert (x - y).coeffs == tuple(
                    (a - b) % p for a, b in zip(x.coeffs, y.coeffs))


def test_unreduced_vector_rejected(f9):
    with pytest.raises(InputError):
        FqElem(f9, (3, 0))
    with pytest.raises(InputError):
        FqElem(f9, (1, 0, 0))


@pytest.mark.parametrize("make", [
    lambda f: f.elem([0.5, 0]),
    lambda f: f.elem("12"),
    lambda f: f.elem([1.0, 0]),
    lambda f: f.elem([True, 0]),
    lambda f: f.elem(True),
    lambda f: f.elem(0.5),
    lambda f: FqElem(f, (1.0, 0)),
    lambda f: f.gen() ** 0.5,
    lambda f: f.gen() ** True,
], ids=["elem-half", "elem-str", "elem-float", "elem-bool-coordinate",
        "elem-bool", "elem-float-scalar", "fqelem-float", "pow-half",
        "pow-bool"])
def test_non_int_coordinates_and_exponents_rejected(f9, make):
    """A coordinate or exponent that is not an int, or is a bool, raises
    InputError rather than a KeyError or TypeError, or being read as an
    int."""
    with pytest.raises(InputError):
        make(f9)


def test_field_size_is_capped():
    assert MAX_Q == 4096
    big = FieldParams(2, 12, (1, 0, 0, 1) + (0,) * 8 + (1,))
    assert big.q == MAX_Q
    w = big.gen()
    assert w ** (MAX_Q - 1) == big.one() and w ** 4095 * w == w
    with pytest.raises(FieldTooLarge):
        FieldParams(2, 13)
    with pytest.raises(FieldTooLarge):
        FieldParams(3, 8)
    assert issubclass(FieldTooLarge, InputError)


def test_oversize_field_is_rejected_before_primality(monkeypatch):
    """Trial division of p = 10^18 + 3 would take about 10^9 steps, so the
    size check must come first."""
    def no_trial_division(m):
        raise AssertionError(f"primality of {m} tested before the size check")

    monkeypatch.setattr(finite_field, "_is_prime", no_trial_division)
    with pytest.raises(FieldTooLarge):
        FieldParams(10 ** 18 + 3, 2)
    with pytest.raises(FieldTooLarge):
        FieldParams(10 ** 18 + 3, 1)


def test_oversize_composite_is_too_large_not_composite():
    with pytest.raises(FieldTooLarge):
        FieldParams(4100, 1)
    with pytest.raises(FieldTooLarge):
        FieldParams(2, MAX_Q.bit_length() + 1)
    with pytest.raises(InputError, match="not prime"):
        FieldParams(4, 1)


def test_fields_and_elements_survive_pickling(f9):
    f27 = FieldParams(3, 3, (1, 2, 0, 1))
    for field in (f9, f27):
        back = pickle.loads(pickle.dumps(field))
        assert back == field and hash(back) == hash(field)
        for x in field.elements():
            y = pickle.loads(pickle.dumps(x))
            assert y == x and hash(y) == hash(x)
            assert y * field.gen() == x * field.gen()


def walked_tables(field):
    """_vecs, _log and _zech as the reference walk builds them: each
    candidate's powers, in lexicographic order, walked until they return to
    1, keeping the first that reaches all q - 1 units."""
    p, n = field.p, field.n
    one = (1,) + (0,) * (n - 1)
    for g in list(itertools.product(range(p), repeat=n))[1:]:
        vecs = [one]
        cur = g
        while cur != one:
            vecs.append(cur)
            cur = field._vec_mul(cur, g)
        if len(vecs) == field.q - 1:
            break
    vecs.append((0,) * n)
    log = {v: k for k, v in enumerate(vecs)}
    zech = tuple(log[((v[0] + 1) % p,) + v[1:]] for v in vecs[:-1])
    return tuple(vecs), log, zech


@pytest.mark.parametrize("p, n, modulus", [
    *((p, n, mod) for (p, n), mod in DEFAULT_MODULI.items()),
    (2, 1, None), (5, 1, None),
    (2, 3, (1, 1, 0, 1)), (3, 3, (1, 2, 0, 1)), (7, 3, (1, 1, 0, 1)),
    (61, 2, "59,0,1"),
    (2, 12, (1, 0, 0, 1) + (0,) * 8 + (1,)),
])
def test_primitive_element_test_picks_the_walked_tables(p, n, modulus):
    """The power test g^((q - 1)/r) != 1 chooses the same generator as
    walking every candidate to its order, so every code is unchanged."""
    field = FieldParams(p, n, modulus)
    assert (field._vecs, field._log, field._zech) == walked_tables(field)

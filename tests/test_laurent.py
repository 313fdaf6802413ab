from __future__ import annotations

import pickle

import pytest

from vfunc.errors import InputError, InternalCheckFailed, NontrivialUnramifiedPart
from vfunc.finite_field import FieldParams, FqElem
from vfunc.laurent import INFINITY, LaurentPoly, reduce_to_J, wp

from conftest import make_rng, random_laurent


def test_zero_normalization(f4):
    z = LaurentPoly(f4, [(-3, f4.zero()), (2, f4.zero())])
    assert z.is_zero()
    assert z == LaurentPoly.zero(f4)
    assert z.valuation() == INFINITY
    f = LaurentPoly.t_pow(f4, -1)
    assert (f - f).is_zero()


def test_valuation_basics(f9):
    f = LaurentPoly(f9, [(-4, f9.one()), (2, f9.gen())])
    assert f.valuation() == -4
    assert f.degree() == 2
    assert LaurentPoly.one(f9).valuation() == 0


def test_valuation_multiplicative(f9, f25):
    rng = make_rng("val-mult")
    for fld in (f9, f25):
        for _ in range(100):
            f = random_laurent(fld, rng)
            g = random_laurent(fld, rng)
            fg = f * g
            # over a field (an integral domain) the extremes never cancel
            assert fg.valuation() == f.valuation() + g.valuation()
            assert (f + g).valuation() >= min(f.valuation(), g.valuation())


def test_scalar_multiplication_example(f4):
    w = f4.gen()
    f = LaurentPoly.t_pow(f4, -3, w)
    assert w * f == LaurentPoly.t_pow(f4, -3, w + 1)
    assert f * w == w * f
    assert 1 * f == f
    assert 0 * f == LaurentPoly.zero(f4)


def test_ring_axioms_random(f9):
    rng = make_rng("ring")
    for _ in range(60):
        a = random_laurent(f9, rng)
        b = random_laurent(f9, rng)
        c = random_laurent(f9, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == LaurentPoly.zero(f9)


def test_frobenius_series_example(f4):
    w = f4.gen()
    f = LaurentPoly(f4, [(-1, w), (1, f4.one())])
    assert f.frobenius() == LaurentPoly(f4, [(-2, w + 1), (2, f4.one())])


def test_frobenius_series_is_pth_power(f9):
    rng = make_rng("frob-series")
    for _ in range(25):
        f = random_laurent(f9, rng)
        cube = f * f * f
        assert f.frobenius() == cube


def test_is_in_J(f4, f9):
    assert LaurentPoly.zero(f4).is_in_J()
    assert LaurentPoly.t_pow(f4, -3).is_in_J()
    assert not LaurentPoly.t_pow(f4, -2).is_in_J()
    assert not LaurentPoly.t_pow(f4, 1).is_in_J()
    assert not LaurentPoly.one(f4).is_in_J()
    assert LaurentPoly(f9, [(-8, f9.one()), (-1, f9.gen())]).is_in_J()
    assert not LaurentPoly(f9, [(-6, f9.one())]).is_in_J()


def test_json_pairs_round_trip(f9):
    f = LaurentPoly(f9, [(-8, f9.one()), (-1, f9.gen())])
    pairs = f.to_pairs()
    assert pairs == [[-8, "1,0"], [-1, "0,1"]]
    assert LaurentPoly.from_pairs(f9, pairs) == f
    with pytest.raises(InputError):
        LaurentPoly.from_pairs(f9, [[-1, "1,0"], [-1, "0,1"]])
    with pytest.raises(InputError):
        LaurentPoly.from_pairs(f9, [[0, "1,0"], [-1, "0,1"]])
    with pytest.raises(InputError):
        LaurentPoly.from_pairs(f9, [["-1", "1,0"]])


def check_reduction_contract(g, rep, witness):
    assert rep.is_in_J()
    residue = g - rep - wp(witness)
    assert all(e > 0 for e, _ in residue.terms)
    # witness only carries nonpositive exponents
    assert all(e <= 0 for e, _ in witness.terms)


def test_reduce_simple_pole_chain(f4):
    g = LaurentPoly.t_pow(f4, -2)
    rep, wit = reduce_to_J(g)
    assert rep == LaurentPoly.t_pow(f4, -1)
    assert wit == LaurentPoly.t_pow(f4, -1)
    check_reduction_contract(g, rep, wit)

    g = LaurentPoly.t_pow(f4, -4)
    rep, wit = reduce_to_J(g)
    assert rep == LaurentPoly.t_pow(f4, -1)
    assert wit == LaurentPoly(f4, [(-2, f4.one()), (-1, f4.one())])
    check_reduction_contract(g, rep, wit)


def test_reduce_with_coefficient_roots(f4):
    # w*t^-4 reduces via (w^(1/2)) t^-2 = (w+1) t^-2, then w^(1/4) t^-1 = w t^-1
    w = f4.gen()
    g = LaurentPoly.t_pow(f4, -4, w)
    rep, wit = reduce_to_J(g)
    assert rep == LaurentPoly.t_pow(f4, -1, w)
    assert wit == LaurentPoly(f4, [(-2, w + 1), (-1, w)])
    check_reduction_contract(g, rep, wit)


def test_reduce_discards_positive_part(f9):
    g = LaurentPoly(f9, [(-1, f9.one()), (3, f9.gen()), (6, f9.one())])
    rep, wit = reduce_to_J(g)
    assert rep == LaurentPoly.t_pow(f9, -1)
    assert wit.is_zero()


def test_reduce_constant_with_zero_trace(f4):
    # over F_4 the constant 1 has trace 0 and is wp(w) + w picked up at exponent 0
    g = LaurentPoly.one(f4)
    rep, wit = reduce_to_J(g)
    assert rep.is_zero()
    assert wit == LaurentPoly(f4, [(0, f4.gen())])
    check_reduction_contract(g, rep, wit)


def test_reduce_constant_with_nonzero_trace(f4, f9):
    with pytest.raises(NontrivialUnramifiedPart):
        reduce_to_J(LaurentPoly.t_pow(f4, 0, f4.gen()))
    with pytest.raises(NontrivialUnramifiedPart):
        reduce_to_J(LaurentPoly.one(f9))
    # deep chains can surface a constant: t^-p picks up exponent -1, not 0,
    # so only a genuine constant triggers the error
    g = LaurentPoly(f9, [(0, f9.one()), (-1, f9.one())])
    with pytest.raises(NontrivialUnramifiedPart):
        reduce_to_J(g)


def test_reduce_without_artin_schreier_root_fails_check(f4, monkeypatch):
    monkeypatch.setattr(FieldParams, "artin_schreier_solve",
                        lambda self, c: None)
    with pytest.raises(InternalCheckFailed, match="Artin-Schreier"):
        reduce_to_J(LaurentPoly.one(f4))


def test_reduce_idempotent_and_wp_invariant(f4, f9, f8):
    rng = make_rng("reduce-props")
    # over F_8 the p-th root is not the p-th power, as it is when n = 2
    for fld in (f4, f9, f8):
        for _ in range(120):
            g = random_laurent(fld, rng, lo=-9, hi=3)
            try:
                rep, wit = reduce_to_J(g)
            except NontrivialUnramifiedPart:
                continue
            check_reduction_contract(g, rep, wit)
            rep2, wit2 = reduce_to_J(rep)
            assert rep2 == rep and wit2.is_zero()
            # shifting by wp(h) with nonpositive support fixes the representative
            h = random_laurent(fld, rng, lo=-4, hi=0)
            rep3, _ = reduce_to_J(g + wp(h))
            assert rep3 == rep


def test_reduce_representative_is_prime_field_linear(f9):
    rng = make_rng("reduce-linear")
    for _ in range(60):
        g1 = random_laurent(f9, rng, lo=-9, hi=-1)
        g2 = random_laurent(f9, rng, lo=-9, hi=-1)
        r1, _ = reduce_to_J(g1)
        r2, _ = reduce_to_J(g2)
        for lam in range(3):
            for mu in range(3):
                combo = lam * g1 + mu * g2
                r, _ = reduce_to_J(combo)
                assert r == lam * r1 + mu * r2


def test_shift_and_coeff(f4):
    w = f4.gen()
    f = LaurentPoly(f4, [(-3, w), (-1, f4.one())])
    assert f.shift(2) == LaurentPoly(f4, [(-1, w), (1, f4.one())])
    assert f.coeff(-3) == w
    assert f.coeff(0).is_zero()
    assert f.support() == (-3, -1)


def test_coeff_reads_every_exponent(f9):
    rng = make_rng("coeff-series")
    span = range(-10, 7)
    for f in [random_laurent(f9, rng) for _ in range(4)] \
            + [LaurentPoly.zero(f9)]:
        terms = dict(f.terms)
        assert [f.coeff(e) for e in span] \
            == [terms.get(e, f9.zero()) for e in span]


@pytest.mark.parametrize("e", [True, False, 1.0, -2.0, 0.5])
def test_coeff_rejects_malformed_exponents(f9, e):
    """For g = w*t + t^-2, coeff(True) and coeff(1.0) would read w, and
    coeff(-2.0) a 1, if the exponent were not checked."""
    g = LaurentPoly(f9, [(1, f9.gen()), (-2, f9.one())])
    with pytest.raises(InputError):
        g.coeff(e)


@pytest.mark.parametrize("k", [0.5, 1.0, True])
def test_shift_rejects_malformed_amounts(f9, k):
    """shift(0.5) would build float exponents, which the constructor
    rejects."""
    g = LaurentPoly(f9, [(1, f9.gen()), (-2, f9.one())])
    with pytest.raises(InputError):
        g.shift(k)


def test_mixed_field_arithmetic_rejected(f4, f9):
    with pytest.raises(InputError):
        LaurentPoly.one(f4) + LaurentPoly.one(f9)
    with pytest.raises(InputError):
        LaurentPoly.one(f4) * f9.gen()


def test_monomial_coefficient_over_another_field_rejected(f4, f9):
    """t_pow takes no coefficient from another field: its code would be
    read in this field's tables as some unrelated element."""
    with pytest.raises(InputError):
        LaurentPoly.t_pow(f9, 0, f4.gen())
    with pytest.raises(InputError):
        LaurentPoly.t_pow(f4, -1, f9.one())
    assert LaurentPoly.t_pow(f9, 0, 4) == LaurentPoly.one(f9)


def test_constructor_rejects_a_coefficient_over_another_field(f4, f9):
    """A series holds codes, and another field's code read in this field's
    tables is an unrelated element, so the constructor takes none."""
    with pytest.raises(InputError):
        LaurentPoly(f9, [(-1, f4.gen())])
    with pytest.raises(InputError):
        LaurentPoly(f4, {-1: f4.one(), 2: f9.gen()})
    with pytest.raises(InputError):
        LaurentPoly(f4, [(-1, 1)])
    with pytest.raises(InputError):
        LaurentPoly(f9, [(-1, f9.one()), (-1, f9.gen())])
    # a zero coefficient is dropped before the repeat is seen
    assert LaurentPoly(f9, [(-1, f9.zero()), (-1, f9.gen())]) == \
        LaurentPoly.t_pow(f9, -1, f9.gen())


def test_series_arithmetic_does_no_fq_element_arithmetic(f9, monkeypatch):
    """Series are held on codes, so sums, products, Frobenius and the
    reduction to J (without a constant term) run on codes alone."""
    rng = make_rng("codes-only")
    x, y = random_laurent(f9, rng), random_laurent(f9, rng)
    # exponents -9 and -3 take the p-th root path twice
    g = random_laurent(f9, rng, lo=-8, hi=-1) + LaurentPoly(
        f9, [(-9, f9.gen()), (-3, f9.one())])
    called = []

    def spy(name, real):
        def wrapped(*args):
            called.append(name)
            return real(*args)
        return wrapped

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__neg__", "__pow__", "__truediv__",
                 "frobenius", "pth_root"):
        monkeypatch.setattr(FqElem, name, spy(name, getattr(FqElem, name)))
    results = [x + y, x - y, -x, x * y, x * f9.gen(), 2 * x, x.frobenius(),
               wp(x), *reduce_to_J(g)]
    assert called == []
    monkeypatch.undo()
    rep, witness = results[-2:]
    assert rep != g and not witness.is_zero()
    check_reduction_contract(g, rep, witness)


def test_product_matches_term_by_term_reference(f4, f8, f9, f25):
    """The code-level product loop against sums of monomial products."""
    rng = make_rng("product-loop")
    for fld in (FieldParams(2, 1), f4, f8, f9, f25):
        for _ in range(12):
            a = random_laurent(fld, rng, -6, 3, density=0.8)
            b = random_laurent(fld, rng, -6, 3, density=0.8)
            ref = LaurentPoly.zero(fld)
            for e1, c1 in a.terms:
                for e2, c2 in b.terms:
                    ref = ref + LaurentPoly.t_pow(fld, e1 + e2, c1 * c2)
            assert a * b == ref
        # the t coefficient cancels: (1 + t)(1 - t) = 1 - t^2
        x = LaurentPoly(fld, [(0, fld.one()), (1, fld.one())])
        y = LaurentPoly(fld, [(0, fld.one()), (1, -fld.one())])
        assert (x * y).terms == ((0, fld.one()), (2, -fld.one()))


def test_zero_operands_come_back_unchanged(f4, f9):
    rng = make_rng("zero-operands")
    zero = LaurentPoly.zero(f9)
    for _ in range(5):
        x = random_laurent(f9, rng)
        assert x + zero == x and zero + x == x
        assert x - zero == x
        assert x * zero == zero and zero * x == zero
        assert zero * f9.gen() == zero
    assert -zero == zero
    assert (zero + zero).is_zero()
    # a zero from another field is still a mixed-field operand
    one = LaurentPoly.one(f9)
    other_zero = LaurentPoly.zero(f4)
    for op in (lambda: one + other_zero, lambda: other_zero + one,
               lambda: one - other_zero, lambda: one * other_zero,
               lambda: other_zero * one, lambda: zero + other_zero,
               lambda: other_zero * f9.gen()):
        with pytest.raises(InputError):
            op()


def test_series_survive_pickling(f9):
    rng = make_rng("pickle-series")
    for f in (random_laurent(f9, rng), LaurentPoly.zero(f9)):
        back = pickle.loads(pickle.dumps(f))
        assert back == f and hash(back) == hash(f)
        assert back * back == f * f

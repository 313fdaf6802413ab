"""Checks for the rank-p^2 algebra, its group action, and norms."""

import pickle
from math import comb

import pytest

from vfunc import (
    AInPrimeField,
    FieldParams,
    G1Zero,
    G2DependentOnG1,
    InputError,
    InternalCheckFailed,
    LaurentPoly,
    MixedExtensions,
    NotInJ,
    PoleTooDeep,
    SamplingExhausted,
    TooManyTerms,
)
from vfunc.exact_linalg import det
from vfunc.extension_algebra import (
    MAX_POLE_ORDER,
    MAX_TERMS,
    SIGMA,
    TAU,
    LElement,
    _index,
    _key,
    act,
    act_on_terms,
    binomial_basis,
    validate_pair,
)

from conftest import (
    MAX_DRAWS,
    coeffs,
    make_rng,
    matmul,
    mult_matrix,
    random_laurent,
    random_pair,
    unchecked_pair,
)


def base_pair(f4):
    """g1 = t^-3, g2 = w*t^-3 + t^-1, a = w over F_4."""
    w = f4.gen()
    g1 = LaurentPoly.t_pow(f4, -3)
    g2 = LaurentPoly.t_pow(f4, -3, w) + LaurentPoly.t_pow(f4, -1)
    return validate_pair(f4, w, g1, g2)


# -- validation --------------------------------------------------------------

def test_validation_rejects_bad_pairs(f4, f9):
    w = f4.gen()
    good = LaurentPoly.t_pow(f4, -1)
    with pytest.raises(NotInJ):
        validate_pair(f4, w, LaurentPoly.t_pow(f4, -2), good)
    with pytest.raises(NotInJ):
        validate_pair(f4, w, good, LaurentPoly.t_pow(f4, 1))
    with pytest.raises(G1Zero):
        validate_pair(f4, w, LaurentPoly.zero(f4), good)
    with pytest.raises(AInPrimeField):
        validate_pair(f4, f4.one(), good, LaurentPoly.t_pow(f4, -3))
    u = f9.gen()
    h = LaurentPoly.t_pow(f9, -2)
    with pytest.raises(G2DependentOnG1):
        validate_pair(f9, u, h, 2 * h)
    with pytest.raises(G2DependentOnG1):
        validate_pair(f9, u, h, LaurentPoly.zero(f9))


@pytest.mark.parametrize("name, value", [
    ("a", 3), ("g1", "t^-1"), ("g2", None)])
def test_validation_rejects_wrong_typed_components(f4, name, value):
    """A component of the wrong type is named in an InputError, before
    the field comparison reads its field."""
    parts = {"a": f4.gen(), "g1": LaurentPoly.t_pow(f4, -1),
             "g2": LaurentPoly.t_pow(f4, -3)}
    parts[name] = value
    with pytest.raises(InputError, match=f"^{name} must be a "):
        validate_pair(f4, **parts)


@pytest.mark.parametrize("build", [
    lambda pair, g: LElement(pair, {0: 5}),
    lambda pair, g: LElement(pair, {"a": g}),
    lambda pair, g: LElement(pair, {0.5: g}),
    lambda pair, g: LElement(pair, {True: g}),
    lambda pair, g: LElement.monomial(pair, 0.5, 0),
    lambda pair, g: LElement.monomial(pair, 0, True),
    lambda pair, g: LaurentPoly(g.field, [(0.5, g.field.one())]),
    lambda pair, g: LaurentPoly(g.field, {True: g.field.one()}),
    lambda pair, g: LaurentPoly.t_pow(g.field, 0.5),
    lambda pair, g: LaurentPoly.t_pow(g.field, False),
    lambda pair, g: LElement.alpha(pair) ** 2.5,
    lambda pair, g: LElement.alpha(pair) ** True,
], ids=["int-coordinate", "str-index", "float-index", "bool-index",
        "float-monomial", "bool-monomial", "float-exponent",
        "bool-exponent", "float-t-pow", "bool-t-pow", "float-power",
        "bool-power"])
def test_constructors_reject_malformed_indices_and_exponents(f4, build):
    """An index, exponent or power that is not an int, a bool included,
    and a coordinate that is not a series raise InputError, as kernel and
    from_pairs do, instead of a bare exception or a float key."""
    pair = base_pair(f4)
    with pytest.raises(InputError):
        build(pair, pair.g1)


def test_pole_order_is_capped(f9):
    """Pole order MAX_POLE_ORDER passes; one deeper is rejected before the
    J and dependence checks, so even g2 = g1 reports the pole."""
    u = f9.gen()
    at_cap = LaurentPoly.t_pow(f9, -MAX_POLE_ORDER)
    deeper = LaurentPoly.t_pow(f9, -MAX_POLE_ORDER - 1, u)
    short = LaurentPoly.t_pow(f9, -1)
    assert MAX_POLE_ORDER % 3 and (MAX_POLE_ORDER + 1) % 3
    validate_pair(f9, u, at_cap, short)
    validate_pair(f9, u, short, at_cap)
    with pytest.raises(PoleTooDeep):
        validate_pair(f9, u, deeper, short)
    with pytest.raises(PoleTooDeep):
        validate_pair(f9, u, short, deeper + short)
    with pytest.raises(PoleTooDeep):
        validate_pair(f9, u, deeper, deeper)
    with pytest.raises(PoleTooDeep):
        validate_pair(f9, u, LaurentPoly.t_pow(f9, -3 * MAX_POLE_ORDER),
                      short)


def test_term_count_is_capped(f4):
    """MAX_TERMS terms pass; one more is rejected before the dependence
    check, so even g2 = g1 reports the term count."""
    w = f4.gen()
    at_cap = LaurentPoly(f4, [(-2 * k - 1, f4.one())
                              for k in range(MAX_TERMS)])
    over = at_cap + LaurentPoly.t_pow(f4, -2 * MAX_TERMS - 1)
    short = LaurentPoly.t_pow(f4, -1, w)
    validate_pair(f4, w, at_cap, short)
    with pytest.raises(TooManyTerms):
        validate_pair(f4, w, over, short)
    with pytest.raises(TooManyTerms):
        validate_pair(f4, w, short, over)
    with pytest.raises(TooManyTerms):
        validate_pair(f4, w, over, over)


def test_random_pair_gives_up_when_no_pair_exists():
    """Over F_3 every a lies in the prime field: the nested draws stop
    after MAX_DRAWS choices of a, not MAX_DRAWS^2."""
    rng = make_rng("no-valid-a")
    calls = []
    real = rng.randrange
    rng.randrange = lambda *args: calls.append(args) or real(*args)
    with pytest.raises(SamplingExhausted):
        random_pair(FieldParams(3, 1), rng)
    # one pair attempt: a few coefficients for g1 and g2, then MAX_DRAWS
    # choices of a, one randrange each
    assert MAX_DRAWS <= len(calls) < MAX_DRAWS + 20


def test_pair_is_hashable_and_frozen(f4):
    pair = base_pair(f4)
    assert hash(pair) == hash(base_pair(f4))
    with pytest.raises(Exception):
        pair.a = f4.one()


# -- action ------------------------------------------------------------------

def test_action_on_generators(f4):
    pair = base_pair(f4)
    al, be = LElement.alpha(pair), LElement.beta(pair)
    one = LElement.one(pair)
    assert act(TAU, al) == al + one
    assert act(TAU, be) == be
    assert act(SIGMA, be) == be + one
    assert act(SIGMA, al) == al


def test_action_on_pairing_element(f4):
    pair = base_pair(f4)
    g = LElement.gamma(pair)
    assert g == pair.a * LElement.alpha(pair) + LElement.beta(pair)
    one = LElement.one(pair)
    assert act(SIGMA, g) == g + one
    assert act(TAU, g) == g + pair.a * one
    # sigma^i tau^j moves it by a*j + i
    assert act((1, 1), g) == g + (pair.a + pair.field.one()) * one


def test_action_is_ring_automorphism(f9):
    rng = make_rng("act-auto")
    pair = random_pair(f9, rng)
    for _ in range(4):
        x = random_element(pair, rng)
        y = random_element(pair, rng)
        g = (rng.randrange(3), rng.randrange(3))
        assert act(g, x + y) == act(g, x) + act(g, y)
        assert act(g, x * y) == act(g, x) * act(g, y)


def test_action_composes(f9):
    rng = make_rng("act-compose")
    pair = random_pair(f9, rng)
    x = random_element(pair, rng)
    for _ in range(6):
        g = (rng.randrange(3), rng.randrange(3))
        h = (rng.randrange(3), rng.randrange(3))
        assert act((g[0] + h[0], g[1] + h[1]), x) == act(g, act(h, x))
    assert act((0, 0), x) == x


def test_action_on_codes_matches_the_binomial_formula():
    """act_on_terms against sum C(k, m) j^(k-m) C(l, r) i^(l-r) c over
    F_q, for p = 2..13 and exponent pairs unreduced or negative."""
    rng = make_rng("act-codes")
    for p in (2, 3, 5, 7, 11, 13):
        field, n = FieldParams(p, 2), p * p
        for _ in range(6):
            x = {}
            for idx in rng.sample(range(n), rng.randint(1, 4)):
                for e in rng.sample(range(-3, 3), rng.randint(1, 3)):
                    x[_key(p, e, idx)] = rng.randrange(field.q - 1)
            g = (rng.randint(-2 * p, 2 * p), rng.randint(-2 * p, 2 * p))
            expected = {}
            for key, code in x.items():
                e, idx = _index(p, key)
                k, l = divmod(idx, p)
                for m in range(k + 1):
                    for r in range(l + 1):
                        s = (comb(k, m) * comb(l, r) * g[1] ** (k - m)
                             * g[0] ** (l - r)) % p
                        out = _key(p, e, m * p + r)
                        expected[out] = (expected.get(out, field.zero())
                                         + field.from_code(code) * s)
            assert act_on_terms(field, g, x) == {
                key: c.code for key, c in expected.items() if c}


def random_element(pair, rng, lo=-4, hi=3, density=0.4):
    coords = [random_laurent(pair.field, rng, lo, hi, density=density)
              for _ in range(pair.p ** 2)]
    return LElement(pair, dict(enumerate(coords)))


def test_only_nonzero_coordinates_are_stored(f9):
    rng = make_rng("sparse-terms")
    pair = random_pair(f9, rng)
    zero = LaurentPoly.zero(f9)
    for _ in range(4):
        x = random_element(pair, rng, density=0.2)
        y = random_element(pair, rng, density=0.2)
        dense = coeffs(x)
        assert len(dense) == 9 and LElement(pair, dict(enumerate(dense))) == x
        by_index = {i: c for i, c in enumerate(dense) if rng.random() < 0.7}
        from_dict = LElement(pair, by_index)
        with_zeros = LElement(pair, {i: by_index.get(i, zero) for i in range(9)})
        assert from_dict == with_zeros and hash(from_dict) == hash(with_zeros)
        for el in (x + y, x - y, x - x, -x, x * y, x * f9.gen(), x * 3,
                   x * zero, act((1, 2), x)):
            assert all(not c.is_zero() for _, c in el.terms)
            assert [i for i, _ in el.terms] == sorted({i for i, _ in el.terms})
    assert LElement(pair, {}) == LElement.zero(pair)
    for idx in (-1, 9):
        with pytest.raises(InputError):
            LElement(pair, {idx: LaurentPoly.one(f9)})


def test_coordinate_over_another_field_rejected(f4, f9):
    """A coordinate or scalar over another field raises instead of having
    its codes read in this field."""
    pair = random_pair(f9, make_rng("foreign-coordinate"))
    with pytest.raises(InputError):
        LElement(pair, {0: LaurentPoly.t_pow(f4, -1, f4.gen())})
    with pytest.raises(InputError):
        LElement(pair, {4: LaurentPoly.zero(f4)})
    x = LElement.alpha(pair)
    for scalar in (f4.gen(), LaurentPoly.one(f4)):
        with pytest.raises(InputError):
            x * scalar
        with pytest.raises(InputError):
            scalar * x
    with pytest.raises(InputError):
        LElement.from_k(pair, LaurentPoly.one(f4))
    with pytest.raises(InputError):
        LElement.monomial(pair, 1, 1, f4.gen())


@pytest.mark.parametrize("i, j", [(0, 3), (3, 0), (-1, 0), (0, -1),
                                  (0.5, 0), (0, 1.0), (True, 0), (0, False)])
def test_coeff_rejects_malformed_exponents(f9, i, j):
    """At p = 3, coeff(0, 3) would read alpha's coordinate and
    coeff(0.5, 0) a zero if the exponents were not checked as monomial's
    are."""
    pair = random_pair(f9, make_rng("coeff-exponents"))
    with pytest.raises(InputError):
        LElement.alpha(pair).coeff(i, j)


def test_coeff_reads_each_coordinate(f9):
    rng = make_rng("coeff-read")
    pair = random_pair(f9, rng)
    for _ in range(4):
        x = random_element(pair, rng, density=0.3)
        dense = coeffs(x)
        assert [x.coeff(i, j) for i in range(3) for j in range(3)] \
            == list(dense)


def test_arithmetic_and_action_build_no_laurent(f9, monkeypatch):
    """Elements are held on codes, so sums, products and the action on
    existing elements never go through LaurentPoly."""
    rng = make_rng("no-laurent")
    pair = random_pair(f9, rng)
    x, y = random_element(pair, rng), random_element(pair, rng)
    built = []
    init = LaurentPoly.__init__

    def counting(self, *args, **kw):
        built.append(args)
        init(self, *args, **kw)

    monkeypatch.setattr(LaurentPoly, "__init__", counting)
    results = [x + y, x - y, -x, x * y, act((1, 2), x), act(TAU, y)]
    assert built == []
    assert all(isinstance(r, LElement) for r in results)


def test_equal_elements_hash_equal_across_operation_orders(f9):
    """Codes fill in the order of the operations that built them, so
    equal elements reached in different orders hold their entries in
    different orders; equality and hash must not see it."""
    rng = make_rng("order-free")
    pair = random_pair(f9, rng)
    x, y, z = (random_element(pair, rng) for _ in range(3))

    def order(el):
        return list(el.codes)

    cases = [((x + y) + z, x + (y + z)), (x + y, y + x), (x * y, y * x),
             ((x - y) + y, x), (act(SIGMA, x + y), act(SIGMA, y) + act(SIGMA, x))]
    for a, b in cases:
        assert a == b and hash(a) == hash(b)
        assert a.terms == b.terms
    # the check above is only a check if some orders really differ
    assert any(order(a) != order(b) for a, b in cases)
    assert len({x + y, y + x, (x + y) + z, x + (y + z)}) == 2


# -- ring structure ----------------------------------------------------------

def test_defining_relations(f4, f9):
    for field in (f4, f9):
        rng = make_rng(f"defrel-{field.p}")
        pair = random_pair(field, rng)
        p = field.p
        al, be = LElement.alpha(pair), LElement.beta(pair)
        assert al ** p == al + LElement.from_k(pair, pair.g1)
        assert be ** p == be + LElement.from_k(pair, pair.g2)


def test_dense_products_are_commutative_associative_distributive(f4, f9, f25):
    for field in (f4, f9, f25):
        rng = make_rng(f"dense-ring-{field.p}")
        pair = random_pair(field, rng, min_exp=-3)
        x, y, z = (random_element(pair, rng, lo=-2, hi=0, density=1.0)
                   for _ in range(3))
        assert all(not c.is_zero() for el in (x, y, z) for c in coeffs(el))
        xy = x * y
        assert xy == y * x
        assert xy * z == x * (y * z)
        assert x * (y + z) == xy + x * z


def test_pairing_element_artin_schreier_identity(f4, f9):
    """gamma^p - gamma = (a^p - a)*alpha + f with f = a^p*g1 + g2."""
    for field in (f4, f9):
        rng = make_rng(f"gamma-as-{field.p}")
        pair = random_pair(field, rng)
        p = field.p
        g = LElement.gamma(pair)
        lhs = g ** p - g
        ap = pair.a ** p
        f_series = ap * pair.g1 + pair.g2
        rhs = (ap - pair.a) * LElement.alpha(pair) \
            + LElement.from_k(pair, f_series)
        assert lhs == rhs


def test_pairing_element_orbit_product(f4):
    """prod_i act(sigma^i, gamma) telescopes to gamma^p - gamma."""
    pair = base_pair(f4)
    g = LElement.gamma(pair)
    prod = LElement.one(pair)
    for i in range(2):
        prod = prod * act((i, 0), g)
    assert prod == g ** 2 - g


def test_mixed_extension_rejected(f4):
    rng = make_rng("mixed")
    p1 = base_pair(f4)
    g2b = LaurentPoly.t_pow(f4, -3, f4.gen()) + LaurentPoly.t_pow(f4, -5)
    p2 = validate_pair(f4, f4.gen(), p1.g1, g2b)
    with pytest.raises(MixedExtensions):
        LElement.alpha(p1) + LElement.alpha(p2)
    with pytest.raises(MixedExtensions):
        LElement.alpha(p1) * LElement.beta(p2)


def test_scalar_multiplication(f4):
    pair = base_pair(f4)
    al = LElement.alpha(pair)
    w = f4.gen()
    tpow = LaurentPoly.t_pow(f4, 2)
    assert (w * al).coeff(1, 0) == LaurentPoly.t_pow(f4, 0, w)
    assert (tpow * al).coeff(1, 0) == tpow
    assert 0 * al == LElement.zero(pair)
    assert 1 * al == al


# -- norms and valuations ----------------------------------------------------

def test_norm_of_base_scalars(f4, f9):
    for field in (f4, f9):
        rng = make_rng(f"norm-scalar-{field.p}")
        pair = random_pair(field, rng)
        p2 = field.p ** 2
        t1 = LaurentPoly.t_pow(field, 1)
        assert LElement.from_k(pair, t1).norm() == LaurentPoly.t_pow(field, p2)
        assert LElement.from_k(pair, t1).valuation() == p2
        c = field.gen()
        cl = LElement.from_k(pair, LaurentPoly.t_pow(field, 0, c))
        assert cl.norm() == LaurentPoly.t_pow(field, 0, c ** p2)
        assert cl.valuation() == 0


def test_norm_of_generators_is_power_of_defining_series(f4, f9):
    """N(alpha) = g1^p since the conjugates are alpha + j over j in F_p."""
    for field in (f4, f9):
        rng = make_rng(f"norm-gen-{field.p}")
        pair = random_pair(field, rng, min_exp=-3)
        p = field.p
        g1p = LaurentPoly.one(field)
        g2p = LaurentPoly.one(field)
        for _ in range(p):
            g1p = g1p * pair.g1
            g2p = g2p * pair.g2
        assert LElement.alpha(pair).norm() == g1p
        assert LElement.beta(pair).norm() == g2p
        assert LElement.alpha(pair).valuation() == p * pair.g1.valuation()


def test_norm_equals_det_of_multiplication_matrix(f4, f8, f9):
    """The conjugate product agrees with the determinant reference."""
    f27 = FieldParams(3, 3, (1, 2, 0, 1))
    for field in (f4, f8, f9, f27):
        rng = make_rng(f"norm-det-{field.p}-{field.n}")
        pair = random_pair(field, rng, min_exp=-4)
        for density in (0.4, 1.0):
            x = random_element(pair, rng, lo=-2, hi=1, density=density)
            assert x.norm() == det(field, mult_matrix(x))


def test_norm_matches_conjugate_product(f4, f9):
    """The norm equals the product of all conjugates taken in one pass."""
    for field, reps in ((f4, 3), (f9, 1)):
        rng = make_rng(f"norm-conj-{field.p}")
        pair = random_pair(field, rng, min_exp=-3)
        for _ in range(reps):
            x = random_element(pair, rng, lo=-2, hi=2)
            prod = LElement.one(pair)
            for i in range(field.p):
                for j in range(field.p):
                    prod = prod * act((i, j), x)
            # the product of all conjugates lies in the base field
            for idx in range(1, field.p ** 2):
                assert coeffs(prod)[idx].is_zero()
            assert coeffs(prod)[0] == x.norm()


def test_norm_is_multiplicative(f4, f25):
    rng = make_rng("norm-mult")
    pair = random_pair(f4, rng, min_exp=-3)
    for _ in range(3):
        x = random_element(pair, rng, lo=-2, hi=2)
        y = random_element(pair, rng, lo=-2, hi=2)
        assert (x * y).norm() == x.norm() * y.norm()
    # at p = 5 dense elements with constant coefficients keep the norms cheap
    rng = make_rng("norm-mult-5")
    pair = random_pair(f25, rng, min_exp=-2)
    x, y = (random_element(pair, rng, lo=0, hi=0, density=1.0)
            for _ in range(2))
    assert (x * y).norm() == x.norm() * y.norm()


def test_norm_checks_trip_on_a_broken_action(f9, monkeypatch):
    """With the action the identity, N(alpha) leaves K(beta) and N(beta)
    leaves K.  The norm acts through act_on_terms on codes, so that is the
    function patched."""
    pair = random_pair(f9, make_rng("norm-broken-act"))
    monkeypatch.setattr("vfunc.extension_algebra.act_on_terms",
                        lambda field, g, x: x)
    with pytest.raises(InternalCheckFailed, match="K\\(beta\\)"):
        LElement.alpha(pair).norm()
    with pytest.raises(InternalCheckFailed, match="not in K$"):
        LElement.beta(pair).norm()


def test_valuation_checks_trip_on_a_broken_action(f9, monkeypatch):
    """valuation() shares the norm's tau stage and its check: with the
    action the identity, the tau-orbit product of alpha leaves K(beta)."""
    pair = random_pair(f9, make_rng("norm-broken-act"))
    monkeypatch.setattr("vfunc.extension_algebra.act_on_terms",
                        lambda field, g, x: x)
    with pytest.raises(InternalCheckFailed, match="K\\(beta\\)"):
        LElement.alpha(pair).valuation()


def test_valuation_needs_the_pole_order_of_g2_prime_to_p(f9):
    """v_L is read off K(beta) through the orthogonal basis of powers of
    beta, which needs j2 = -v_K(g2) positive and prime to p.  Validation
    rules both failures out, so a pair built past it must raise, not
    return a number."""
    g1 = LaurentPoly.t_pow(f9, -1)
    for g2 in (LaurentPoly.t_pow(f9, -3, f9.gen()),   # p | j2
               LaurentPoly.t_pow(f9, -6, f9.gen()) + g1,  # and a lower term
               LaurentPoly.t_pow(f9, 1),              # j2 < 0
               LaurentPoly.zero(f9)):
        pair = unchecked_pair(f9, f9.gen(), g1, g2)
        for x in (LElement.beta(pair), LElement.alpha(pair),
                  LElement.one(pair)):
            with pytest.raises(InternalCheckFailed, match="Artin-Schreier"):
                x.valuation()


def test_pairing_element_norm_example(f4):
    """Frozen norm for g1 = t^-3, g2 = w*t^-3 + t^-1, a = w.

    Here a^p - a = 1 and f = t^-3 + t^-1, so the norm works out to
    t^-6 + t^-2 + t^-1 and the extension valuation of the element is -6.
    """
    pair = base_pair(f4)
    g = LElement.gamma(pair)
    expected = LaurentPoly.from_pairs(
        f4, [[-6, "1,0"], [-2, "1,0"], [-1, "1,0"]])
    assert g.norm() == expected
    assert g.valuation() == -6


def test_valuation_of_zero_is_infinite(f4):
    from vfunc import INFINITY
    pair = base_pair(f4)
    assert LElement.zero(pair).valuation() == INFINITY


def test_pairs_and_elements_survive_pickling(f9):
    rng = make_rng("pickle")
    pair = random_pair(f9, rng)
    x = random_element(pair, rng, lo=-2, hi=2)
    for value in (pair, LElement.zero(pair), x):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and hash(back) == hash(value)
    # back is the copy of x: it still multiplies and measures as x does
    assert back * back == x * x and back.valuation() == x.valuation()


def test_mult_matrix_is_multiplicative(f4):
    rng = make_rng("mult-matrix")
    pair = base_pair(f4)
    x = random_element(pair, rng, lo=-2, hi=1)
    y = random_element(pair, rng, lo=-2, hi=1)
    lhs = mult_matrix(x * y)
    rhs = matmul(f4, mult_matrix(x), mult_matrix(y))
    for i in range(4):
        for j in range(4):
            assert lhs[i][j] == rhs[i][j]


# -- binomial bases ----------------------------------------------------------

def test_binomial_chain_identities(f4, f9, f25):
    for field in (f4, f9, f25):
        rng = make_rng(f"binom-{field.p}")
        pair = random_pair(field, rng, min_exp=-3)
        p = field.p
        As, Bs = binomial_basis(pair)
        assert len(As) == p and len(Bs) == p
        assert As[0] == LElement.one(pair)
        assert Bs[0] == LElement.one(pair)
        assert As[1] == LElement.alpha(pair)
        assert Bs[1] == LElement.beta(pair)
        for i in range(1, p):
            assert act(TAU, As[i]) - As[i] == As[i - 1]
            assert act(SIGMA, Bs[i]) - Bs[i] == Bs[i - 1]
            assert act(SIGMA, As[i]) == As[i]
            assert act(TAU, Bs[i]) == Bs[i]


def test_binomial_basis_explicit_at_p3(f9):
    rng = make_rng("binom-explicit")
    pair = random_pair(f9, rng)
    As, _ = binomial_basis(pair)
    # binom(alpha, 2) = (alpha^2 - alpha) / 2 = 2*alpha^2 + alpha over F_3
    expected = 2 * (LElement.alpha(pair) ** 2) + LElement.alpha(pair)
    assert As[2] == expected


def test_binomial_products_form_basis(f4, f9, f25):
    for field in (f4, f9, f25):
        rng = make_rng(f"binom-basis-{field.p}")
        pair = random_pair(field, rng)
        p = field.p
        As, Bs = binomial_basis(pair)
        rows = []
        for i in range(p):
            for j in range(p):
                rows.append(list(coeffs(As[i] * Bs[j])))
        assert not det(field, rows).is_zero()

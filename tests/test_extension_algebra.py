"""Checks for the rank-p^2 algebra, its group action, and norms."""

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
)
from vfunc.exact_linalg import det
from vfunc.extension_algebra import (
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

from conftest import make_rng, random_j_poly, random_laurent


def pick_a(field, rng):
    while True:
        a = field.random_element(rng)
        if not a.is_in_prime_field():
            return a


def random_pair(field, rng, min_exp=-5):
    while True:
        g1 = random_j_poly(field, rng, min_exp)
        g2 = random_j_poly(field, rng, min_exp)
        try:
            return validate_pair(field, pick_a(field, rng), g1, g2)
        except InputError:
            continue


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


def test_pair_is_hashable_and_frozen(f4):
    pair = base_pair(f4)
    assert hash(pair) == hash(base_pair(f4))
    with pytest.raises(Exception):
        pair.a = f4.one()


# -- group -------------------------------------------------------------------

def test_group_relations():
    for p in (2, 3, 5):
        s, t_ = sigma(p), tau(p)
        e = GroupElement(p, 0, 0)
        acc = e
        for _ in range(p):
            acc = acc * s
        assert acc == e
        assert s * t_ == t_ * s
        assert (s * t_).inverse() * (s * t_) == e
        assert len(group_elements(p)) == p * p
        assert len(set(group_elements(p))) == p * p


def test_group_element_normalizes_mod_p():
    assert GroupElement(3, 4, -1) == GroupElement(3, 1, 2)


# -- action ------------------------------------------------------------------

def test_action_on_generators(f4):
    pair = base_pair(f4)
    al, be = LElement.alpha(pair), LElement.beta(pair)
    one = LElement.one(pair)
    assert act(tau(2), al) == al + one
    assert act(tau(2), be) == be
    assert act(sigma(2), be) == be + one
    assert act(sigma(2), al) == al


def test_action_on_pairing_element(f4):
    pair = base_pair(f4)
    g = LElement.gamma(pair)
    assert g == pair.a * LElement.alpha(pair) + LElement.beta(pair)
    one = LElement.one(pair)
    assert act(sigma(2), g) == g + one
    assert act(tau(2), g) == g + pair.a * one
    # sigma^i tau^j moves it by a*j + i
    el = GroupElement(2, 1, 1)
    assert act(el, g) == g + (pair.a + pair.field.one()) * one


def test_action_is_ring_automorphism(f9):
    rng = make_rng("act-auto")
    pair = random_pair(f9, rng)
    for _ in range(4):
        x = random_element(pair, rng)
        y = random_element(pair, rng)
        g = GroupElement(3, rng.randrange(3), rng.randrange(3))
        assert act(g, x + y) == act(g, x) + act(g, y)
        assert act(g, x * y) == act(g, x) * act(g, y)


def test_action_composes(f9):
    rng = make_rng("act-compose")
    pair = random_pair(f9, rng)
    x = random_element(pair, rng)
    for _ in range(6):
        g = GroupElement(3, rng.randrange(3), rng.randrange(3))
        h = GroupElement(3, rng.randrange(3), rng.randrange(3))
        assert act(g * h, x) == act(g, act(h, x))
    assert act(GroupElement(3, 0, 0), x) == x


def random_element(pair, rng, lo=-4, hi=3, density=0.4):
    coords = [random_laurent(pair.field, rng, lo, hi, density=density)
              for _ in range(pair.p ** 2)]
    return LElement(pair, coords)


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
        assert all(not c.is_zero() for el in (x, y, z) for c in el.coeffs)
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
        prod = prod * act(GroupElement(2, i, 0), g)
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
    with pytest.raises(MixedExtensions):
        act(sigma(3), LElement.alpha(p1))


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
            assert x.norm() == det(x.mult_matrix())


def test_norm_matches_conjugate_product(f4, f9):
    """The norm equals the product of all conjugates taken in one pass."""
    for field, reps in ((f4, 3), (f9, 1)):
        rng = make_rng(f"norm-conj-{field.p}")
        pair = random_pair(field, rng, min_exp=-3)
        for _ in range(reps):
            x = random_element(pair, rng, lo=-2, hi=2)
            prod = LElement.one(pair)
            for g in group_elements(field.p):
                prod = prod * act(g, x)
            # the product of all conjugates lies in the base field
            for idx in range(1, field.p ** 2):
                assert prod.coeffs[idx].is_zero()
            assert prod.coeffs[0] == x.norm()


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
    """With act the identity, N(alpha) leaves K(beta) and N(beta) leaves K."""
    pair = random_pair(f9, make_rng("norm-broken-act"))
    monkeypatch.setattr("vfunc.extension_algebra.act", lambda g, x: x)
    with pytest.raises(InternalCheckFailed, match="K\\(beta\\)"):
        LElement.alpha(pair).norm()
    with pytest.raises(InternalCheckFailed, match="not in K$"):
        LElement.beta(pair).norm()


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


def test_mult_matrix_is_multiplicative(f4):
    rng = make_rng("mult-matrix")
    pair = base_pair(f4)
    x = random_element(pair, rng, lo=-2, hi=1)
    y = random_element(pair, rng, lo=-2, hi=1)
    lhs = (x * y).mult_matrix()
    rhs = x.mult_matrix().matmul(y.mult_matrix())
    for i in range(4):
        for j in range(4):
            assert lhs[i, j] == rhs[i, j]


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
        dt = tau(p)
        ds = sigma(p)
        for i in range(1, p):
            assert act(dt, As[i]) - As[i] == As[i - 1]
            assert act(ds, Bs[i]) - Bs[i] == Bs[i - 1]
            assert act(ds, As[i]) == As[i]
            assert act(dt, Bs[i]) == Bs[i]


def test_binomial_basis_explicit_at_p3(f9):
    rng = make_rng("binom-explicit")
    pair = random_pair(f9, rng)
    As, _ = binomial_basis(pair)
    # binom(alpha, 2) = (alpha^2 - alpha) / 2 = 2*alpha^2 + alpha over F_3
    expected = 2 * (LElement.alpha(pair) ** 2) + LElement.alpha(pair)
    assert As[2] == expected


def test_binomial_products_form_basis(f4, f9, f25):
    from vfunc.exact_linalg import LaurentMatrix
    for field in (f4, f9, f25):
        rng = make_rng(f"binom-basis-{field.p}")
        pair = random_pair(field, rng)
        p = field.p
        As, Bs = binomial_basis(pair)
        rows = []
        for i in range(p):
            for j in range(p):
                rows.append(list((As[i] * Bs[j]).coeffs))
        m = LaurentMatrix(field, rows)
        assert not det(m).is_zero()

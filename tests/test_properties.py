"""Property tests: Hypothesis searches valid pairs for a counterexample and
shrinks any it finds to a minimal pair.

Every property runs derandomized, so the examples are the same on every
run.  These add to the seeded tests elsewhere and replace none of them.
"""

import pickle

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from vfunc.errors import G2DependentOnG1
from vfunc.extension_algebra import LElement, act, validate_pair
from vfunc.finite_field import FieldParams
from vfunc.laurent import (INFINITY, LaurentPoly, _member_valuation,
                           reduce_to_J)
from vfunc.ramification import (
    filtration_report,
    herbrand_phi,
    herbrand_psi,
    lines,
    lower_filtration,
    quotient_compat_check,
    upper_filtration,
)
from vfunc.vfunction import v_formula, v_oracle

from conftest import capped_draw, reference_mul

F8 = FieldParams(2, 3, (1, 1, 0, 1))
F27 = FieldParams(3, 3, (1, 2, 0, 1))
SMALL_FIELDS = [FieldParams(p, 2) for p in (2, 3, 5)] + [F8, F27]


def over(fields):
    return pytest.mark.parametrize("field", fields, ids=lambda f: f"F{f.q}")


def laurent(field: FieldParams, exponents: list[int], coefficients: list,
            max_terms: int):
    """Nonzero LaurentPolys with at most max_terms terms, on the given
    exponents and nonzero coefficients; both shrink toward the front of
    their lists."""
    return st.dictionaries(st.sampled_from(exponents),
                           st.sampled_from(coefficients),
                           min_size=1, max_size=max_terms).map(
        lambda terms: LaurentPoly(field, terms))


@st.composite
def valid_pairs(draw, field: FieldParams, max_pole: int, max_terms: int):
    """Valid pairs over field whose g1 and g2 have pole order at most
    max_pole and at most max_terms terms.

    A draw that validate_pair rejects is redrawn, up to capped_draw's cap.
    Exponents shrink toward -1, a and the coefficients of g2 toward the
    first element outside F_p, and those of g1 toward 1, so the smallest
    draw, g1 = t^-1 and g2 = a*t^-1, is already valid.
    """
    p = field.p
    exponents = [e for e in range(-1, -max_pole - 1, -1) if e % p]
    nonzero = list(field.elements())[1:]
    outside = [x for x in nonzero if not x.is_in_prime_field()]
    inside = [x for x in nonzero if x.is_in_prime_field()]
    actions = st.sampled_from(outside)
    g1s = laurent(field, exponents, inside + outside, max_terms)
    g2s = laurent(field, exponents, outside + inside, max_terms)
    return capped_draw(lambda: validate_pair(
        field, draw(actions), draw(g1s), draw(g2s)))


@st.composite
def element_pairs(draw, field: FieldParams):
    """Two elements of the algebra L of one valid pair, each with at most
    two nonzero coordinates of at most two terms."""
    pair = draw(valid_pairs(field, max_pole=2 * field.p + 1, max_terms=2))
    coords = st.dictionaries(st.integers(0, field.p ** 2 - 1),
                             laurent(field, [0, -1, 1],
                                     list(field.elements())[1:], 2),
                             max_size=2)

    return LElement(pair, draw(coords)), LElement(pair, draw(coords))


@st.composite
def elements(draw, field: FieldParams, max_pole: int, max_coords: int):
    """x = gamma * z + r in the algebra L of a valid pair, with gamma =
    a*alpha + beta, and z and r with up to max_coords nonzero coordinates
    whose coefficients have up to three terms at exponents of either sign.

    The pair is drawn as (a, g1, f) with g2 = f - a^p*g1, g1 of pole order
    at most max_pole and f of pole order at most 2; g1's exponents shrink
    toward -max_pole and f's toward -1.  When -v_K(g1) > -p*v_K(f),
    v_L(gamma) = v_K(g1) is prime to p, and so is v_L(gamma * z) for most
    z: x then takes its valuation from a coordinate y_k, k != 0, of the
    tau-orbit product, which no element of v_L divisible by p does.
    """
    p = field.p
    nonzero = list(field.elements())[1:]
    a = draw(st.sampled_from([x for x in nonzero
                              if not x.is_in_prime_field()]))
    g1s = laurent(field, [e for e in range(-max_pole, 0) if e % p],
                  nonzero, 2)
    fs = laurent(field, [e for e in (-1, -2) if e % p], nonzero, 2)

    def draw_pair():
        g1 = draw(g1s)
        return validate_pair(field, a, g1, draw(fs) - a ** p * g1)

    pair = capped_draw(draw_pair)
    coeffs = laurent(field, [0, -1, 1, -2, 2, -3, 3], nonzero, 3)
    z, r = (LElement(pair, draw(st.dictionaries(
        st.integers(0, p * p - 1), coeffs, min_size=size,
        max_size=max_coords)))
        for size in (1, 0))
    return LElement.gamma(pair) * z + r


TEXT_FIELDS = [FieldParams(2, 2), F8, FieldParams(3, 2), FieldParams(5, 2),
               F27, FieldParams(7, 2)]


@st.composite
def spellings(draw, x):
    """A text that reads as x: each coordinate c as c + k*p with k in
    -2..2, so also negative, with up to two leading zeros and surrounding
    spaces.  Every draw shrinks toward the canonical text."""
    p = x.field.p
    parts = []
    for c in x.coeffs:
        c += p * draw(st.integers(-2, 2))
        digits = "0" * draw(st.integers(0, 2)) + str(abs(c))
        parts.append(draw(st.sampled_from(["", " ", "  "]))
                     + "-" * (c < 0) + digits
                     + draw(st.sampled_from(["", " "])))
    return ",".join(parts)


@st.composite
def job_series(draw, field: FieldParams):
    """([[exponent, text], ...], the coefficients): strictly increasing
    exponents, zero coefficients among them, each text a spelling."""
    exponents = sorted(draw(st.sets(st.integers(-12, 4), max_size=8)))
    coeffs = [draw(st.sampled_from(list(field.elements())))
              for _ in exponents]
    return ([[e, draw(spellings(x))] for e, x in zip(exponents, coeffs)],
            coeffs)


def derandomized(max_examples: int, explain: bool = True):
    """explain=False leaves out Hypothesis's explain phase, which reruns a
    shrunk failure with each draw varied: over dense norms in L that takes
    tens of minutes, where finding and shrinking takes seconds."""
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples,
                    phases=[ph for ph in Phase
                            if explain or ph is not Phase.explain],
                    suppress_health_check=[HealthCheck.too_slow])


@over(SMALL_FIELDS + [FieldParams(7, 2), FieldParams(11, 2)])
@derandomized(max_examples=25)
@given(data=st.data())
def test_formula_equals_oracle(field, data):
    pair = data.draw(valid_pairs(field, max_pole=field.p ** 2 + 2,
                                 max_terms=3))
    rf, ro = v_formula(pair), v_oracle(pair)
    assert (rf.value, rf.s) == (ro.value, ro.s)


@over(SMALL_FIELDS + [FieldParams(7, 2)])
@derandomized(max_examples=25)
@given(data=st.data())
def test_quotient_compatibility_holds(field, data):
    pair = data.draw(valid_pairs(field, max_pole=field.p ** 2 + 2,
                                 max_terms=3))
    assert quotient_compat_check(pair)


@over(SMALL_FIELDS + [FieldParams(7, 2)])
@derandomized(max_examples=25)
@given(data=st.data())
def test_lines_are_their_own_J_representatives(field, data):
    """Each pencil member of a valid pair is its own J-representative:
    reduce_to_J, the J-normal form, must find nothing to remove from it,
    and the line's break is minus the member's valuation."""
    pair = data.draw(valid_pairs(field, max_pole=field.p ** 2 + 2,
                                 max_terms=3))
    for ln in lines(pair):
        lam, mu = ln.coeffs
        member = lam * pair.g1 + mu * pair.g2
        rep, witness = reduce_to_J(member)
        assert member == rep and witness.is_zero()
        assert ln.jump == -member.valuation()


@st.composite
def cancelling_pairs(draw, field: FieldParams, max_pole: int,
                     max_terms: int):
    """(pair, lam0): a valid pair whose g2 leads with -lam0 times the
    leading term of g1, for lam0 in F_p*, plus one to max_terms terms at
    higher exponents, so the leading terms of the member of line
    (lam0 : 1) cancel.  g1's exponents shrink toward -max_pole and g2's
    higher ones toward -1, so the smallest draw is valid."""
    p = field.p
    exponents = [e for e in range(-1, -max_pole - 1, -1) if e % p]
    nonzero = list(field.elements())[1:]
    actions = st.sampled_from([x for x in nonzero
                               if not x.is_in_prime_field()])
    g1s = laurent(field, exponents[::-1], nonzero, max_terms)

    def draw_pair():
        g1 = draw(g1s)
        (e1, c1), lam0 = g1.terms[0], draw(st.integers(1, p - 1))
        deeper = [e for e in exponents if e > e1]
        if not deeper:
            return None
        tail = draw(st.dictionaries(st.sampled_from(deeper),
                                    st.sampled_from(nonzero),
                                    min_size=1, max_size=max_terms))
        g2 = LaurentPoly(field, {**tail, e1: -lam0 * c1})
        return validate_pair(field, draw(actions), g1, g2), lam0

    return capped_draw(draw_pair)


@over(SMALL_FIELDS + [FieldParams(7, 2)])
@derandomized(max_examples=25)
@given(data=st.data())
def test_jumps_are_read_past_cancelling_leading_terms(field, data):
    """Each break is minus the valuation of the member built in full, also
    on the line (lam0 : 1), whose break comes from a higher exponent."""
    pair, lam0 = data.draw(cancelling_pairs(field, max_pole=field.p ** 2 + 2,
                                            max_terms=3))
    for ln in lines(pair):
        lam, mu = ln.coeffs
        member = lam * pair.g1 + mu * pair.g2
        assert ln.jump == -member.valuation()
        if ln.coeffs == (lam0, 1):
            assert ln.jump < -pair.g1.valuation()


@st.composite
def g1_branch_pairs(draw, field: FieldParams, max_pole: int,
                    max_terms: int):
    """Valid pairs on the formula's v_K(g1) branch.  With a outside F_p,
    g1 of pole order j1 and h in J with -v_K(h) < j1/p (h = 0 when
    j1 < p), g2 = h - a^p*g1 makes f = a^p*g1 + g2 = h, so
    p*v_K(f) > v_K(g1): the leading terms of f cancel down to h's.  The
    pair is valid as a^p is not in F_p.  g1's exponents shrink toward
    -max_pole and h's toward -1."""
    p = field.p
    nonzero = list(field.elements())[1:]
    a = draw(st.sampled_from([x for x in nonzero
                              if not x.is_in_prime_field()]))
    g1 = draw(laurent(field, [e for e in range(-max_pole, 0) if e % p],
                      nonzero, max_terms))
    j1 = -g1.valuation()
    shallow = [-k for k in range(1, (j1 - 1) // p + 1) if k % p]
    h = LaurentPoly(field, draw(st.dictionaries(
        st.sampled_from(shallow), st.sampled_from(nonzero),
        max_size=max_terms)) if shallow else {})
    return validate_pair(field, a, g1, h - a ** p * g1)


@over([FieldParams(2, 2), F8, FieldParams(3, 2), FieldParams(5, 2), F27,
       FieldParams(7, 2)])
@derandomized(max_examples=25)
@given(data=st.data())
def test_g1_branch_pairs_agree_and_pass_the_quotient_check(field, data):
    """On the branch where v moves inside a filtration fiber, the routes
    agree, the filtration checks against every degree-p quotient, and the
    report equals the three entry points on an equal copy of the pair,
    which is built afresh."""
    pair = data.draw(g1_branch_pairs(field, max_pole=field.p ** 2 + 2,
                                     max_terms=3))
    rf, ro = v_formula(pair), v_oracle(pair)
    # s = -p*v_K(f) is divisible by p, and j1 = -v_K(g1) is not.
    assert rf.s == -pair.g1.valuation()
    assert (rf.value, rf.s) == (ro.value, ro.s)
    report = filtration_report(pair)
    assert report[2] is True
    copy = pickle.loads(pickle.dumps(pair))
    assert report == (upper_filtration(copy), lower_filtration(copy),
                      quotient_compat_check(copy))


@over(SMALL_FIELDS)
@derandomized(max_examples=40)
@given(data=st.data())
def test_member_valuation_is_that_of_the_built_sum(field, data):
    """The leading-term walk gives v_K(c*g1 + g2) for J-series g1, g2 and
    any c in F_q*, not only in F_p: for an independent g2, for
    g2 = h - c*g1, whose sum is h and whose leading terms cancel against
    c*g1 where h starts above g1, and for g2 = -c*g1, whose sum is zero.
    The exponents are few, so the rows share many of them."""
    p = field.p
    exponents = [e for e in range(-1, -(2 * p + 4), -1) if e % p][:6]
    nonzero = list(field.elements())[1:]
    g1, g2, h = (data.draw(laurent(field, exponents, nonzero, 4))
                 for _ in range(3))
    c = data.draw(st.sampled_from(nonzero))
    assert _member_valuation(c.code, g1, g2) == (c * g1 + g2).valuation()
    assert _member_valuation(c.code, g1, h - c * g1) == h.valuation()
    assert _member_valuation(c.code, g1, -c * g1) == INFINITY


@over(SMALL_FIELDS + [FieldParams(7, 2)])
@derandomized(max_examples=25)
@given(data=st.data())
def test_lower_breaks_are_psi_at_the_upper_breaks(field, data):
    """Each lower break is an int, psi of its upper break, and phi maps it
    back; the subgroups are the same."""
    pair = data.draw(valid_pairs(field, max_pole=field.p ** 2 + 2,
                                 max_terms=3))
    upper, lower, _ = filtration_report(pair)
    psi, phi = herbrand_psi(upper), herbrand_phi(lower)
    assert len(lower.breaks) == len(upper.breaks)
    for (u, sub), (x, lower_sub) in zip(upper.breaks, lower.breaks):
        assert type(x) is int and lower_sub == sub
        assert x == psi(u) and phi(x) == u


@over(SMALL_FIELDS)
@derandomized(max_examples=25)
@given(data=st.data())
def test_dependence_is_read_off_the_leading_ratio(field, data):
    """g2 = c * g1 is rejected, naming c, for every c in F_p.  c * g1 with
    one non-leading coefficient changed, c * g1 plus a term at an exponent
    of J that g1 lacks, and a multiple of g1 by a scalar outside F_p are
    all accepted."""
    p = field.p
    exponents = [e for e in range(-1, -(p * p + 6), -1) if e % p]
    nonzero = list(field.elements())[1:]
    outside = [x for x in nonzero if not x.is_in_prime_field()]
    a = data.draw(st.sampled_from(outside))
    g1 = LaurentPoly(field, data.draw(st.dictionaries(
        st.sampled_from(exponents), st.sampled_from(nonzero),
        min_size=2, max_size=4)))
    for c in range(p):
        with pytest.raises(G2DependentOnG1, match=rf"^g2 = {c} \* g1$"):
            validate_pair(field, a, g1, c * g1)
    c = data.draw(st.integers(0, p - 1))
    changed = data.draw(st.sampled_from(g1.support()[1:]))
    fresh = data.draw(st.sampled_from(
        [e for e in exponents if e not in g1.support()]))
    x = data.draw(st.sampled_from(nonzero))
    for g2 in (c * g1 + LaurentPoly.t_pow(field, changed, x),
               c * g1 + LaurentPoly.t_pow(field, fresh, x),
               data.draw(st.sampled_from(outside)) * g1):
        validate_pair(field, a, g1, g2)


@over(SMALL_FIELDS)
@derandomized(max_examples=15)
@given(data=st.data())
def test_norm_is_multiplicative(field, data):
    x, y = data.draw(element_pairs(field))
    assert (x * y).norm() == x.norm() * y.norm()


@over(SMALL_FIELDS)
@derandomized(max_examples=15, explain=False)
@given(data=st.data())
def test_valuation_equals_that_of_the_norm(field, data):
    """valuation() reads v_L off the tau-orbit product through the
    orthogonal basis of K(beta); norm() takes the product down to K."""
    x = data.draw(elements(field, 2 * field.p + 1, 2 * field.p))
    assert x.valuation() == x.norm().valuation()


@over([FieldParams(7, 2)])
@derandomized(max_examples=3, explain=False)
@given(data=st.data())
def test_valuation_equals_that_of_the_norm_at_p7(field, data):
    """As above, with poles of order at most p + 1, at most 4 coordinates
    in z and r, and 3 draws: a dense norm at p = 7 takes seconds."""
    x = data.draw(elements(field, field.p + 1, 4))
    assert x.valuation() == x.norm().valuation()


@over(SMALL_FIELDS)
@derandomized(max_examples=15)
@given(data=st.data())
def test_sums_cancel(field, data):
    x, y = data.draw(element_pairs(field))
    assert (x + y) - y == x
    assert (x - x).is_zero()


@over(SMALL_FIELDS)
@derandomized(max_examples=15)
@given(data=st.data())
def test_action_composes_on_exponent_pairs(field, data):
    """sigma^i tau^j is the pair (i, j) and the group law adds pairs, also
    for unreduced and negative exponents."""
    x, _ = data.draw(element_pairs(field))
    exponent = st.integers(-2 * field.p, 2 * field.p)
    i1, j1, i2, j2 = data.draw(st.tuples(*[exponent] * 4))
    assert act((i1 + i2, j1 + j2), x) == act((i1, j1), act((i2, j2), x))


def k_factors(pair):
    """Strategies for factors in K, and one just outside: zero, a nonzero
    constant, t^e with e < 0, a dense series, and a series in the constant
    coordinate, listed first, plus an alpha or beta term."""
    field, p = pair.field, pair.p
    nonzero = list(field.elements())[1:]

    def in_k(f):
        return LElement.from_k(pair, f)

    series = laurent(field, list(range(-2 * p, 2 * p)), nonzero, 3 * p)
    return [st.just(LElement.zero(pair)),
            st.sampled_from(nonzero).map(
                lambda c: in_k(LaurentPoly.t_pow(field, 0, c))),
            st.integers(-3 * p, -1).map(
                lambda e: in_k(LaurentPoly.t_pow(field, e))),
            series.map(in_k),
            st.tuples(series, st.sampled_from([1, p]), series).map(
                lambda t: LElement(pair, {0: t[0], t[1]: t[2]}))]


@over(SMALL_FIELDS)
@derandomized(max_examples=20)
@given(data=st.data())
def test_product_matches_the_laurent_reference(field, data):
    """The product on F_q codes equals the LaurentPoly product plus the
    fold.  (u + v)(u - v) has cross terms u*v that cancel coefficient by
    coefficient (for p = 2 too, where they come twice), so the draws also
    reach the deletion of cancelled entries."""
    u, v = data.draw(element_pairs(field))
    assert u * v == reference_mul(u, v)
    x, y = u + v, u - v
    assert x * y == reference_mul(x, y)
    # a factor in K scales the other without the grid, in either order
    for kind in k_factors(u.pair):
        z = data.draw(kind)
        assert z * x == reference_mul(z, x)
        assert x * z == reference_mul(x, z)


@over(SMALL_FIELDS)
@derandomized(max_examples=10)
@given(data=st.data())
def test_products_make_no_empty_accumulate_call(field, data):
    """x * y calls FieldParams.accumulate only with a nonzero row: a fold
    pass runs only when an exponent reached p.  The draws include
    alpha^i beta^j * alpha^k beta^l with i + k and j + l below p, which
    fold nothing.  A product with a factor in K makes exactly
    min(|x|, |y|) calls, one per term of the shorter factor, whichever
    factor that is."""
    u, v = data.draw(element_pairs(field))
    pair, p = u.pair, field.p
    i, j = data.draw(st.tuples(*[st.integers(0, p - 1)] * 2))
    k, l = data.draw(st.tuples(st.integers(0, p - 1 - i),
                               st.integers(0, p - 1 - j)))
    low = (LElement.monomial(pair, i, j, data.draw(st.sampled_from(
               list(field.elements())[1:]))), LElement.monomial(pair, k, l))
    operands = [(u, v), (u + v, u - v), low,
                (LElement.alpha(pair), LElement.beta(pair))] + [
                    (data.draw(kind), u) for kind in k_factors(pair)]
    rows = []
    accumulate = FieldParams.accumulate

    def recording(self, acc, code, row, shift=0):
        row = list(row)
        rows.append(len(row))
        accumulate(self, acc, code, row, shift)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FieldParams, "accumulate", recording)
        for x, y in operands:
            x * y
            y * x
        one = field.one()
        three = LElement.from_k(
            pair, LaurentPoly(field, {-1: one, 0: one, 1: one}))
        for z in [data.draw(kind) for kind in k_factors(pair)[:4]] + [three]:
            for x in (u, LElement.alpha(pair)):
                before = len(rows)
                z * x
                x * z
                assert len(rows) - before == 2 * min(len(z.codes),
                                                     len(x.codes))
    assert rows and 0 not in rows


@over(TEXT_FIELDS)
@derandomized(max_examples=60)
@given(data=st.data())
def test_from_pairs_reads_every_spelling_as_parse_does(field, data):
    """The text table gives what the validating parse gives, and a series
    printed by to_pairs reads back as itself."""
    pairs, coeffs = data.draw(job_series(field))
    assert [field.parse(t) for _, t in pairs] == coeffs
    g = LaurentPoly.from_pairs(field, pairs)
    assert g == LaurentPoly(field, [(e, field.parse(t)) for e, t in pairs])
    assert LaurentPoly.from_pairs(field, g.to_pairs()) == g
    assert g.to_pairs() == [[e, ",".join(map(str, x.coeffs))]
                            for e, x in g.terms]


@over(TEXT_FIELDS)
def test_every_element_prints_its_coordinates(field):
    for x in field.elements():
        assert str(x) == ",".join(map(str, x.coeffs))
        assert field.parse(str(x)) is x

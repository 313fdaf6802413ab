"""Line decomposition, filtrations, transition functions, compatibility."""

from fractions import Fraction

import pytest

from vfunc import InputError, LaurentPoly, NumberingMismatch
from vfunc.extension_algebra import validate_pair
from vfunc.ramification import (
    Filtration,
    Subgroup,
    annihilator,
    filtration_fingerprint,
    filtration_report,
    herbrand_phi,
    herbrand_psi,
    lines,
    lower_filtration,
    quotient_compat_check,
    upper_filtration,
)

from conftest import make_rng, random_j_poly


def pick_a(field, rng):
    while True:
        a = field.random_element(rng)
        if not a.is_in_prime_field():
            return a


def random_pair(field, rng, min_exp):
    while True:
        g1 = random_j_poly(field, rng, min_exp)
        g2 = random_j_poly(field, rng, min_exp)
        try:
            return validate_pair(field, pick_a(field, rng), g1, g2)
        except InputError:
            continue


def series(field, *pairs):
    acc = LaurentPoly.zero(field)
    for e, c in pairs:
        acc = acc + LaurentPoly.t_pow(field, e, c)
    return acc


def shallow_deep_pair(f4):
    """g1 = t^-1, g2 = w*t^-3: line breaks {1, 3, 3}."""
    w = f4.gen()
    return validate_pair(f4, w, series(f4, (-1, 1)), series(f4, (-3, w)))


def counterexample_pair(f4, c):
    w = f4.gen()
    return validate_pair(f4, w, series(f4, (-3, 1)),
                         series(f4, (-3, c), (-1, 1)))


# -- subgroups ---------------------------------------------------------------

def test_subgroup_canonical_bases():
    assert Subgroup.from_gens(3, [(2, 0)]).gens == ((1, 0),)
    assert Subgroup.from_gens(3, [(0, 2)]).gens == ((0, 1),)
    assert Subgroup.from_gens(3, [(2, 1)]).gens == ((1, 2),)
    assert Subgroup.from_gens(3, [(1, 1), (1, 2)]).gens == ((1, 0), (0, 1))
    assert Subgroup.from_gens(3, []).gens == ()
    assert Subgroup.from_gens(5, [(2, 4)]) == Subgroup.from_gens(5, [(3, 6)])


def test_subgroup_orders_and_membership():
    s = Subgroup.from_gens(3, [(1, 2)])
    assert s.order == 3
    assert s.elements() == frozenset({(0, 0), (1, 2), (2, 1)})
    assert s.contains((2, 1)) and not s.contains((1, 0))
    assert Subgroup.full(3).order == 9
    assert Subgroup.trivial(3).order == 1
    assert s.is_subset(Subgroup.full(3))
    assert not Subgroup.full(3).is_subset(s)


def test_subgroup_intersections():
    a = Subgroup.from_gens(2, [(1, 0)])
    b = Subgroup.from_gens(2, [(0, 1)])
    assert a.intersect(b) == Subgroup.trivial(2)
    assert a.intersect(a) == a
    assert a.intersect(Subgroup.full(2)) == a


# -- lines -------------------------------------------------------------------

def test_lines_enumerates_projective_points(f4, f9):
    for field in (f4, f9):
        rng = make_rng(f"lines-{field.p}")
        pair = random_pair(field, rng, -(field.p ** 2 + 1))
        ls = lines(pair)
        assert len(ls) == field.p + 1
        assert [ln.coeffs for ln in ls] == \
            [(1, 0)] + [(lam, 1) for lam in range(field.p)]
        for ln in ls:
            assert ln.jump > 0 and ln.jump % field.p != 0
            assert ln.rep.is_in_J() and not ln.rep.is_zero()


def test_line_breaks_on_counterexample_instance(f4):
    """Every nonzero combination has valuation -(p^2 - 1) = -3."""
    pair = counterexample_pair(f4, f4.gen())
    assert sorted(ln.jump for ln in lines(pair)) == [3, 3, 3]


def test_line_breaks_mixed_depths(f4):
    assert sorted(ln.jump for ln in lines(shallow_deep_pair(f4))) == [1, 3, 3]


def test_lines_reduce_representatives(f9):
    """F_p-combinations of J elements stay in J, so rep = the combination."""
    rng = make_rng("lines-noop")
    pair = random_pair(f9, rng, -8)
    for ln in lines(pair):
        lam, mu = ln.coeffs
        assert ln.rep == lam * pair.g1 + mu * pair.g2


# -- annihilators ------------------------------------------------------------

def test_annihilator_examples(f4):
    pair = shallow_deep_pair(f4)
    ls = lines(pair)
    by_coeffs = {ln.coeffs: ln for ln in ls}
    assert annihilator(by_coeffs[(1, 0)]).gens == ((1, 0),)
    assert annihilator(by_coeffs[(0, 1)]).gens == ((0, 1),)
    assert annihilator((1, 1), 3).gens == ((1, 2),)
    with pytest.raises(InputError):
        annihilator((0, 0), 3)
    with pytest.raises(InputError):
        annihilator((1, 1))


def test_annihilators_pairwise_trivial():
    for p in (2, 3, 5):
        points = [(1, 0)] + [(lam, 1) for lam in range(p)]
        subs = [annihilator(pt, p) for pt in points]
        assert len({s.gens for s in subs}) == p + 1
        for i, si in enumerate(subs):
            assert si.order == p
            for sj in subs[i + 1:]:
                assert si.intersect(sj).order == 1


# -- upper and lower filtrations ---------------------------------------------

def test_upper_filtration_single_break(f4):
    filt = upper_filtration(counterexample_pair(f4, f4.gen()))
    assert filt.numbering == "upper"
    assert len(filt.breaks) == 1
    u, sub = filt.breaks[0]
    assert u == 3 and sub.order == 1
    assert filt.subgroup_at(3).order == 4
    assert filt.subgroup_at(Fraction(7, 2)).order == 1
    assert filt.subgroup_at(0).order == 4


def test_upper_filtration_two_breaks(f4):
    filt = upper_filtration(shallow_deep_pair(f4))
    assert [(u, s.order) for u, s in filt.breaks] == [(1, 2), (3, 1)]
    assert filt.breaks[0][1].gens == ((1, 0),)
    assert filt.subgroup_at(1).order == 4
    assert filt.subgroup_at(2) == filt.breaks[0][1]
    assert filt.subgroup_at(4).order == 1


def test_transition_functions_on_two_break_example(f4):
    upper = upper_filtration(shallow_deep_pair(f4))
    psi = herbrand_psi(upper)
    assert psi(0) == 0
    assert psi(1) == 1
    assert psi(2) == 3
    assert psi(3) == 5
    assert psi(Fraction(7, 2)) == 7
    lower = lower_filtration(shallow_deep_pair(f4))
    assert lower.numbering == "lower"
    assert [(u, s.order) for u, s in lower.breaks] == [(1, 2), (5, 1)]
    phi = herbrand_phi(lower)
    assert phi(5) == 3
    assert phi(1) == 1
    assert phi(9) == 4


def test_transitions_are_mutually_inverse(f4, f9):
    for field in (f4, f9):
        rng = make_rng(f"herbrand-{field.p}")
        for _ in range(5):
            pair = random_pair(field, rng, -(field.p ** 2 + 1))
            upper = upper_filtration(pair)
            lower = lower_filtration(pair)
            psi = herbrand_psi(upper)
            phi = herbrand_phi(lower)
            probes = set()
            for u in upper.break_values():
                probes.update((Fraction(u), Fraction(u) + Fraction(1, 2),
                               Fraction(u) - Fraction(1, 2)))
            probes.update((Fraction(0), Fraction(1, 3),
                           max(probes) + 2))
            for v in probes:
                assert phi(psi(v)) == v
            for x in (psi(v) for v in probes):
                assert psi(phi(x)) == x


def test_transition_rejects_wrong_numbering(f4):
    upper = upper_filtration(shallow_deep_pair(f4))
    lower = lower_filtration(shallow_deep_pair(f4))
    with pytest.raises(NumberingMismatch):
        herbrand_psi(lower)
    with pytest.raises(NumberingMismatch):
        herbrand_phi(upper)


def test_lower_breaks_are_integers(f4, f9, f25):
    for field, reps in ((f4, 6), (f9, 4), (f25, 2)):
        rng = make_rng(f"lowint-{field.p}")
        for _ in range(reps):
            pair = random_pair(field, rng, -(field.p ** 2 + 1))
            lower = lower_filtration(pair)
            assert all(isinstance(u, int) for u in lower.break_values())
            assert lower.subgroup_at(Fraction(1, 2)).order == field.p ** 2


def test_filtration_value_convention():
    s = Subgroup.from_gens(2, [(1, 0)])
    filt = Filtration(numbering="upper", p=2,
                      breaks=((1, s), (3, Subgroup.trivial(2))))
    assert filt.subgroup_at(Fraction(1, 2)).order == 4
    assert filt.subgroup_at(1).order == 4
    assert filt.subgroup_at(Fraction(3, 2)) == s
    assert filt.subgroup_at(3) == s
    assert filt.subgroup_at(100).order == 1


def test_filtration_rejects_malformed_break_lists():
    from vfunc import InternalCheckFailed
    s = Subgroup.from_gens(2, [(1, 0)])
    with pytest.raises(InternalCheckFailed):
        Filtration(numbering="upper", p=2,
                   breaks=((3, s), (1, Subgroup.trivial(2))))
    with pytest.raises(InternalCheckFailed):
        Filtration(numbering="upper", p=2, breaks=((1, s),))
    with pytest.raises(InternalCheckFailed):
        Filtration(numbering="upper", p=2,
                   breaks=((1, s), (3, s)))
    with pytest.raises(InputError):
        Filtration(numbering="sideways", p=2, breaks=())


# -- fingerprints ------------------------------------------------------------

def test_fingerprint_formats(f4):
    upper = upper_filtration(shallow_deep_pair(f4))
    assert filtration_fingerprint(upper) == "upper|1:2[s1t0],3:1[]"
    assert filtration_fingerprint(upper, orders_only=True) == "upper|1:2,3:1"
    lower = lower_filtration(shallow_deep_pair(f4))
    assert filtration_fingerprint(lower) == "lower|1:2[s1t0],5:1[]"


def test_fingerprint_distinguishes_numbering_when_psi_moves(f4):
    pair = shallow_deep_pair(f4)
    up = filtration_fingerprint(upper_filtration(pair), orders_only=True)
    low = filtration_fingerprint(lower_filtration(pair), orders_only=True)
    assert up != low


def test_fingerprint_deterministic(f9):
    rng = make_rng("fp-deterministic")
    pair = random_pair(f9, rng, -8)
    a = filtration_fingerprint(upper_filtration(pair))
    b = filtration_fingerprint(upper_filtration(pair))
    assert a == b


def test_counterexample_fingerprint_constant_across_c(f4):
    """The filtration ignores the coefficient c; the value does not."""
    w = f4.gen()
    prints = set()
    for c in (w, w + 1):
        prints.add(filtration_fingerprint(
            upper_filtration(counterexample_pair(f4, c))))
    assert prints == {"upper|3:1[]"}


def test_generator_change_preserves_orders_fingerprint(f9):
    """A basis change of the span permutes lines; break data is unchanged."""
    rng = make_rng("gl2")
    pair = random_pair(f9, rng, -8)
    base = filtration_fingerprint(upper_filtration(pair), orders_only=True)
    changes = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 1), (1, 1)),
               ((0, 1), (1, 0)), ((1, 2), (2, 2))]
    for (m00, m01), (m10, m11) in changes:
        if (m00 * m11 - m01 * m10) % 3 == 0:
            continue
        h1 = m00 * pair.g1 + m01 * pair.g2
        h2 = m10 * pair.g1 + m11 * pair.g2
        try:
            moved = validate_pair(f9, pair.a, h1, h2)
        except InputError:
            continue
        assert filtration_fingerprint(
            upper_filtration(moved), orders_only=True) == base


# -- quotient compatibility --------------------------------------------------

def test_quotient_compatibility_examples(f4):
    assert quotient_compat_check(counterexample_pair(f4, f4.gen()))
    assert quotient_compat_check(shallow_deep_pair(f4))


def test_quotient_compatibility_random(f4, f9, f25):
    for field, reps in ((f4, 8), (f9, 5), (f25, 2)):
        rng = make_rng(f"quotcompat-{field.p}")
        for _ in range(reps):
            pair = random_pair(field, rng, -(field.p ** 2 + 1))
            assert quotient_compat_check(pair)


def test_filtration_report_matches_the_public_functions(f4, f9):
    for field in (f4, f9):
        rng = make_rng(f"report-{field.p}")
        for _ in range(3):
            pair = random_pair(field, rng, -(field.p ** 2 + 1))
            assert filtration_report(pair) == (
                upper_filtration(pair), lower_filtration(pair),
                quotient_compat_check(pair))

"""Line decomposition, filtrations, transition functions, compatibility."""

import itertools
from fractions import Fraction

import pytest

from vfunc import (
    InputError,
    InternalCheckFailed,
    NumberingMismatch,
)
from vfunc.extension_algebra import validate_pair
from vfunc.finite_field import FieldParams
from vfunc.ramification import (
    Filtration,
    Subgroup,
    _assemble_upper,
    _compat,
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

from conftest import make_rng, random_pair, series, span, unchecked_pair


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
    assert Subgroup(3, ((2, 0),)).gens == ((1, 0),)
    assert Subgroup(3, ((0, 2),)).gens == ((0, 1),)
    assert Subgroup(3, ((2, 1),)).gens == ((1, 2),)
    assert Subgroup(3, ((1, 1), (1, 2))).gens == ((1, 0), (0, 1))
    assert Subgroup(3, ()).gens == ()
    assert Subgroup(5, ((2, 4),)) == Subgroup(5, ((3, 6),))
    # inclusion and intersection see the span, not the generators given
    a, b = Subgroup(3, ((2, 0),)), Subgroup(3, ((1, 0),))
    assert a == b and a.is_subset(b) and b.is_subset(a)
    assert a.intersect(b) == a and b.intersect(a) == b


def test_subgroup_orders_and_membership():
    s = Subgroup(3, ((1, 2),))
    assert s.order == 3
    assert span(3, s.gens) == {(0, 0), (1, 2), (2, 1)}
    assert Subgroup(3, ((2, 1),)).is_subset(s)
    assert not Subgroup(3, ((1, 0),)).is_subset(s)
    assert Subgroup.full(3).order == 9
    assert Subgroup.trivial(3).order == 1
    assert s.is_subset(Subgroup.full(3))
    assert not Subgroup.full(3).is_subset(s)


def test_subgroup_intersections():
    a = Subgroup(2, ((1, 0),))
    b = Subgroup(2, ((0, 1),))
    assert a.intersect(b) == Subgroup.trivial(2)
    assert a.intersect(a) == a
    assert a.intersect(Subgroup.full(2)) == a


def test_subgroup_operations_match_element_sets():
    """Against the enumerated span, for every generator list of length
    0-2: the canonical basis spans the same elements, and order,
    membership (inclusion of the element's span), inclusion and
    intersection follow."""
    for p in (2, 3, 5, 7):
        group = list(itertools.product(range(p), repeat=2))
        subs = {}
        for k in range(3):
            for gens in itertools.product(group, repeat=k):
                sub = Subgroup(p, gens)
                assert span(p, sub.gens) == span(p, gens), (p, gens)
                subs[sub] = span(p, gens)
        assert len(subs) == p + 3
        for sub, ref in subs.items():
            assert sub.order == len(ref)
            for i, j in itertools.product(range(-1, p + 1), repeat=2):
                assert Subgroup(p, ((i, j),)).is_subset(sub) == (
                    (i % p, j % p) in ref)
            for other, other_ref in subs.items():
                assert sub.is_subset(other) == (ref <= other_ref)
                assert span(p, sub.intersect(other).gens) == \
                    ref & other_ref


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
            lam, mu = ln.coeffs
            member = lam * pair.g1 + mu * pair.g2
            assert ln.jump > 0 and ln.jump % field.p != 0
            assert member.is_in_J() and not member.is_zero()
            assert ln.jump == -member.valuation()


def test_line_breaks_on_counterexample_instance(f4):
    """Every nonzero combination has valuation -(p^2 - 1) = -3."""
    pair = counterexample_pair(f4, f4.gen())
    assert sorted(ln.jump for ln in lines(pair)) == [3, 3, 3]


def test_line_breaks_mixed_depths(f4):
    assert sorted(ln.jump for ln in lines(shallow_deep_pair(f4))) == [1, 3, 3]


def test_lines_reduce_representatives(f9):
    """F_p-combinations of J elements stay in J, so each line's break is
    minus the valuation of the combination itself."""
    rng = make_rng("lines-noop")
    pair = random_pair(f9, rng, -8)
    for ln in lines(pair):
        lam, mu = ln.coeffs
        member = lam * pair.g1 + mu * pair.g2
        assert member.is_in_J()
        assert ln.jump == -member.valuation()


def test_line_breaks_when_leading_terms_cancel(f25):
    """g2 leads with -2 times g1's leading term, so the member of (2 : 1)
    loses its t^-7 term and breaks at 3, where every other line breaks
    at 7."""
    one, three = f25.elem(1), f25.elem(3)
    pair = validate_pair(f25, f25.gen(), series(f25, (-7, one), (-3, one)),
                         series(f25, (-7, three), (-1, one)))
    ls = lines(pair)
    assert sorted(ln.jump for ln in ls) == [3, 7, 7, 7, 7, 7]
    assert [ln.coeffs for ln in ls if ln.jump == 3] == [(2, 1)]


@pytest.mark.parametrize("g1, g2, message", [
    # 3*g1 + g2 = 5*g1 = 0 on line (3 : 1)
    (((-2, 1), (-1, 1)), ((-2, 2), (-1, 2)), "reduced to zero"),
    # t^-5 on line (1 : 0), before (3 : 1) is reached
    (((-5, 1),), ((-5, 2),), "line break 5 outside J"),
    # a term at a positive exponent leads g1
    (((1, 1),), ((-1, 1),), "line break -1 outside J"),
    # (2 : 1) cancels t^-7 and walks on to t^-5
    (((-7, 1), (-5, 1)), ((-7, 3), (-1, 1)), "line break 5 outside J"),
])
def test_lines_guard_members_outside_J(f25, g1, g2, message):
    pair = unchecked_pair(f25, f25.gen(), series(f25, *g1),
                          series(f25, *g2))
    with pytest.raises(InternalCheckFailed, match=message):
        lines(pair)



def test_filtration_routes_reduce_nothing(f9, monkeypatch):
    """Pencil members of a valid pair lie in J already, so no filtration
    route runs reduce_to_J, through either module's binding."""
    def refuse(g):
        raise AssertionError("reduce_to_J called")

    monkeypatch.setattr("vfunc.ramification.reduce_to_J", refuse)
    monkeypatch.setattr("vfunc.laurent.reduce_to_J", refuse)
    pair = random_pair(f9, make_rng("no-reduce"), -8)
    for route in (lines, upper_filtration, lower_filtration,
                  quotient_compat_check, filtration_report):
        route(pair)


def test_filtration_routes_build_no_fraction(f4, f9, f25, f8, monkeypatch):
    """Every height on the filtration routes is an int, psi's slopes
    included, so no route builds a Fraction."""
    pairs = []
    for field in (f4, f9, f25, f8, FieldParams(3, 3, (1, 2, 0, 1))):
        rng = make_rng(f"no-fraction-{field.q}")
        pairs += [random_pair(field, rng, -(field.p ** 2 + 1))
                  for _ in range(4)]
    # psi moves a break only past a first break of order p
    assert any(len(upper_filtration(pair).breaks) == 2 for pair in pairs)

    def refuse(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr("vfunc.ramification.Fraction", refuse)
    for pair in pairs:
        for route in (filtration_report, upper_filtration, lower_filtration,
                      quotient_compat_check):
            route(pair)

# -- annihilators ------------------------------------------------------------

def test_annihilator_examples(f4):
    pair = shallow_deep_pair(f4)
    ls = lines(pair)
    by_coeffs = {ln.coeffs: ln for ln in ls}
    assert annihilator(by_coeffs[(1, 0)].coeffs, 2).gens == ((1, 0),)
    assert annihilator(by_coeffs[(0, 1)].coeffs, 2).gens == ((0, 1),)
    assert annihilator((1, 1), 3).gens == ((1, 2),)
    assert annihilator((4, -2), 3) == annihilator((1, 1), 3)
    with pytest.raises(InputError):
        annihilator((0, 0), 3)
    with pytest.raises(InputError):
        annihilator((3, 0), 3)


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
    s = Subgroup(2, ((1, 0),))
    filt = Filtration(numbering="upper", p=2,
                      breaks=((1, s), (3, Subgroup.trivial(2))))
    assert filt.subgroup_at(Fraction(1, 2)).order == 4
    assert filt.subgroup_at(1).order == 4
    assert filt.subgroup_at(Fraction(3, 2)) == s
    assert filt.subgroup_at(3) == s
    assert filt.subgroup_at(100).order == 1


def test_filtration_rejects_malformed_break_lists():
    from vfunc import InternalCheckFailed
    s = Subgroup(2, ((1, 0),))
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
    for height in (Fraction(1), True):
        with pytest.raises(InternalCheckFailed, match="not an integer"):
            Filtration(numbering="lower", p=2,
                       breaks=((height, s), (3, Subgroup.trivial(2))))


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


def test_compat_rejects_a_moved_or_relabelled_break(f4):
    pair = shallow_deep_pair(f4)
    ls = lines(pair)
    upper = upper_filtration(pair)
    assert _compat(2, ls, upper)
    (u, sub), last = upper.breaks
    moved = Filtration(numbering="upper", p=2, breaks=((u + 1, sub), last))
    assert not _compat(2, ls, moved)
    other = next(annihilator(ln.coeffs, 2) for ln in ls
                 if annihilator(ln.coeffs, 2) != sub)
    swapped = Filtration(numbering="upper", p=2, breaks=((u, other), last))
    assert not _compat(2, ls, swapped)


def grid_compat(p, ls, upper):
    """_compat's verdict read on a quarter-step grid of heights from 0 to 2
    past the largest break or jump."""
    top = max(upper.break_values() + [ln.jump for ln in ls]) + 2
    grid = [Fraction(k, 4) for k in range(4 * top + 1)]
    for ln in ls:
        h_sub = annihilator(ln.coeffs, p)
        for v in grid:
            if (v <= ln.jump) == upper.subgroup_at(v).is_subset(h_sub):
                return False
    return True


def variants(p, ls, upper):
    """upper, the filtration with no break, and every filtration made from
    upper by moving one break by up to 2 or relabelling its subgroup with a
    line's annihilator."""
    yield upper
    yield Filtration("upper", p, ())
    breaks = list(upper.breaks)
    for i, (u, sub) in enumerate(breaks):
        changed = [(u + d, sub) for d in (-2, -1, 1, 2) if u + d > 0]
        changed += [(u, annihilator(ln.coeffs, p)) for ln in ls]
        for b in changed:
            try:
                yield Filtration("upper", p,
                                 tuple(breaks[:i] + [b] + breaks[i + 1:]))
            except InternalCheckFailed:
                pass


def test_compat_probes_meet_every_change_on_a_rational_grid(f4, f9, f25):
    verdicts = []
    for field, reps in ((f4, 6), (f9, 4), (f25, 2)):
        rng = make_rng(f"compat-grid-{field.p}")
        for _ in range(reps):
            ls = lines(random_pair(field, rng, -(field.p ** 2 + 1)))
            for upper in variants(field.p, ls,
                                  _assemble_upper(field.p, ls)):
                verdict = _compat(field.p, ls, upper)
                assert verdict == grid_compat(field.p, ls, upper)
                verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_filtration_report_matches_the_public_functions(f4, f9):
    for field in (f4, f9):
        rng = make_rng(f"report-{field.p}")
        for _ in range(3):
            pair = random_pair(field, rng, -(field.p ** 2 + 1))
            assert filtration_report(pair) == (
                upper_filtration(pair), lower_filtration(pair),
                quotient_compat_check(pair))

"""Both value routes: frozen examples, lattice structure, cross-agreement."""

import pytest

from vfunc import (
    INFINITY,
    InputError,
    InternalCheckFailed,
    LaurentPoly,
    NotInTheta,
)
from vfunc.exact_linalg import kernel
from vfunc.extension_algebra import (
    SIGMA,
    TAU,
    LElement,
    _key,
    act,
    validate_pair,
)
from vfunc.finite_field import FieldParams
from vfunc.vfunction import (
    _first_condition,
    _theta_solution,
    theta_conditions_matrix,
    theta_lattice,
    theta_to_xi,
    v_formula,
    v_oracle,
)

from conftest import (
    as_elems,
    capped_draw,
    conditions_matrix_in_L,
    fq_matvec,
    make_rng,
    random_j_poly,
    random_laurent,
    random_pair,
    series,
)


# -- frozen examples ---------------------------------------------------------

def test_formula_first_counterexample_branch(f4):
    """g1 = t^-3, g2 = w*t^-3 + t^-1, a = w: s = 6, v = 2."""
    w = f4.gen()
    pair = validate_pair(f4, w, series(f4, (-3, 1)),
                         series(f4, (-3, w), (-1, 1)))
    res = v_formula(pair)
    assert (res.value, res.s, res.route) == (2, 6, "formula")


def test_formula_second_counterexample_branch(f4):
    """Same but coefficient w+1 = -a^p: f collapses to t^-1, s = 3, v = 1."""
    w = f4.gen()
    pair = validate_pair(f4, w, series(f4, (-3, 1)),
                         series(f4, (-3, w + 1), (-1, 1)))
    res = v_formula(pair)
    assert (res.value, res.s) == (1, 3)


def test_formula_vanishing_f(f4):
    """g2 = a^p * g1 makes f = 0; the min absorbs the infinite valuation."""
    w = f4.gen()
    pair = validate_pair(f4, w, series(f4, (-1, 1)),
                         series(f4, (-1, w * w)))
    fa = (pair.a ** 2) * pair.g1 + pair.g2
    assert fa.is_zero() and fa.valuation() == INFINITY
    res = v_formula(pair)
    assert (res.value, res.s) == (1, 1)


def test_oracle_matches_on_frozen_examples(f4):
    w = f4.gen()
    cases = [
        (series(f4, (-3, 1)), series(f4, (-3, w), (-1, 1)), 2, 6),
        (series(f4, (-3, 1)), series(f4, (-3, w + 1), (-1, 1)), 1, 3),
        (series(f4, (-1, 1)), series(f4, (-1, w * w)), 1, 1),
        (series(f4, (-1, 1)), series(f4, (-3, 1), (-1, w)), 2, 6),
    ]
    for g1, g2, value, s in cases:
        pair = validate_pair(f4, w, g1, g2)
        res = v_oracle(pair)
        assert (res.value, res.s, res.route) == (value, s, "oracle")


# -- conditions matrix and lattice -------------------------------------------

def test_conditions_matrix_shape_and_constancy(f4, f9):
    for field in (f4, f9):
        rng = make_rng(f"condmat-{field.p}")
        pair = random_pair(field, rng, -(field.p ** 2 + 1))
        m = theta_conditions_matrix(pair)
        n = field.p ** 2
        assert len(m) == 2 * n
        for row in m:
            for j, k in row.items():
                assert 0 <= j < n
                # the code of a nonzero element of field
                assert type(k) is int and 0 <= k <= field.q - 2


@pytest.mark.parametrize("e", [1, -1])
def test_non_constant_condition_images_raise(f9, monkeypatch, e):
    """Both solves read a constant's key as its monomial index.  With an
    action that also multiplies by t^e, the images leave the constants:
    the keys of t^e alpha^i beta^j must raise InternalCheckFailed, not
    land in another row or in the second block, on a cold cache."""
    import vfunc.vfunction
    real = vfunc.vfunction.act_on_terms
    pair = random_pair(f9, make_rng("non-constant-images"), -10)
    monkeypatch.setattr(
        vfunc.vfunction, "act_on_terms",
        lambda field, g, x: {key + _key(field.p, e, 0): k
                             for key, k in real(field, g, x).items()})
    with pytest.raises(InternalCheckFailed, match="non-constant"):
        theta_conditions_matrix(pair)
    with pytest.raises(InternalCheckFailed, match="non-constant"):
        theta_lattice(pair)


def test_conditions_matrix_matches_the_construction_in_L(f4, f9, f25, f8):
    """Entry for entry, the F_q rows equal the matrix built by acting on
    each monomial as an element of L and densifying its images."""
    f27 = FieldParams(3, 3, (1, 2, 0, 1))
    for field in (f4, f9, f25, f8, f27):
        rng = make_rng(f"condmat-in-L-{field.q}")
        for _ in range(2):
            pair = random_pair(field, rng, -(field.p ** 2 + 1))
            rows = as_elems(field, theta_conditions_matrix(pair))
            ref = conditions_matrix_in_L(pair)
            assert len(rows) == len(ref)
            for row, ref_row in zip(rows, ref):
                lifted = [LaurentPoly.t_pow(field, 0, row.get(j, field.zero()))
                          for j in range(len(ref_row))]
                assert lifted == ref_row


def test_constant_and_pairing_element_solve_conditions(f4, f9):
    for field in (f4, f9):
        rng = make_rng(f"kernelmem-{field.p}")
        pair = random_pair(field, rng, -(field.p ** 2 + 1))
        m = as_elems(field, theta_conditions_matrix(pair))
        for sol in (LElement.one(pair), LElement.gamma(pair)):
            # both solutions have constant coordinates
            assert all(c.support() == (0,) for _, c in sol.terms)
            vec = {idx: c.coeff(0) for idx, c in sol.terms}
            image = fq_matvec(field, m, vec)
            assert len(image) == 2 * field.p ** 2
            assert all(c.is_zero() for c in image)


def test_solution_space_has_dimension_two(f4, f9):
    for field, reps in ((f4, 5), (f9, 3)):
        rng = make_rng(f"kerneldim-{field.p}")
        for _ in range(reps):
            pair = random_pair(field, rng, -(field.p ** 2 + 1))
            rows = theta_conditions_matrix(pair)
            assert len(kernel(field, rows, field.p ** 2)) == 2


def test_conditions_solve_builds_no_laurent_or_L_elements(f9, monkeypatch):
    """The conditions matrix and its kernel are pure F_q work."""
    pair = random_pair(f9, make_rng("pure-fq"), -10)
    built = []

    def counting(init):
        def wrapped(self, *args, **kw):
            built.append(type(self).__name__)
            init(self, *args, **kw)
        return wrapped

    for cls in (LaurentPoly, LElement):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    assert len(kernel(f9, theta_conditions_matrix(pair), 9)) == 2
    assert built == []
    LElement.one(pair)
    assert built == ["LaurentPoly", "LElement"]


def test_warm_oracle_builds_no_laurent_or_L_elements(f4, f9, f8,
                                                    monkeypatch):
    """Once the solve is kept, v_oracle scales the lattice basis by a key
    shift and multiplies on codes: no LaurentPoly is built and no LElement
    goes through __init__."""
    rng = make_rng("warm-oracle")
    pairs = [random_pair(field, rng, -10) for field in (f4, f9, f8)
             for _ in range(3)]
    cold = [v_oracle(pair) for pair in pairs]
    built = []

    def counting(init):
        def wrapped(self, *args, **kw):
            built.append(type(self).__name__)
            init(self, *args, **kw)
        return wrapped

    for cls in (LaurentPoly, LElement):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    assert [v_oracle(pair) for pair in pairs] == cold
    assert built == []


def test_lattice_structure(f4):
    w = f4.gen()
    pair = validate_pair(f4, w, series(f4, (-3, 1)),
                         series(f4, (-3, w), (-1, 1)))
    tb = theta_lattice(pair)
    assert tb.m1 == LElement.one(pair)
    assert tb.e1 == 0
    assert tb.m2.coeff(0, 0).is_zero()
    assert (tb.e2, tb.s_prime) == (2, 6)
    # m2 is a scalar multiple of the pairing element a*alpha + beta
    winv = w ** -1
    assert tb.m2 == winv * LElement.gamma(pair)


def test_lattice_s_prime_avoids_p_squared_multiples(f4, f9):
    for field, reps in ((f4, 8), (f9, 4)):
        rng = make_rng(f"sprime-{field.p}")
        for _ in range(reps):
            pair = random_pair(field, rng, -(field.p ** 2 + 1))
            tb = theta_lattice(pair)
            assert tb.s_prime % field.p ** 2 != 0
            assert tb.s_prime > 0


# -- the solve, kept per field and per (field, a) ----------------------------

def pair_with_a(field, a, rng, min_exp=-10):
    """Random valid pair with the given action parameter."""
    return capped_draw(lambda: validate_pair(
        field, a, random_j_poly(field, rng, min_exp),
        random_j_poly(field, rng, min_exp)))


def direct_solve(pair):
    """Echelon basis of kernel on the full conditions matrix, as elements
    of L."""
    p = pair.p
    basis = kernel(pair.field, theta_conditions_matrix(pair), p * p)
    return [LElement._make(pair, {_key(p, 0, idx): code
                                  for idx, code in v.items()})
            for v in basis]


def test_kept_solve_equals_a_direct_solve(f9):
    """Two pairs with one (field, a) but different g1 and g2 get the echelon
    vectors of kernel on the conditions matrix, with the cache cold and
    then warm, and share one solve."""
    rng = make_rng("kept-solve")
    first = random_pair(f9, rng, -10)
    second = pair_with_a(f9, first.a, rng)
    assert (first.g1, first.g2) != (second.g1, second.g2)

    for _ in range(2):
        for pair in (first, second):
            tb = theta_lattice(pair)
            assert [tb.m1, tb.m2] == direct_solve(pair)
    info = _theta_solution.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert _first_condition.cache_info().misses == 1


def test_two_stage_solve_equals_the_full_solve_for_every_a(f4, f8, f9,
                                                            f25):
    """For every a outside F_p of five fields, the lattice basis equals the
    echelon basis of kernel on the full 2p^2 x p^2 conditions matrix, with
    one first-condition solve per field."""
    f27 = FieldParams(3, 3, (1, 2, 0, 1))
    rng = make_rng("two-stage")
    for field in (f4, f8, f9, f25, f27):
        for a in field.elements():
            if a.is_in_prime_field():
                continue
            pair = pair_with_a(field, a, rng, -8)
            tb = theta_lattice(pair)
            assert [tb.m1, tb.m2] == direct_solve(pair)
    assert _first_condition.cache_info().misses == 5


def test_fields_sharing_a_texts_keep_separate_solutions(f25):
    """F_25 under x^2 + 3 and under x^2 + 2, interleaved in one process with
    the same a texts: formula = oracle on every pair, and each (field, a)
    is its own entry, even where two fields give a the same code."""
    other = FieldParams(5, 2, (2, 0, 1))
    texts = ("0,1", "0,2", "0,3")
    assert f25.parse("0,2").code == other.parse("0,1").code
    assert f25.parse("0,1").code == other.parse("0,3").code
    rng = make_rng("two-moduli")
    for text in texts * 2:
        for field in (f25, other):
            pair = pair_with_a(field, field.parse(text), rng, -8)
            rf, ro = v_formula(pair), v_oracle(pair)
            assert (rf.value, rf.s) == (ro.value, ro.s)
    info = _theta_solution.cache_info()
    assert info.misses == info.currsize == 2 * len(texts)
    info = _first_condition.cache_info()
    assert info.misses == info.currsize == 2


def test_kept_solution_is_out_of_callers_reach(f9):
    """Mutating the lattice basis one call returns leaves the next call's
    basis as it was."""
    pair = random_pair(f9, make_rng("kept-copy"), -10)
    tb = theta_lattice(pair)
    m1, m2 = dict(tb.m1.codes), dict(tb.m2.codes)
    for key in list(tb.m2.codes):
        tb.m2.codes[key] = (tb.m2.codes[key] + 1) % (f9.q - 1)
        # a t^1 term beside each coordinate
        tb.m2.codes[key + _key(3, 1, 0)] = 0
    tb.m2.codes[_key(3, 0, 3)] = 0
    tb.m1.codes.clear()
    again = theta_lattice(pair)
    assert again.m1.codes == m1 and again.m2.codes == m2
    assert (again.e2, again.s_prime) == (tb.e2, tb.s_prime)


def test_kept_first_condition_is_out_of_callers_reach(f9):
    """Mutating a returned lattice basis leaves the kept first-condition
    vectors and images as a fresh solve gives them, and another a still
    solves as the full matrix does."""
    rng = make_rng("kept-first")
    pair = random_pair(f9, rng, -10)
    tb = theta_lattice(pair)
    for x in (tb.m1, tb.m2):
        for key in list(x.codes):
            x.codes[key] = (x.codes[key] + 1) % (f9.q - 1)
        x.codes[_key(3, 0, 4)] = 0
    other = pair_with_a(f9, next(a for a in f9.elements()
                                 if not a.is_in_prime_field()
                                 and a != pair.a), rng)
    tb = theta_lattice(other)
    assert [tb.m1, tb.m2] == direct_solve(other)
    kept = _first_condition(f9)
    assert _first_condition.cache_info().misses == 1
    _first_condition.cache_clear()
    assert _first_condition(f9) == kept


def counting_kernel(monkeypatch):
    """Record the field and the column count of every kernel call the
    oracle makes."""
    import vfunc.vfunction
    calls = []
    real = vfunc.vfunction.kernel

    def counted(field, rows, ncols):
        calls.append((field, ncols))
        return real(field, rows, ncols)

    monkeypatch.setattr(vfunc.vfunction, "kernel", counted)
    return calls


def test_sweep_solves_once_per_a(capsys, monkeypatch):
    from vfunc import cli
    calls = counting_kernel(monkeypatch)
    assert cli.main(["sweep", "--p", "3", "--n", "2", "--max-degree", "10",
                     "--seed", "1", "--count", "16"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 17
    field = FieldParams(3, 2)
    pairs = cli._sweep_jobs(field, 1, 16, 10)
    n_a = len({pair.a for pair in pairs})
    # the first condition once for the field, the second once per a
    assert calls == [(field, 9)] + [(field, 6)] * n_a
    assert n_a < 16


def test_counterexample_solves_once(capsys, monkeypatch):
    from vfunc import cli
    calls = counting_kernel(monkeypatch)
    assert cli.main(["counterexample", "--p", "5", "--n", "2"]) == 0
    assert '"v_constant": false' in capsys.readouterr().out
    assert [ncols for _, ncols in calls] == [25, 10]


# -- the equivariant map -----------------------------------------------------

def test_map_images_basic(f4):
    w = f4.gen()
    pair = validate_pair(f4, w, series(f4, (-3, 1)),
                         series(f4, (-3, w), (-1, 1)))
    one = LElement.one(pair)
    x1_img, x2_img = theta_to_xi(one)
    assert x1_img.is_zero() and x2_img == one
    g = LElement.gamma(pair)
    x1_img, x2_img = theta_to_xi(g)
    assert x1_img == one and x2_img == g


def test_map_reuses_the_membership_check(f9, monkeypatch):
    """theta_to_xi applies the group three times, all for the membership
    check, and returns the check's m (sigma - 1) as phi(x1) rather than
    acting a fourth time."""
    import vfunc.extension_algebra
    import vfunc.vfunction
    pair = random_pair(f9, make_rng("map-act-count"), -10)
    m = theta_lattice(pair).m2
    calls = []
    real = vfunc.extension_algebra.act_on_terms

    def counting(field, g, x):
        calls.append(g)
        return real(field, g, x)

    for module in (vfunc.extension_algebra, vfunc.vfunction):
        monkeypatch.setattr(module, "act_on_terms", counting)
    x1_img, x2_img = theta_to_xi(m)
    assert len(calls) == 3
    assert x2_img == m
    monkeypatch.undo()
    assert x1_img == act(SIGMA, m) - m


def test_map_rejects_non_solutions(f4):
    w = f4.gen()
    pair = validate_pair(f4, w, series(f4, (-3, 1)),
                         series(f4, (-3, w), (-1, 1)))
    with pytest.raises(NotInTheta):
        theta_to_xi(LElement.alpha(pair))
    with pytest.raises(NotInTheta):
        theta_to_xi(LElement.beta(pair))


def test_map_equivariance_identities(f4, f9):
    """phi(x_j . g) = act(g, phi(x_j)) for the dual action on x1, x2.

    The dual action is x1.sigma = x1, x2.sigma = x1 + x2, x1.tau = x1,
    x2.tau = a*x1 + x2.
    """
    for field, reps in ((f4, 4), (f9, 2)):
        rng = make_rng(f"equivar-{field.p}")
        for _ in range(reps):
            pair = random_pair(field, rng, -(field.p ** 2 + 1))
            tb = theta_lattice(pair)
            c1 = random_laurent(field, rng, -3, 3, density=0.6)
            c2 = random_laurent(field, rng, -3, 3, density=0.6)
            m = c1 * tb.m1 + c2 * tb.m2
            x1_img, x2_img = theta_to_xi(m)
            assert act(SIGMA, x1_img) == x1_img
            assert act(SIGMA, x2_img) == x1_img + x2_img
            assert act(TAU, x1_img) == x1_img
            assert act(TAU, x2_img) == pair.a * x1_img + x2_img


# -- cross-route agreement and metamorphic checks ----------------------------

def test_routes_agree_on_random_pairs(f4, f9, f8):
    f27 = FieldParams(3, 3, (1, 2, 0, 1))
    for field, reps, min_exp in ((f4, 25, -5), (f9, 8, -10),
                                 (f8, 6, -10), (f27, 6, -10)):
        rng = make_rng(f"agree-{field.p}")
        for _ in range(reps):
            pair = random_pair(field, rng, min_exp)
            rf = v_formula(pair)
            ro = v_oracle(pair)
            assert rf.value == ro.value
            assert rf.s == ro.s
            p2 = field.p ** 2
            assert rf.value == -(-rf.s // p2)


def test_routes_agree_beyond_p7():
    """Formula against oracle (value and s) over F_121, F_169 and F_1331,
    the first two on their default moduli.  Poles deeper than p reach
    s > p^2, so v = 2 is covered as well as v = 1."""
    f1331 = FieldParams(11, 3, (4, 1, 0, 1))   # x^3 + x + 4, no root in F_11
    values = set()
    for field in (FieldParams(11, 2), FieldParams(13, 2), f1331):
        rng = make_rng(f"agree-large-{field.q}")
        for min_exp in (-6, -6, -(field.p + 2)):
            pair = random_pair(field, rng, min_exp)
            rf = v_formula(pair)
            ro = v_oracle(pair)
            assert (rf.value, rf.s) == (ro.value, ro.s)
            values.add(rf.value)
    assert values == {1, 2}


def test_value_insensitive_to_deep_perturbations(f4):
    """Adding tail terms above v_K(f) to g2 never moves the value."""
    w = f4.gen()
    rng = make_rng("metamorphic")
    base = validate_pair(f4, w, series(f4, (-5, 1)),
                         series(f4, (-3, w), (-1, 1)))
    f_series = (base.a ** 2) * base.g1 + base.g2
    vf = f_series.valuation()
    ref = v_formula(base)
    for _ in range(10):
        exps = [e for e in range(vf + 1, 0) if e % 2 != 0]
        delta = LaurentPoly.zero(f4)
        for e in exps:
            if rng.random() < 0.5:
                delta = delta + LaurentPoly.t_pow(f4, e, f4.random_element(rng))
        try:
            pair = validate_pair(f4, w, base.g1, base.g2 + delta)
        except InputError:
            continue
        res = v_formula(pair)
        assert (res.value, res.s) == (ref.value, ref.s)
    # spot-check the oracle on one perturbed input
    e = vf + 1 if (vf + 1) % 2 else vf + 2
    pair = validate_pair(f4, w, base.g1, base.g2 + series(f4, (e, w)))
    assert v_oracle(pair).value == ref.value


def test_formula_depends_only_on_the_two_valuations(f9):
    """Same v_K(g1) and v_K(f) force the same value and s."""
    seen = {}
    rng = make_rng("valuation-only")
    for _ in range(30):
        pair = random_pair(f9, rng, -8)
        f_series = (pair.a ** 3) * pair.g1 + pair.g2
        key = (pair.g1.valuation(),
               f_series.valuation() if not f_series.is_zero() else None)
        res = v_formula(pair)
        if key in seen:
            assert seen[key] == (res.value, res.s)
        else:
            seen[key] = (res.value, res.s)
    assert len(seen) >= 2

"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The random pair streams are seeded, so every run tests the same
instances.
"""

import json
import random
import subprocess
import sys

from vfunc import (
    INFINITY,
    SIGMA,
    TAU,
    FieldParams,
    InputError,
    LaurentPoly,
    LElement,
    act,
    annihilator,
    binomial_basis,
    filtration_fingerprint,
    herbrand_phi,
    herbrand_psi,
    lines,
    lower_filtration,
    quotient_compat_check,
    reduce_to_J,
    upper_filtration,
    v_formula,
    v_oracle,
    validate_pair,
)
from vfunc.laurent import wp

from conftest import capped_draw, random_series, series, sweep_pair

STREAM_COUNTS = {2: 500, 3: 500, 5: 50}
_pair_streams: dict[int, list] = {}


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"\n[{num}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


def pair_stream(p: int) -> list:
    if p not in _pair_streams:
        field = FieldParams(p, 2)
        rng = random.Random(f"acceptance:{p}")
        bound = p * p + 1
        _pair_streams[p] = [sweep_pair(field, rng, bound)
                            for _ in range(STREAM_COUNTS[p])]
    return _pair_streams[p]


def test_criterion_1_formula_equals_oracle():
    ok = True
    for p in (2, 3, 5):
        bound = p * p + 1
        for pair in pair_stream(p):
            ok = ok and pair.field.n == 2
            for g in (pair.g1, pair.g2):
                ok = ok and all(-bound <= e <= -1 for e in g.support())
            rf = v_formula(pair)
            ro = v_oracle(pair)
            ok = ok and rf.value == ro.value and rf.s == ro.s
            ok = ok and rf.value >= 1
        if not ok:
            break
    counts = ", ".join(f"{STREAM_COUNTS[q]} at p={q}" for q in (2, 3, 5))
    _report(1, f"closed formula = brute-force oracle ({counts})", ok)


def test_criterion_2_counterexample_reproduction():
    ok = True
    # p = 2 over F_4: v jumps between the two non-prime-field coefficients
    f4 = FieldParams(2, 2)
    w = f4.gen()
    prints = set()
    values = {}
    for c in (w, w + 1):
        pair = validate_pair(f4, w, series(f4, (-3, 1)),
                             series(f4, (-3, c), (-1, 1)))
        rf, ro = v_formula(pair), v_oracle(pair)
        ok = ok and rf.value == ro.value
        values[str(c)] = rf.value
        prints.add(filtration_fingerprint(upper_filtration(pair)))
    ok = ok and values == {"0,1": 2, "1,1": 1}
    ok = ok and len(prints) == 1
    exceptional_p2 = -(w ** 2)
    ok = ok and values[str(exceptional_p2)] == 1

    # p = 3 over F_9: one exceptional c among the six outside F_3
    f9 = FieldParams(3, 2)
    u = f9.gen()
    prints9 = set()
    exceptional = []
    for c in f9.elements():
        if c.is_in_prime_field():
            continue
        pair = validate_pair(f9, u, series(f9, (-8, 1)),
                             series(f9, (-8, c), (-1, 1)))
        rf, ro = v_formula(pair), v_oracle(pair)
        ok = ok and rf.value == ro.value
        prints9.add(filtration_fingerprint(upper_filtration(pair)))
        if rf.value == 1:
            exceptional.append(c)
        else:
            ok = ok and rf.value == 3
    ok = ok and len(prints9) == 1
    ok = ok and len(exceptional) == 1
    ok = ok and exceptional[0] == -(u ** 3)
    _report(2, "fixed family: constant filtration, jumping value, "
               "exceptional c = -a^p", ok)


def test_criterion_3_proof_internal_identities():
    ok = True
    take = {2: 25, 3: 10, 5: 3}
    for p in (2, 3, 5):
        for pair in pair_stream(p)[:take[p]]:
            al = LElement.alpha(pair)
            g = LElement.gamma(pair)
            ap = pair.a ** p
            f_series = ap * pair.g1 + pair.g2
            ok = ok and (g ** p - g ==
                         (ap - pair.a) * al + LElement.from_k(pair, f_series))
            vf = f_series.valuation()
            vg1 = pair.g1.valuation()
            low = vg1 if vf == INFINITY else min(vg1, p * vf)
            ok = ok and g.valuation() == low
            res = v_formula(pair)
            ok = ok and res.s == -low
            ok = ok and res.s % (p * p) != 0
        field = FieldParams(p, 2)
        rng = random.Random(f"acceptance:binom:{p}")
        pair = capped_draw(lambda: validate_pair(
            field, field.gen(), random_series(field, rng, p + 2),
            random_series(field, rng, p + 2)))
        As, Bs = binomial_basis(pair)
        for i in range(1, p):
            ok = ok and act(TAU, As[i]) - As[i] == As[i - 1]
            ok = ok and act(SIGMA, Bs[i]) - Bs[i] == Bs[i - 1]
    _report(3, "gamma^p - gamma identity, v_L(gamma) = min{v(g1), p v(f)}, "
               "s never in p^2 Z, binomial chains", ok)


def test_criterion_4_ramification_suite():
    ok = True
    from fractions import Fraction
    for p in (2, 3, 5):
        for pair in pair_stream(p):
            ok = ok and quotient_compat_check(pair)
            ls = lines(pair)
            ok = ok and len(ls) == p + 1
            ok = ok and all(ln.jump % p != 0 and ln.jump > 0 for ln in ls)
            subs = [annihilator(ln.coeffs, p) for ln in ls]
            ok = ok and len({s.gens for s in subs}) == p + 1
            ok = ok and all(si.intersect(sj).order == 1
                            for i, si in enumerate(subs)
                            for sj in subs[i + 1:])
            upper = upper_filtration(pair)
            lower = lower_filtration(pair)
            psi = herbrand_psi(upper)
            phi = herbrand_phi(lower)
            probes = set()
            for u in upper.break_values():
                probes.update((Fraction(u), Fraction(u) + Fraction(1, 2),
                               Fraction(u) - Fraction(1, 2)))
            for v in probes:
                ok = ok and phi(psi(v)) == v
            if not ok:
                break
        if not ok:
            break
    # the frozen transport example: upper breaks {1, 3} move to lower {1, 5}
    f4 = FieldParams(2, 2)
    pair = validate_pair(f4, f4.gen(), series(f4, (-1, 1)),
                         series(f4, (-3, f4.gen())))
    upper = upper_filtration(pair)
    lower = lower_filtration(pair)
    ok = ok and [u for u, _ in upper.breaks] == [1, 3]
    ok = ok and [u for u, _ in lower.breaks] == [1, 5]
    ok = ok and herbrand_psi(upper)(3) == 5
    _report(4, "transitions invert exactly, quotient compatibility on all "
               "criterion-1 pairs, line/annihilator structure", ok)


def test_criterion_5_algebra_suite():
    ok = True
    # norm multiplicativity on 100 random element pairs
    rng = random.Random("acceptance:norm")
    for p, reps in ((2, 70), (3, 30)):
        field = FieldParams(p, 2)
        pair = capped_draw(lambda: validate_pair(
            field, field.gen(), random_series(field, rng, 4),
            random_series(field, rng, 4)))
        def rand_el():
            coords = []
            for _ in range(p * p):
                terms = [(e, field.random_element(rng))
                         for e in range(-2, 2) if rng.random() < 0.5]
                coords.append(LaurentPoly(
                    field, [(e, c) for e, c in terms if not c.is_zero()]))
            return LElement(pair, dict(enumerate(coords)))
        for _ in range(reps):
            x, y = rand_el(), rand_el()
            ok = ok and (x * y).norm() == x.norm() * y.norm()
        # extension valuations of the base uniformizer and the generator
        t_el = LElement.from_k(pair, LaurentPoly.t_pow(field, 1))
        ok = ok and t_el.valuation() == p * p
        ok = ok and LElement.alpha(pair).valuation() == p * pair.g1.valuation()
    # Frobenius is the p-power automorphism with fixed field F_p, q <= 25
    for params in ((2, 2), (2, 3, (1, 1, 0, 1)), (3, 2), (5, 2)):
        field = FieldParams(*params)
        els = list(field.elements())
        for x in els:
            fx = x.frobenius()
            ok = ok and fx == x ** field.p
            ok = ok and fx.pth_root() == x
            ok = ok and (fx == x) == x.is_in_prime_field()
        for x in els[:12]:
            for y in els[:12]:
                ok = ok and (x + y).frobenius() == x.frobenius() + y.frobenius()
                ok = ok and (x * y).frobenius() == x.frobenius() * y.frobenius()
    # reduction contract on 200 random inputs across the fields
    rng = random.Random("acceptance:reduce")
    fields = [FieldParams(2, 2), FieldParams(3, 2), FieldParams(5, 2)]

    def reducible(field):
        terms = [(e, field.random_element(rng))
                 for e in range(-9, 3) if rng.random() < 0.45]
        g = LaurentPoly(field, [(e, c) for e, c in terms if not c.is_zero()])
        return (g,) + reduce_to_J(g)

    for done in range(200):
        field = fields[done % len(fields)]
        g, rep, witness = capped_draw(lambda: reducible(field))
        residue = g - rep - wp(witness)
        ok = ok and rep.is_in_J()
        ok = ok and all(e > 0 for e in residue.support())
        rep2, _ = reduce_to_J(rep)
        ok = ok and rep2 == rep
    # F_p-linearity of the representative map
    rng = random.Random("acceptance:linear")
    field = FieldParams(3, 2)
    for _ in range(40):
        g = LaurentPoly(field, [(e, field.random_element(rng))
                                for e in range(-6, 0)
                                if rng.random() < 0.6])
        h = LaurentPoly(field, [(e, field.random_element(rng))
                                for e in range(-6, 0)
                                if rng.random() < 0.6])
        g = LaurentPoly(field, [(e, c) for e, c in g.terms if not c.is_zero()])
        h = LaurentPoly(field, [(e, c) for e, c in h.terms if not c.is_zero()])
        lam, mu = rng.randrange(3), rng.randrange(3)
        try:
            left, _ = reduce_to_J(lam * g + mu * h)
            rg, _ = reduce_to_J(g)
            rh, _ = reduce_to_J(h)
        except InputError:
            continue
        ok = ok and left == lam * rg + mu * rh
    _report(5, "norm multiplicativity, uniformizer and generator valuations, "
               "Frobenius exhaustive, reduction contract and linearity", ok)


def test_criterion_6_cli_determinism_and_exit_codes(tmp_path):
    ok = True
    argv = [sys.executable, "-m", "vfunc.cli", "sweep", "--p", "2", "--n", "2",
            "--max-degree", "5", "--seed", "42", "--count", "10"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    ok = ok and first.returncode == 0 and second.returncode == 0
    ok = ok and first.stdout == second.stdout and len(first.stdout) > 0

    fixtures = [
        ("{broken json", 2),
        (json.dumps({"p": 2, "n": 2, "a": "0,1", "g1": [[-1, "1,0"]]}), 2),
        (json.dumps({"p": 2, "n": 2, "a": "0,1", "g1": [],
                     "g2": [[-1, "1,0"]]}), 3),
    ]
    for idx, (payload, want) in enumerate(fixtures):
        path = tmp_path / f"fixture{idx}.json"
        path.write_text(payload)
        proc = subprocess.run(
            [sys.executable, "-m", "vfunc.cli", "v", "--input", str(path)],
            capture_output=True)
        ok = ok and proc.returncode == want
    _report(6, "seeded sweep byte-identical, exit-code contract on "
               "malformed fixtures", ok)

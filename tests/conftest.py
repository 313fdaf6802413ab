from __future__ import annotations

import random

import pytest

from vfunc.errors import InputError, SamplingExhausted
from vfunc.extension_algebra import (
    SIGMA,
    TAU,
    ExtensionPair,
    LElement,
    act,
    validate_pair,
)
from vfunc.finite_field import FieldParams, FqElem
from vfunc.laurent import LaurentPoly
from vfunc.vfunction import _first_condition, _theta_solution


@pytest.fixture(autouse=True)
def cold_theta_cache():
    """Start every test with no kept θ solutions of either stage, so that
    no result or call count depends on which tests ran before."""
    _first_condition.cache_clear()
    _theta_solution.cache_clear()


@pytest.fixture(scope="session")
def f4() -> FieldParams:
    return FieldParams(2, 2)


@pytest.fixture(scope="session")
def f9() -> FieldParams:
    return FieldParams(3, 2)


@pytest.fixture(scope="session")
def f25() -> FieldParams:
    return FieldParams(5, 2)


@pytest.fixture(scope="session")
def f8() -> FieldParams:
    return FieldParams(2, 3, (1, 1, 0, 1))


def make_rng(tag: str) -> random.Random:
    return random.Random(f"vfunc:{tag}")


def random_laurent(field: FieldParams, rng: random.Random,
                   lo: int = -8, hi: int = 4, density: float = 0.5) -> LaurentPoly:
    terms = []
    for e in range(lo, hi + 1):
        if rng.random() < density:
            terms.append((e, field.random_element(rng)))
    return LaurentPoly(field, terms)


#: Rejected draws a helper below allows in a row before it gives up, as in
#: the command line's sampler.
MAX_DRAWS = 1000


def capped_draw(draw):
    """Return the first draw() that is accepted.

    A draw is rejected when it returns None or raises InputError.  After
    MAX_DRAWS rejections in a row this raises SamplingExhausted; one capped
    draw nested in another passes that on instead of counting it as one
    more rejection.  Each attempt consumes exactly the random numbers
    draw() takes, so seeded instances do not depend on the cap.
    """
    for _ in range(MAX_DRAWS):
        try:
            out = draw()
        except SamplingExhausted:
            raise
        except InputError:
            continue
        if out is not None:
            return out
    raise SamplingExhausted(f"no accepted draw in {MAX_DRAWS} tries")


def random_j_poly(field: FieldParams, rng: random.Random, min_exp: int,
                  allow_zero: bool = False) -> LaurentPoly:
    """Random member of J with support in [min_exp, -1]."""
    p = field.p
    exps = [e for e in range(min_exp, 0) if e % p != 0]

    def draw():
        terms = []
        for e in exps:
            if rng.random() < 0.5:
                c = field.random_element(rng)
                if not c.is_zero():
                    terms.append((e, c))
        f = LaurentPoly(field, terms)
        return f if allow_zero or not f.is_zero() else None

    return capped_draw(draw)


def random_series(field: FieldParams, rng: random.Random,
                  bound: int) -> LaurentPoly:
    """Nonzero member of J with pole order at most bound: every exponent
    in [-bound, -1] prime to p draws one coefficient, as `vfunc sweep`
    does."""
    def draw():
        terms = []
        for e in range(-bound, 0):
            if e % field.p == 0:
                continue
            c = field.random_element(rng)
            if not c.is_zero():
                terms.append((e, c))
        return LaurentPoly(field, terms) if terms else None

    return capped_draw(draw)


def pick_a(field: FieldParams, rng: random.Random) -> FqElem:
    """Random action parameter outside the prime field."""
    def draw():
        a = field.random_element(rng)
        return None if a.is_in_prime_field() else a

    return capped_draw(draw)


def random_pair(field: FieldParams, rng: random.Random,
                min_exp: int = -5) -> ExtensionPair:
    """Random valid pair; g1 and g2 from random_j_poly, then a."""
    def draw():
        g1 = random_j_poly(field, rng, min_exp)
        g2 = random_j_poly(field, rng, min_exp)
        return validate_pair(field, pick_a(field, rng), g1, g2)

    return capped_draw(draw)


def sweep_pair(field: FieldParams, rng: random.Random,
               bound: int) -> ExtensionPair:
    """Random valid pair drawn in `vfunc sweep`'s order: g1, g2, then a,
    with g1 and g2 from random_series."""
    def draw():
        g1 = random_series(field, rng, bound)
        g2 = random_series(field, rng, bound)
        a = field.random_element(rng)
        if a.is_in_prime_field():
            return None
        return validate_pair(field, a, g1, g2)

    return capped_draw(draw)


def series(field: FieldParams, *pairs) -> LaurentPoly:
    """The sum of c * t^e over the (e, c) pairs."""
    acc = LaurentPoly.zero(field)
    for e, c in pairs:
        acc = acc + LaurentPoly.t_pow(field, e, c)
    return acc


def unchecked_pair(field, a, g1, g2) -> ExtensionPair:
    """An ExtensionPair built without running its validation."""
    return ExtensionPair._make(field, a, g1, g2)


# -- matrices as lists of rows -----------------------------------------------

def matvec(field: FieldParams, rows, vec) -> list[LaurentPoly]:
    """Product of a matrix, as rows of LaurentPolys, with a vector."""
    out = []
    for row in rows:
        acc = LaurentPoly.zero(field)
        for x, y in zip(row, vec, strict=True):
            acc = acc + x * y
        out.append(acc)
    return out


def matmul(field: FieldParams, left, right) -> list[list[LaurentPoly]]:
    """Product of two matrices given as rows of LaurentPolys."""
    cols = list(zip(*right))
    return [matvec(field, cols, row) for row in left]


def fq_matvec(field: FieldParams, rows, vec) -> list[FqElem]:
    """Product of a matrix over F_q, as {column: entry} rows, with a
    {column: entry} vector."""
    out = []
    for row in rows:
        acc = field.zero()
        for j, x in row.items():
            if j in vec:
                acc = acc + x * vec[j]
        out.append(acc)
    return out


def as_codes(rows) -> list[dict[int, int]]:
    """{column: FqElem} rows or vectors as {column: code}, the form that
    kernel and theta_conditions_matrix speak."""
    return [{j: x.code for j, x in row.items()} for row in rows]


def as_elems(field: FieldParams, rows) -> list[dict[int, FqElem]]:
    """{column: code} rows or vectors back as {column: FqElem}."""
    return [{j: field.from_code(k) for j, k in row.items()} for row in rows]


def coeffs(x: LElement) -> tuple[LaurentPoly, ...]:
    """All p^2 coordinates of x in index order, zeros included."""
    zero = LaurentPoly.zero(x.pair.field)
    nonzero = dict(x.terms)
    return tuple(nonzero.get(idx, zero) for idx in range(x.pair.p ** 2))


def mult_matrix(x: LElement):
    """Rows of the matrix of y -> x * y on the monomial basis, whose
    columns are the images of the basis monomials."""
    p = x.pair.p
    cols = [coeffs(x * LElement.monomial(x.pair, i, j))
            for i in range(p) for j in range(p)]
    return [list(row) for row in zip(*cols)]


def add_into(acc: dict, key, c) -> None:
    """acc[key] += c, storing c itself on a new key; a sum that cancels
    stays behind as a zero entry, which LElement drops."""
    acc[key] = acc[key] + c if key in acc else c


def _fold(grid: dict[tuple[int, int], LaurentPoly],
          pair: ExtensionPair) -> dict[int, LaurentPoly]:
    """Reduce a grid {(I, J): coefficient of alpha^I beta^J}, I, J <= 2p-2,
    modulo alpha^p = alpha + g1 and then beta^p = beta + g2, to the
    coordinates keyed by i*p + j."""
    p = pair.p
    for i, j in [key for key in grid if key[0] >= p]:
        c = grid.pop((i, j))
        add_into(grid, (i - p + 1, j), c)
        add_into(grid, (i - p, j), c * pair.g1)
    for i, j in [key for key in grid if key[1] >= p]:
        c = grid.pop((i, j))
        add_into(grid, (i, j - p + 1), c)
        add_into(grid, (i, j - p), c * pair.g2)
    return {i * p + j: c for (i, j), c in grid.items()}


def reference_mul(x: LElement, y: LElement) -> LElement:
    """x * y in L on LaurentPoly coefficients: every coordinate product is
    a LaurentPoly product, summed into a grid of alpha^I beta^J and folded
    by the defining relations.  The reference for the product on codes."""
    p = x.pair.p
    grid: dict[tuple[int, int], LaurentPoly] = {}
    for idx1, c1 in x.terms:
        i1, j1 = divmod(idx1, p)
        for idx2, c2 in y.terms:
            i2, j2 = divmod(idx2, p)
            add_into(grid, (i1 + i2, j1 + j2), c1 * c2)
    return LElement(x.pair, _fold(grid, x.pair))


def conditions_matrix_in_L(pair: ExtensionPair) -> list[list[LaurentPoly]]:
    """The θ conditions matrix built inside L: each basis monomial is an
    LElement, both conditions are evaluated on it by act and LElement
    arithmetic, and the images are densified into columns, so entries are
    (constant) LaurentPolys, zeros included."""
    p = pair.p
    cols = []
    for i in range(p):
        for j in range(p):
            m = LElement.monomial(pair, i, j)
            ds = act(SIGMA, m) - m
            first = act(SIGMA, ds) - ds
            second = act(TAU, m) - m - pair.a * ds
            cols.append(coeffs(first) + coeffs(second))
    return [list(row) for row in zip(*cols)]


# -- subgroups of (Z/p)^2 as element sets ------------------------------------

def span(p: int, gens) -> set[tuple[int, int]]:
    """The F_p-span of exponent pairs (i, j) in (Z/p)^2, enumerated: the
    reference for Subgroup, which works on canonical bases alone."""
    out = {(0, 0)}
    for gi, gj in gens:
        addition = [(c * gi % p, c * gj % p) for c in range(p)]
        out = {((i + di) % p, (j + dj) % p)
               for i, j in out for di, dj in addition}
    return out

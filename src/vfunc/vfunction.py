"""The motivic weight v attached to a pair (g1, g2), by two routes.

Route one is a closed formula: with f = a^p*g1 + g2,

    v = ceil(s / p^2),    s = -min{v_K(g1), p * v_K(f)},

the minimum absorbing v_K(f) = infinity when f vanishes.

Route two is a from-first-principles check.  It finds every equivariant
map phi out of the standard two-dimensional representation by solving the
linear conditions

    m (sigma - 1)^2 = 0,        m (tau - 1) = a * m (sigma - 1)

for m in L (writing m (g - 1) for act(g, m) - m), scales an echelon basis
of the solution space into the integral lattice, and reads v off the
extension valuation of a 2x2 determinant of images.  Both valuations, of
the second basis vector and of the determinant, come from
LElement.valuation: the tau-orbit product down to K(beta), read through
the orthogonal basis of powers of beta, with no norm down to K.

The group sends a monomial to an F_p-combination of monomials and a is a
constant, so each condition is written once (_first_image, _second_image),
on elements held as F_q codes: on the basis monomials they give the
2p^2 x p^2 matrix theta_conditions_matrix, the reference for the solve
below, on the kept first-stage vectors they give the second stage's
matrix, and on elements of L they check the images.  The action on a
monomial never folds by the defining relations, so the solution depends
on (field, a) alone, never on g1 or g2, and it is found in two stages,
each solved by exact_linalg.kernel and kept in a bounded cache.  The
images, the matrices, kernel's solutions and the kept vectors are all
rows of F_q codes, so no value changes encoding on the way:

1. m (sigma - 1)^2 = 0 does not read a.  Its p^2 x p^2 block is solved
   once per field; the 2p basis vectors are kept with their images
   m (sigma - 1) and m (tau - 1).
2. m (tau - 1) - a * m (sigma - 1) = 0 on those vectors is a matrix with
   2p columns, solved once per (field, a).

The valuations, the lattice scaling and the membership checks of the
images are still computed for each pair.

The two routes share no code beyond the base arithmetic, so their
agreement on random pairs is a strong correctness signal for both.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .errors import InternalCheckFailed, LatticeAssertionFailed, NotInTheta
from .exact_linalg import kernel
from .extension_algebra import (SIGMA, TAU, Codes, ExtensionPair, LElement,
                                _key, act_on_terms)
from .finite_field import MAX_Q, FieldParams, FqElem
from .laurent import INFINITY


class VResult(NamedTuple):
    """Value of v together with the valuation s it came from.

    s is positive: the formula route sets s = -min{v_K(g1), p*v_K(f)}, the
    oracle route measures s = -v_L(m2) on the second lattice generator.
    Both routes satisfy value = ceil(s / p^2).
    """

    value: int
    s: int
    route: str


class ThetaBasis(NamedTuple):
    """Integral basis data for the solution lattice.

    {t^e1 * m1, t^e2 * m2} is an O_K-basis; m1 is the constant 1 with
    e1 = 0, and m2 has zero constant coordinate.  s_prime = -v_L(m2) is
    kept so callers do not have to measure it again.
    """

    m1: LElement
    m2: LElement
    e1: int
    e2: int
    s_prime: int


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den)


def v_formula(pair: ExtensionPair) -> VResult:
    """Closed-form value from the valuations of g1 and f = a^p*g1 + g2."""
    p = pair.p
    f_series = (pair.a ** p) * pair.g1 + pair.g2
    vf = f_series.valuation()
    vg1 = pair.g1.valuation()
    low = vg1 if vf == INFINITY else min(vg1, p * vf)
    s = -low
    if s % (p * p) == 0:
        raise InternalCheckFailed(f"s = {s} divisible by p^2 on a valid pair")
    return VResult(value=_ceil_div(s, p * p), s=s, route="formula")


def _diff(field: FieldParams, g: tuple[int, int], y: Codes) -> Codes:
    """y (g - 1) for y on F_q codes, as codes."""
    out = act_on_terms(field, g, y)
    field.accumulate(out, field.elem(-1).code, y.items())
    return out


def _first_image(field: FieldParams, m: Codes, ds: Codes) -> Codes:
    """m (sigma - 1)^2, the first condition's image, given ds = m (sigma - 1),
    as m (sigma^2 - 1) - 2 ds with sigma^2 = (2, 0): acting on m, not on the
    denser ds, keeps the cost on a monomial O(p).  a does not enter."""
    minus_one = field.elem(-1).code
    out = _diff(field, (2, 0), m)
    field.accumulate(out, minus_one, ds.items())
    field.accumulate(out, minus_one, ds.items())
    return out


def _second_image(field: FieldParams, a: FqElem, ds: Codes,
                  dt: Codes) -> Codes:
    """m (tau - 1) - a * m (sigma - 1), the image of the second condition,
    given ds = m (sigma - 1) and dt = m (tau - 1); written into dt."""
    field.accumulate(dt, (-a).code, ds.items())
    return dt


def _matrix(field: FieldParams,
            columns: Iterable[Codes]) -> list[dict[int, int]]:
    """{column: code} rows, kernel's form, of the p^2-row matrix whose k-th
    column is the k-th of columns: elements with constant coordinates on
    codes, whose monomial index is the row.  A key that is not a
    constant monomial's is a term off the constants and raises
    InternalCheckFailed."""
    p = field.p
    rows = {_key(p, 0, idx): {} for idx in range(p * p)}
    for k, column in enumerate(columns):
        for key, code in column.items():
            row = rows.get(key)
            if row is None:
                raise InternalCheckFailed(
                    f"condition image has a non-constant term, key {key}")
            row[k] = code
    return list(rows.values())


def _monomials(field: FieldParams) -> Iterator[tuple[Codes, Codes]]:
    """(m, m (sigma - 1)) for each basis monomial m, coefficient 1, in
    index order: the columns of the conditions matrices."""
    p, one = field.p, field.one().code
    ms = ({_key(p, 0, idx): one} for idx in range(p * p))
    return ((m, _diff(field, SIGMA, m)) for m in ms)


def theta_conditions_matrix(pair: ExtensionPair) -> list[dict[int, int]]:
    """The 2p^2 x p^2 matrix of both conditions on the monomial basis over
    F_q, as {column: code} rows of its nonzero entries, the form that
    exact_linalg.kernel takes and returns: column idx holds the images of
    the monomial with index idx and coefficient 1, the first condition
    above the second.  The action and the scaling by a keep coefficients
    constant, so every image term is a constant and its row is its
    monomial index.  Only pair.field and pair.a enter.

    The oracle does not call it: it is the full solve, the reference that
    the tests hold the two-stage solve (_theta_solution) to."""
    field = pair.field
    first, second = [], []
    for m, ds in _monomials(field):
        first.append(_first_image(field, m, ds))
        second.append(_second_image(field, pair.a, ds, _diff(field, TAU, m)))
    return _matrix(field, first) + _matrix(field, second)


#: A kept vector over F_q on the monomial basis: the items of its Codes,
#: (key, code) pairs of its nonzero constant coordinates, in the order
#: they were built.
Vector = tuple[tuple[int, int], ...]


@lru_cache(maxsize=64)
def _first_condition(
        field: FieldParams) -> tuple[tuple[Vector, Vector, Vector], ...]:
    """Echelon basis of the solutions of m (sigma - 1)^2 = 0, each vector v
    with its images v (sigma - 1) and v (tau - 1).

    The condition does not read a, so its p^2 x p^2 block is solved once
    per field and kept: the basis holds 2p vectors, so this is O(p^2)
    codes, not the images of all p^2 monomials.  The tuples are immutable,
    so no caller can alter a kept vector.
    """
    rows = _matrix(field, (_first_image(field, m, ds)
                           for m, ds in _monomials(field)))
    basis = ({_key(field.p, 0, col): code for col, code in v.items()}
             for v in kernel(field, rows, len(rows)))
    return tuple((tuple(m.items()), tuple(_diff(field, SIGMA, m).items()),
                  tuple(_diff(field, TAU, m).items()))
                 for m in basis)


@lru_cache(maxsize=MAX_Q)
def _theta_solution(field: FieldParams, a: FqElem) -> tuple[Vector, Vector]:
    """Echelon basis (m1, m2) of the solutions of both conditions for one
    (field, a), checked: the space has dimension 2, m1 is the constant 1
    and m2 has no constant part.

    On the kept basis v_k of the first condition (_first_condition) the
    second is the matrix of v_k (tau - 1) - a * v_k (sigma - 1), with one
    column per v_k; kernel solves it and each solution c, a {k: code} row,
    maps back to sum c_k v_k, one accumulate per k.  The v_k are unit
    vectors in index order, so the map back relabels columns and keeps the
    reduced echelon form of the full conditions matrix.  Solved on first
    use and kept; a takes fewer than q <= MAX_Q values per field, so one
    field's values all fit.
    """
    first = _first_condition(field)
    rows = _matrix(field, (_second_image(field, a, dict(ds), dict(dt))
                           for _, ds, dt in first))
    basis = []
    for c in kernel(field, rows, len(first)):
        m: Codes = {}
        for k, code in c.items():
            field.accumulate(m, code, first[k][0])
        basis.append(tuple(m.items()))
    if len(basis) != 2:
        raise InternalCheckFailed(
            f"solution space has dimension {len(basis)}, expected 2")
    m1, m2 = basis
    if m1 != ((0, field.one().code),):
        raise InternalCheckFailed("first echelon vector is not the constant 1")
    if any(i == 0 for i, _ in m2):
        raise InternalCheckFailed("second echelon vector has a constant part")
    return m1, m2


def theta_lattice(pair: ExtensionPair) -> ThetaBasis:
    """Echelon basis of the solution space, with the exponents that scale
    it to an integral basis.

    The kernel is echelonized with the constant coordinate first, so the
    first basis vector is the constant 1 and the second has zero constant
    coordinate.  The solve depends on (field, a) only and is done once per
    process (_theta_solution); each call wraps fresh copies of the kept
    vectors.  The second generator's scaling exponent is e2 =
    ceil(s'/p^2) with s' = -v_L(m2), measured for each pair by
    LElement.valuation (the tau-orbit product of m2, read through the
    orthogonal basis of K(beta)); s' off the allowed residues (that is,
    divisible by p^2) would break the lattice splitting and raises.  The
    scaling by t^(e_k) is left to the caller: on codes it is a shift of
    every key by that of t^(e_k) (v_oracle).
    """
    p = pair.p
    m1, m2 = (LElement.from_codes(pair, dict(v))
              for v in _theta_solution(pair.field, pair.a))
    val = m2.valuation()
    if val == INFINITY:
        raise InternalCheckFailed("second echelon vector is zero")
    s_prime = -val
    if s_prime % (p * p) == 0:
        raise LatticeAssertionFailed(
            f"lattice valuation s' = {s_prime} is divisible by p^2")
    return ThetaBasis(m1=m1, m2=m2, e1=0, e2=_ceil_div(s_prime, p * p),
                      s_prime=s_prime)


def theta_to_xi(m: LElement) -> tuple[LElement, LElement]:
    """Images (phi(x1), phi(x2)) of the equivariant map attached to m.

    phi(x1) = m (sigma - 1), which the membership check computes, and
    phi(x2) = m.  Raises NotInTheta when m fails either defining condition,
    since only then is phi equivariant.  v_oracle runs this check on the
    lattice basis of every pair, so it also guards the kept solutions.
    """
    field, x = m.pair.field, m.codes
    ds = _diff(field, SIGMA, x)
    if (_first_image(field, x, ds)
            or _second_image(field, m.pair.a, ds, _diff(field, TAU, x))):
        raise NotInTheta("element does not satisfy the defining conditions")
    return LElement.from_codes(m.pair, ds), m


def v_oracle(pair: ExtensionPair) -> VResult:
    """Brute-force value: lattice basis, equivariant maps, 2x2 determinant.

    The lattice basis u_k = t^(e_k) * m_k is m_k with every key raised by
    the key of t^(e_k), a key shift with no product in L.  The determinant of
    (phi_i(x_j)) is computed inside L and its extension valuation must be
    a multiple of p^2; the quotient is the value.
    """
    p = pair.p
    tb = theta_lattice(pair)
    u1, u2 = (LElement.from_codes(pair, {key + _key(p, e, 0): k
                                         for key, k in m.codes.items()})
              for m, e in ((tb.m1, tb.e1), (tb.m2, tb.e2)))
    try:
        phi1 = theta_to_xi(u1)
        phi2 = theta_to_xi(u2)
    except NotInTheta as exc:
        # The basis came from the kernel, so this is a fault, not bad input.
        raise InternalCheckFailed(f"lattice basis element: {exc}") from exc
    det2 = phi1[0] * phi2[1] - phi1[1] * phi2[0]
    val = det2.valuation()
    if val == INFINITY:
        raise InternalCheckFailed("determinant of the image matrix vanishes")
    if val % (p * p) != 0:
        raise InternalCheckFailed(
            f"image determinant valuation {val} not divisible by p^2")
    return VResult(value=val // (p * p), s=tb.s_prime, route="oracle")

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
extension valuation of a 2x2 determinant of images.  The group sends a
monomial to an F_p-combination of monomials and a is a constant, so the
conditions are written once, on elements held as F_q codes: on the basis
monomials they give the 2p^2 x p^2 matrix that
exact_linalg.kernel solves, and on elements of L they check the images.
The action on a monomial never folds by the defining relations, so the
matrix and its solution depend on (field, a) alone, never on g1 or g2.
The solve is therefore done once per (field, a) per process and kept in
a bounded cache; the valuations, the lattice scaling and the membership
checks of the images are still computed for each pair.

The two routes share no code beyond the base arithmetic, so their
agreement on random pairs is a strong correctness signal for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InternalCheckFailed, LatticeAssertionFailed, NotInTheta
from .exact_linalg import kernel
from .extension_algebra import (SIGMA, TAU, Codes, ExtensionPair, LElement,
                                act_on_terms, add_scaled)
from .finite_field import MAX_Q, FieldParams, FqElem
from .laurent import INFINITY, LaurentPoly


@dataclass(frozen=True)
class VResult:
    """Value of v together with the valuation s it came from.

    s is positive: the formula route sets s = -min{v_K(g1), p*v_K(f)}, the
    oracle route measures s = -v_L(m2) on the second lattice generator.
    Both routes satisfy value = ceil(s / p^2).
    """

    value: int
    s: int
    route: str


@dataclass(frozen=True)
class ThetaBasis:
    """Integral basis data for the solution lattice.

    {t^e1 * m1, t^e2 * m2} is an O_K-basis; m1 is the constant 1 with
    e1 = 0, and m2 has zero constant coordinate.  s_prime = -v_L(m2) is
    kept so callers do not have to recompute a norm.
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


def _condition_images(field: FieldParams, a: FqElem,
                      m: Codes) -> tuple[Codes, Codes, Codes]:
    """m (sigma - 1)^2, m (tau - 1) - a * m (sigma - 1) and m (sigma - 1) for
    m on F_q codes, as codes; the first two are empty exactly on solutions."""
    minus_one = (-field.one()).code

    def diff(g: tuple[int, int], y: Codes) -> Codes:
        """y (g - 1)."""
        out = act_on_terms(field, g, y)
        add_scaled(field, out, minus_one, y)
        return out

    ds = diff(SIGMA, m)
    second = diff(TAU, m)
    add_scaled(field, second, (-a).code, ds)
    return diff(SIGMA, ds), second, ds


def _conditions_matrix(field: FieldParams,
                       a: FqElem) -> list[dict[int, FqElem]]:
    n = field.p ** 2
    one = field.one().code
    rows: list[dict[int, FqElem]] = [{} for _ in range(2 * n)]
    for col in range(n):
        first, second, _ = _condition_images(field, a, {col: {0: one}})
        for offset, image in ((0, first), (n, second)):
            for idx, row in image.items():
                rows[offset + idx][col] = field.from_code(row[0])
    return rows


def theta_conditions_matrix(pair: ExtensionPair) -> list[dict[int, FqElem]]:
    """The 2p^2 x p^2 matrix of both conditions on the monomial basis over
    F_q, as {column: nonzero entry} rows: column idx holds the images of
    the monomial with index idx and coefficient 1, the first condition
    above the second.  The action and the scaling by a keep coefficients
    constant, so every image coordinate is a row {0: code}.  Only
    pair.field and pair.a enter."""
    return _conditions_matrix(pair.field, pair.a)


#: An echelon basis vector of the solution space as (index, code) pairs of
#: its nonzero constant coordinates, in the order kernel gives them.
SolutionVector = tuple[tuple[int, int], ...]


@lru_cache(maxsize=MAX_Q)
def _theta_solution(field: FieldParams,
                    a: FqElem) -> tuple[SolutionVector, SolutionVector]:
    """Echelon basis (m1, m2) of the solutions of both conditions for one
    (field, a), checked: the space has dimension 2, m1 is the constant 1
    and m2 has no constant part.  Solved on first use and kept; a takes
    fewer than q <= MAX_Q values per field, so one field's values all fit.
    The tuples are immutable, so no caller can alter a kept solution."""
    basis = kernel(field, _conditions_matrix(field, a), field.p ** 2)
    if len(basis) != 2:
        raise InternalCheckFailed(
            f"solution space has dimension {len(basis)}, expected 2")
    m1, m2 = (tuple((i, c.code) for i, c in v.items()) for v in basis)
    if m1 != ((0, field.one().code),):
        raise InternalCheckFailed("first echelon vector is not the constant 1")
    if any(i == 0 for i, _ in m2):
        raise InternalCheckFailed("second echelon vector has a constant part")
    return m1, m2


def theta_lattice(pair: ExtensionPair) -> ThetaBasis:
    """Echelon basis of the solution space, scaled to an integral basis.

    The kernel is echelonized with the constant coordinate first, so the
    first basis vector is the constant 1 and the second has zero constant
    coordinate.  The solve depends on (field, a) only and is done once per
    process (_theta_solution); each call wraps fresh copies of the kept
    vectors.  The second generator's scaling exponent is e2 =
    ceil(s'/p^2) with s' = -v_L(m2), measured for each pair; s' off the
    allowed residues (that is, divisible by p^2) would break the lattice
    splitting and raises.
    """
    p = pair.p
    m1, m2 = (LElement.from_codes(pair, {i: {0: c} for i, c in v})
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
    first, second, ds = _condition_images(m.pair.field, m.pair.a, m.codes)
    if first or second:
        raise NotInTheta("element does not satisfy the defining conditions")
    return LElement.from_codes(m.pair, ds), m


def v_oracle(pair: ExtensionPair) -> VResult:
    """Brute-force value: lattice basis, equivariant maps, 2x2 determinant.

    The determinant of (phi_i(x_j)) is computed inside L and its extension
    valuation must be a multiple of p^2; the quotient is the value.
    """
    p = pair.p
    tb = theta_lattice(pair)
    u1 = tb.m1 * LaurentPoly.t_pow(pair.field, tb.e1)
    u2 = tb.m2 * LaurentPoly.t_pow(pair.field, tb.e2)
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

"""The motivic weight v attached to a pair (g1, g2), by two routes.

Route one is a closed formula: with f = a^p*g1 + g2,

    v = ceil(s / p^2),    s = -min{v_K(g1), p * v_K(f)},

the minimum absorbing v_K(f) = infinity when f vanishes.

Route two is a from-first-principles check.  It finds every equivariant
map phi out of the standard two-dimensional representation by solving the
linear conditions

    m (sigma - 1)^2 = 0,        m (tau - 1) = a * m (sigma - 1)

inside L (writing m (g - 1) for act(g, m) - m), scales an echelon basis of
the solution space into the integral lattice, and reads v off the extension
valuation of a 2x2 determinant of images.  The two routes share no code
beyond the base arithmetic, so their agreement on random pairs is a strong
correctness signal for both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckFailed, LatticeAssertionFailed, NotInTheta
from .exact_linalg import kernel
from .extension_algebra import ExtensionPair, GroupElement, LElement, act
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


def _delta(g: GroupElement, m: LElement) -> LElement:
    return act(g, m) - m


def _condition_images(pair: ExtensionPair, m: LElement) -> tuple[LElement, LElement]:
    """The two defining conditions evaluated at m; both vanish on solutions."""
    p = pair.p
    s_gen = GroupElement(p, 1, 0)
    t_gen = GroupElement(p, 0, 1)
    ds = _delta(s_gen, m)
    first = _delta(s_gen, ds)
    second = _delta(t_gen, m) - pair.a * ds
    return first, second


def theta_conditions_matrix(pair: ExtensionPair) -> list[list[LaurentPoly]]:
    """Rows of the stacked matrix of both conditions on the monomial basis,
    2p^2 x p^2."""
    p = pair.p
    n = p * p
    cols = []
    for idx in range(n):
        i, j = divmod(idx, p)
        first, second = _condition_images(pair, LElement.monomial(pair, i, j))
        cols.append(first.coeffs + second.coeffs)
    return [list(row) for row in zip(*cols)]


def theta_lattice(pair: ExtensionPair) -> ThetaBasis:
    """Echelon basis of the solution space, scaled to an integral basis.

    The kernel is echelonized with the constant coordinate first, so the
    first basis vector is the constant 1 and the second has zero constant
    coordinate.  The second generator's scaling exponent is e2 =
    ceil(s'/p^2) with s' = -v_L(m2); s' off the allowed residues (that is,
    divisible by p^2) would break the lattice splitting and raises.
    """
    p = pair.p
    basis = kernel(pair.field, theta_conditions_matrix(pair))
    if len(basis) != 2:
        raise InternalCheckFailed(
            f"solution space has dimension {len(basis)}, expected 2")
    m1 = LElement(pair, basis[0])
    m2 = LElement(pair, basis[1])
    if m1 != LElement.one(pair):
        raise InternalCheckFailed("first echelon vector is not the constant 1")
    if not m2.coeff(0, 0).is_zero():
        raise InternalCheckFailed("second echelon vector has a constant part")
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

    phi(x1) = act(sigma, m) - m and phi(x2) = m.  Raises NotInTheta when m
    fails either defining condition, since only then is phi equivariant.
    """
    pair = m.pair
    first, second = _condition_images(pair, m)
    if not first.is_zero() or not second.is_zero():
        raise NotInTheta("element does not satisfy the defining conditions")
    s_gen = GroupElement(pair.p, 1, 0)
    return _delta(s_gen, m), m


def v_oracle(pair: ExtensionPair) -> VResult:
    """Brute-force value: lattice basis, equivariant maps, 2x2 determinant.

    The determinant of (phi_i(x_j)) is computed inside L and its extension
    valuation must be a multiple of p^2; the quotient is the value.
    """
    p = pair.p
    tb = theta_lattice(pair)
    u1 = tb.m1 * LaurentPoly.t_pow(pair.field, tb.e1)
    u2 = tb.m2 * LaurentPoly.t_pow(pair.field, tb.e2)
    phi1 = theta_to_xi(u1)
    phi2 = theta_to_xi(u2)
    det2 = phi1[0] * phi2[1] - phi1[1] * phi2[0]
    val = det2.valuation()
    if val == INFINITY:
        raise InternalCheckFailed("determinant of the image matrix vanishes")
    if val % (p * p) != 0:
        raise InternalCheckFailed(
            f"image determinant valuation {val} not divisible by p^2")
    return VResult(value=val // (p * p), s=tb.s_prime, route="oracle")

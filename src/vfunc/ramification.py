"""Ramification filtrations of the (Z/p)^2 extension attached to a pair.

Every index-p subextension corresponds to a point (lambda : mu) of the
projective line over F_p through lambda*g1 + mu*g2, a member of J (as g1
and g2 are, and J is an F_p-space) and so its own representative; its
break is minus its valuation.  That valuation is read off the leading
terms of g1 and g2, and the member itself is never built.  The break
data of the full group assembles from these degree-p pictures: the
subgroup in upper numbering just after height u is the intersection of
the annihilators of every line whose break is at most u.  Herbrand
transition functions convert between upper and lower numbering.  Every
height is an integer: the lines' breaks, the upper breaks (Hasse-Arf) and
the lower breaks, which are the knots of psi, whose slopes are the
integers 1, p and p^2.  Only phi, with slopes 1, 1/p and 1/p^2, and
evaluation between knots use Fraction, and import it where they do: the
filtration routes never load the fractions module.
"""

from __future__ import annotations

import bisect
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .errors import InputError, InternalCheckFailed, NumberingMismatch
from .extension_algebra import ExtensionPair
# reduce_to_J is unused here, but perfbench/tests look it up in this
# module's namespace; it goes when the benchmark drops that binding.
from .laurent import INFINITY, LaurentPoly, reduce_to_J  # noqa: F401

if TYPE_CHECKING:
    from fractions import Fraction


class _SubgroupFields(NamedTuple):
    p: int
    gens: tuple[tuple[int, int], ...]


class Subgroup(_SubgroupFields):
    """Subgroup of (Z/p)^2, stored by its canonical echelon basis.

    Generators are sigma-tau exponent pairs (i, j), in any number and
    unreduced.  __new__ replaces them with the canonical basis of their
    span: empty for the trivial subgroup, ((1, j),) or ((0, 1),) for order
    p, and ((1, 0), (0, 1)) for the full group.  Equality and is_subset
    rely on this.
    """

    __slots__ = ()

    def __new__(cls, p: int, gens: tuple[tuple[int, int], ...]) -> Subgroup:
        # The first nonzero generator spans a line, scaled to (1, j) or
        # (0, 1); any generator off that line makes the span everything.
        basis: tuple[tuple[int, int], ...] = ()
        for i, j in gens:
            if not basis:
                if i % p:
                    basis = ((1, j * pow(i, -1, p) % p),)
                elif j % p:
                    basis = ((0, 1),)
            elif (basis[0][0] * j - basis[0][1] * i) % p:
                basis = ((1, 0), (0, 1))
                break
        return super().__new__(cls, p, basis)

    @classmethod
    def full(cls, p: int) -> Subgroup:
        return cls(p, ((1, 0), (0, 1)))

    @classmethod
    def trivial(cls, p: int) -> Subgroup:
        return cls(p, ())

    @property
    def order(self) -> int:
        return self.p ** len(self.gens)

    def is_subset(self, other: Subgroup) -> bool:
        if self.p != other.p:
            raise InputError("subgroups of groups for different p")
        return self.order == 1 or other.order == self.p ** 2 or self == other

    def intersect(self, other: Subgroup) -> Subgroup:
        """The smaller one if one contains the other, else trivial: two
        distinct lines meet only in 0."""
        if self.is_subset(other):
            return self
        if other.is_subset(self):
            return other
        return Subgroup.trivial(self.p)


class Line(NamedTuple):
    """Point (lambda : mu) of P^1(F_p) and the break of its member
    lambda*g1 + mu*g2 of J, read off the leading terms of g1 and g2."""

    coeffs: tuple[int, int]
    jump: int


def lines(pair: ExtensionPair) -> list[Line]:
    """One line per point of P^1(F_p): (1, 0) first, then (lam, 1).

    No member is built: (1 : 0) and (0 : 1) read the first exponent of g1
    and of g2, and (lam : 1) walks the two code rows to the first exponent
    where lam*g1 + g2 does not cancel.
    """
    p = pair.p
    g1, g2 = pair.g1, pair.g2
    elem = pair.field.elem
    vals = [((1, 0), g1.valuation()), ((0, 1), g2.valuation())]
    vals += [((lam, 1), _member_valuation(elem(lam).code, g1, g2))
             for lam in range(1, p)]
    out = []
    for coeffs, val in vals:
        # the only guards should validation let a series outside J through
        if val == INFINITY:
            raise InternalCheckFailed(
                "a line of a valid pair reduced to zero")
        jump = -val
        if jump % p == 0 or jump <= 0:
            raise InternalCheckFailed(f"line break {jump} outside J range")
        out.append(Line(coeffs=coeffs, jump=jump))
    return out


def _member_valuation(k: int, g1: LaurentPoly,
                      g2: LaurentPoly) -> int | float:
    """v_K(g^k * g1 + g2), read off the fronts of the two sorted code rows.

    The first exponent held by one row only, or shared with a nonzero sum
    (one Zech add), is the valuation.  The leading terms cancel only at a
    shared exponent and for one scale, -c2/c1, so of the lines (lam : 1)
    at most one walks past its first step.
    """
    a, b = g1.codes, g2.codes
    accumulate = g1.field.accumulate
    for (ea, ka), (eb, kb) in zip(a, b):
        if ea != eb:
            return min(ea, eb)
        acc = {eb: kb}
        accumulate(acc, k, ((ea, ka),))
        if acc:
            return ea
    rest = a[len(b):] or b[len(a):]
    return rest[0][0] if rest else INFINITY


@lru_cache(maxsize=1024)
def annihilator(coeffs: tuple[int, int], p: int) -> Subgroup:
    """Order-p subgroup pairing to zero with the line (lam : mu):
    i*mu + j*lam = 0.  Cached: Subgroup is frozen, so the filtration
    routes share one per line."""
    lam, mu = coeffs
    if lam % p == 0 and mu % p == 0:
        raise InputError("line coefficients must not both vanish")
    return Subgroup(p, ((lam, -mu),))


class _FiltrationFields(NamedTuple):
    numbering: str
    p: int
    breaks: tuple[tuple[int, Subgroup], ...]


class Filtration(_FiltrationFields):
    """Break list (u, subgroup just after u) in one of the two numberings.

    The value at height v is the subgroup attached to the largest break
    strictly below v, and the full group before the first break.  Subgroups
    decrease strictly along the break list and the last one is trivial;
    __new__ checks all of this.  Break heights are ints in both
    numberings; only the heights v probed by subgroup_at may be Fractions.
    """

    __slots__ = ()

    def __new__(cls, numbering: str, p: int,
                breaks: tuple[tuple[int, Subgroup], ...]) -> Filtration:
        if numbering not in ("upper", "lower"):
            raise InputError(f"unknown numbering {numbering!r}")
        prev: Subgroup | None = None
        last_u: int | None = None
        for u, sub in breaks:
            if type(u) is not int:
                raise InternalCheckFailed(
                    f"break height {u!r} is not an integer")
            if last_u is not None and not u > last_u:
                raise InternalCheckFailed("breaks out of order")
            if prev is not None and not (sub.order < prev.order
                                         and sub.is_subset(prev)):
                raise InternalCheckFailed("subgroups not strictly decreasing")
            prev = sub
            last_u = u
        if breaks and breaks[-1][1].order != 1:
            raise InternalCheckFailed("final subgroup is not trivial")
        return super().__new__(cls, numbering, p, breaks)

    def subgroup_at(self, v: int | Fraction) -> Subgroup:
        below = [sub for u, sub in self.breaks if u < v]
        return below[-1] if below else Subgroup.full(self.p)

    def break_values(self) -> list[int]:
        return [u for u, _ in self.breaks]


def upper_filtration(pair: ExtensionPair) -> Filtration:
    """Assemble the upper-numbering filtration from the p+1 line breaks.

    The subgroup after height u intersects the annihilators of all lines
    with break at most u; heights where the intersection does not shrink
    are not breaks and are dropped.
    """
    return _assemble_upper(pair.p, lines(pair))


def _assemble_upper(p: int, ls: list[Line]) -> Filtration:
    breaks = []
    current = Subgroup.full(p)
    for u in sorted({ln.jump for ln in ls}):
        # current already meets the lines below u.
        nxt = current
        for ln in ls:
            if ln.jump == u:
                nxt = nxt.intersect(annihilator(ln.coeffs, p))
        if nxt.order < current.order:
            breaks.append((u, nxt))
            current = nxt
        if current.order == 1:
            break
    if not breaks or breaks[-1][1].order != 1:
        raise InternalCheckFailed("line annihilators failed to cut to 1")
    return Filtration(numbering="upper", p=p, breaks=tuple(breaks))


class HerbrandFn(NamedTuple):
    """Piecewise-linear increasing bijection of [0, inf) fixing 0.

    Stored as knots (x, value at x, slope after x) with strictly
    increasing x: one at 0, then one at each break.  psi's knots are
    ints, as its slopes are the integers 1, p and p^2, so the lower breaks
    are its knots' values; phi's slopes are 1, 1/p and 1/p^2.  A call
    returns a Fraction.
    """

    knots: tuple[tuple[int, int | Fraction, int | Fraction], ...]

    def __call__(self, x: int | Fraction) -> Fraction:
        from fractions import Fraction
        x = Fraction(x)
        if x < 0:
            raise InputError("transition functions live on [0, inf)")
        xs = [k[0] for k in self.knots]
        pos = bisect.bisect_right(xs, x) - 1
        kx, ky, slope = self.knots[pos]
        return ky + slope * (x - kx)


def _transition(filt: Filtration, expected: str, invert: bool) -> HerbrandFn:
    """The knots (0, 0, 1) and, at each break u, (u, value at u, slope
    after u).  psi's slope (G_0 : G^u) is g0 // order, exact as the order
    divides p^2, so its knots stay ints; phi's is Fraction(order, g0)."""
    if filt.numbering != expected:
        raise NumberingMismatch(
            f"expected a {expected}-numbering filtration, got {filt.numbering}")
    if not invert:
        # psi, which lower_filtration uses, never needs the module
        from fractions import Fraction
    g0 = filt.p ** 2
    knots = [(0, 0, 1)]
    for u, sub in filt.breaks:
        x, y, slope = knots[-1]
        knots.append((u, y + slope * (u - x), g0 // sub.order if invert
                      else Fraction(sub.order, g0)))
    return HerbrandFn(knots=tuple(knots))


def herbrand_phi(filt: Filtration) -> HerbrandFn:
    """Lower-to-upper transition; slope is |G_x| / |G_0| on each segment."""
    return _transition(filt, "lower", invert=False)


def herbrand_psi(filt: Filtration) -> HerbrandFn:
    """Upper-to-lower transition; slope is |G_0| / |G^v| on each segment."""
    return _transition(filt, "upper", invert=True)


def lower_filtration(pair: ExtensionPair) -> Filtration:
    """Transport the upper breaks through the inverse transition function."""
    return _lower_from_upper(upper_filtration(pair))


def _lower_from_upper(upper: Filtration) -> Filtration:
    # Knot k + 1 of psi sits at upper break k and holds psi there.
    moved = tuple((y, sub) for (_, y, _), (_, sub)
                  in zip(herbrand_psi(upper).knots[1:], upper.breaks))
    return Filtration(numbering="lower", p=upper.p, breaks=moved)


def filtration_report(pair: ExtensionPair) -> tuple[Filtration, Filtration, bool]:
    """(upper, lower, quotient-compatibility) from one build of the lines."""
    all_lines = lines(pair)
    upper = _assemble_upper(pair.p, all_lines)
    return upper, _lower_from_upper(upper), _compat(pair.p, all_lines, upper)


def filtration_fingerprint(filt: Filtration, orders_only: bool = False) -> str:
    """Canonical string; equal strings mean equal filtrations.

    Full form lists, per break, the height, the order, and the canonical
    generators, e.g. "upper|1:2[s1t0],3:1[]".  With orders_only the
    generator brackets are dropped ("upper|1:2,3:1"), which is the right
    granularity when comparing extensions whose group labelings differ by
    a basis change.
    """
    parts = []
    for u, sub in filt.breaks:
        head = f"{u}:{sub.order}"
        if orders_only:
            parts.append(head)
        else:
            gens = "+".join(f"s{i}t{j}" for i, j in sub.gens)
            parts.append(f"{head}[{gens}]")
    return f"{filt.numbering}|" + ",".join(parts)


def quotient_compat_check(pair: ExtensionPair) -> bool:
    """Check the filtration against every degree-p quotient picture.

    For each line, the quotient by its annihilator H is cyclic of order p
    with a single break at the line's jump j, so the image of the upper
    filtration in G/H must be everything at heights v <= j and trivial
    after.  Tested at u + 1 for every break and jump u, which meets
    every height where the two sides can disagree.
    """
    all_lines = lines(pair)
    return _compat(pair.p, all_lines, _assemble_upper(pair.p, all_lines))


def _compat(p: int, all_lines: list[Line], upper: Filtration) -> bool:
    # Breaks and jumps are integers, and subgroup_at reads the breaks
    # strictly below a height.  Up to the first break or jump both sides
    # hold everywhere (the subgroup is G, which no H contains, and every
    # v <= jump holds), and on each (n, n + 1] past it they take their
    # values at n + 1, which change only after a break or jump u: so the
    # heights u + 1 meet every change.
    heights = {u + 1 for u in upper.break_values()}
    heights.update(ln.jump + 1 for ln in all_lines)
    images = [(h, upper.subgroup_at(h)) for h in heights]
    for ln in all_lines:
        h_sub = annihilator(ln.coeffs, p)
        for h, sub in images:
            # The image in G/H is everything exactly when sub is not in H.
            if (h <= ln.jump) == sub.is_subset(h_sub):
                return False
    return True

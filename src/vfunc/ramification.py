"""Ramification filtrations of the (Z/p)^2 extension attached to a pair.

Every index-p subextension corresponds to a point (lambda : mu) of the
projective line over F_p through the class of lambda*g1 + mu*g2, and its
single ramification break is read off the valuation of the reduced
representative.  The break data of the full group assembles from these
degree-p pictures: the subgroup in upper numbering just after height u is
the intersection of the annihilators of every line whose break is at most
u.  Herbrand transition functions convert between upper and lower
numbering with exact rational slopes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalCheckFailed, NumberingMismatch
from .extension_algebra import ExtensionPair
from .laurent import INFINITY, LaurentPoly, reduce_to_J

Rational = int | Fraction


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of (Z/p)^2, stored by a canonical echelon basis.

    Generators are sigma-tau exponent pairs (i, j).  The canonical basis is
    empty for the trivial subgroup, ((1, j),) or ((0, 1),) for order p, and
    ((1, 0), (0, 1)) for the full group.
    """

    p: int
    gens: tuple[tuple[int, int], ...]

    @classmethod
    def from_gens(cls, p: int, gens) -> Subgroup:
        span = {(0, 0)}
        for gi, gj in gens:
            addition = [(c * gi % p, c * gj % p) for c in range(p)]
            span = {((i + di) % p, (j + dj) % p)
                    for i, j in span for di, dj in addition}
        if len(span) == 1:
            basis = ()
        elif len(span) == p * p:
            basis = ((1, 0), (0, 1))
        else:
            i, j = max(el for el in span if el != (0, 0))
            if i != 0:
                inv = pow(i, -1, p)
                basis = ((1, j * inv % p),)
            else:
                basis = ((0, 1),)
        return cls(p, basis)

    @classmethod
    def full(cls, p: int) -> Subgroup:
        return cls(p, ((1, 0), (0, 1)))

    @classmethod
    def trivial(cls, p: int) -> Subgroup:
        return cls(p, ())

    @property
    def order(self) -> int:
        return self.p ** len(self.gens)

    def elements(self) -> frozenset[tuple[int, int]]:
        span = {(0, 0)}
        for gi, gj in self.gens:
            addition = [(c * gi % self.p, c * gj % self.p) for c in range(self.p)]
            span = {((i + di) % self.p, (j + dj) % self.p)
                    for i, j in span for di, dj in addition}
        return frozenset(span)

    def contains(self, el: tuple[int, int]) -> bool:
        return (el[0] % self.p, el[1] % self.p) in self.elements()

    def is_subset(self, other: Subgroup) -> bool:
        if self.p != other.p:
            raise InputError("subgroups of groups for different p")
        return self.elements() <= other.elements()

    def intersect(self, other: Subgroup) -> Subgroup:
        if self.p != other.p:
            raise InputError("subgroups of groups for different p")
        common = self.elements() & other.elements()
        return Subgroup.from_gens(self.p, common)


@dataclass(frozen=True)
class Line:
    """Point (lambda : mu) of P^1(F_p) with its reduced class and break."""

    coeffs: tuple[int, int]
    rep: LaurentPoly
    jump: int


def lines(pair: ExtensionPair) -> list[Line]:
    """One line per point of P^1(F_p): (1, 0) first, then (lam, 1)."""
    p = pair.p
    pencil = [((1, 0), pair.g1), ((0, 1), pair.g2)]
    for lam in range(1, p):
        pencil.append(((lam, 1), pencil[-1][1] + pair.g1))
    out = []
    for coeffs, series in pencil:
        rep, _ = reduce_to_J(series)
        val = rep.valuation()
        if val == INFINITY:
            raise InternalCheckFailed(
                "a line of a valid pair reduced to zero")
        jump = -val
        if jump % p == 0 or jump <= 0:
            raise InternalCheckFailed(f"line break {jump} outside J range")
        out.append(Line(coeffs=coeffs, rep=rep, jump=jump))
    return out


def annihilator(line: Line | tuple[int, int], p: int | None = None) -> Subgroup:
    """Order-p subgroup pairing to zero with the line: i*mu + j*lam = 0."""
    if isinstance(line, Line):
        lam, mu = line.coeffs
        if p is None:
            p = line.rep.field.p
    else:
        lam, mu = line
        if p is None:
            raise InputError("p is required alongside raw coefficients")
    lam %= p
    mu %= p
    if lam == 0 and mu == 0:
        raise InputError("line coefficients must not both vanish")
    return Subgroup.from_gens(p, [(lam, -mu % p)])


@dataclass(frozen=True)
class Filtration:
    """Break list (u, subgroup just after u) in one of the two numberings.

    The value at height v is the subgroup attached to the largest break
    strictly below v, and the full group before the first break.  Subgroups
    decrease strictly along the break list and the last one is trivial.
    """

    numbering: str
    p: int
    breaks: tuple[tuple[Rational, Subgroup], ...]

    def __post_init__(self):
        if self.numbering not in ("upper", "lower"):
            raise InputError(f"unknown numbering {self.numbering!r}")
        prev: Subgroup | None = None
        last_u: Rational | None = None
        for u, sub in self.breaks:
            if last_u is not None and not u > last_u:
                raise InternalCheckFailed("breaks out of order")
            if prev is not None and not (sub.order < prev.order
                                         and sub.is_subset(prev)):
                raise InternalCheckFailed("subgroups not strictly decreasing")
            prev = sub
            last_u = u
        if self.breaks and self.breaks[-1][1].order != 1:
            raise InternalCheckFailed("final subgroup is not trivial")

    def subgroup_at(self, v: Rational) -> Subgroup:
        current = Subgroup.full(self.p)
        for u, sub in self.breaks:
            if u < v:
                current = sub
            else:
                break
        return current

    def break_values(self) -> list[Rational]:
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
        nxt = current
        for ln in ls:
            if ln.jump <= u:
                nxt = nxt.intersect(annihilator(ln, p))
        if nxt.order < current.order:
            breaks.append((u, nxt))
            current = nxt
        if current.order == 1:
            break
    if not breaks or breaks[-1][1].order != 1:
        raise InternalCheckFailed("line annihilators failed to cut to 1")
    return Filtration(numbering="upper", p=p, breaks=tuple(breaks))


@dataclass(frozen=True)
class HerbrandFn:
    """Piecewise-linear increasing bijection of [0, inf) fixing 0.

    Stored as knots (x, value at x, slope after x) with strictly
    increasing x starting at 0.
    """

    knots: tuple[tuple[Fraction, Fraction, Fraction], ...]

    def __call__(self, x: Rational) -> Fraction:
        x = Fraction(x)
        if x < 0:
            raise InputError("transition functions live on [0, inf)")
        xs = [k[0] for k in self.knots]
        pos = bisect.bisect_right(xs, x) - 1
        kx, ky, slope = self.knots[pos]
        return ky + slope * (x - kx)


def _transition(filt: Filtration, expected: str, invert: bool) -> HerbrandFn:
    if filt.numbering != expected:
        raise NumberingMismatch(
            f"expected a {expected}-numbering filtration, got {filt.numbering}")
    g0 = filt.p ** 2
    knots = []
    x = Fraction(0)
    y = Fraction(0)
    order = g0
    for u, sub in filt.breaks:
        slope = Fraction(g0, order) if invert else Fraction(order, g0)
        knots.append((x, y, slope))
        u = Fraction(u)
        y = y + slope * (u - x)
        x = u
        order = sub.order
    slope = Fraction(g0, order) if invert else Fraction(order, g0)
    knots.append((x, y, slope))
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
    psi = herbrand_psi(upper)
    moved = []
    for u, sub in upper.breaks:
        x = psi(u)
        if x.denominator != 1:
            raise InternalCheckFailed(
                f"lower break {x} is not an integer")
        moved.append((int(x), sub))
    return Filtration(numbering="lower", p=upper.p, breaks=tuple(moved))


def filtration_report(pair: ExtensionPair) -> tuple[Filtration, Filtration, bool]:
    """(upper, lower, quotient-compatibility) from one build of the lines."""
    all_lines = lines(pair)
    upper = _assemble_upper(pair.p, all_lines)
    return upper, _lower_from_upper(upper), _compat(pair.p, all_lines, upper)


def _format_value(u: Rational) -> str:
    f = Fraction(u)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


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
        head = f"{_format_value(u)}:{sub.order}"
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
    after.  Tested on a rational grid straddling every break and jump.
    """
    all_lines = lines(pair)
    return _compat(pair.p, all_lines, _assemble_upper(pair.p, all_lines))


def _compat(p: int, all_lines: list[Line], upper: Filtration) -> bool:
    heights: set[Fraction] = {Fraction(0)}
    probes = [Fraction(u) for u in upper.break_values()]
    probes += [Fraction(ln.jump) for ln in all_lines]
    for u in probes:
        heights.update((u - Fraction(1, 2), u, u + Fraction(1, 2)))
    heights.add(max(probes) + 1)
    heights = {h for h in heights if h >= 0}
    for ln in all_lines:
        h_sub = annihilator(ln, p)
        for v in sorted(heights):
            quotient_full = v <= ln.jump
            image_full = not upper.subgroup_at(v).is_subset(h_sub)
            if quotient_full != image_full:
                return False
    return True

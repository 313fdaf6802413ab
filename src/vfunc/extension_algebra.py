"""The rank-p^2 algebra L = K[x, y]/(x^p - x - g1, y^p - y - g2) and its
(Z/p)^2 action.

Elements are written on the monomial basis alpha^i beta^j, 0 <= i, j < p,
with Laurent-polynomial coefficients; alpha and beta are the classes of x
and y.  The group element sigma^i tau^j acts by alpha -> alpha + j,
beta -> beta + i (so sigma shifts beta, tau shifts alpha, and each fixes
the other generator).

For a valid pair (g1 nonzero in J, g2 in J outside F_p*g1, and the action
parameter a outside F_p) this is the ring of a totally ramified (Z/p)^2
Galois extension of K = F_q((t)).  The norm down to K is the product of the
p^2 conjugates, taken as a tau-orbit product into K(beta) and then a
sigma-orbit product into K; valuations are read off the norm, so they stay
meaningful for every pair accepted by validation without ever constructing
a uniformizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import (
    AInPrimeField,
    G1Zero,
    G2DependentOnG1,
    InputError,
    InternalCheckFailed,
    MixedExtensions,
    NotInJ,
)
# det is unused here, but perfbench/tests look it up in this module's
# namespace; it goes when the benchmark retires its det metrics.
from .exact_linalg import LaurentMatrix, det  # noqa: F401
from .finite_field import FieldParams, FqElem
from .laurent import LaurentPoly


@dataclass(frozen=True)
class GroupElement:
    """sigma^i tau^j in (Z/p)^2, exponents stored reduced mod p."""

    p: int
    i: int
    j: int

    def __post_init__(self):
        object.__setattr__(self, "i", self.i % self.p)
        object.__setattr__(self, "j", self.j % self.p)

    def __mul__(self, other: GroupElement) -> GroupElement:
        if self.p != other.p:
            raise MixedExtensions("group elements for different p")
        return GroupElement(self.p, self.i + other.i, self.j + other.j)

    def inverse(self) -> GroupElement:
        return GroupElement(self.p, -self.i, -self.j)


def sigma(p: int) -> GroupElement:
    return GroupElement(p, 1, 0)


def tau(p: int) -> GroupElement:
    return GroupElement(p, 0, 1)


def group_elements(p: int) -> list[GroupElement]:
    return [GroupElement(p, i, j) for i in range(p) for j in range(p)]


@dataclass(frozen=True)
class ExtensionPair:
    """Validated datum (field, a, g1, g2) defining the extension and action."""

    field: FieldParams
    a: FqElem
    g1: LaurentPoly
    g2: LaurentPoly

    def __post_init__(self):
        if self.a.field != self.field or self.g1.field != self.field \
                or self.g2.field != self.field:
            raise InputError("pair components over different fields")
        if self.a.is_in_prime_field():
            raise AInPrimeField(f"a = {self.a} lies in the prime field")
        if not self.g1.is_in_J():
            raise NotInJ(f"g1 = {self.g1} is not in J")
        if not self.g2.is_in_J():
            raise NotInJ(f"g2 = {self.g2} is not in J")
        if self.g1.is_zero():
            raise G1Zero("g1 must be nonzero")
        for c in range(self.field.p):
            if self.g2 == c * self.g1:
                raise G2DependentOnG1(f"g2 = {c} * g1")

    @property
    def p(self) -> int:
        return self.field.p


def validate_pair(field: FieldParams, a: FqElem, g1: LaurentPoly,
                  g2: LaurentPoly) -> ExtensionPair:
    """Build a pair, raising the specific validation error on bad input."""
    return ExtensionPair(field, a, g1, g2)


def _fold(seq: list[LaurentPoly], g: LaurentPoly, p: int) -> list[LaurentPoly]:
    """Reduce coefficients of z^0 .. z^(2p-2) in place modulo z^p = z + g.

    z^k for k >= p becomes z^(k-p+1) + g * z^(k-p) with k - p + 1 < p, so
    one pass leaves only exponents below p; returns those p coefficients.
    """
    for k in range(p, len(seq)):
        c = seq[k]
        if c:
            seq[k - p + 1] = seq[k - p + 1] + c
            seq[k - p] = seq[k - p] + c * g
    return seq[:p]


class LElement:
    """Element of L on the monomial basis; coefficient index is i*p + j."""

    __slots__ = ("pair", "coeffs")

    def __init__(self, pair: ExtensionPair, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != pair.p ** 2:
            raise InputError(f"expected {pair.p ** 2} coordinates")
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LElement is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, pair: ExtensionPair) -> LElement:
        z = LaurentPoly.zero(pair.field)
        return cls(pair, [z] * pair.p ** 2)

    @classmethod
    def from_k(cls, pair: ExtensionPair, f: LaurentPoly) -> LElement:
        if f.field != pair.field:
            raise InputError("scalar over the wrong field")
        z = LaurentPoly.zero(pair.field)
        coords = [z] * pair.p ** 2
        coords[0] = f
        return cls(pair, coords)

    @classmethod
    def one(cls, pair: ExtensionPair) -> LElement:
        return cls.from_k(pair, LaurentPoly.one(pair.field))

    @classmethod
    def monomial(cls, pair: ExtensionPair, i: int, j: int,
                 coeff: LaurentPoly | FqElem | int = 1) -> LElement:
        p = pair.p
        if not (0 <= i < p and 0 <= j < p):
            raise InputError("monomial exponents out of range")
        if isinstance(coeff, int):
            coeff = LaurentPoly.t_pow(pair.field, 0, coeff)
        elif isinstance(coeff, FqElem):
            coeff = LaurentPoly.t_pow(pair.field, 0, coeff)
        z = LaurentPoly.zero(pair.field)
        coords = [z] * p ** 2
        coords[i * p + j] = coeff
        return cls(pair, coords)

    @classmethod
    def alpha(cls, pair: ExtensionPair) -> LElement:
        return cls.monomial(pair, 1, 0)

    @classmethod
    def beta(cls, pair: ExtensionPair) -> LElement:
        return cls.monomial(pair, 0, 1)

    @classmethod
    def gamma(cls, pair: ExtensionPair) -> LElement:
        """The pairing element a*alpha + beta."""
        p = pair.p
        z = LaurentPoly.zero(pair.field)
        coords = [z] * p ** 2
        coords[p] = LaurentPoly.t_pow(pair.field, 0, pair.a)
        coords[1] = LaurentPoly.one(pair.field)
        return cls(pair, coords)

    # -- structure -----------------------------------------------------------

    def coeff(self, i: int, j: int) -> LaurentPoly:
        return self.coeffs[i * self.pair.p + j]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LElement):
            return NotImplemented
        return self.pair == other.pair and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.pair, self.coeffs))

    def _check(self, other: LElement) -> None:
        if self.pair != other.pair:
            raise MixedExtensions("elements of different extensions")

    def __add__(self, other: LElement) -> LElement:
        if not isinstance(other, LElement):
            return NotImplemented
        self._check(other)
        return LElement(self.pair, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> LElement:
        return LElement(self.pair, [-c for c in self.coeffs])

    def __sub__(self, other: LElement) -> LElement:
        if not isinstance(other, LElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LElement):
            self._check(other)
            pair = self.pair
            p = pair.p
            zero = LaurentPoly.zero(pair.field)
            # cols[J][I] is the coefficient of alpha^I beta^J, I, J <= 2p-2
            cols = [[zero] * (2 * p - 1) for _ in range(2 * p - 1)]
            for idx1, c1 in enumerate(self.coeffs):
                if c1.is_zero():
                    continue
                i1, j1 = divmod(idx1, p)
                for idx2, c2 in enumerate(other.coeffs):
                    if c2.is_zero():
                        continue
                    i2, j2 = divmod(idx2, p)
                    col = cols[j1 + j2]
                    col[i1 + i2] = col[i1 + i2] + c1 * c2
            cols = [_fold(col, pair.g1, p) for col in cols]
            acc = []
            for i in range(p):
                acc.extend(_fold([col[i] for col in cols], pair.g2, p))
            return LElement(self.pair, acc)
        if isinstance(other, (LaurentPoly, FqElem, int)):
            if not isinstance(other, LaurentPoly):
                other = LaurentPoly.t_pow(self.pair.field, 0, other)
            return LElement(self.pair, [c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, e: int) -> LElement:
        if e < 0:
            raise InputError("negative powers are not defined in the algebra")
        res = LElement.one(self.pair)
        base = self
        while e:
            if e & 1:
                res = res * base
            base = base * base
            e >>= 1
        return res

    # -- norms and valuations ------------------------------------------------

    def mult_matrix(self) -> LaurentMatrix:
        """Matrix of y -> self * y on the monomial basis (columns = images)."""
        p = self.pair.p
        cols = []
        for idx in range(p * p):
            i, j = divmod(idx, p)
            cols.append((self * LElement.monomial(self.pair, i, j)).coeffs)
        rows = [[cols[c][r] for c in range(p * p)] for r in range(p * p)]
        return LaurentMatrix(self.pair.field, rows)

    def norm(self) -> LaurentPoly:
        """Norm down to K as the product of the p^2 Galois conjugates.

        y = prod_j tau^j(self) is tau-fixed, so it lies in K(beta), and
        prod_i sigma^i(y) is fixed by the whole group, so it lies in K.  A
        coordinate off K(beta), or off K, raises InternalCheckFailed.
        """
        p = self.pair.p
        y = self
        for j in range(1, p):
            y = y * act(GroupElement(p, 0, j), self)
        if any(y.coeffs[p:]):
            raise InternalCheckFailed("tau-orbit product is not in K(beta)")
        n = y
        for i in range(1, p):
            n = n * act(GroupElement(p, i, 0), y)
        if any(n.coeffs[1:]):
            raise InternalCheckFailed("sigma-orbit product is not in K")
        return n.coeffs[0]

    def valuation(self):
        """v_L, normalized so v_L(t) = p^2; INFINITY on zero."""
        return self.norm().valuation()

    def __repr__(self) -> str:
        parts = []
        p = self.pair.p
        for idx, c in enumerate(self.coeffs):
            if not c.is_zero():
                i, j = divmod(idx, p)
                parts.append(f"({c})*A^{i}B^{j}")
        return "LElement(" + (" + ".join(parts) if parts else "0") + ")"


def act(g: GroupElement, x: LElement) -> LElement:
    """Apply sigma^i tau^j: alpha -> alpha + j, beta -> beta + i."""
    pair = x.pair
    p = pair.p
    if g.p != p:
        raise MixedExtensions("group element for a different p")
    ish, jsh = g.i % p, g.j % p
    if ish == 0 and jsh == 0:
        return x
    acc = [LaurentPoly.zero(pair.field) for _ in range(p * p)]
    for idx, c in enumerate(x.coeffs):
        if c.is_zero():
            continue
        k, l = divmod(idx, p)
        for m in range(k + 1):
            am = comb(k, m) * pow(jsh, k - m, p) % p
            if am == 0:
                continue
            for r in range(l + 1):
                br = comb(l, r) * pow(ish, l - r, p) % p
                s = am * br % p
                if s:
                    acc[m * p + r] = acc[m * p + r] + c * s
    return LElement(pair, acc)


def binomial_basis(pair: ExtensionPair) -> tuple[list[LElement], list[LElement]]:
    """Divided-difference bases A_i = binom(alpha, i), B_j = binom(beta, j).

    These satisfy the chain identities A_i (tau - 1) = A_(i-1) and
    B_j (sigma - 1) = B_(j-1), with A_0 = B_0 = 1; the products A_i B_j form
    a K-basis of L.  Division by i! happens in F_p, which is fine for i < p.
    """
    p = pair.p
    field = pair.field

    def chain(gen_index: int) -> list[LElement]:
        out = [LElement.one(pair)]
        # poly coefficients of falling factorial x(x-1)...(x-i+1) over F_p
        coeffs = [1]
        fact = 1
        for i in range(1, p):
            # multiply by (x - (i-1))
            neg = (-(i - 1)) % p
            new = [0] * (len(coeffs) + 1)
            for d, cv in enumerate(coeffs):
                new[d + 1] = (new[d + 1] + cv) % p
                new[d] = (new[d] + cv * neg) % p
            coeffs = new
            fact = fact * i % p
            inv_fact = pow(fact, p - 2, p)
            z = LaurentPoly.zero(field)
            coords = [z] * p ** 2
            for d, cv in enumerate(coeffs):
                val = cv * inv_fact % p
                if val:
                    idx = d * p if gen_index == 0 else d
                    coords[idx] = LaurentPoly.t_pow(field, 0, val)
            out.append(LElement(pair, coords))
        return out

    return chain(0), chain(1)

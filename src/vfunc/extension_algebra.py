"""The rank-p^2 algebra L = K[x, y]/(x^p - x - g1, y^p - y - g2) and its
(Z/p)^2 action.

Elements are written on the monomial basis alpha^i beta^j, 0 <= i, j < p,
with Laurent-polynomial coefficients; alpha and beta are the classes of x
and y.  The group element sigma^i tau^j is the exponent pair (i, j), and
it acts by alpha -> alpha + j, beta -> beta + i (so sigma shifts beta, tau
shifts alpha, and each fixes the other generator).

For a valid pair (g1 nonzero in J, g2 in J outside F_p*g1, and the action
parameter a outside F_p) this is the ring of a totally ramified (Z/p)^2
Galois extension of K = F_q((t)).  The norm down to K is the product of the
p^2 conjugates, taken as a tau-orbit product into K(beta) and then a
sigma-orbit product into K.  Valuations stop at K(beta): K(beta)/K is the
Artin-Schreier extension of g2, whose pole order is prime to p, so the
powers of beta are an orthogonal basis and v_L is read off the tau-orbit
product's coordinates (LElement.valuation).  They stay meaningful for every
pair accepted by validation without ever constructing a uniformizer.

An element is held on F_q codes alone (see finite_field), as Codes: one
flat row {e*w^2 + i*w + j: code}, w = 2p - 1, of its nonzero terms
g^code t^e alpha^i beta^j, as a LaurentPoly is one row {e: code}.  The
monomial index i*p + j stays the public name of a coordinate; _key and
_index convert.  A product of two terms has exponents up to 2p - 2 < w,
so keys add without carries, exact for negative e too: the key of a
product of terms is the sum of their keys.  Sums, products, the action
and norms are FieldParams.accumulate calls on such rows, so none of them
builds an intermediate LaurentPoly or FqElem.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .errors import (
    AInPrimeField,
    G1Zero,
    G2DependentOnG1,
    InputError,
    InternalCheckFailed,
    MixedExtensions,
    NotInJ,
    PoleTooDeep,
    TooManyTerms,
)
# det is unused here, but perfbench/tests look it up in this module's
# namespace; it goes when the benchmark retires its det metrics.
from .exact_linalg import det  # noqa: F401
from .finite_field import FieldParams, FqElem
from .laurent import INFINITY, LaurentPoly


#: sigma and tau as exponent pairs; the group law is addition of pairs mod p.
SIGMA = (1, 0)
TAU = (0, 1)

#: An element of L as LElement holds it: {e*w^2 + i*w + j: code}, with
#: w = 2p - 1 and i, j < p, for each nonzero term g^code t^e alpha^i beta^j.
Codes = dict[int, int]

#: Most terms g1 or g2 may have; a longer series raises TooManyTerms up
#: front, so every accepted input has a known size.  At the cap the cost
#: per pair is set by p, not by the terms: at p = 61, v_oracle took 42 ms
#: at pole order 64 and 46 ms at 256, upper_filtration 0.14 ms at both.
MAX_TERMS = 256

#: Largest pole order -v_K of g1 or g2; a deeper one raises PoleTooDeep up
#: front, so s, v and every break stay integers that print.
MAX_POLE_ORDER = 10 ** 6


class ExtensionPair:
    """Validated datum (field, a, g1, g2) defining the extension and action.

    Immutable, and compared, hashed and printed by its four fields."""

    __slots__ = ("field", "a", "g1", "g2")

    def __init__(self, field: FieldParams, a: FqElem, g1: LaurentPoly,
                 g2: LaurentPoly):
        for name, value, kind in (("a", a, FqElem), ("g1", g1, LaurentPoly),
                                  ("g2", g2, LaurentPoly)):
            if not isinstance(value, kind):
                raise InputError(f"{name} must be a {kind.__name__}, "
                                 f"not {type(value).__name__}")
        if a.field != field or g1.field != field or g2.field != field:
            raise InputError("pair components over different fields")
        if a.is_in_prime_field():
            raise AInPrimeField(f"a = {a} lies in the prime field")
        for name, g in (("g1", g1), ("g2", g2)):
            if len(g.codes) > MAX_TERMS:
                raise TooManyTerms(f"{name} has {len(g.codes)} terms, more "
                                   f"than MAX_TERMS = {MAX_TERMS}")
            if g.valuation() < -MAX_POLE_ORDER:
                raise PoleTooDeep(f"{name} has a pole deeper than "
                                  f"MAX_POLE_ORDER = {MAX_POLE_ORDER}")
            if not g.is_in_J():
                raise NotInJ(f"{name} = {g} is not in J")
        if g1.is_zero():
            raise G1Zero("g1 must be nonzero")
        # g2 = c * g1 fixes c as g2's coefficient at g1's leading exponent
        # over g1's leading coefficient: one candidate, one product.
        e1, k1 = g1.codes[0]
        c = g2.coeff(e1) / field.from_code(k1)
        if c.is_in_prime_field() and g2 == c * g1:
            raise G2DependentOnG1(f"g2 = {c.coeffs[0]} * g1")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExtensionPair is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("ExtensionPair is immutable")

    def __reduce__(self):
        # The pickled pair was validated when it was built.
        return ExtensionPair._from_fields, (self.field, self.a, self.g1,
                                            self.g2)

    @classmethod
    def _from_fields(cls, field: FieldParams, a: FqElem, g1: LaurentPoly,
                     g2: LaurentPoly) -> ExtensionPair:
        pair = object.__new__(cls)
        object.__setattr__(pair, "field", field)
        object.__setattr__(pair, "a", a)
        object.__setattr__(pair, "g1", g1)
        object.__setattr__(pair, "g2", g2)
        return pair

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.a, self.g1, self.g2) \
            == (other.field, other.a, other.g1, other.g2)

    def __hash__(self) -> int:
        return hash((self.field, self.a, self.g1, self.g2))

    def __repr__(self) -> str:
        return (f"ExtensionPair(field={self.field!r}, a={self.a!r}, "
                f"g1={self.g1!r}, g2={self.g2!r})")

    @property
    def p(self) -> int:
        return self.field.p


def validate_pair(field: FieldParams, a: FqElem, g1: LaurentPoly,
                  g2: LaurentPoly) -> ExtensionPair:
    """Build a pair, raising the specific validation error on bad input."""
    return ExtensionPair(field, a, g1, g2)


def _key(p: int, e: int, idx: int) -> int:
    """The Codes key of t^e alpha^i beta^j, idx = i*p + j."""
    w = 2 * p - 1
    return (e * w + idx // p) * w + idx % p


def _index(p: int, key: int) -> tuple[int, int]:
    """(e, i*p + j) of the term t^e alpha^i beta^j a Codes key stands for."""
    w = 2 * p - 1
    e, r = divmod(key, w * w)
    return e, r // w * p + r % w


def _checked_index(p: int, i: int, j: int) -> int:
    """The index i*p + j of alpha^i beta^j; exponents that are not ints
    in 0..p - 1 (a bool neither) raise InputError."""
    if type(i) is not int or type(j) is not int \
            or not (0 <= i < p and 0 <= j < p):
        raise InputError(f"monomial exponents ({i!r}, {j!r}) are not "
                         f"ints in 0..{p - 1}")
    return i * p + j


def _mul(pair: ExtensionPair, x: Codes, y: Codes) -> Codes:
    """x * y in L, on codes: one accumulate call per term of the shorter
    factor and, when needed, the fold's calls.

    Each term of the shorter factor adds the other's row shifted by the
    term's key, since keys add without carries (see Codes); a zero factor
    makes no call.  The sum is then reduced modulo alpha^p = alpha + g1
    and beta^p = beta + g2: z^k for k >= p becomes z^(k-p+1) + g * z^(k-p)
    with k - p + 1 < p, so one pass per generator leaves only exponents
    below p.  A generator's pass runs only when one of its exponents
    reached p, so a factor in K never folds.
    """
    p, field, w = pair.p, pair.field, 2 * pair.p - 1
    accumulate = field.accumulate
    if len(x) > len(y):
        x, y = y, x
    acc: Codes = {}
    for key, k in x.items():
        accumulate(acc, k, y.items(), key)
    # alpha^i sits at step w and beta^j at step 1 of a key; code 0 is g^0 = 1
    for step, g in ((w, pair.g1), (1, pair.g2)):
        high = [(key, k) for key, k in acc.items()
                if key % (step * w) >= p * step]
        for key, _ in high:
            del acc[key]
        if high:
            accumulate(acc, 0, high, (1 - p) * step)
            for e, k in g.codes:
                accumulate(acc, k, high, e * w * w - p * step)
    return acc


def _orbit_product(pair: ExtensionPair, x: Codes,
                   g: tuple[int, int]) -> Codes:
    """x * g(x) * ... * g^(p-1)(x), on codes: the p - 1 products of the
    norm down to the fixed field of g."""
    y = x
    for k in range(1, pair.p):
        y = _mul(pair, y, act_on_terms(pair.field, (k * g[0], k * g[1]), x))
    return y


class LElement:
    """Element of L on the monomial basis alpha^i beta^j, held only as
    codes (see Codes); terms reads the coordinates back as LaurentPolys."""

    __slots__ = ("pair", "codes")

    def __init__(self, pair: ExtensionPair, coeffs: dict):
        """coeffs: {index: LaurentPoly}; zero coordinates are dropped here.
        An index that is not an int in 0..p^2 - 1 (a bool neither) or a
        coordinate that is not a LaurentPoly over the field raises
        InputError."""
        field, p = pair.field, pair.p
        codes: Codes = {}
        for idx, f in coeffs.items():
            # type(x) is int, unlike isinstance, rejects a bool
            if type(idx) is not int or not 0 <= idx < p * p:
                raise InputError(f"coordinate index {idx!r} is not an int "
                                 f"in 0..{p * p - 1}")
            if not isinstance(f, LaurentPoly):
                raise InputError(f"coordinate {f!r} is not a LaurentPoly")
            if f.field != field:
                raise InputError("coordinate over another field")
            codes.update((_key(p, e, idx), k) for e, k in f.codes)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "codes", codes)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LElement is immutable")

    def __reduce__(self):
        return LElement.from_codes, (self.pair, self.codes)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_codes(cls, pair: ExtensionPair, x: Codes) -> LElement:
        """Wrap x, which must hold nonzero entries only and is not copied."""
        el = object.__new__(cls)
        object.__setattr__(el, "pair", pair)
        object.__setattr__(el, "codes", x)
        return el

    @classmethod
    def zero(cls, pair: ExtensionPair) -> LElement:
        return cls(pair, {})

    @classmethod
    def from_k(cls, pair: ExtensionPair, f: LaurentPoly) -> LElement:
        return cls(pair, {0: f})

    @classmethod
    def one(cls, pair: ExtensionPair) -> LElement:
        return cls.from_k(pair, LaurentPoly.one(pair.field))

    @classmethod
    def monomial(cls, pair: ExtensionPair, i: int, j: int,
                 coeff: LaurentPoly | FqElem | int = 1) -> LElement:
        idx = _checked_index(pair.p, i, j)
        if not isinstance(coeff, LaurentPoly):
            coeff = LaurentPoly.t_pow(pair.field, 0, coeff)
        return cls(pair, {idx: coeff})

    @classmethod
    def alpha(cls, pair: ExtensionPair) -> LElement:
        return cls.monomial(pair, 1, 0)

    @classmethod
    def beta(cls, pair: ExtensionPair) -> LElement:
        return cls.monomial(pair, 0, 1)

    @classmethod
    def gamma(cls, pair: ExtensionPair) -> LElement:
        """The pairing element a*alpha + beta."""
        return cls(pair, {pair.p: LaurentPoly.t_pow(pair.field, 0, pair.a),
                          1: LaurentPoly.one(pair.field)})

    # -- structure -----------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[int, LaurentPoly], ...]:
        """The nonzero coordinates as (i*p + j, coefficient), by index."""
        p = self.pair.p
        rows: dict[int, dict[int, int]] = {}
        for key, k in self.codes.items():
            e, idx = _index(p, key)
            rows.setdefault(idx, {})[e] = k
        return tuple((idx, LaurentPoly.from_codes(self.pair.field, row))
                     for idx, row in sorted(rows.items()))

    def coeff(self, i: int, j: int) -> LaurentPoly:
        """The coefficient of alpha^i beta^j; exponents that are not ints
        in 0..p - 1 (a bool neither) raise InputError."""
        p = self.pair.p
        t_key, key = _key(p, 1, 0), _key(p, 0, _checked_index(p, i, j))
        return LaurentPoly.from_codes(
            self.pair.field, {c // t_key: k for c, k in self.codes.items()
                              if c % t_key == key})

    def is_zero(self) -> bool:
        return not self.codes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LElement):
            return NotImplemented
        return self.pair == other.pair and self.codes == other.codes

    def __hash__(self) -> int:
        # codes fill in the order of operations, so the hash reads a set
        return hash((self.pair, frozenset(self.codes.items())))

    def _check(self, other: LElement) -> None:
        if self.pair != other.pair:
            raise MixedExtensions("elements of different extensions")

    def _plus(self, k: int, other: LElement) -> LElement:
        """self + g^k * other."""
        if not isinstance(other, LElement):
            return NotImplemented
        self._check(other)
        acc = dict(self.codes)
        self.pair.field.accumulate(acc, k, other.codes.items())
        return LElement.from_codes(self.pair, acc)

    def __add__(self, other: LElement) -> LElement:
        return self._plus(self.pair.field.one().code, other)

    def __neg__(self) -> LElement:
        return LElement.zero(self.pair) - self

    def __sub__(self, other: LElement) -> LElement:
        return self._plus((-self.pair.field.one()).code, other)

    def __mul__(self, other):
        """Product in L; a scalar in F_q or K is multiplied as from_k."""
        if isinstance(other, (FqElem, int)):
            other = LaurentPoly.t_pow(self.pair.field, 0, other)
        if isinstance(other, LaurentPoly):
            other = LElement.from_k(self.pair, other)
        if not isinstance(other, LElement):
            return NotImplemented
        self._check(other)
        return LElement.from_codes(
            self.pair, _mul(self.pair, self.codes, other.codes))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> LElement:
        if type(e) is not int:
            raise InputError(f"exponent {e!r} is not an int")
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

    def _tau_orbit_product(self) -> Codes:
        """N_{L/K(beta)}(self) = prod_j tau^j(self), on codes.

        The product is tau-fixed, so it lies in K(beta): a term off the
        powers of beta, whose key leaves a remainder of p or more by w^2,
        the key of t (see Codes), raises InternalCheckFailed.
        """
        p, t_key = self.pair.p, _key(self.pair.p, 1, 0)
        y = _orbit_product(self.pair, self.codes, TAU)
        if any(key % t_key >= p for key in y):
            raise InternalCheckFailed("tau-orbit product is not in K(beta)")
        return y

    def norm(self) -> LaurentPoly:
        """Norm down to K as the product of the p^2 Galois conjugates.

        y = prod_j tau^j(self) lies in K(beta) (_tau_orbit_product), and
        prod_i sigma^i(y) is fixed by the whole group, so it lies in K.  A
        term off K, whose key is no multiple of w^2, the key of t, raises
        InternalCheckFailed.
        """
        t_key = _key(self.pair.p, 1, 0)
        y = _orbit_product(self.pair, self._tau_orbit_product(), SIGMA)
        if any(key % t_key for key in y):
            raise InternalCheckFailed("sigma-orbit product is not in K")
        return LaurentPoly.from_codes(
            self.pair.field, {key // t_key: k for key, k in y.items()})

    def valuation(self):
        """v_L, normalized so v_L(t) = p^2; INFINITY on zero.

        v_L(x) = v_K(N_{K(beta)/K}(y)) for the tau-orbit product
        y = sum_k y_k beta^k in K(beta), and that is read off y without
        the sigma stage.  K(beta)/K is the Artin-Schreier extension of g2,
        whose pole order j2 = -v_K(g2) is prime to p, so v(beta) = -j2 in
        the valuation of K(beta) with v(t) = p.  The terms y_k beta^k then
        have valuations p v_K(y_k) - k j2, pairwise distinct mod p, so
        {1, beta, ..., beta^(p-1)} is an orthogonal basis and
        v_K(N(y)) = min_k (p v_K(y_k) - k j2) (Serre, Local Fields,
        IV.2; Fesenko-Vostokov, Local Fields and Their Extensions, III.2).
        On codes, a term g^code t^e beta^k of y has the key e*w^2 + k
        (see Codes), so e and k are its key's quotient and remainder by
        w^2, the key of t.  j2 <= 0 or p | j2 breaks the lemma's
        hypothesis, which validation rules out, and raises
        InternalCheckFailed.
        """
        p, t_key = self.pair.p, _key(self.pair.p, 1, 0)
        j2 = -self.pair.g2.valuation()
        if j2 <= 0 or j2 % p == 0:
            raise InternalCheckFailed(
                f"v_K(g2) = {-j2}: K(beta)/K is not an Artin-Schreier "
                f"extension with pole order prime to p")
        y = self._tau_orbit_product()
        if not y:
            return INFINITY
        return min(p * (key // t_key) - key % t_key * j2 for key in y)

    def __repr__(self) -> str:
        p = self.pair.p
        parts = [f"({c})*A^{idx // p}B^{idx % p}" for idx, c in self.terms]
        return "LElement(" + (" + ".join(parts) if parts else "0") + ")"


@lru_cache(maxsize=64)
def _shift_rows(field: FieldParams,
                c: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The expansion of z -> z + c, c in F_p: row k holds the pairs
    (m, code of C(k, m) c^(k-m)) with a nonzero coefficient, for
    0 <= k < p.  Built on first use and kept, once per field and c."""
    p = field.p
    return tuple(tuple((m, field.elem(r).code) for m in range(k + 1)
                       if (r := comb(k, m) * pow(c, k - m, p) % p))
                 for k in range(p))


def act_on_terms(field: FieldParams, g: tuple[int, int], x: Codes) -> Codes:
    """Apply sigma^i tau^j, g = (i, j), to an element on codes.  The
    exponents may be unreduced or negative.

    alpha -> alpha + j and beta -> beta + i, so alpha^k beta^l goes to
    sum C(k, m) j^(k-m) C(l, r) i^(l-r) alpha^m beta^r.  Each monomial's
    image is built once per call, and each term adds it scaled and shifted
    by its power of t.
    """
    p, w, units = field.p, 2 * field.p - 1, field.q - 1
    alpha_rows = _shift_rows(field, g[1] % p)
    beta_rows = _shift_rows(field, g[0] % p)
    images: dict[int, list[tuple[int, int]]] = {}
    acc: Codes = {}
    for key, k in x.items():
        mono = key % (w * w)    # i*w + j, the key of alpha^i beta^j
        image = images.get(mono)
        if image is None:
            beta_row = beta_rows[mono % w]
            image = images[mono] = [
                (m * w + r, s - units if (s := am + b) >= units else s)
                for m, am in alpha_rows[mono // w] for r, b in beta_row]
        field.accumulate(acc, k, image, key - mono)
    return acc


def act(g: tuple[int, int], x: LElement) -> LElement:
    """Apply sigma^i tau^j, g = (i, j): alpha -> alpha + j, beta -> beta + i."""
    return LElement.from_codes(x.pair, act_on_terms(x.pair.field, g, x.codes))


def binomial_basis(pair: ExtensionPair) -> tuple[list[LElement], list[LElement]]:
    """Divided-difference bases A_i = binom(alpha, i), B_j = binom(beta, j).

    These satisfy the chain identities A_i (tau - 1) = A_(i-1) and
    B_j (sigma - 1) = B_(j-1), with A_0 = B_0 = 1; the products A_i B_j form
    a K-basis of L.  A_i = A_(i-1) * (alpha - (i-1)) / i, with the division
    in F_p, which is fine for i < p; no exponent reaches p, so nothing folds.
    """
    p = pair.p
    one = LElement.one(pair)

    def chain(gen: LElement) -> list[LElement]:
        out = [one]
        for i in range(1, p):
            out.append(out[-1] * (gen - one * (i - 1)) * pow(i, p - 2, p))
        return out

    return chain(LElement.alpha(pair)), chain(LElement.beta(pair))

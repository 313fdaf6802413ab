"""Arithmetic in F_q, q = p^n, through discrete-logarithm tables.

An element's coordinates are a vector (c0, ..., c_{n-1}) representing
c0 + c1*w + ... where w is a root of the defining modulus.  The modulus is a
monic degree-n polynomial over F_p given low-to-high, so "1,1,1" is
1 + x + x^2.  The text form of an element is "c0,c1,...".

Arithmetic runs on an integer code per element: k for g^k, where g is the
field's primitive element, and q - 1 for zero.  A product adds codes mod
q - 1, and a sum uses Zech's logarithm Z(k) = log(1 + g^k):
g^a + g^b = g^(a + Z(b - a)) (Lidl & Niederreiter, *Finite Fields*).  The
tables are O(q), built once per field, so q is capped at MAX_Q.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .errors import FieldTooLarge, InputError

#: Default moduli for the (p, n) combinations the command line supports.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),   # x^2 + x + 1
    (3, 2): (1, 0, 1),   # x^2 + 1
    (5, 2): (3, 0, 1),   # x^2 + 3
}


#: Largest field size with arithmetic tables; larger q raises FieldTooLarge.
MAX_Q = 4096


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by monic den, coefficients low-to-high over F_p."""
    num = list(num)
    dn = len(den) - 1
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k] % p
        if c:
            for i, d in enumerate(den):
                num[k - dn + i] = (num[k - dn + i] - c * d) % p
    return [c % p for c in num[:dn]]


def _monic_polys(deg: int, p: int) -> Iterator[list[int]]:
    for tail in itertools.product(range(p), repeat=deg):
        yield list(tail) + [1]


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


class FieldParams:
    """Immutable description of F_{p^n}: the prime, the degree, the modulus.

    Construction verifies that p is prime and that the modulus is a monic
    irreducible polynomial of degree n over F_p (by trial division against
    every monic polynomial of degree at most n/2; the fields in scope are
    tiny, so brute force is the honest check).
    """

    __slots__ = ("p", "n", "modulus", "_red", "_hash", "_units", "_vecs",
                 "_log", "_zech", "_neg_one", "_elems")

    def __init__(self, p: int, n: int, modulus: Sequence[int] | None = None):
        if not _is_prime(p):
            raise InputError(f"p = {p} is not prime")
        if n < 1:
            raise InputError(f"extension degree n = {n} must be >= 1")
        if p ** n > MAX_Q:
            raise FieldTooLarge(f"q = {p}^{n} exceeds MAX_Q = {MAX_Q}")
        if modulus is None:
            if n == 1:
                modulus = (0, 1)
            elif (p, n) in DEFAULT_MODULI:
                modulus = DEFAULT_MODULI[(p, n)]
            else:
                raise InputError(f"no default modulus for (p, n) = ({p}, {n})")
        mod = tuple(c % p for c in modulus)
        if len(mod) != n + 1 or mod[-1] != 1:
            raise InputError("modulus must be monic of degree n, low-to-high")
        for d in range(1, n // 2 + 1):
            for cand in _monic_polys(d, p):
                if not any(_poly_mod(list(mod), cand, p)):
                    raise InputError(f"modulus {mod} is reducible over F_{p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "modulus", mod)
        # Rows expressing w^n .. w^(2n-2) in the power basis; everything a
        # product of two basis vectors can spill into.
        red = []
        cur = [(-c) % p for c in mod[:n]]
        for _ in range(n - 1):
            red.append(tuple(cur))
            spill = cur[-1]
            cur = [0] + cur[:-1]
            if spill:
                cur = [(cur[i] + spill * red[0][i]) % p for i in range(n)]
        object.__setattr__(self, "_red", tuple(red))
        object.__setattr__(self, "_hash", hash((p, n, mod)))
        self._build_tables()

    def _vec_mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """Product of coordinate vectors, reduced by the modulus."""
        p, n = self.p, self.n
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = [c % p for c in prod[:n]]
        for k in range(n, 2 * n - 1):
            c = prod[k] % p
            if c:
                row = self._red[k - n]
                out = [(out[i] + c * row[i]) % p for i in range(n)]
        return tuple(out)

    def _vec_pow(self, a: tuple[int, ...], e: int) -> tuple[int, ...]:
        res = (1,) + (0,) * (self.n - 1)
        while e:
            if e & 1:
                res = self._vec_mul(res, a)
            a = self._vec_mul(a, a)
            e >>= 1
        return res

    def _build_tables(self) -> None:
        """Log, antilog and Zech tables from the first primitive element.

        Candidates run in lexicographic order of coordinate vectors; g is
        primitive when g^((q-1)/r) != 1 for every prime r dividing q - 1.
        """
        p, n = self.p, self.n
        units = p ** n - 1
        one = (1,) + (0,) * (n - 1)
        vectors = list(itertools.product(range(p), repeat=n))
        factors = _prime_factors(units)
        for g in vectors[1:]:
            if all(self._vec_pow(g, units // r) != one for r in factors):
                break
        vecs = [one]
        for _ in range(units - 1):
            vecs.append(self._vec_mul(vecs[-1], g))
        vecs.append((0,) * n)
        log = {v: k for k, v in enumerate(vecs)}
        zech = tuple(log[((v[0] + 1) % p,) + v[1:]] for v in vecs[:units])
        object.__setattr__(self, "_units", units)
        object.__setattr__(self, "_vecs", tuple(vecs))
        object.__setattr__(self, "_log", log)
        object.__setattr__(self, "_zech", zech)
        object.__setattr__(self, "_neg_one", log[(p - 1,) + (0,) * (n - 1)])
        object.__setattr__(self, "_elems", tuple(FqElem(self, v) for v in vecs))

    # -- arithmetic on codes -------------------------------------------------

    def _add(self, a: int, b: int) -> int:
        u = self._units
        if a == u:
            return b
        if b == u:
            return a
        z = self._zech[b - a]   # a negative index is b - a mod q - 1
        if z == u:
            return u
        s = a + z
        return s - u if s >= u else s

    def _mul(self, a: int, b: int) -> int:
        u = self._units
        if a == u or b == u:
            return u
        s = a + b
        return s - u if s >= u else s

    def _neg(self, a: int) -> int:
        return self._mul(a, self._neg_one)

    def convolve(self, a: Sequence[tuple[int, FqElem]],
                 b: Sequence[tuple[int, FqElem]]) -> list[tuple[int, FqElem]]:
        """Sums of c1 * c2 over e1 + e2 for two lists of (e, c), c nonzero.

        This is the product of two Laurent polynomials, the hot loop of
        every product in L, so _mul and _add are inlined on codes.  The
        result may hold zero coefficients where terms cancel.
        """
        units, zech = self._units, self._zech
        acc: dict[int, int] = {}
        for e1, c1 in a:
            k = c1.code
            for e2, c2 in b:
                m = k + c2.code
                if m >= units:
                    m -= units
                e = e1 + e2
                cur = acc.get(e, units)
                if cur != units:
                    z = zech[m - cur]
                    if z == units:
                        m = units
                    else:
                        m = cur + z
                        if m >= units:
                            m -= units
                acc[e] = m
        elems = self._elems
        return [(e, elems[m]) for e, m in acc.items()]

    @property
    def q(self) -> int:
        return self.p ** self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldParams):
            return NotImplemented
        return (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FieldParams(p={self.p}, n={self.n}, modulus={self.modulus})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FieldParams is immutable")

    # -- element construction ------------------------------------------------

    def elem(self, coeffs: Sequence[int] | int) -> FqElem:
        if isinstance(coeffs, int):
            vec = [coeffs] + [0] * (self.n - 1)
        else:
            vec = list(coeffs)
            if len(vec) > self.n:
                raise InputError(f"too many coordinates for degree {self.n}")
            vec += [0] * (self.n - len(vec))
        return self._elems[self._log[tuple(c % self.p for c in vec)]]

    def zero(self) -> FqElem:
        return self.elem(0)

    def one(self) -> FqElem:
        return self.elem(1)

    def gen(self) -> FqElem:
        """The class of x mod the modulus (equals 1 when n = 1)."""
        if self.n == 1:
            return self.one()
        return self.elem([0, 1])

    def parse(self, text: str) -> FqElem:
        """Parse the "c0,c1,..." text form."""
        try:
            coeffs = [int(part.strip()) for part in text.split(",")]
        except ValueError as exc:
            raise InputError(f"bad field element {text!r}") from exc
        if len(coeffs) != self.n:
            raise InputError(
                f"element {text!r} has {len(coeffs)} coordinates, expected {self.n}")
        return self.elem(coeffs)

    def elements(self) -> Iterator[FqElem]:
        """All q elements in lexicographic order of coordinate vectors."""
        for vec in itertools.product(range(self.p), repeat=self.n):
            yield self._elems[self._log[vec]]

    def random_element(self, rng) -> FqElem:
        return self.elem([rng.randrange(self.p) for _ in range(self.n)])

    def artin_schreier_solve(self, c: FqElem) -> FqElem | None:
        """Smallest x (lexicographic on coordinates) with x^p - x = c, or None.

        A solution exists exactly when the absolute trace of c vanishes; the
        full solution set is then x + F_p.
        """
        if c.field != self:
            raise InputError("element from a different field")
        for x in self.elements():
            if x.frobenius() - x == c:
                return x
        return None


class FqElem:
    """One element of F_{p^n}; immutable, hashable, with operator arithmetic.

    Holds the field and the element's code; `coeffs` is derived from it.
    """

    __slots__ = ("field", "code")

    def __init__(self, field: FieldParams, coeffs: Sequence[int]):
        code = field._log.get(tuple(coeffs))
        if code is None:
            raise InputError(f"{tuple(coeffs)} is not a reduced vector over F_{field.p}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "code", code)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FqElem is immutable")

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field._vecs[self.code]

    def _coerce(self, other: object) -> FqElem | None:
        if isinstance(other, FqElem):
            if other.field is not self.field and other.field != self.field:
                raise InputError("elements from different fields")
            return other
        if isinstance(other, int):
            return self.field.elem(other)
        return None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = self.field.elem(other)
        if not isinstance(other, FqElem):
            return NotImplemented
        return self.code == other.code and (
            self.field is other.field or self.field == other.field)

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __bool__(self) -> bool:
        return self.code != self.field._units

    def is_zero(self) -> bool:
        return self.code == self.field._units

    def __add__(self, other: object) -> FqElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        fld = self.field
        return fld._elems[fld._add(self.code, o.code)]

    __radd__ = __add__

    def __neg__(self) -> FqElem:
        fld = self.field
        return fld._elems[fld._neg(self.code)]

    def __sub__(self, other: object) -> FqElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        fld = self.field
        return fld._elems[fld._add(self.code, fld._neg(o.code))]

    def __rsub__(self, other: object) -> FqElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> FqElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        fld = self.field
        return fld._elems[fld._mul(self.code, o.code)]

    __rmul__ = __mul__

    def inv(self) -> FqElem:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in F_q")
        return self ** -1

    def __truediv__(self, other: object) -> FqElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __pow__(self, e: int) -> FqElem:
        fld = self.field
        if self.is_zero():
            if e < 0:
                raise ZeroDivisionError("inverse of zero in F_q")
            return self if e else fld.one()
        return fld._elems[self.code * e % fld._units]

    def frobenius(self) -> FqElem:
        """x -> x^p, the absolute Frobenius."""
        return self ** self.field.p

    def pth_root(self) -> FqElem:
        """The unique p-th root, i.e. the inverse of Frobenius."""
        return self ** (self.field.p ** (self.field.n - 1))

    def abs_trace(self) -> int:
        """Absolute trace down to F_p, returned as an integer in [0, p)."""
        acc = self.field.zero()
        x = self
        for _ in range(self.field.n):
            acc = acc + x
            x = x.frobenius()
        assert all(c == 0 for c in acc.coeffs[1:])
        return acc.coeffs[0]

    def is_in_prime_field(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"FqElem({self.field.p}^{self.field.n}: {self})"

"""Arithmetic in F_q, q = p^n, through discrete-logarithm tables.

An element's coordinates are a vector (c0, ..., c_{n-1}) representing
c0 + c1*w + ... where w is a root of the defining modulus.  The modulus is a
monic degree-n polynomial over F_p given low-to-high, as ints or as text,
so (1, 1, 1) or "1,1,1" is 1 + x + x^2.  The text form of an element is
"c0,c1,...".

Arithmetic runs on an integer code per element: k for g^k, where g is the
field's primitive element, and q - 1 for zero.  A product adds codes mod
q - 1, and a sum uses Zech's logarithm Z(k) = log(1 + g^k):
g^a + g^b = g^(a + Z(b - a)) (Lidl & Niederreiter, *Finite Fields*).  The
tables are O(q), built once per field, so q is capped at MAX_Q.

FqElem wraps one code; Laurent series, elements of L and the kernel's rows
hold bare codes and combine them through FieldParams.accumulate.

Each field also holds one text table, used both ways: _texts[code] is the
canonical text of every element (coordinates in 0..p - 1, no spaces) and
_text_codes maps that text back to its code.  It is O(q), built with the
other tables.  Printing an element and reading canonical text, as job files
and LaurentPoly.from_pairs do, are one lookup each; any other spelling falls
through to the validating parse.  It and a modulus given as text read each
coordinate through _coordinates: spaces, an optional "-", ASCII digits and
spaces, and anything else is rejected.

Frozen is the base of the value types here, in laurent and in
extension_algebra: slots set once, by a checking constructor through _set
or unchecked through _make, and refused after; pickling goes through
_make, so an unpickled value is not checked again.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .errors import FieldTooLarge, InputError, InternalCheckFailed

#: Default moduli for the (p, n) combinations the command line supports.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),   # x^2 + x + 1
    (3, 2): (1, 0, 1),   # x^2 + 1
    (5, 2): (3, 0, 1),   # x^2 + 3
    (7, 2): (1, 0, 1),   # x^2 + 1
    (11, 2): (1, 0, 1),  # x^2 + 1
    (13, 2): (2, 0, 1),  # x^2 + 2
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


def _coordinates(text: str, what: str) -> list[int]:
    """The ints of "c0,c1,...": each is spaces, an optional "-", ASCII
    digits and spaces, and anything else raises InputError("bad <what>")."""
    coeffs = []
    for part in text.split(","):
        # int() would also take "+3", "1_0" and non-ASCII digits
        digits = part.strip(" ").removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise InputError(f"bad {what} {text!r}")
        coeffs.append(int(part))
    return coeffs


class Frozen:
    """Base of the immutable value types: a subclass names its fields in
    __slots__, sets them once and refuses assignment and deletion after."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, *values) -> None:
        """Set the slots to values in slot order; for a constructor, after
        its checks."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _make(cls, *values):
        """The value whose slots hold values in slot order, unchecked."""
        obj = object.__new__(cls)
        obj._set(*values)
        return obj

    def __reduce__(self):
        # The pickled value was checked when it was built.
        return self._make, tuple(getattr(self, name)
                                 for name in self.__slots__)


class FieldParams(Frozen):
    """Immutable description of F_{p^n}: the prime, the degree, the modulus.

    p and n are ints, and the modulus is None for the built-in choice,
    "c0,...,cn" text or a list or tuple of ints; anything else raises
    InputError.  Construction verifies that p is prime and that the modulus
    is a monic irreducible polynomial of degree n over F_p (by trial
    division against every monic polynomial of degree at most n/2; the
    fields in scope are tiny, so brute force is the honest check).
    """

    __slots__ = ("p", "n", "modulus", "_hash", "_units", "_vecs", "_log",
                 "_zech", "_neg_one", "_elems", "_prime", "_texts",
                 "_text_codes")

    def __init__(self, p: int, n: int,
                 modulus: Sequence[int] | str | None = None):
        # type(x) is int, unlike isinstance, rejects a bool
        if type(p) is not int or type(n) is not int:
            raise InputError(f"p = {p!r} and n = {n!r} must be ints")
        if n < 1:
            raise InputError(f"extension degree n = {n} must be >= 1")
        # Checked before the sqrt(p) trial division, with n bounded before
        # p ** n is formed: any p >= 2 exceeds MAX_Q beyond its bit length.
        if p >= 2 and (n > MAX_Q.bit_length() or p ** n > MAX_Q):
            raise FieldTooLarge(f"q = {p}^{n} exceeds MAX_Q = {MAX_Q}")
        if not _is_prime(p):
            raise InputError(f"p = {p} is not prime")
        if modulus is None:
            if n == 1:
                modulus = (0, 1)
            elif (p, n) in DEFAULT_MODULI:
                modulus = DEFAULT_MODULI[(p, n)]
            else:
                raise InputError(f"no default modulus for (p, n) = ({p}, {n})")
        elif isinstance(modulus, str):
            modulus = _coordinates(modulus, "modulus")
        elif not isinstance(modulus, (list, tuple)) \
                or any(type(c) is not int for c in modulus):
            raise InputError(f"modulus {modulus!r} is not text or ints")
        mod = tuple(c % p for c in modulus)
        if len(mod) != n + 1 or mod[-1] != 1:
            raise InputError("modulus must be monic of degree n, low-to-high")
        for d in range(1, n // 2 + 1):
            for cand in _monic_polys(d, p):
                if not any(_poly_mod(list(mod), cand, p)):
                    raise InputError(f"modulus {mod} is reducible over F_{p}")
        self._set(p, n, mod)    # what _vec_mul reads
        self._set(p, n, mod, hash((p, n, mod)), *self._build_tables())

    def _vec_mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """Product of coordinate vectors, reduced by the modulus."""
        prod = [0] * (2 * self.n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return tuple(_poly_mod(prod, self.modulus, self.p))

    def _build_tables(self) -> tuple:
        """Log, antilog and Zech tables from the first primitive element,
        with the rest of the slots after _hash, in slot order.

        Candidates run in lexicographic order of coordinate vectors.  Each
        one's powers are walked until they return to 1, which takes at most
        q - 1 steps; g is primitive when they reach all q - 1 units first,
        and its walk is then the antilog table.
        """
        p, n = self.p, self.n
        units = p ** n - 1
        one = (1,) + (0,) * (n - 1)
        vectors = list(itertools.product(range(p), repeat=n))
        for g in vectors[1:]:
            vecs = [one]
            cur = g
            while cur != one:
                vecs.append(cur)
                cur = self._vec_mul(cur, g)
            if len(vecs) == units:
                break
        vecs.append((0,) * n)
        log = {v: k for k, v in enumerate(vecs)}
        zech = tuple(log[((v[0] + 1) % p,) + v[1:]] for v in vecs[:units])
        # One interned element per code, unchecked: the walk gave only
        # reduced vectors.
        elems = tuple(FqElem._make(self, k) for k in range(units + 1))
        # The prime field by residue, so an integer coerces by one lookup.
        prime = tuple(elems[log[(c,) + (0,) * (n - 1)]] for c in range(p))
        # Canonical texts in the lexicographic order of `vectors`, one
        # concatenation per text and coordinate, then placed by code.
        texts = [str(c) for c in range(p)]
        tails = ["," + s for s in texts]
        for _ in range(n - 1):
            texts = [s + t for s in texts for t in tails]
        codes = [log[v] for v in vectors]
        by_code = [""] * (units + 1)
        for k, s in zip(codes, texts):
            by_code[k] = s
        return (units, tuple(vecs), log, zech, log[(p - 1,) + (0,) * (n - 1)],
                elems, prime, tuple(by_code), dict(zip(texts, codes)))

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

    def accumulate(self, acc: dict[int, int], k: int, row,
                   shift: int = 0) -> None:
        """acc += g^k * row, shifted by t^shift, on codes and in place.

        acc maps an exponent to the code of a nonzero coefficient, row is
        (exponent, code) pairs of nonzero coefficients, and k is the code
        of a nonzero scale.
        Each c * t^e of row adds g^k * c at exponent e + shift, and an entry
        that cancels leaves acc.  This is the one Zech loop: Laurent series
        arithmetic, the kernel's row operations (columns for exponents) and
        arithmetic in L all run on it, with _mul and _add inlined on codes.
        """
        units, zech = self._units, self._zech
        for e, c in row:
            m = c + k
            if m >= units:
                m -= units
            e += shift
            cur = acc.get(e)
            if cur is None:
                acc[e] = m
                continue
            z = zech[m - cur]   # a negative index is m - cur mod q - 1
            if z == units:
                del acc[e]
            else:
                m = cur + z
                acc[e] = m - units if m >= units else m

    @property
    def q(self) -> int:
        return self.p ** self.n

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, FieldParams):
            return NotImplemented
        return (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FieldParams(p={self.p}, n={self.n}, modulus={self.modulus})"

    def __reduce__(self):
        # Rebuild the field, tables and all, from what defines it.
        return FieldParams, (self.p, self.n, self.modulus)

    # -- element construction ------------------------------------------------

    def elem(self, coeffs: Sequence[int] | int) -> FqElem:
        """The element of an int, read mod p, or of a list or tuple of at
        most n int coordinates, low to high, each read mod p; anything
        else, a bool included, raises InputError."""
        # type(x) is int, unlike isinstance, rejects a bool
        if type(coeffs) is int:
            return self._prime[coeffs % self.p]
        if not isinstance(coeffs, (list, tuple)) or len(coeffs) > self.n \
                or any(type(c) is not int for c in coeffs):
            raise InputError(f"{coeffs!r} is not an int or <= {self.n} ints")
        vec = [c % self.p for c in coeffs] + [0] * (self.n - len(coeffs))
        return self._elems[self._log[tuple(vec)]]

    def from_code(self, code: int) -> FqElem:
        """The element whose code is `code` (see FqElem.code)."""
        return self._elems[code]

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
        """Parse the "c0,c1,..." text form: n integers, each an optional
        "-" and ASCII digits between spaces, read mod p.  Canonical text is
        one lookup; anything but text raises InputError."""
        if not isinstance(text, str):
            raise InputError(f"field element {text!r} is not text")
        code = self._text_codes.get(text)
        if code is not None:
            return self._elems[code]
        coeffs = _coordinates(text, "field element")
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


class FqElem(Frozen):
    """One element of F_{p^n}; immutable, hashable, with operator arithmetic.

    Holds the field and the element's code; `coeffs` is derived from it.
    """

    __slots__ = ("field", "code")

    def __init__(self, field: FieldParams, coeffs: Sequence[int]):
        code = field._log.get(vec := tuple(coeffs))
        if code is None or any(type(c) is not int for c in vec):
            raise InputError(f"{vec} is not a reduced vector over F_{field.p}")
        self._set(field, code)

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
        # No int coercion: equality mod p could not agree with any hash.
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
        if type(e) is not int:
            raise InputError(f"exponent {e!r} is not an int")
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
        if not acc.is_in_prime_field():
            raise InternalCheckFailed(f"trace of {self} is {acc}, not in F_p")
        return acc.coeffs[0]

    def is_in_prime_field(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def __str__(self) -> str:
        return self.field._texts[self.code]

    def __repr__(self) -> str:
        return f"FqElem({self.field.p}^{self.field.n}: {self})"

"""Exact linear algebra over the Laurent polynomial ring F_q[t, t^-1].

Determinants use fraction-free (Bareiss) elimination, so every intermediate
entry is a minor of the input and every division is exact.  Pivots are
chosen by minimal t-adic valuation, ties broken by lowest row index, which
both fixes the algorithm deterministically and keeps supports small.

The value routes do not call det: norms in L are products of Galois
conjugates.  det stays a public utility and the tests' reference for those
norms.

Kernels are only needed for matrices of constants, so they are solved by
reduced row echelon form over F_q itself.

Internally the determinant path works on dense integer coefficient
blocks; a product of two blocks is one numpy int64 convolution after the
Kronecker substitution t = w^(2n-1), folded back into F_q and reduced mod
p.  The quotient of each Bareiss step is computed by a Newton-inverted
power series and re-verified against the numerator, so a failed exact
division can never pass silently.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InputError, InternalCheckFailed, NonSquare
from .finite_field import FieldParams, FqElem
from .laurent import LaurentPoly


class LaurentMatrix:
    """Dense rectangular matrix of LaurentPoly entries over one field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldParams, rows: Sequence[Sequence[LaurentPoly]]):
        grid = tuple(tuple(row) for row in rows)
        ncols = len(grid[0]) if grid else 0
        for row in grid:
            if len(row) != ncols:
                raise InputError("ragged matrix")
            for entry in row:
                if not isinstance(entry, LaurentPoly) or entry.field != field:
                    raise InputError("matrix entry over the wrong field")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(grid))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", grid)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LaurentMatrix is immutable")

    def __getitem__(self, idx: tuple[int, int]) -> LaurentPoly:
        i, j = idx
        return self.rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.field, self.rows))

    def matvec(self, vec: Sequence[LaurentPoly]) -> list[LaurentPoly]:
        if len(vec) != self.ncols:
            raise InputError("vector length does not match column count")
        zero = LaurentPoly.zero(self.field)
        out = []
        for row in self.rows:
            acc = zero
            for entry, x in zip(row, vec):
                acc = acc + entry * x
            out.append(acc)
        return out

    def matmul(self, other: LaurentMatrix) -> LaurentMatrix:
        if self.ncols != other.nrows:
            raise InputError("inner dimensions do not match")
        zero = LaurentPoly.zero(self.field)
        rows = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = zero
                for k in range(self.ncols):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            rows.append(row)
        return LaurentMatrix(self.field, rows)

    def __repr__(self) -> str:
        return f"LaurentMatrix({self.nrows}x{self.ncols} over F_{self.field.q})"


# ---------------------------------------------------------------------------
# dense coefficient blocks
#
# A block is None (zero) or a pair (off, arr): arr has shape (n, W) with
# arr[b, k] the F_p coordinate of w^b in the coefficient of t^(off + k),
# trimmed so the first and last columns are nonzero.


class _Ctx:
    __slots__ = ("field", "p", "n", "red")

    def __init__(self, field: FieldParams):
        self.field = field
        self.p = field.p
        self.n = field.n
        self.red = np.array(field._red, dtype=np.int64).reshape(field.n - 1, field.n)


def _to_dense(f: LaurentPoly, ctx: _Ctx):
    if f.is_zero():
        return None
    lo = f.terms[0][0]
    hi = f.terms[-1][0]
    arr = np.zeros((ctx.n, hi - lo + 1), dtype=np.int64)
    for e, c in f.terms:
        arr[:, e - lo] = c.coeffs
    return lo, arr


def _to_poly(block, ctx: _Ctx) -> LaurentPoly:
    if block is None:
        return LaurentPoly.zero(ctx.field)
    off, arr = block
    terms = []
    for k in np.flatnonzero(arr.any(axis=0)):
        terms.append((off + int(k), FqElem(ctx.field, tuple(int(v) for v in arr[:, k]))))
    return LaurentPoly(ctx.field, terms)


def _trim(off: int, arr: np.ndarray):
    nz = np.flatnonzero(arr.any(axis=0))
    if nz.size == 0:
        return None
    lo, hi = int(nz[0]), int(nz[-1])
    return off + lo, np.ascontiguousarray(arr[:, lo:hi + 1])


def _raw_mul(a: np.ndarray, b: np.ndarray, ctx: _Ctx) -> np.ndarray:
    """Multiply two coefficient blocks (no offsets), result reduced mod p.

    Kronecker substitution t = w^s, s = 2n - 1, lays each block out as one
    sequence with w^b t^k at index k*s + b, so a single convolution forms
    the product.  A product w^i w^j has i + j <= 2n - 2 < s, so the digits
    of different t-powers never overlap.  Before folding w^n .. w^(2n-2)
    back in, a digit is at most n * min(Wa, Wb) * (p-1)^2, and folding
    multiplies that by at most 1 + (n-1)(p-1): far below 2^63 for any
    block that fits in memory.
    """
    n, s = ctx.n, 2 * ctx.n - 1
    width = a.shape[1] + b.shape[1] - 1
    conv = np.convolve(_spread(a, s), _spread(b, s))[:width * s].reshape(width, s)
    return ((conv[:, :n] + conv[:, n:] @ ctx.red) % ctx.p).T


def _spread(block: np.ndarray, s: int) -> np.ndarray:
    seq = np.zeros((block.shape[1], s), dtype=np.int64)
    seq[:, :block.shape[0]] = block.T
    return seq.ravel()


def _dmul(x, y, ctx: _Ctx):
    if x is None or y is None:
        return None
    return _trim(x[0] + y[0], _raw_mul(x[1], y[1], ctx))


def _dsub(x, y, ctx: _Ctx):
    if y is None:
        return x
    if x is None:
        return y[0], (-y[1]) % ctx.p
    off = min(x[0], y[0])
    hi = max(x[0] + x[1].shape[1], y[0] + y[1].shape[1])
    arr = np.zeros((ctx.n, hi - off), dtype=np.int64)
    arr[:, x[0] - off:x[0] - off + x[1].shape[1]] += x[1]
    arr[:, y[0] - off:y[0] - off + y[1].shape[1]] -= y[1]
    return _trim(off, arr % ctx.p)


def _series_inv(unit: np.ndarray, width: int, ctx: _Ctx) -> np.ndarray:
    """Inverse of a unit power series block mod t^width (constant term must
    be invertible; blocks are trimmed so it is)."""
    c0 = FqElem(ctx.field, tuple(int(v) for v in unit[:, 0]))
    inv = np.zeros((ctx.n, 1), dtype=np.int64)
    inv[:, 0] = c0.inv().coeffs
    have = 1
    one = np.zeros((ctx.n, 1), dtype=np.int64)
    one[0, 0] = 1
    while have < width:
        have = min(2 * have, width)
        prod = _raw_mul(unit[:, :have], inv, ctx)[:, :have]
        err = -prod
        err[:, :1] += one
        err %= ctx.p
        corr = _raw_mul(inv, err, ctx)[:, :have]
        new = np.zeros((ctx.n, have), dtype=np.int64)
        new[:, :inv.shape[1]] += inv
        new[:, :corr.shape[1]] += corr
        inv = new % ctx.p
    return inv


def _ddiv_exact(num, den, ctx: _Ctx, den_inv: np.ndarray | None = None):
    """Exact quotient num / den; raises InternalCheckFailed if not exact."""
    if num is None:
        return None
    if den is None:
        raise ZeroDivisionError("division by the zero series")
    qwidth = num[1].shape[1] - den[1].shape[1] + 1
    if qwidth < 1:
        raise InternalCheckFailed("inexact division: quotient would be shorter than 1")
    if den_inv is None or den_inv.shape[1] < qwidth:
        den_inv = _series_inv(den[1], qwidth, ctx)
    q = _raw_mul(num[1], den_inv[:, :qwidth], ctx)[:, :qwidth]
    check = _raw_mul(q, den[1], ctx)
    if check.shape != num[1].shape or not np.array_equal(check, num[1]):
        raise InternalCheckFailed("inexact division in fraction-free elimination")
    return _trim(num[0] - den[0], q)


def det(M: LaurentMatrix) -> LaurentPoly:
    """Determinant by fraction-free elimination, exact over F_q[t, t^-1]."""
    if M.nrows != M.ncols:
        raise NonSquare(f"determinant of a {M.nrows}x{M.ncols} matrix")
    n = M.nrows
    field = M.field
    if n == 0:
        return LaurentPoly.one(field)
    ctx = _Ctx(field)
    D = [[_to_dense(M.rows[i][j], ctx) for j in range(n)] for i in range(n)]
    sign = 1
    prev = None
    for k in range(n - 1):
        cand = [(D[i][k][0], i) for i in range(k, n) if D[i][k] is not None]
        if not cand:
            return LaurentPoly.zero(field)
        pivot_row = min(cand)[1]
        if pivot_row != k:
            D[k], D[pivot_row] = D[pivot_row], D[k]
            sign = -sign
        piv = D[k][k]
        nums = {}
        max_q = 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _dsub(_dmul(D[i][j], piv, ctx), _dmul(D[i][k], D[k][j], ctx), ctx)
                nums[i, j] = num
                if prev is not None and num is not None:
                    max_q = max(max_q, num[1].shape[1] - prev[1].shape[1] + 1)
        inv = _series_inv(prev[1], max_q, ctx) if prev is not None and max_q > 0 else None
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = nums[i, j]
                D[i][j] = num if prev is None else _ddiv_exact(num, prev, ctx, inv)
            D[i][k] = None
        prev = piv
    result = _to_poly(D[n - 1][n - 1], ctx)
    if sign < 0:
        result = -result
    return result


def kernel(M: LaurentMatrix) -> list[list[LaurentPoly]]:
    """Basis of the right kernel of a constant matrix, solved over F_q.

    The matrix is brought to reduced row echelon form with columns in
    natural order.  Each free column f gives one basis vector: coordinate f
    is 1, the other free coordinates are 0, and each pivot coordinate holds
    the negated echelon entry in column f.  Entries come back as constant
    LaurentPolys; a non-constant entry raises InputError.
    """
    field = M.field
    if not all(x.is_constant() for row in M.rows for x in row):
        raise InputError("kernel needs a matrix of constants")
    R = [[x.coeff(0) for x in row] for row in M.rows]
    pivots: list[int] = []
    for c in range(M.ncols):
        r = len(pivots)
        pr = next((i for i in range(r, M.nrows) if not R[i][c].is_zero()), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = R[r][c].inv()
        R[r] = [x * inv for x in R[r]]
        for i in range(M.nrows):
            factor = R[i][c]
            if i != r and not factor.is_zero():
                R[i] = [x - factor * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
    basis = []
    for f in range(M.ncols):
        if f in pivots:
            continue
        vec = [LaurentPoly.zero(field)] * M.ncols
        vec[f] = LaurentPoly.one(field)
        for row, c in enumerate(pivots):
            vec[c] = LaurentPoly(field, [(0, -R[row][f])])
        basis.append(vec)
    return basis

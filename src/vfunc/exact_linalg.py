"""Exact linear algebra on matrices of Laurent polynomials over F_q.

A matrix is a list of rows, each a list of LaurentPoly entries over one
field, and both functions take the field first: det(field, rows) and
kernel(field, rows).

det is Berkowitz's division-free algorithm (Berkowitz 1984).  It builds
the characteristic polynomial of each leading principal block from the one
before, by a lower-triangular Toeplitz matrix made of the new row, column
and diagonal entry, so it needs only ring operations: O(n^4) products in
F_q[t, t^-1] and no exact division to verify.  The value routes do not
call det: norms in L are products of Galois conjugates, and det is the
tests' reference for them.

Kernels are only needed for matrices of constants, so they are solved by
reduced row echelon form over F_q itself.  The θ conditions matrix is
2p^2 x p^2 and only a few percent nonzero, so the elimination keeps each
row sparse, as a dict from column to the F_q code of a nonzero entry
(FqElem.code), and does its row operations on codes through
FieldParams.normalized_row and FieldParams.sub_scaled_row.  Work and
memory then follow the nonzeros, with little fill-in on that matrix.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError, NonSquare
from .finite_field import FieldParams
from .laurent import LaurentPoly

Rows = Sequence[Sequence[LaurentPoly]]


def _check(field: FieldParams, rows: Rows, square: bool = False) -> int:
    """Column count of rows, after rejecting ragged rows, entries that are
    not LaurentPolys over field and, when square is set, a non-square
    shape."""
    ncols = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != ncols:
            raise InputError("ragged matrix")
        for entry in row:
            if not isinstance(entry, LaurentPoly) or entry.field != field:
                raise InputError("matrix entry over the wrong field")
    if square and len(rows) != ncols:
        raise NonSquare(f"determinant of a {len(rows)}x{ncols} matrix")
    return ncols


def _dot(xs: Sequence[LaurentPoly], ys: Sequence[LaurentPoly],
         zero: LaurentPoly) -> LaurentPoly:
    """sum x_i * y_i over the length of the shorter sequence."""
    acc = zero
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def det(field: FieldParams, rows: Rows) -> LaurentPoly:
    """Determinant by Berkowitz's algorithm, exact over F_q[t, t^-1].

    With A_(k+1) = [[A_k, C], [R, a]] split off the leading k x k block,
    the characteristic polynomial det(x - A_(k+1)) has coefficient vector
    T * c, where c is that of A_k (leading coefficient first) and T is
    lower-triangular Toeplitz with first column
    1, -a, -R C, -R A_k C, ..., -R A_k^(k-1) C.  The determinant is the
    constant coefficient of the full matrix's polynomial times (-1)^n.
    """
    n = _check(field, rows, square=True)
    zero, one = LaurentPoly.zero(field), LaurentPoly.one(field)
    charpoly = [one]
    for k in range(n):
        # col has length k, so each _dot with a row reads its first k entries
        col = [rows[i][k] for i in range(k)]
        toeplitz = [one, -rows[k][k]]
        for _ in range(k):
            toeplitz.append(-_dot(rows[k], col, zero))
            col = [_dot(rows[i], col, zero) for i in range(k)]
        charpoly = [_dot(toeplitz[i::-1], charpoly[:i + 1], zero)
                    for i in range(k + 2)]
    return -charpoly[n] if n % 2 else charpoly[n]


def kernel(field: FieldParams, rows: Rows) -> list[list[LaurentPoly]]:
    """Basis of the right kernel of a constant matrix, solved over F_q.

    The matrix is brought to reduced row echelon form with columns in
    natural order.  Each free column f gives one basis vector: coordinate f
    is 1, the other free coordinates are 0, and each pivot coordinate holds
    the negated echelon entry in column f.  Entries come back as constant
    LaurentPolys; a non-constant entry raises InputError.

    Rows are {column: code} dicts of their nonzero entries.  The pivot for
    column c is the first row at or below the echelon position with a
    nonzero entry there; reduced echelon form is unique, so the basis does
    not depend on that choice.
    """
    ncols = _check(field, rows)
    R = []
    for row in rows:
        codes = {}
        for j, x in enumerate(row):
            if x.terms:
                if not x.is_constant():
                    raise InputError("kernel needs a matrix of constants")
                codes[j] = x.terms[0][1].code
        R.append(codes)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(R)) if c in R[i]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        pivot = R[r] = field.normalized_row(R[r], c)
        for i, row in enumerate(R):
            if i != r and c in row:
                field.sub_scaled_row(row, row[c], pivot)
        pivots.append(c)
    zero = LaurentPoly.zero(field)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [zero] * ncols
        vec[f] = LaurentPoly.one(field)
        for row, c in zip(R, pivots):
            if f in row:
                vec[c] = LaurentPoly(field, [(0, -field.from_code(row[f]))])
        basis.append(vec)
    return basis

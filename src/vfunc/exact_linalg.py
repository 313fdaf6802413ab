"""Exact linear algebra: det over F_q[t, t^-1] and kernel over F_q.

det(field, rows) is Berkowitz's division-free determinant (Berkowitz 1984)
of a square matrix of LaurentPolys.  The value routes do not call it:
norms in L are products of Galois conjugates, and det is the tests'
reference for them.

kernel(field, rows, ncols) solves a matrix over F_q given as sparse
{column: code} rows (k for g^k, see finite_field), the form of the θ
conditions: the oracle solves the p^2 x p^2 block of the first, then the
second on its 2p solutions.  Its basis vectors are {column: code} rows
too, and each row operation is one FieldParams.accumulate, so work and
memory follow the nonzeros.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError, NonSquare
from .finite_field import FieldParams
from .laurent import LaurentPoly


def _dot(xs: Sequence[LaurentPoly], ys: Sequence[LaurentPoly],
         zero: LaurentPoly) -> LaurentPoly:
    """sum x_i * y_i over the length of the shorter sequence."""
    acc = zero
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def det(field: FieldParams,
        rows: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Determinant by Berkowitz's algorithm, exact over F_q[t, t^-1].

    With A_(k+1) = [[A_k, C], [R, a]] split off the leading k x k block,
    the characteristic polynomial det(x - A_(k+1)) has coefficient vector
    T * c, where c is that of A_k (leading coefficient first) and T is
    lower-triangular Toeplitz with first column
    1, -a, -R C, -R A_k C, ..., -R A_k^(k-1) C.  The determinant is the
    constant coefficient of the full matrix's polynomial times (-1)^n.
    A row of the wrong length raises NonSquare, and an entry that is not
    a LaurentPoly over field raises InputError.
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise NonSquare(f"determinant of a matrix with {n} rows and a "
                            f"row of length {len(row)}")
        for entry in row:
            if not isinstance(entry, LaurentPoly) or entry.field != field:
                raise InputError("matrix entry over the wrong field")
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


def kernel(field: FieldParams, rows: Sequence[dict[int, int]],
           ncols: int) -> list[dict[int, int]]:
    """Basis of the right kernel of a matrix over F_q with ncols columns.

    rows are {column: code} dicts of the nonzero entries, and each basis
    vector comes back in the same form.  An ncols that is not a
    non-negative int, a row that is not a dict, a column outside
    0..ncols-1, or a code that is not that of a nonzero element (an int in
    0..q-2) raises InputError; so does a bool column or code.

    The matrix is brought to reduced row echelon form with columns in
    natural order.  Each free column f gives one basis vector: coordinate f
    has code 0, that is g^0 = 1, the other free coordinates are absent, and
    each pivot coordinate holds the code of the negated echelon entry in
    column f.

    Empty rows are dropped up front, and the rows are indexed by column,
    so a step reads only the rows with an entry in its column.  Forward
    elimination takes as the pivot for column c the first row not yet
    pivoted with a nonzero entry there, and clears column c from the
    other such rows; back substitution then clears each pivot column from
    the pivot rows above it, last pivot first, when the pivot row holds
    only free columns besides its own.  Reduced echelon form is unique, so
    the basis depends on neither choice.
    """
    # type(x) is int, unlike isinstance, rejects a bool
    if type(ncols) is not int or ncols < 0:
        raise InputError(f"column count {ncols!r} is not a non-negative int")
    units, minus_one = field._units, field._neg_one
    R = []
    for row in rows:
        if not isinstance(row, dict):
            raise InputError("matrix row is not a {column: code} dict")
        for j, k in row.items():
            if not (type(j) is int and type(k) is int and 0 <= j < ncols
                    and 0 <= k < units):
                raise InputError(f"column {j!r}, entry {k!r}: want a column "
                                 f"in 0..{ncols - 1} and the code of a "
                                 f"nonzero element, 0..{units - 1}")
        if row:
            R.append(dict(row))     # a copy: clear() edits rows in place
    # where[c]: the indices of the rows with an entry in column c
    where: list[set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(R):
        for j in row:
            where[j].add(i)

    def clear(i: int, c: int, pivot: dict[int, int]) -> None:
        """Subtract from row i the multiple of pivot that clears column c."""
        row = R[i]
        field.accumulate(row, (row[c] + minus_one) % units, pivot.items())
        for j in pivot:
            if j in row:
                where[j].add(i)
            else:
                where[j].discard(i)

    pivot_col: dict[int, int] = {}   # pivot row index -> its column
    for c in range(ncols):
        pr = min((i for i in where[c] if i not in pivot_col), default=None)
        if pr is None:
            continue
        # divide by the entry g^k in column c: 1/g^k is (units - k) % units
        row, pivot = R[pr], {}
        field.accumulate(pivot, (units - row[c]) % units, row.items())
        R[pr] = pivot
        pivot_col[pr] = c
        for i in [i for i in where[c] if i not in pivot_col]:
            clear(i, c, pivot)
    for pr, c in reversed(pivot_col.items()):
        for i in [i for i in where[c] if i != pr]:
            clear(i, c, R[pr])
    pivots = set(pivot_col.values())
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = {f: 0}
        # only pivot rows are left nonempty; their columns are distinct
        for c, i in sorted((pivot_col[i], i) for i in where[f]):
            vec[c] = (R[i][f] + minus_one) % units
        basis.append(vec)
    return basis

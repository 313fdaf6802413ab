from __future__ import annotations

import itertools

import pytest

from vfunc.errors import InputError, NonSquare
from vfunc.exact_linalg import det, kernel
from vfunc.finite_field import FieldParams, FqElem
from vfunc.laurent import LaurentPoly

from conftest import (
    as_codes,
    as_elems,
    fq_matvec,
    make_rng,
    matmul,
    random_laurent,
)


def det_by_permutations(field: FieldParams, rows) -> LaurentPoly:
    """Independent oracle: Leibniz expansion, fine for tiny matrices."""
    n = len(rows)
    total = LaurentPoly.zero(field)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = LaurentPoly.one(field)
        for i in range(n):
            prod = prod * rows[i][perm[i]]
        total = total + (sign * prod if sign > 0 else -(prod))
    return total


def rand_matrix(field, rng, nr, nc, lo=-4, hi=3, density=0.6):
    return [
        [random_laurent(field, rng, lo=lo, hi=hi, density=density) for _ in range(nc)]
        for _ in range(nr)]


def test_det_examples(f4):
    one = LaurentPoly.one(f4)
    t = LaurentPoly.t_pow(f4, 1)
    tinv = LaurentPoly.t_pow(f4, -1)
    zero = LaurentPoly.zero(f4)
    assert det(f4, [[t, one], [zero, tinv]]) == one
    assert det(f4, [[tinv, one], [one, t]]) == zero
    assert det(f4, []) == one


def test_det_nonsquare_rejected(f4):
    one = LaurentPoly.one(f4)
    with pytest.raises(NonSquare):
        det(f4, [[one, one]])


def test_det_small_sizes_against_permanent_expansion(f4, f9, f25, f8):
    rng = make_rng("det-oracle")
    for fld in (f4, f9, f25, f8, FieldParams(5, 1)):
        for n in (1, 2, 3, 4):
            for _ in range(12):
                M = rand_matrix(fld, rng, n, n)
                assert det(fld, M) == det_by_permutations(fld, M)


def test_det_multiplicative(f9):
    rng = make_rng("det-mult")
    for n in (2, 3, 4):
        for _ in range(8):
            A = rand_matrix(f9, rng, n, n)
            B = rand_matrix(f9, rng, n, n)
            assert det(f9, matmul(f9, A, B)) == det(f9, A) * det(f9, B)


def test_det_triangular_valuation(f9):
    rng = make_rng("det-tri")
    for _ in range(10):
        n = 4
        rows = []
        vals = []
        for i in range(n):
            row = []
            for j in range(n):
                if j < i:
                    row.append(LaurentPoly.zero(f9))
                elif j == i:
                    e = rng.randrange(-5, 5)
                    vals.append(e)
                    row.append(LaurentPoly.t_pow(f9, e))
                else:
                    row.append(random_laurent(f9, rng))
            rows.append(row)
        assert det(f9, rows).valuation() == sum(vals)


def test_det_larger_random_against_expansion(f25):
    # 5x5 crosses into repeated exact divisions; still small enough to expand
    rng = make_rng("det-5x5")
    for _ in range(3):
        M = rand_matrix(f25, rng, 5, 5, lo=-3, hi=2)
        assert det(f25, M) == det_by_permutations(f25, M)


def test_det_wide_support_uses_same_arithmetic(f25, f8):
    # wide supports give long block convolutions, with and without digits
    # to fold back into F_q
    rng = make_rng("det-wide")
    for fld in (f25, f8, FieldParams(5, 1)):
        M = rand_matrix(fld, rng, 3, 3, lo=-40, hi=40, density=0.8)
        assert det(fld, M) == det_by_permutations(fld, M)


def test_det_singular_and_zero(f4):
    zero = LaurentPoly.zero(f4)
    one = LaurentPoly.one(f4)
    assert det(f4, [[zero, zero], [zero, zero]]).is_zero()
    M = [[one, one], [one, one]]
    assert det(f4, M).is_zero()
    rng = make_rng("det-sing")
    for _ in range(6):
        # rank-1 matrix: outer product has zero determinant
        u = [random_laurent(f4, rng) for _ in range(3)]
        v = [random_laurent(f4, rng) for _ in range(3)]
        M = [[a * b for b in v] for a in u]
        assert det(f4, M).is_zero()


def rand_fq_rows(field, rng, nr, nc, density=0.5):
    """nr random {column: entry} rows over F_q with nc columns."""
    rows = []
    for _ in range(nr):
        row = {}
        for j in range(nc):
            if rng.random() < density:
                c = field.random_element(rng)
                if not c.is_zero():
                    row[j] = c
        rows.append(row)
    return rows


def lift(field, rows, ncols) -> list[list[LaurentPoly]]:
    """The F_q rows as a dense matrix of constant LaurentPolys."""
    return [[LaurentPoly.t_pow(field, 0, row.get(j, field.zero()))
             for j in range(ncols)] for row in rows]


def fq_kernel(field, rows, ncols) -> list[dict[int, FqElem]]:
    """kernel on {column: FqElem} rows, its basis read back as FqElems:
    the form in which dense_kernel_reference specifies it."""
    return as_elems(field, kernel(field, as_codes(rows), ncols))


def test_kernel_examples(f4):
    one, w = f4.one(), f4.gen()
    # a free coordinate has code 0, which is g^0 = 1
    assert kernel(f4, [{}], 2) == [{0: 0}, {1: 0}]
    assert kernel(f4, [], 0) == []
    ker = fq_kernel(f4, [{0: one, 1: w}], 2)
    assert ker == [{0: w, 1: one}]  # char 2: -w == w
    # a zero column before the pivot stays free
    M = [{1: one, 2: w}, {1: one, 2: w}]
    assert fq_kernel(f4, M, 3) == [{0: one}, {1: w, 2: one}]
    for vec in fq_kernel(f4, M, 3):
        assert all(x.is_zero() for x in fq_matvec(f4, M, vec))


def test_kernel_annihilates_and_counts(f9, f25):
    rng = make_rng("kernel-prop")
    for fld in (f9, f25):
        for _ in range(15):
            nr = rng.randrange(1, 5)
            nc = rng.randrange(1, 5)
            M = rand_fq_rows(fld, rng, nr, nc)
            ker = fq_kernel(fld, M, nc)
            for vec in ker:
                assert all(x.is_zero() for x in fq_matvec(fld, M, vec))
            # rank + nullity = ncols, rank measured independently by minors
            # of the constant lift
            dense = lift(fld, M, nc)
            rank = 0
            for size in range(min(nr, nc), 0, -1):
                found = False
                for rsel in itertools.combinations(range(nr), size):
                    for csel in itertools.combinations(range(nc), size):
                        sub = [[dense[i][j] for j in csel] for i in rsel]
                        if not det(fld, sub).is_zero():
                            found = True
                            break
                    if found:
                        break
                if found:
                    rank = size
                    break
            assert len(ker) == nc - rank


def test_kernel_echelon_shape_and_normalization(f9):
    rng = make_rng("kernel-shape")
    for _ in range(10):
        M = rand_fq_rows(f9, rng, 3, 5)
        ker = kernel(f9, as_codes(M), 5)
        free_cols = []
        for vec in ker:
            free = max(vec)
            free_cols.append(free)
            assert vec[free] == 0       # the code of 1
            # every coordinate is the code of a nonzero element
            assert all(type(k) is int and 0 <= k < f9.q - 1
                       for k in vec.values())
        # one distinct free coordinate per vector, zero at the others
        assert len(set(free_cols)) == len(ker)
        for vec, own in zip(ker, free_cols):
            for other in free_cols:
                if other != own:
                    assert other not in vec


def test_kernel_rejects_non_constant_entries(f9):
    """Entries must be codes of nonzero elements of the field, ints in
    0..q-2, in columns 0..ncols-1."""
    f25 = FieldParams(5, 2)
    for bad in ({0: 0, 1: LaurentPoly.t_pow(f9, 1)},
                {0: 0, 1: LaurentPoly.one(f9)},
                {0: 0, 1: -1},
                {0: 0, 1: f9.q - 1},        # the code of zero
                {0: 0, 1: f9.q},
                {0: 0, 1: 1.0},
                {0: 0, 1: f9.one()},
                {0: 0, 1: f25.one()},
                {0: 0, 1: True},
                {0: 0, 2: 0},
                {-1: 0}):
        with pytest.raises(InputError):
            kernel(f9, [bad], 2)


@pytest.mark.parametrize("ncols", [-1, 2.5, True, "2"])
def test_kernel_rejects_a_column_count_that_is_not_a_non_negative_int(
        f4, ncols):
    with pytest.raises(InputError, match="column count"):
        kernel(f4, [{}], ncols)


def test_kernel_rejects_a_bool_column(f4):
    """True would be read as column 1."""
    assert kernel(f4, [{1: 0}], 2) == [{0: 0}]
    with pytest.raises(InputError):
        kernel(f4, [{True: 0}], 2)


def test_kernel_rejects_a_bool_code(f4):
    """True would be read as code 1, the generator w."""
    assert kernel(f4, [{0: 1}], 1) == []
    with pytest.raises(InputError):
        kernel(f4, [{0: True}], 1)


def test_kernel_deterministic(f25):
    """Two calls on one matrix agree, and neither alters its rows."""
    rng = make_rng("kernel-det")
    M = as_codes(rand_fq_rows(f25, rng, 4, 6))
    before = [dict(row) for row in M]
    assert kernel(f25, M, 6) == kernel(f25, M, 6)
    assert M == before


def test_constant_matrix_kernel_stays_constant(f9):
    # kernel vectors hold codes of nonzero elements only, and are solutions
    rng = make_rng("kernel-const")
    for _ in range(10):
        M = rand_fq_rows(f9, rng, 2, 4, density=1.0)
        for vec in kernel(f9, as_codes(M), 4):
            for j, k in vec.items():
                assert 0 <= j < 4
                assert type(k) is int and 0 <= k < f9.q - 1
            (vec,) = as_elems(f9, [vec])
            assert all(y.is_zero() for y in fq_matvec(f9, M, vec))


def test_ragged_and_foreign_rows_rejected(f4, f9):
    one = LaurentPoly.one(f4)
    with pytest.raises(InputError):
        det(f4, [[one], [one, one]])
    with pytest.raises(InputError):
        det(f4, [[LaurentPoly.one(f9)]])
    with pytest.raises(InputError):
        det(f4, [[1]])
    with pytest.raises(InputError):
        kernel(f4, [[0]], 1)
    with pytest.raises(InputError):
        kernel(f4, [{0: f9.one()}], 1)
    with pytest.raises(InputError):
        kernel(f4, [{0: f9.q - 2}], 1)     # a unit code of F_9, not of F_4


def dense_kernel_reference(field: FieldParams, rows,
                           ncols: int) -> list[dict[int, FqElem]]:
    """Reduced row echelon form on dense rows of FqElem, natural column
    order, first nonzero row as pivot: the kernel's specification."""
    R = [[row.get(j, field.zero()) for j in range(ncols)] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(R)) if not R[i][c].is_zero()), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = R[r][c].inv()
        R[r] = [x * inv for x in R[r]]
        for i in range(len(R)):
            factor = R[i][c]
            if i != r and not factor.is_zero():
                R[i] = [x - factor * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = {f: field.one()}
        for row, c in enumerate(pivots):
            if not R[row][f].is_zero():
                vec[c] = -R[row][f]
        basis.append(vec)
    return basis


def low_rank_matrix(field, rng, nr, nc, rank, density):
    """A product of random nr x rank and rank x nc matrices over F_q, so
    rows are dependent and elimination has to cancel whole rows."""
    left = [[field.random_element(rng) for _ in range(rank)] for _ in range(nr)]
    right = [[field.random_element(rng) if rng.random() < density
              else field.zero() for _ in range(nc)] for _ in range(rank)]
    rows = []
    for i in range(nr):
        row = {}
        for j in range(nc):
            acc = field.zero()
            for k in range(rank):
                acc = acc + left[i][k] * right[k][j]
            if not acc.is_zero():
                row[j] = acc
        rows.append(row)
    return rows


def test_kernel_matches_dense_reference(f4, f8, f25):
    f49 = FieldParams(7, 2)
    rng = make_rng("kernel-sparse")
    for fld in (f4, f8, f25, f49):
        for density in (0.08, 0.2, 0.5, 1.0):
            for _ in range(6):
                nr, nc = rng.randrange(1, 13), rng.randrange(1, 11)
                M = rand_fq_rows(fld, rng, nr, nc, density)
                ker = fq_kernel(fld, M, nc)
                assert ker == dense_kernel_reference(fld, M, nc)
            for _ in range(4):
                nr, nc = rng.randrange(2, 13), rng.randrange(2, 11)
                rank = rng.randrange(1, min(nr, nc))
                M = low_rank_matrix(fld, rng, nr, nc, rank, density)
                ker = fq_kernel(fld, M, nc)
                assert len(ker) >= nc - rank
                assert ker == dense_kernel_reference(fld, M, nc)


def test_kernel_cancels_entries_exactly(f25):
    """Rows that are sums and multiples of others reduce to zero rows, and
    an entry that cancels mid-elimination stays absent."""
    rng = make_rng("kernel-cancel")
    c = [f25.random_element(rng) for _ in range(6)]
    zero, one, two = f25.zero(), f25.one(), f25.elem(2)

    def row(*entries):
        return {j: x for j, x in enumerate(entries) if not x.is_zero()}

    r1 = [one, c[0], zero, c[1], zero]
    r2 = [zero, one, c[2], zero, c[3]]
    r3 = [x + y for x, y in zip(r1, r2)]          # dependent: r1 + r2
    r4 = [two * x for x in r1]                    # dependent: 2 r1
    # r5 - r1 has a zero in column 1, so that entry cancels
    r5 = [one, c[0], c[4], zero, c[5]]
    M = [row(*r) for r in (r1, r2, r3, r4, r5)]
    ker = fq_kernel(f25, M, 5)
    assert ker == dense_kernel_reference(f25, M, 5)
    assert len(ker) == 5 - 3
    for vec in ker:
        assert all(x.is_zero() for x in fq_matvec(f25, M, vec))

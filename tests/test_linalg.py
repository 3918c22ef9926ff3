import random

import pytest
from fractions import Fraction

from shufflestar.linalg import (
    CoeffLimitExceeded,
    IntREF,
    RatMatrix,
    SparseRREF,
    in_span,
    kernel_basis,
    matvec,
    rref_rank,
    sparse_rref_kernel,
)


def test_rref_examples():
    eye = RatMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    rank, _, piv = rref_rank(eye)
    assert rank == 3 and piv == [0, 1, 2]
    rank, _, _ = rref_rank(RatMatrix.from_rows([[1, 2], [2, 4]]))
    assert rank == 1
    rank, _, _ = rref_rank(RatMatrix(3, 4))
    assert rank == 0


def test_kernel_examples():
    k = kernel_basis(RatMatrix.from_rows([[1, 1]]))
    assert len(k) == 1 and k[0][0] == -k[0][1] != 0
    assert kernel_basis(RatMatrix.from_rows([[1, 0], [0, 1]])) == []
    k = kernel_basis(RatMatrix.from_rows([[1, 2], [2, 4]]))
    assert len(k) == 1
    v = k[0]
    assert v[0] * 1 + v[1] * 2 == 0


def test_kernel_is_exact():
    rng = random.Random(0)
    for _ in range(30):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        A = RatMatrix.from_rows(
            [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cols)]
             for _ in range(rows)])
        rank, R, piv = rref_rank(A)
        kern = kernel_basis(A)
        assert rank + len(kern) == cols
        for v in kern:
            assert all(x == 0 for x in matvec(A, v))
        # rref is idempotent on its own rows
        rank2, _, piv2 = rref_rank(R)
        assert rank2 == rank and piv2 == piv


def _naive_rank(rows, cols):
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for c in range(cols):
        sel = None
        for i in range(rank, len(rows)):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        p = rows[rank][c]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / p
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rank_vs_naive_oracle():
    rng = random.Random(1)
    for _ in range(40):
        m = rng.randint(1, 7)
        n = rng.randint(1, 7)
        data = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        A = RatMatrix.from_rows(data)
        rank, _, _ = rref_rank(A)
        assert rank == _naive_rank(data, n)


def test_sparse_path_used_and_correct():
    # wider than it is tall: most columns are free
    cols = 80
    rows = [[0] * cols for _ in range(3)]
    rows[0][0] = 1
    rows[0][79] = 2
    rows[1][0] = 2
    rows[1][79] = 4
    rows[2][5] = 1
    rank, _, piv = rref_rank(RatMatrix.from_rows(rows))
    assert rank == 2 and piv == [0, 5]
    kern = kernel_basis(RatMatrix.from_rows(rows))
    assert len(kern) == cols - 2
    for v in kern:
        assert all(x == 0 for x in matvec(RatMatrix.from_rows(rows), v))


def test_in_span():
    assert in_span([2, 4], [[1, 2]]) == [Fraction(2)]
    assert in_span([0, 0], [[1, 2], [0, 1]]) == [0, 0]
    assert in_span([1, 0], [[0, 1]]) is None
    basis = [[1, 0, 0], [0, 1, 0], [1, 1, 0]]
    coeffs = in_span([1, 1, 0], basis)
    total = [sum(c * Fraction(b[j]) for c, b in zip(coeffs, basis)) for j in range(3)]
    assert total == [1, 1, 0]
    with pytest.raises(ValueError):
        in_span([1, 0], [[1, 0, 0]])


def test_incremental_bases_agree():
    rng = random.Random(2)
    for _ in range(20):
        cols = rng.randint(2, 10)
        vecs = [{c: Fraction(rng.randint(-3, 3)) for c in rng.sample(range(cols), rng.randint(1, cols))}
                for _ in range(rng.randint(1, 8))]
        a = SparseRREF()
        b = IntREF()
        for v in vecs:
            ra = a.add(dict(v))
            rb = b.add(dict(v))
            assert ra == rb
        assert a.rank == b.rank
        assert a.pivot_columns() == b.pivot_columns()
        probe = {c: Fraction(rng.randint(-3, 3)) for c in range(cols)}
        assert a.contains(dict(probe)) == b.contains(dict(probe))


def test_sparse_rref_kernel():
    acc = SparseRREF()
    acc.add({0: Fraction(1), 1: Fraction(2)})
    acc.add({2: Fraction(1)})
    kern = sparse_rref_kernel(acc, 4)
    assert len(kern) == 2
    for v in kern:
        assert sum(Fraction(v.get(c, 0)) * {0: 1, 1: 2}.get(c, 0) for c in range(4)) == 0


def test_coeff_limit_guard():
    acc = IntREF(max_bits=8)
    acc.add({0: 1, 1: 1000})
    with pytest.raises(CoeffLimitExceeded):
        acc.add({0: 1, 1: -1000, 2: 1})
        acc.reduce({0: 1})

import random
from array import array
from itertools import accumulate

import pytest
from fractions import Fraction

from shufflestar.linalg import (
    CoeffLimitExceeded,
    NotReducedError,
    SparseRREF,
    kernel_basis,
    recombine,
    rref_rank,
    sparse_rref_kernel,
)


def _sparse(data):
    """Dense rows as sparse rows {column: entry}."""
    return [{c: v for c, v in enumerate(row) if v} for row in data]


def _annihilates(data, vec):
    return all(sum(a * vec.get(c, 0) for c, a in enumerate(row)) == 0 for row in data)


def test_rref_examples():
    rank, _, piv = rref_rank(_sparse([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert rank == 3 and piv == [0, 1, 2]
    rank, _, _ = rref_rank(_sparse([[1, 2], [2, 4]]))
    assert rank == 1
    rank, _, _ = rref_rank(_sparse([[0] * 4] * 3))
    assert rank == 0


def test_kernel_examples():
    k = kernel_basis(_sparse([[1, 1]]), 2)
    assert k == [{1: 1, 0: -1}]
    assert kernel_basis(_sparse([[1, 0], [0, 1]]), 2) == []
    k = kernel_basis(_sparse([[1, 2], [2, 4]]), 2)
    assert len(k) == 1 and _annihilates([[1, 2]], k[0])
    # no rows: every column is free
    assert kernel_basis([], 3) == [{0: 1}, {1: 1}, {2: 1}]


def test_kernel_basis_reads_no_row_past_full_rank():
    def rows():
        yield {0: 1, 1: 1}
        yield {0: 2, 1: 2}
        yield {1: 3}
        raise AssertionError("a row was read after the rank reached ncols")

    assert kernel_basis(rows(), 2) == []
    # short of full rank every row is read
    assert kernel_basis(iter([{0: 1, 1: 1}, {0: 2, 1: 2}]), 2) == [{1: 1, 0: -1}]


def test_recombine_sums_the_rows_in_canonical_form():
    rows = [{0: 1, 2: Fraction(1, 2)}, {1: 1, 2: Fraction(1, 2)}]
    assert recombine([{0: 1, 1: -1}, {1: 2}], rows) == [{0: 1, 1: -1}, {1: 2, 2: 1}]
    assert type(recombine([{1: 2}], rows)[0][2]) is int


def test_kernel_is_exact():
    rng = random.Random(0)
    for _ in range(30):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        data = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cols)]
                for _ in range(rows)]
        rank, R, piv = rref_rank(_sparse(data))
        kern = kernel_basis(_sparse(data), cols)
        assert rank + len(kern) == cols
        for v in kern:
            assert _annihilates(data, v)
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
        rank, _, _ = rref_rank(_sparse(data))
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
    rank, _, piv = rref_rank(_sparse(rows))
    assert rank == 2 and piv == [0, 5]
    kern = kernel_basis(_sparse(rows), cols)
    assert len(kern) == cols - 2
    for v in kern:
        assert _annihilates(rows, v)


def _random_rows(rng, cols, count):
    """Sparse rows mixing int and Fraction entries, leads mostly non-unit."""
    rows = []
    for _ in range(count):
        support = rng.sample(range(cols), rng.randint(1, min(cols, 5)))
        row = {}
        for c in support:
            if rng.random() < 0.5:
                row[c] = rng.choice([-3, -2, 2, 3, 5, 1, -1])
            else:
                row[c] = Fraction(rng.choice([-4, -1, 1, 3, 7]), rng.choice([2, 3, 5]))
        rows.append(row)
    # later rows lead further left, so adding them clears old rows' entries
    if rng.random() < 0.5:
        rows.sort(key=min, reverse=True)
    return rows


def _check_invariants(acc):
    pivots = acc.pivots
    index = acc.column_index()
    for p, i in pivots.items():
        row = acc.rows[i]
        assert min(row) == p and row[p] == 1
        for c, v in row.items():
            assert type(v) in (int, Fraction), v
            assert v != 0
            if type(v) is Fraction:
                assert v.denominator != 1
            assert c == p or c not in pivots
            # the column index lists every row under each non-pivot column
            assert c == p or i in index[c]
    assert not set(index) & set(pivots)


def test_sparse_rref_matches_sympy_rref_over_qq():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    QQ = sympy.QQ
    rng = random.Random(2)
    for _ in range(60):
        cols = rng.randint(2, 12)
        vecs = _random_rows(rng, cols, rng.randint(1, 10))
        acc = SparseRREF()
        for v in vecs:
            acc.add(dict(v))
        dense = [[QQ.convert(v.get(c, 0)) for c in range(cols)] for v in vecs]
        R, piv = DomainMatrix(dense, (len(vecs), cols), QQ).rref()
        expected = [{c: Fraction(int(x.numerator), int(x.denominator))
                     for c, x in enumerate(row) if x}
                    for row in R.to_list()[:len(piv)]]
        assert acc.rank == len(piv)
        assert acc.pivot_columns() == list(piv)
        assert acc.basis_rows() == expected
        probe = {c: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for c in range(cols)}
        red = acc.reduce(dict(probe))
        assert not set(red) & set(acc.pivots)
        diff = [probe[c] - red.get(c, 0) for c in range(cols)]
        stacked = DomainMatrix(dense + [[QQ.convert(x) for x in diff]],
                               (len(vecs) + 1, cols), QQ)
        assert stacked.rank() == acc.rank


def test_stored_rows_keep_the_index_invariants():
    rng = random.Random(3)
    for _ in range(40):
        cols = rng.randint(2, 12)
        acc = SparseRREF()
        added = []
        for v in _random_rows(rng, cols, rng.randint(1, 10)):
            acc.add(dict(v))
            added.append(v)
            _check_invariants(acc)
            for k in sparse_rref_kernel(acc, cols):
                for w in added:
                    assert sum(x * k.get(c, 0) for c, x in w.items()) == 0
        for k in sparse_rref_kernel(acc, cols):
            assert all(type(x) in (int, Fraction) for x in k.values())


def test_kernel_after_cancelled_entries():
    added = [{0: 2, 2: 1, 3: 1}, {1: 1, 2: Fraction(1, 2), 3: Fraction(1, 2)}, {2: 3, 3: 3}]
    acc = SparseRREF()
    for v in added:
        acc.add(dict(v))
        _check_invariants(acc)
    assert acc.rows == [{0: 1}, {1: 1}, {2: 1, 3: 1}]
    # the cleared column-3 entries of the first two rows are still indexed
    assert any(3 not in acc.rows[i] for i in acc.column_index()[3])
    kern = sparse_rref_kernel(acc, 5)
    assert kern == [{3: 1, 2: -1}, {4: 1}]
    for k in kern:
        for v in added:
            assert sum(x * k.get(c, 0) for c, x in v.items()) == 0


def test_sparse_rref_kernel():
    acc = SparseRREF()
    acc.add({0: Fraction(1), 1: Fraction(2)})
    acc.add({2: Fraction(1)})
    kern = sparse_rref_kernel(acc, 4)
    assert len(kern) == 2
    for v in kern:
        assert sum(Fraction(v.get(c, 0)) * {0: 1, 1: 2}.get(c, 0) for c in range(4)) == 0


def test_coeff_limit_guard():
    acc = SparseRREF(max_bits=8)
    acc.add({0: 1, 1: 200})
    with pytest.raises(CoeffLimitExceeded):
        acc.add({0: 1, 1: -200, 2: 1})   # the new row holds -1/400
    assert acc.rank == 1 and acc.rows == [{0: 1, 1: 200}]


def test_adopted_rows_behave_as_the_eliminated_basis():
    rng = random.Random(4)
    for _ in range(40):
        cols = rng.randint(2, 12)
        fresh = SparseRREF()
        for v in _random_rows(rng, cols, rng.randint(1, 10)):
            fresh.add(v)
        rows = [sorted(row.items()) for row in fresh.basis_rows()]
        loaded = SparseRREF.from_arrays(*_arrays(rows), cols)
        _check_invariants(loaded)
        assert loaded.basis_rows() == fresh.basis_rows()
        assert loaded.pivot_columns() == fresh.pivot_columns()
        assert sparse_rref_kernel(loaded, cols) == sparse_rref_kernel(fresh, cols)
        for v in _random_rows(rng, cols, 4):
            assert loaded.reduce(v) == fresh.reduce(v)
            assert loaded.add(dict(v)) == fresh.add(dict(v))
            _check_invariants(loaded)
            assert loaded.basis_rows() == fresh.basis_rows()
            assert sparse_rref_kernel(loaded, cols) == sparse_rref_kernel(fresh, cols)
    # no rows at all, as a cached dimension-0 component holds
    empty = SparseRREF.from_arrays([], _u([]), _u([]), _u([]), 3)
    assert empty.rank == 0 and sparse_rref_kernel(empty, 3) == [{0: 1}, {1: 1}, {2: 1}]
    assert empty.add({1: 2, 2: 1}) and empty.basis_rows() == [{1: 1, 2: Fraction(1, 2)}]


def _typed(rows):
    """Rows as lists of (column, type, value), so that an int and an equal
    Fraction differ, and so does the order of the columns."""
    return [[(c, type(v), v) for c, v in row.items()] for row in rows]


def test_adopted_rows_are_built_on_first_read():
    rng = random.Random(5)
    checked = 0
    while checked < 30:
        cols = rng.randint(3, 12)
        fresh = SparseRREF()
        for v in _random_rows(rng, cols, rng.randint(2, 10)):
            fresh.add(v)
        if fresh.rank < 2:
            continue
        checked += 1
        # the rows eager adoption gives: ascending columns, pivot order
        eager = [dict(sorted(row.items())) for row in fresh.basis_rows()]
        arrays = _arrays([list(row.items()) for row in eager])
        basis = SparseRREF.from_arrays(*arrays, cols)
        assert _typed(map(basis.row, range(len(eager)))) == _typed(eager)
        probe = _random_rows(rng, cols, 1)[0]
        for read in ("basis_rows", "kernel", "add", "add in the span"):
            basis = SparseRREF.from_arrays(*arrays, cols)
            assert basis.rows == [None] * len(eager)
            # reducing the first pivot's monomial builds that row alone
            first = min(basis.pivots)
            assert basis.reduce({first: 1}) == {c: -v for c, v in eager[0].items() if c != first}
            rows = basis.rows
            built = rows[0]
            assert _typed([built]) == _typed(eager[:1]) and rows[1:] == [None] * (len(eager) - 1)
            want = eager
            if read == "basis_rows":
                assert _typed(basis.basis_rows()) == _typed(eager)
            elif read == "kernel":
                assert sparse_rref_kernel(basis, cols) == sparse_rref_kernel(fresh, cols)
            elif read == "add in the span":
                # a row that adds nothing still leaves every row built
                assert not basis.add({c: 2 * v for c, v in eager[-1].items()})
            else:
                # against a basis adopted with every row built at once
                ref = SparseRREF.from_arrays(*arrays, cols)
                ref.basis_rows()
                assert basis.add(dict(probe)) == ref.add(dict(probe))
                _check_invariants(basis)
                want = ref.rows
            # filled in place: the reference taken before the fill sees every
            # row, and the row built first is still the same object
            assert basis.rows is rows and rows[0] is built
            assert _typed(rows) == _typed(want)


def _u(values, code="I"):
    """An unsigned index array, as `from_arrays` takes them."""
    return array(code, values)


def _arrays(rows):
    """Rows of (column, coefficient) pairs as the flat arrays `from_arrays`
    takes, with one coefficient entry per pair."""
    rows = [list(row) for row in rows]
    cols = [c for row in rows for c, _ in row]
    return ([v for row in rows for _, v in row], _u(cols), _u(range(len(cols))),
            _u(accumulate(map(len, rows))))


# each case is rows as the flat arrays `from_arrays` takes
@pytest.mark.parametrize("rows, reason", [
    (_arrays([[(0, 1), (2, 3)], []]), "zero row"),
    (_arrays([[(0, 2), (2, 3)]]), "non-unit pivot"),
    (_arrays([[(0, Fraction(1)), (2, 3)]]), "non-canonical entry"),
    (_arrays([[(0, 1), (2, Fraction(4, 2))]]), "non-canonical entry"),
    (_arrays([[(0, 1), (2, 1.5)]]), "non-canonical entry"),
    (_arrays([[(0, 1), (2, True)]]), "non-canonical entry"),
    (_arrays([[(0, 1), (2, 0)]]), "zero entry"),
    (_arrays([[(0, 1), (2, 3)], [(0, 1), (3, 1)]]), "repeated pivot"),
    (_arrays([[(0, 1), (2, 3)], [(2, 1), (3, 1)]]), "entry in pivot column"),
    (_arrays([[(1, 1), (3, 1)], [(0, 1), (1, 5)]]), "entry in pivot column"),
    # a column of -1, as an unsigned 32-bit array reads it
    (_arrays([[(2 ** 32 - 1, 1), (2, 3)]]), "column out of range"),
    (_arrays([[(0, 1), (5, 3)]]), "column out of range"),
    (_arrays([[(0, 1), (2, 3)], [(3, 1), (7, 1)]]), "column out of range"),
    (_arrays([[(0, 1), (2, 3), (2, 4)]]), "repeated column"),
    # the first column is the pivot, so the columns must ascend
    (_arrays([[(0, 1), (3, 1), (2, 1)]]), "unsorted columns"),
    (_arrays([[(2, 1), (0, 1)]]), "unsorted columns"),
    # arrays that do not describe rows: a value index outside the table
    # (the second one -1 read unsigned), an index array that is not of an
    # unsigned type, lengths that disagree, row ends that fall short or go
    # backwards, and index lists that are not arrays
    (([1], _u([0]), _u([1]), _u([1])), "malformed"),
    (([1], _u([0]), _u([2 ** 32 - 1]), _u([1])), "malformed"),
    (([1], _u([0]), array("d", [0.0]), _u([1])), "malformed"),
    (([1], _u([0, 2]), _u([0]), _u([2])), "malformed"),
    (([1, 3], _u([0, 2]), _u([0, 1]), _u([1])), "malformed"),
    (([1, 3], _u([0, 2, 3]), _u([0, 1, 0]), _u([2, 1, 3])), "malformed"),
    (([1], [0], _u([0]), _u([1])), "malformed"),
    (([1], _u([0]), _u([0]), array("i", [1])), "malformed"),
])
def test_rows_that_are_not_reduced_are_refused_with_a_reason(rows, reason):
    with pytest.raises(NotReducedError) as info:
        SparseRREF.from_arrays(*rows, 5)
    assert info.value.reason == reason
    assert str(info.value).startswith(reason + ": ")


def test_adopted_rows_keep_the_bit_budget():
    rows = _arrays([[(0, 1), (1, Fraction(1, 2 ** 20))], [(2, 1), (3, 7)]])
    assert SparseRREF.from_arrays(*rows, 4, max_bits=21).rank == 2
    with pytest.raises(CoeffLimitExceeded):
        SparseRREF.from_arrays(*rows, 4, max_bits=20)

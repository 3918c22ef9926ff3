"""Exact rational sparse linear algebra: rref, kernels, span membership.

All arithmetic is exact, and every routine eliminates through one engine,
`SparseRREF`: an incremental reduced echelon basis with unit pivots.  It
keeps a column index, built lazily for adopted rows, so adding a row only
touches the rows that hold the new pivot column, and it stores integral
coefficients as `int`, making a `Fraction` only for a true fraction.
Pivoting is always first-nonzero in column order, so results are
deterministic.  Rows and kernel vectors are sparse dicts {column:
coefficient} throughout, and `recombine` is the one place that turns
kernel vectors back into combinations of rows.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from fractions import Fraction
from itertools import compress, count, islice
from operator import lt
from typing import Iterable, Mapping, Optional, Sequence

from .core import Rational, exact, exact_div


# the array typecodes of unsigned integers, the index arrays `from_arrays` takes
_UNSIGNED = frozenset("BHILQ")


class CoeffLimitExceeded(RuntimeError):
    """Raised when entries outgrow the configured coefficient-bit budget."""


class NotReducedError(ValueError):
    """Rows offered as a reduced echelon basis that are not one.

    `reason` names the failed check, e.g. "non-unit pivot"; the message adds
    the row and column.
    """

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason


def _check_bits(value: int, max_bits: Optional[int]):
    if max_bits is not None and value.bit_length() > max_bits:
        raise CoeffLimitExceeded(f"coefficient reached {value.bit_length()} bits (limit {max_bits})")


class SparseRREF:
    """Incremental reduced row echelon basis with unit pivots.

    Rows are sparse dicts col -> coefficient.  An integral coefficient is
    stored as an `int` and only a true fraction as a `Fraction`; no value
    is ever a float.  Every row has 1 in its pivot column (its smallest
    column) and 0 in every other pivot column, so the row space is held in
    its unique canonical reduced form whatever order the rows arrive in.

    `add` reduces an incoming row against the basis and, when something is
    left, scales it to a unit pivot and clears the new pivot column from the
    rows that hold it.  Those rows are found through a column index
    (`column_index`): for every non-pivot column, an append-only list of the
    rows that have held an entry there.  An entry that later cancels leaves
    its row in the list, and readers skip it.  `reduce` is the canonical
    linear projection onto the non-pivot (standard) coordinates.
    `from_arrays` adopts rows that already have this form, such as a cached
    basis, after checking them.  Adopted rows are built on first read: the
    basis keeps the flat lists it was given, `reduce` builds only the rows of
    the pivots it hits, and `add`, `column_index`, `basis_rows` and
    `sparse_rref_kernel` first build every row not yet built, in place, in
    the same `rows` list.  Their column index is likewise built lazily, on
    the first `add` or `sparse_rref_kernel`, so a basis that is only reduced
    against builds neither.  `row` reads one row, building it if need be.

    With a budget `max_bits`, `add` and `from_arrays` raise
    `CoeffLimitExceeded` on a stored coefficient whose numerator or
    denominator has more bits; the budget is this basis's alone.

    `add`, `reduce`, `contains` and `basis_rows` only order and hash their
    columns, so they take any ordered, hashable column keys, such as the
    monomials themselves; `from_arrays` and `sparse_rref_kernel` need `int`
    columns from 0 to ncols - 1.
    """

    __slots__ = ("pivots", "rows", "max_bits", "_cols", "_flat")

    def __init__(self, max_bits: Optional[int] = None):
        self.pivots: dict[int, int] = {}   # pivot col -> row index
        # None for an adopted row not built yet
        self.rows: list[Optional[dict[int, Rational]]] = []
        # non-pivot col -> row indices; None until first use for adopted rows
        self._cols: Optional[dict[int, list[int]]] = {}
        # the adopted (coeffs, cols, vals, ends) while a row is not built
        self._flat: Optional[tuple[Sequence[Rational], list[int], list[int], list[int]]] = None
        # the coefficient-bit budget; None for no budget
        self.max_bits = max_bits

    @classmethod
    def from_arrays(cls, coeffs: Sequence[Rational], cols: array, vals: array, ends: array,
                    ncols: int, max_bits: Optional[int] = None) -> "SparseRREF":
        """Adopt rows that already are a reduced echelon basis, after checking them.

        The rows come flat, as `ideals` stores them: row i holds the entries
        k from ends[i-1] (0 for the first row) up to ends[i], entry k at
        column cols[k] with the coefficient coeffs[vals[k]].  `cols`, `vals`
        and `ends` are arrays of an unsigned integer type, so each entry is
        an int >= 0 by its type.  The checks run over whole lists with
        builtins, and each coefficient is checked once per entry of
        `coeffs`, not once per use.  Every coefficient must be a nonzero int
        or a non-integral Fraction (the form `core.exact` gives) within the
        bit budget; every column below ncols; the arrays of matching lengths
        and every row nonempty; the columns of each row strictly increasing,
        so its first column is its pivot; every pivot the int 1; no two rows
        sharing a pivot; and no row with an entry in another row's pivot
        column.  Those are the invariants `add` keeps, so the result is the
        basis that adding the rows would build, without eliminating
        anything.  A failed check raises `NotReducedError`; a coefficient
        over the bit budget raises `CoeffLimitExceeded`, as `add` would.
        Rows are built on first read and the column index on first use.
        """
        basis = cls(max_bits)
        bits = basis.max_bits
        for k, v in enumerate(coeffs):
            vcls = v.__class__
            if vcls is int:
                if not v:
                    raise NotReducedError("zero entry", f"coefficient {k} is 0")
            elif vcls is not Fraction or v.denominator == 1:
                raise NotReducedError("non-canonical entry", f"coefficient {k} is {v!r}")
            if bits is not None:
                _check_bits(v.numerator, bits)
                _check_bits(v.denominator, bits)
        if not all(a.__class__ is array and a.typecode in _UNSIGNED for a in (cols, vals, ends)):
            raise NotReducedError("malformed", "cols, vals and ends must be arrays of an unsigned type")
        cols, vals, ends = cols.tolist(), vals.tolist(), ends.tolist()
        if cols and max(cols) >= ncols:
            bad = next(c for c in cols if c >= ncols)
            raise NotReducedError("column out of range", f"column {bad!r} (ncols {ncols})")
        total = len(cols)
        if len(vals) != total or (ends[-1] if ends else 0) != total \
                or vals and max(vals) >= len(coeffs):
            raise NotReducedError("malformed", f"{len(ends)} row ends, {total} columns, "
                                               f"{len(vals)} values of {len(coeffs)} coefficients")
        starts = [0, *ends[:-1]] if ends else []
        if not all(map(lt, starts, ends)):
            i = next(i for i, (s, e) in enumerate(zip(starts, ends)) if s >= e)
            if starts[i] == ends[i]:
                raise NotReducedError("zero row", f"row {i} is empty")
            raise NotReducedError("malformed", f"row {i} ends at {ends[i]}, before it starts")
        ascending = list(map(lt, cols, islice(cols, 1, None)))
        for e in ends[:-1]:
            ascending[e - 1] = True   # the last entry of a row and the next row's first
        if not all(ascending):
            k = ascending.index(False)
            i = bisect_right(ends, k)
            if cols[k] == cols[k + 1]:
                raise NotReducedError("repeated column", f"row {i} repeats column {cols[k]}")
            raise NotReducedError("unsorted columns",
                                  f"row {i} has column {cols[k + 1]} after {cols[k]}")
        ones = {k for k, v in enumerate(coeffs) if v.__class__ is int and v == 1}
        if not ones.issuperset(map(vals.__getitem__, starts)):
            i, s = next((i, s) for i, s in enumerate(starts) if vals[s] not in ones)
            raise NotReducedError("non-unit pivot",
                                  f"row {i} has {coeffs[vals[s]]!r} at its pivot {cols[s]}")
        lead = list(map(cols.__getitem__, starts))
        pivots = dict(zip(lead, range(len(lead))))
        if len(pivots) < len(lead):
            i = next(i for i, p in enumerate(lead) if pivots[p] != i)
            raise NotReducedError("repeated pivot",
                                  f"rows {i} and {pivots[lead[i]]} share pivot {lead[i]}")
        # each pivot column holds its own row's pivot, and nothing else
        if sum(map(pivots.__contains__, cols)) > len(pivots):
            heads = set(starts)
            k = next(k for k, c in enumerate(cols) if c in pivots and k not in heads)
            raise NotReducedError("entry in pivot column",
                                  f"row {bisect_right(ends, k)} has an entry in column "
                                  f"{cols[k]}, the pivot of row {pivots[cols[k]]}")
        basis.rows = [None] * len(ends)
        basis.pivots = pivots
        basis._cols = None
        basis._flat = (coeffs, cols, vals, ends)
        return basis

    def row(self, i: int) -> dict[int, Rational]:
        """Row i; an adopted row is built from the flat lists on first read."""
        row = self.rows[i]
        if row is None:
            coeffs, cols, vals, ends = self._flat
            s = ends[i - 1] if i else 0
            e = ends[i]
            row = self.rows[i] = dict(zip(cols[s:e], map(coeffs.__getitem__, vals[s:e])))
        return row

    def _build_rows(self) -> None:
        """Build every adopted row not built yet, in place in `rows`."""
        coeffs, cols, vals, ends = self._flat
        entries = zip(cols, map(coeffs.__getitem__, vals))
        built = [dict(islice(entries, e - s)) for s, e in zip([0, *ends], ends)]
        rows = self.rows
        # a row built on an earlier read stays the same object
        for i in compress(count(), rows):
            built[i] = rows[i]
        rows[:] = built
        self._flat = None

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Mapping[int, Rational]) -> dict[int, Rational]:
        # ints, the common case, skip the call
        out = {c: v if v.__class__ is int else exact(v) for c, v in vec.items() if v}
        pivots = self.pivots
        rows = self.rows
        # A stored row is 0 in every pivot column but its own, so subtracting
        # it clears that column and touches no other pivot column: one pass
        # over the pivot columns of vec leaves none behind.
        hits = [c for c in out if c in pivots]
        hits.sort()
        for p in hits:
            coef = out[p]
            row = rows[pivots[p]]
            if row is None:
                row = self.row(pivots[p])
            for c, v in row.items():
                s = out.get(c, 0) - coef * v
                if s:
                    out[c] = s
                else:
                    del out[c]
        for c, v in out.items():
            if v.__class__ is Fraction and v.denominator == 1:
                out[c] = v.numerator
        return out

    def add(self, vec: Mapping[int, Rational]) -> bool:
        """Insert a row; returns True when the rank grows."""
        if self._flat is not None:
            self._build_rows()
        red = self.reduce(vec)
        if not red:
            return False
        lead = min(red)
        p = red[lead]
        row = red if p == 1 else {c: exact_div(v, p) for c, v in red.items()}
        if self.max_bits is not None:
            for v in row.values():
                _check_bits(v.numerator, self.max_bits)
                _check_bits(v.denominator, self.max_bits)
        idx = len(self.rows)
        rows = self.rows
        cols = self._cols
        if cols is None:
            cols = self.column_index()
        for c in row:
            if c != lead:
                cols.setdefault(c, []).append(idx)
        # clear the new pivot column from the rows that hold it
        for i in cols.pop(lead, ()):
            other = rows[i]
            coef = other.get(lead)
            if coef is None:
                continue   # cancelled since it was indexed
            for c, v in row.items():
                old = other.get(c)
                if old is None:
                    s = -coef * v
                    cols[c].append(i)
                else:
                    s = old - coef * v
                    if not s:
                        del other[c]
                        continue
                if s.__class__ is Fraction and s.denominator == 1:
                    s = s.numerator
                other[c] = s
        rows.append(row)
        self.pivots[lead] = idx
        return True

    def contains(self, vec: Mapping[int, Rational]) -> bool:
        return not self.reduce(vec)

    def column_index(self) -> dict[int, list[int]]:
        """For every non-pivot column, the rows that have held an entry there.

        Built on first use for adopted rows, then kept up to date by `add`.
        """
        cols = self._cols
        if cols is None:
            if self._flat is not None:
                self._build_rows()
            cols = self._cols = {}
            pivots = self.pivots
            for i, row in enumerate(self.rows):
                for c in row:
                    if c not in pivots:
                        cols.setdefault(c, []).append(i)
        return cols

    def pivot_columns(self) -> list[int]:
        return sorted(self.pivots)

    def basis_rows(self) -> list[dict[int, Rational]]:
        """Rows ordered by pivot column."""
        if self._flat is not None:
            self._build_rows()
        return [self.rows[self.pivots[c]] for c in sorted(self.pivots)]


def rref_rank(rows: Iterable[Mapping[int, Rational]]
              ) -> tuple[int, list[dict[int, Rational]], list[int]]:
    """(rank, nonzero reduced rows in pivot order, pivot columns) of sparse rows."""
    basis = SparseRREF()
    for row in rows:
        basis.add(row)
    return basis.rank, basis.basis_rows(), basis.pivot_columns()


def kernel_basis(rows: Iterable[Mapping[int, Rational]], ncols: int,
                 max_bits: Optional[int] = None) -> list[dict[int, Rational]]:
    """Basis of the right null space of sparse rows over ncols columns, one
    sparse vector per free column (see `sparse_rref_kernel`).

    Once the rank reaches ncols the kernel is empty, and no further row is
    read from `rows`.  The elimination keeps the coefficient-bit budget
    max_bits, as `SparseRREF` does.
    """
    basis = SparseRREF(max_bits)
    for row in rows:
        if basis.add(row) and basis.rank == ncols:
            return []
    return sparse_rref_kernel(basis, ncols)


def recombine(kernel: Iterable[Mapping[int, Rational]],
              rows: Sequence[Mapping[int, Rational]]) -> list[dict[int, Rational]]:
    """For each kernel vector lam, the sum of lam[t] * rows[t], in canonical form."""
    out = []
    for lam in kernel:
        combo: dict[int, Rational] = {}
        for t, c in lam.items():
            for col, v in rows[t].items():
                combo[col] = combo.get(col, 0) + c * v
        out.append({col: exact(v) for col, v in combo.items() if v})
    return out


def sparse_rref_kernel(basis: SparseRREF, ncols: int) -> list[dict[int, Rational]]:
    """Kernel vectors of the row space held in a SparseRREF, one per free column.

    The vector of a free column f is 1 at f and minus the f-entry of each
    row at that row's pivot; the rows come from the column index of f.
    """
    pivots = basis.pivots
    rows = basis.rows
    cols = basis.column_index()
    lead = [0] * len(rows)
    for p, i in pivots.items():
        lead[i] = p
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: 1}
        for i in sorted(set(cols.get(free, ()))):
            coeff = rows[i].get(free)
            if coeff:
                vec[lead[i]] = -coeff
        out.append(vec)
    return out

"""Exact rational sparse linear algebra: rref, kernels, span membership.

All arithmetic is exact.  Every library routine eliminates through
`SparseRREF`, an incremental reduced echelon basis with unit pivots;
`IntREF` is a rank and membership accumulator over content-normalized
integer rows.  Pivoting is always first-nonzero in column order, so results
are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Optional, Sequence

Rational = Fraction


class CoeffLimitExceeded(RuntimeError):
    """Raised when entries outgrow the configured coefficient-bit budget."""


_default_max_bits: Optional[int] = None


def set_default_max_bits(bits: Optional[int]) -> Optional[int]:
    """Global coefficient-growth guard applied by new elimination objects.

    Returns the previous guard, so a caller can put it back.
    """
    global _default_max_bits
    previous = _default_max_bits
    _default_max_bits = bits
    return previous


def _check_bits(value: int, max_bits: Optional[int]):
    if max_bits is not None and value.bit_length() > max_bits:
        raise CoeffLimitExceeded(f"coefficient reached {value.bit_length()} bits (limit {max_bits})")


class RatMatrix:
    """Sparse exact-rational matrix; entries stored as (row, col) -> Fraction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int,
                 entries: Mapping[tuple[int, int], Rational] | None = None):
        self.rows = int(rows)
        self.cols = int(cols)
        self.entries: dict[tuple[int, int], Rational] = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < self.rows and 0 <= c < self.cols):
                    raise ValueError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
                v = Fraction(v)
                if v:
                    self.entries[(r, c)] = v

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Rational]], cols: int | None = None) -> "RatMatrix":
        nrows = len(rows)
        ncols = cols if cols is not None else (len(rows[0]) if rows else 0)
        entries = {}
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = Fraction(v)
        return RatMatrix(nrows, ncols, entries)

    def row_dicts(self) -> list[dict[int, Rational]]:
        out: list[dict[int, Rational]] = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzeros)"


class SparseRREF:
    """Incremental reduced row echelon basis with unit pivots.

    Rows are sparse dicts col -> Fraction.  `add` reduces an incoming row
    against the basis and, when nonzero, auto-reduces the basis against it,
    so the row space stays in canonical reduced form.  `reduce` is the
    canonical linear projection onto non-pivot (standard) coordinates.
    """

    __slots__ = ("pivots", "rows", "max_bits")

    def __init__(self, max_bits: Optional[int] = None):
        self.pivots: dict[int, int] = {}   # pivot col -> row index
        self.rows: list[dict[int, Fraction]] = []
        self.max_bits = max_bits if max_bits is not None else _default_max_bits

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Mapping[int, Rational]) -> dict[int, Fraction]:
        out = {c: Fraction(v) for c, v in vec.items() if v}
        pivots = self.pivots
        rows = self.rows
        while True:
            hit = None
            for c in out:
                if c in pivots:
                    if hit is None or c < hit:
                        hit = c
            if hit is None:
                return out
            coef = out.pop(hit)
            row = rows[pivots[hit]]
            for c, v in row.items():
                if c == hit:
                    continue
                s = out.get(c, Fraction(0)) - coef * v
                if s:
                    out[c] = s
                else:
                    out.pop(c, None)

    def add(self, vec: Mapping[int, Rational]) -> bool:
        """Insert a row; returns True when the rank grows."""
        red = self.reduce(vec)
        if not red:
            return False
        lead = min(red)
        p = red[lead]
        row = {c: v / p for c, v in red.items()}
        if self.max_bits is not None:
            for v in row.values():
                _check_bits(v.numerator, self.max_bits)
                _check_bits(v.denominator, self.max_bits)
        idx = len(self.rows)
        # auto-reduce existing rows against the new pivot
        for other in self.rows:
            coef = other.get(lead)
            if coef:
                for c, v in row.items():
                    if c == lead:
                        continue
                    s = other.get(c, Fraction(0)) - coef * v
                    if s:
                        other[c] = s
                    else:
                        other.pop(c, None)
                del other[lead]
        self.rows.append(row)
        self.pivots[lead] = idx
        return True

    def contains(self, vec: Mapping[int, Rational]) -> bool:
        return not self.reduce(vec)

    def pivot_columns(self) -> list[int]:
        return sorted(self.pivots)

    def basis_rows(self) -> list[dict[int, Fraction]]:
        """Rows ordered by pivot column."""
        return [self.rows[self.pivots[c]] for c in sorted(self.pivots)]


class IntREF:
    """Row echelon accumulator over content-normalized integer rows.

    Cheap membership/rank engine: reductions only cancel leading columns,
    rows are rescaled freely, so this does not define a linear projection —
    use SparseRREF when canonical coordinates are needed.
    """

    __slots__ = ("pivots", "rows", "max_bits")

    def __init__(self, max_bits: Optional[int] = None):
        self.pivots: dict[int, int] = {}
        self.rows: list[dict[int, int]] = []
        self.max_bits = max_bits if max_bits is not None else _default_max_bits

    @property
    def rank(self) -> int:
        return len(self.rows)

    @staticmethod
    def _normalize(row: dict[int, int]) -> dict[int, int]:
        g = 0
        for v in row.values():
            g = gcd(g, v)
            if g == 1:
                break
        if g > 1:
            row = {c: v // g for c, v in row.items()}
        if row[min(row)] < 0:
            row = {c: -v for c, v in row.items()}
        return row

    def _to_int_row(self, vec: Mapping[int, Rational]) -> dict[int, int]:
        den = 1
        ints = True
        for v in vec.values():
            if isinstance(v, Fraction):
                den = den * v.denominator // gcd(den, v.denominator)
                ints = False
            elif not isinstance(v, int):
                raise ValueError(f"unsupported entry type {type(v)}")
        if ints:
            return {c: v for c, v in vec.items() if v}
        return {c: int(v * den) for c, v in vec.items() if v}

    def reduce(self, vec: Mapping[int, Rational]) -> dict[int, int]:
        out = self._to_int_row(vec)
        pivots = self.pivots
        rows = self.rows
        max_bits = self.max_bits
        while out:
            lead = min(out)
            idx = pivots.get(lead)
            if idx is None:
                return out
            row = rows[idx]
            a = out[lead]
            b = row[lead]
            g = gcd(a, b)
            ma = b // g
            mb = a // g
            new = {}
            for c, v in out.items():
                new[c] = v * ma
            for c, v in row.items():
                s = new.get(c, 0) - mb * v
                if s:
                    new[c] = s
                else:
                    new.pop(c, None)
            out = new
            if out:
                out = self._normalize(out)
                if max_bits is not None:
                    _check_bits(max(abs(v) for v in out.values()), max_bits)
        return out

    def add(self, vec: Mapping[int, Rational]) -> bool:
        red = self.reduce(vec)
        if not red:
            return False
        self.pivots[min(red)] = len(self.rows)
        self.rows.append(red)
        return True

    def contains(self, vec: Mapping[int, Rational]) -> bool:
        return not self.reduce(vec)

    def pivot_columns(self) -> list[int]:
        return sorted(self.pivots)


def rref_rank(A: RatMatrix, max_bits: Optional[int] = None) -> tuple[int, RatMatrix, list[int]]:
    """Exact reduced row echelon form.

    Returns (rank, reduced matrix, pivot columns).  The reduced matrix has
    unit pivots and zero rows dropped to the bottom.
    """
    basis = SparseRREF(max_bits=max_bits)
    for row in A.row_dicts():
        if row:
            basis.add(row)
    entries = {}
    for r, row in enumerate(basis.basis_rows()):
        for c, v in row.items():
            entries[(r, c)] = v
    return basis.rank, RatMatrix(A.rows, A.cols, entries), basis.pivot_columns()


def kernel_basis(A: RatMatrix, max_bits: Optional[int] = None) -> list[list[Fraction]]:
    """Basis of the right null space; A * v == 0 exactly for every v."""
    rank, R, piv = rref_rank(A, max_bits=max_bits)
    piv_set = set(piv)
    rref_rows = R.row_dicts()[:rank]
    by_pivot = {}
    for row in rref_rows:
        if row:
            by_pivot[min(row)] = row
    out = []
    for free in range(A.cols):
        if free in piv_set:
            continue
        v = [Fraction(0)] * A.cols
        v[free] = Fraction(1)
        for pcol in piv:
            coeff = by_pivot[pcol].get(free, Fraction(0))
            if coeff:
                v[pcol] = -coeff
        out.append(v)
    return out


def sparse_rref_kernel(basis: SparseRREF, ncols: int) -> list[dict[int, Fraction]]:
    """Kernel vectors of the row space held in a SparseRREF, one per free column."""
    piv = set(basis.pivots)
    by_pivot = {min(row): row for row in basis.rows if row}
    out = []
    for free in range(ncols):
        if free in piv:
            continue
        vec = {free: Fraction(1)}
        for pcol, row in by_pivot.items():
            coeff = row.get(free)
            if coeff:
                vec[pcol] = -coeff
        out.append(vec)
    return out


def matvec(A: RatMatrix, v: Sequence[Rational]) -> list[Fraction]:
    if len(v) != A.cols:
        raise ValueError(f"vector length {len(v)} != cols {A.cols}")
    out = [Fraction(0)] * A.rows
    for (r, c), val in A.entries.items():
        if v[c]:
            out[r] += val * v[c]
    return out


def in_span(v: Sequence[Rational], basis: Sequence[Sequence[Rational]]) -> Optional[list[Fraction]]:
    """Exact solve of sum(c_i * basis_i) == v; returns coordinates or None."""
    if not basis:
        return [] if not any(v) else None
    ncols = len(v)
    for b in basis:
        if len(b) != ncols:
            raise ValueError(f"dimension mismatch: {len(b)} vs {ncols}")
    nb = len(basis)
    # augment with identity to track coordinates
    acc = SparseRREF()
    width = ncols + nb
    for i, b in enumerate(basis):
        row = {c: Fraction(x) for c, x in enumerate(b) if x}
        row[ncols + i] = Fraction(1)
        acc.add(row)
    target = {c: Fraction(x) for c, x in enumerate(v) if x}
    red = acc.reduce(target)
    if any(c < ncols for c in red):
        return None
    coeffs = [Fraction(0)] * nb
    for c, val in red.items():
        coeffs[c - ncols] = -val
    return coeffs

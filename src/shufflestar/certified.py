"""Certified kernels of large integer matrices.

Dense exact elimination over the rationals is hopeless at a few hundred
columns (entries grow like minors), so kernels of evaluation-style
matrices are found modulo word-sized primes and lifted: residues are
combined by CRT, candidate rational vectors recovered by balanced rational
reconstruction, and every candidate is then verified exactly over the
integers.  A mod-p rank can only undershoot the true rank, so the mod-p
kernel dimension bounds the true one from above; exhibiting that many
exactly-verified independent kernel vectors therefore certifies the
answer.  Nothing probabilistic survives into the result: a failed
verification escalates to more primes and finally raises.  Kernel vectors
are sparse rows {column: coefficient}, each coefficient an int when it is
integral, as everywhere in the library.

The mod-p elimination runs on packed rows: each row is one Python int
whose fixed-width slots hold its entries, column 0 in the most significant
slot.  Column c is cleared from another row with top residue b by one
big-int multiply-add, row + (p - b) * pivot_row, on the normalised pivot
row; every slot stays non-negative, so no slot ever borrows, and slots are
not reduced mod p between steps.  A slot therefore holds its residue plus
at most one product (p - 1)**2 for each column to its left, and the slot
width, a whole number of 64-bit words, is the least that holds
p + n * (p - 1)**2 for n columns: one word for every prime of `PRIMES`
up to 16,384 columns.  Eliminated columns are masked off, so rows shrink as the
elimination proceeds.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd, isqrt
from typing import Mapping, Optional, Sequence

from .core import Rational, to_numerators

# primes just below 2**25: a packed row's slot is one 64-bit word up to
# 16,384 columns (see `_slot_words`)
PRIMES = (33554393, 33554383, 33554371, 33554347, 33554341,
          33554317, 33554291, 33554273, 33554267, 33554249)


class KernelCertificationError(RuntimeError):
    """Raised when no prime set yields an exactly verified kernel."""


def _slot_words(p: int, n: int) -> int:
    """64-bit words per slot of a packed n-column row mod p: the fewest that
    hold p + n * (p - 1)**2, a bound on what any slot accumulates."""
    return -(-(p + n * (p - 1) ** 2).bit_length() // 64)


def _pack(values: Sequence[int], words: int) -> int:
    """Residues below 2**64 in slots of `words` words, the first one most significant."""
    a = array("Q", bytes(8 * words * len(values)))
    a[words - 1::words] = array("Q", values)
    if sys.byteorder == "little":
        a.byteswap()
    return int.from_bytes(a, "big")


def _unpack(row: int, slots: int, words: int) -> Sequence[int]:
    """The `slots` slot values of a packed row, the most significant first."""
    a = array("Q", row.to_bytes(8 * words * slots, "big"))
    if sys.byteorder == "little":
        a.byteswap()
    values = a[::words]
    for k in range(1, words):
        values = [v << 64 | x for v, x in zip(values, a[k::words])]
    return values


def _cleared(rows: list[int], shift: int, p: int, tail: int) -> list[int]:
    """Each packed row with its top slot, at `shift`, masked off, less its
    top residue b times the pivot row's `tail`, added as (p - b) * tail."""
    low = (1 << shift) - 1
    out = []
    for row in rows:
        top = row >> shift
        if top:
            row &= low
            b = top % p
            if b and tail:
                row += (p - b) * tail
        out.append(row)
    return out


def modp_kernel(rows: Sequence[Sequence[int]],
                p: int) -> tuple[list[list[int]], list[int], list[int]]:
    """Kernel basis of integer rows mod p: returns (K, pivots, free columns).

    The kernel vector for free column j has 1 at j, 0 at the other free
    columns and -R[k, j] at pivot k, which is 0 for every pivot right of j;
    K holds, per free column, the list of -R[k, j] mod p over the pivots k
    left of j.  Gauss-Jordan elimination, one column at a time, reads them
    off the reduced pivot rows when it passes column j: they are final
    then, since every later pivot row is 0 at every column up to its pivot.
    """
    n = len(rows[0]) if rows else 0
    words = _slot_words(p, n)
    live = [row for row in (_pack([x % p for x in r], words) for r in rows) if row]
    reduced: list[int] = []
    K: list[list[int]] = []
    pivots: list[int] = []
    free: list[int] = []
    for c in range(n):
        shift = 64 * words * (n - 1 - c)
        i = next((k for k, row in enumerate(live) if (row >> shift) % p), None)
        if i is None:
            free.append(c)
            K.append([-(row >> shift) % p for row in reduced])
            tail = 0
        else:
            pivots.append(c)
            row = live.pop(i)
            inv = pow((row >> shift) % p, -1, p)
            entries = _unpack(row & ((1 << shift) - 1), n - 1 - c, words)
            tail = _pack([v * inv % p for v in entries], words)
            reduced.append(tail)  # 0 at column c, so `_cleared` keeps it as it is
        live = [row for row in _cleared(live, shift, p, tail) if row]
        reduced = _cleared(reduced, shift, p, tail)
    return K, pivots, free


def modp_rref(rows: Sequence[Sequence[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of integer rows mod p, read off `modp_kernel`;
    returns (R, pivots), each row of R a list of residues."""
    K, pivots, free = modp_kernel(rows, p)
    R = [[0] * len(rows[0]) for _ in pivots]
    for r, c in zip(R, pivots):
        r[c] = 1
    for j, entries in zip(free, K):
        for r, v in zip(R, entries):
            r[j] = -v % p
    return R, pivots


def rational_reconstruct(r: int, m: int) -> Optional[Fraction]:
    """Balanced rational reconstruction of r mod m (Wang's bounds)."""
    r %= m
    bound = isqrt(m // 2)
    s0, s1 = m, r
    t0, t1 = 0, 1
    while s1 > bound:
        q = s0 // s1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    num, den = s1, t1
    if den < 0:
        num, den = -num, -den
    if gcd(abs(num), den) != 1:
        return None
    return Fraction(num, den)


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    inv = pow(m1 % m2, -1, m2)
    t = ((r2 - r1) * inv) % m2
    return r1 + m1 * t, m1 * m2


def _lift(group, idx: int, free: int, pivots: Sequence[int]) -> Optional[dict[int, Rational]]:
    """The idx-th kernel vector, whose free column is `free`, lifted from its
    residues by CRT and rational reconstruction; None when one fails.  Only
    the pivots left of `free` are read: the vector is 0 at the others."""
    vec: dict[int, Rational] = {free: 1}
    for col, residues in zip(pivots, zip(*(K[idx] for _, _, K, _ in group))):
        residue, modulus = 0, 1
        for (p, _, _, _), x in zip(group, residues):
            residue, modulus = _crt_pair(residue, modulus, x, p)
        f = rational_reconstruct(residue, modulus)
        if f is None:
            return None
        if f:
            vec[col] = f.numerator if f.denominator == 1 else f
    return vec


def verify_kernel_vector(rows: Sequence[Sequence[int]], vec: Mapping[int, Rational]) -> bool:
    """Exact check that every integer row is orthogonal to the sparse rational vector."""
    nums, _ = to_numerators(vec)
    return not any(sum(row[j] * v for j, v in nums.items()) for row in rows)


def certified_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[dict[int, Rational]]:
    """Exact kernel basis of an integer matrix, certified by verification.

    Returns the canonical reduced-echelon kernel basis as sparse rows, one
    per free column of the row space, in column order: 1 at the free column
    and the lifted entries at the pivot columns, each an int when integral.
    The first prime that leaves no free column ends the call with an empty
    basis, since a mod-p rank cannot exceed the true rank.
    """
    if not rows:
        return [{j: 1} for j in range(ncols)]
    nprimes = 2
    while nprimes <= len(PRIMES):
        primes = PRIMES[:nprimes]
        per_prime = []
        for p in primes:
            K, pivots, free = modp_kernel(rows, p)
            if not free:
                return []  # full column rank mod p forces full rank exactly
            per_prime.append((p, tuple(pivots), K, free))
        # primes must agree on the pivot structure; keep the maximal-rank shape
        best = max(per_prime, key=lambda t: len(t[1]))
        group = [t for t in per_prime if t[1] == best[1]]
        _, pivots, _, free = best
        result = [_lift(group, idx, j, pivots) for idx, j in enumerate(free)]
        if None not in result and all(verify_kernel_vector(rows, v) for v in result):
            return result
        nprimes += 2
    raise KernelCertificationError(
        f"kernel not certified with up to {len(PRIMES)} primes")

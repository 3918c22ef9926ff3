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
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import Rational, to_numerators

# primes just below 2**25: products of two residues fit comfortably in int64
PRIMES = (33554393, 33554383, 33554371, 33554347, 33554341,
          33554317, 33554291, 33554273, 33554267, 33554249)


class KernelCertificationError(RuntimeError):
    """Raised when no prime set yields an exactly verified kernel."""


def modp_rref(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of an int64 matrix mod p; returns (R, pivots)."""
    A = np.mod(A, p).astype(np.int64, copy=True)
    m, n = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        inv = pow(int(A[r, c]), -1, p)
        A[r] = (A[r] * inv) % p
        f = A[:, c].copy()
        f[r] = 0
        if np.any(f):
            A -= np.outer(f, A[r])
            A %= p
        pivots.append(c)
        r += 1
    return A[:r], pivots


def modp_kernel(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int], list[int]]:
    """Kernel basis mod p: returns (K columns stacked as rows, pivots, free cols).

    Kernel vector for free column j has 1 at j and -R[k, j] at pivot k.
    """
    R, pivots = modp_rref(A, p)
    n = A.shape[1]
    piv_set = set(pivots)
    free = [c for c in range(n) if c not in piv_set]
    K = np.zeros((len(free), n), dtype=np.int64)
    for idx, j in enumerate(free):
        K[idx, j] = 1
        for k, c in enumerate(pivots):
            v = int(R[k, j])
            if v:
                K[idx, c] = (-v) % p
    return K, pivots, free


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
    residues by CRT and rational reconstruction; None when one fails."""
    vec: dict[int, Rational] = {free: 1}
    for col in pivots:
        residue, modulus = 0, 1
        for (p, _, K, _) in group:
            residue, modulus = _crt_pair(residue, modulus, int(K[idx, col]), p)
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
            A = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
            K, pivots, free = modp_kernel(A, p)
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

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
verification escalates to more primes and finally raises.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Sequence

import numpy as np

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


def verify_kernel_vector(rows: Sequence[Sequence[int]], vec: Sequence[Fraction]) -> bool:
    """Exact check that every integer row is orthogonal to the rational vector."""
    den = 1
    for v in vec:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in vec]
    support = [j for j, v in enumerate(ints) if v]
    for row in rows:
        s = 0
        for j in support:
            s += row[j] * ints[j]
        if s:
            return False
    return True


def certified_kernel(rows: Sequence[Sequence[int]], ncols: int,
                     start_primes: int = 2) -> list[list[Fraction]]:
    """Exact kernel basis of an integer matrix, certified by verification.

    Returns the canonical reduced-echelon kernel basis (one vector per free
    column of the row space).
    """
    if not rows:
        return [[Fraction(1 if i == j else 0) for i in range(ncols)] for j in range(ncols)]
    nprimes = start_primes
    while nprimes <= len(PRIMES):
        primes = PRIMES[:nprimes]
        per_prime = []
        for p in primes:
            A = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
            K, pivots, free = modp_kernel(A, p)
            per_prime.append((p, tuple(pivots), K, free))
        # primes must agree on the pivot structure; keep the maximal-rank shape
        best = max(per_prime, key=lambda t: len(t[1]))
        group = [t for t in per_prime if t[1] == best[1]]
        _, pivots, _, free = best
        if not free:
            return []  # full column rank mod p forces full rank exactly
        ok = True
        result: list[list[Fraction]] = []
        for idx in range(len(free)):
            vec: list[Fraction] = []
            for col in range(ncols):
                residue, modulus = 0, 1
                for (p, _, K, _) in group:
                    residue, modulus = _crt_pair(residue, modulus, int(K[idx, col]), p)
                f = rational_reconstruct(residue, modulus)
                if f is None:
                    ok = False
                    break
                vec.append(f)
            if not ok:
                break
            result.append(vec)
        if ok and all(verify_kernel_vector(rows, v) for v in result):
            return result
        nprimes += 2
    raise KernelCertificationError(
        f"kernel not certified with up to {len(PRIMES)} primes")

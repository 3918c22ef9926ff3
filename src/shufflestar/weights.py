"""Torus weights of symmetric monomials and the signed action of S_N on them.

The weight of a monomial over the alphabet [1..N] is its content vector:
how often each index occurs across its factors.  The diagonal torus of GL_N
scales a monomial by the character of its weight, so a torus-stable
subspace is graded: the direct sum of its weight blocks.

A permutation sigma of [1..N] acts through its permutation matrix: every
index i becomes sigma(i), each factor is sorted back into increasing order
at the sign of that sort (basis vectors anticommute in a wedge), and the
factors are sorted into the canonical multiset order.  This maps the block
of weight w onto the block of the rearranged weight, so a graded subspace
that is also S_N-stable is fixed by its blocks at the dominant weights,
those whose content vector is weakly decreasing, one per S_N orbit.

Permutations are kept in one-line form: sigma[j] is the image of j + 1.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from .core import FactorTuple, SymElement

__all__ = ["weight", "is_dominant", "weight_blocks", "act_on_key", "act",
           "adjacent_transpositions", "orbit_permutations"]

Weight = tuple[int, ...]
Permutation = tuple[int, ...]


def weight(key: FactorTuple, N: int) -> Weight:
    """Content vector of a monomial: entry i - 1 counts the index i."""
    counts = [0] * N
    for fac in key:
        for i in fac:
            counts[i - 1] += 1
    return tuple(counts)


def is_dominant(w: Weight) -> bool:
    return all(a >= b for a, b in zip(w, w[1:]))


def weight_blocks(monos: Sequence[FactorTuple], N: int) -> dict[Weight, list[int]]:
    """Column indices of monos grouped by weight, each group in column order."""
    blocks: dict[Weight, list[int]] = {}
    for c, key in enumerate(monos):
        blocks.setdefault(weight(key, N), []).append(c)
    return blocks


def act_on_key(sigma: Permutation, key: FactorTuple) -> tuple[int, FactorTuple]:
    """(sign, monomial) with sigma . key = sign * monomial."""
    sign = 1
    out = []
    for fac in key:
        mapped = [sigma[i - 1] for i in fac]
        for a in range(len(mapped)):
            x = mapped[a]
            for y in mapped[a + 1:]:
                if x > y:
                    sign = -sign
        mapped.sort()
        out.append(tuple(mapped))
    out.sort()
    return sign, tuple(out)


def act(sigma: Permutation, f: SymElement) -> SymElement:
    """sigma . f; sigma permutes the monomials, so no two terms collide."""
    terms = {}
    for key, c in f.terms.items():
        sign, image = act_on_key(sigma, key)
        terms[image] = c if sign > 0 else -c
    return SymElement(f.d, f.n, f.M, terms, _validated=True)


def adjacent_transpositions(N: int) -> list[Permutation]:
    """The N - 1 swaps (j j+1), which generate S_N."""
    out = []
    for j in range(N - 1):
        sigma = list(range(1, N + 1))
        sigma[j], sigma[j + 1] = sigma[j + 1], sigma[j]
        out.append(tuple(sigma))
    return out


def orbit_permutations(w: Weight) -> Iterator[Permutation]:
    """One permutation per distinct rearrangement u of w, mapping block w to u.

    The indices sharing a count keep their relative order, so each distinct
    rearrangement is reached exactly once; for a dominant w the identity
    comes first.
    """
    N = len(w)
    groups = [[j for j in range(N) if w[j] == v] for v in sorted(set(w), reverse=True)]
    sigma = [0] * N

    def place(g: int, free: list[int]) -> Iterator[Permutation]:
        if g == len(groups):
            yield tuple(sigma)
            return
        src = groups[g]
        for slots in combinations(free, len(src)):
            for j, s in zip(src, slots):
                sigma[j] = s + 1
            taken = set(slots)
            yield from place(g + 1, [s for s in free if s not in taken])

    return place(0, list(range(N)))

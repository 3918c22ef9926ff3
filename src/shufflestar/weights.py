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
those whose content vector is weakly decreasing, one per S_N orbit.  The
dominant weights of (d, n) are the partitions of d*n into at most N parts,
each part at most n (an index occurs at most once per factor), and
`monomials_of_weight` enumerates one block without weighing the others.

Permutations are kept in one-line form: sigma[j] is the image of j + 1.
A `FactorTable` holds the signed image of each factor under one
permutation, so acting on a block of elements sorts each distinct factor
once; `act` and `act_on_key` take the table of the permutation,
`orbit_fill` carries the elements of a dominant block to its whole orbit,
and `from_dominant` names the one permutation that carries them to a given
block of it.
A subspace is S_N-stable once each of `sn_generators(N)`, the transposition
(1 2) and the N-cycle (1 2 ... N), maps it into itself: the permutations
that do are closed under composition, so they form a subgroup, and these
two generate S_N.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Iterator, Sequence

from .core import FactorTuple, SymElement

__all__ = ["weight", "is_dominant", "dominant_weights", "monomials_of_weight",
           "FactorTable", "act_on_key", "act", "sn_generators",
           "orbit_permutations", "from_dominant", "orbit_fill"]

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


def dominant_weights(d: int, n: int, N: int) -> list[Weight]:
    """The dominant weights of the (d, n) monomials over [1..N].

    These are the partitions of d*n into at most N parts, each at most n,
    padded with zeros to length N, in decreasing lexicographic order.
    Each is the weight of some monomial: n factors of size d with these
    counts exist by the Gale-Ryser theorem, since no count exceeds n.
    """
    out: list[Weight] = []
    parts: list[int] = []

    def place(left: int, cap: int) -> None:
        if not left:
            out.append(tuple(parts) + (0,) * (N - len(parts)))
            return
        if len(parts) == N:
            return
        for p in range(min(cap, left), 0, -1):
            parts.append(p)
            place(left - p, p)
            parts.pop()

    place(d * n, n)
    return out


def monomials_of_weight(w: Weight, d: int, n: int) -> tuple[FactorTuple, ...]:
    """The (d, n) monomials of weight w, in descending order.

    Factors are chosen in increasing order from the indices still to be
    used; an index still needed by every remaining factor must be in this
    one.  Each step uses d of the counts, so when they sum to d * n the
    last step leaves none.
    """
    counts = list(w)
    out: list[FactorTuple] = []
    key: list[tuple[int, ...]] = []

    def place(left: int) -> None:
        if not left:
            out.append(tuple(key))
            return
        avail = [i + 1 for i, c in enumerate(counts) if c]
        forced = [i + 1 for i, c in enumerate(counts) if c == left]
        for fac in combinations(avail, d):
            if key and fac < key[-1]:
                continue
            if any(i not in fac for i in forced):
                continue
            for i in fac:
                counts[i - 1] -= 1
            key.append(fac)
            place(left - 1)
            key.pop()
            for i in fac:
                counts[i - 1] += 1

    place(n)
    out.sort(reverse=True)
    return tuple(out)


class FactorTable(dict):
    """The signed action of one permutation on factors, filled on first use.

    Maps a factor to (sign, sorted image): the sign is the parity of the
    sort.  It holds at most one entry per factor of the alphabet, so build
    one per permutation and block of elements, and let it go with them.
    """

    __slots__ = ("sigma",)

    def __init__(self, sigma: Permutation):
        super().__init__()
        self.sigma = sigma

    def __missing__(self, fac: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        sigma = self.sigma
        mapped = [sigma[i - 1] for i in fac]
        sign = 1
        for a in range(len(mapped)):
            x = mapped[a]
            for y in mapped[a + 1:]:
                if x > y:
                    sign = -sign
        mapped.sort()
        entry = self[fac] = (sign, tuple(mapped))
        return entry


def act_on_key(table: FactorTable, key: FactorTuple) -> tuple[int, FactorTuple]:
    """(sign, monomial) with sigma . key = sign * monomial, for the
    permutation sigma of `table`."""
    sign = 1
    out = []
    for fac in key:
        s, image = table[fac]
        sign *= s
        out.append(image)
    out.sort()
    return sign, tuple(out)


def act(table: FactorTable, f: SymElement) -> SymElement:
    """sigma . f for the permutation sigma of `table`; sigma permutes the
    monomials, so no two terms collide.  One table serves every element
    that sigma acts on."""
    terms = {}
    for key, c in f.terms.items():
        sign, image = act_on_key(table, key)
        terms[image] = c if sign > 0 else -c
    return SymElement(f.d, f.n, f.M, terms, _validated=True)


def sn_generators(N: int) -> list[Permutation]:
    """The transposition (1 2) and the N-cycle (1 2 ... N), which generate
    S_N: the swap alone for N = 2, none for N <= 1."""
    if N < 2:
        return []
    swap = (2, 1) + tuple(range(3, N + 1))
    cycle = tuple(range(2, N + 1)) + (1,)
    return [swap] if N == 2 else [swap, cycle]


@cache
def orbit_permutations(w: Weight) -> tuple[Permutation, ...]:
    """One permutation per distinct rearrangement u of w, mapping block w to u.

    The indices sharing a count keep their relative order, so each distinct
    rearrangement is reached exactly once; for a dominant w the identity
    comes first.  Built once per weight in a process.
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

    return tuple(place(0, list(range(N))))


def from_dominant(u: Weight) -> Permutation:
    """The permutation of `orbit_permutations` that maps the block at the
    dominant rearrangement of u onto the block u.

    The dominant rearrangement lists u's positions by decreasing count,
    positions that share a count in increasing order; its j-th index is
    sent to the j-th of those positions.
    """
    return tuple(p + 1 for p in sorted(range(len(u)), key=lambda p: -u[p]))


def orbit_fill(w: Weight, elems: Sequence[SymElement]) -> Iterator[SymElement]:
    """The elements, then sigma . elements for each sigma in
    `orbit_permutations(w)[1:]`: from a block at the dominant weight w of a
    graded, S_N-stable subspace, every block of w's orbit.  An empty block
    yields nothing and builds no table."""
    if not elems:
        return
    yield from elems
    for sigma in orbit_permutations(w)[1:]:
        table = FactorTable(sigma)
        for e in elems:
            yield act(table, e)

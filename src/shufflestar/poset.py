"""The reading-list divisibility order, the monomial order, and tree encoding.

A monomial S of bidegree (d, n) divides T of bidegree (e, m) when T lies in
the two-sided product ideal generated by S.  Unwinding one round of
products, that happens exactly when there are slot positions
k_1 < ... < k_n and a single increasing injection g: [M*d] -> [M*e] with

    T^{k_i}  intersect  image(g)  =  g(S^i)   for every i.

Containment g(S^i) <= T^{k_i} alone is NOT enough: letters outside S^i must
also stay clear of T^{k_i}, because the star product fills the remaining
slots from the complement of g.  The weaker containment-only relation is
kept as `rl_leq_inclusion`; the two genuinely differ (e.g. S = ((1,)),
T = ((3,4)) over M = 2 satisfies the containment form only), and the
divisibility tests pin `rl_leq` to actual ideal membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from itertools import combinations

from .core import Element, IncFn, SymElement, TensorMonomial

__all__ = [
    "RLWitness", "LabeledTree", "rl_leq", "rl_leq_inclusion", "rl_search", "value_slots",
    "monomial_cmp", "leading_term", "encode_tree", "decode_tree", "tree_leq",
    "minimal_elements", "LT", "EQ", "GT",
]

LT, EQ, GT = -1, 0, 1


@dataclass(frozen=True)
class RLWitness:
    """A divisibility certificate: slot positions and the relabeling injection."""

    positions: tuple[int, ...]   # 1-based slots of the larger monomial
    g: IncFn

    def check(self, S: TensorMonomial, T: TensorMonomial, exact: bool = True) -> bool:
        """Verify this witness against the pair it claims to relate."""
        if len(self.positions) != S.n or self.g.domain != S.alphabet \
                or self.g.codomain != T.alphabet:
            return False
        if any(not 1 <= k <= T.n for k in self.positions):
            return False
        img = set(self.g.image)
        for i, k in enumerate(self.positions):
            target = set(T.factors[k - 1])
            mapped = {self.g(x) for x in S.factors[i]}
            if exact:
                if target & img != mapped:
                    return False
            elif not mapped <= target:
                return False
        return True


def _greedy_assign(value_slots: Sequence[int], chosen: int, letter_slots: Sequence[int],
                   exact: bool) -> Optional[tuple[int, ...]]:
    """Least increasing assignment with per-letter membership constraints.

    Slot sets are bitmasks over the slots of the larger monomial:
    value_slots[v-1] holds the slots whose factor contains v, chosen the
    slots matched to the smaller monomial, and letter_slots[l] the chosen
    slots whose matched factor contains letter l+1.  A value v is allowed
    for that letter when v lies in every slot of letter_slots[l] and (in
    exact mode) in no other chosen slot.  Greedy minimal choice is complete
    here: any valid assignment dominates the greedy one pointwise.
    """
    out = []
    v = 0
    codomain = len(value_slots)
    for sig in letter_slots:
        while True:
            if v == codomain:
                return None
            slots = value_slots[v]
            v += 1
            if (slots & chosen if exact else slots & sig) == sig:
                break
        out.append(v)
    return tuple(out)


def value_slots(T: TensorMonomial) -> list[int]:
    """Per value v of T's alphabet, the bitmask of the slots of T whose
    factor contains v; one list serves every search against T."""
    slots = [0] * T.alphabet
    for k, factor in enumerate(T.factors):
        for v in factor:
            slots[v - 1] |= 1 << k
    return slots


def rl_search(S: TensorMonomial, T: TensorMonomial, exact: bool,
               slots: Sequence[int]) -> Optional[RLWitness]:
    """The first witness that S divides T (exact) or that its factors map
    into T's (not exact), or None.  `slots` is `value_slots(T)`, built once
    per T by callers that search one T for many S."""
    if S.M != T.M:
        raise ValueError(f"multiplier mismatch: {S.M} vs {T.M}")
    if S.d > T.d or S.n > T.n:
        return None
    dom, cod = S.alphabet, T.alphabet
    for pos in combinations(range(T.n), S.n):
        chosen = 0
        letter_slots = [0] * dom
        for factor, k in zip(S.factors, pos):
            bit = 1 << k
            chosen |= bit
            for l in factor:
                letter_slots[l - 1] |= bit
        image = _greedy_assign(slots, chosen, letter_slots, exact)
        if image is not None:
            return RLWitness(tuple(k + 1 for k in pos), IncFn(dom, cod, image))
    return None


def rl_leq(S: TensorMonomial, T: TensorMonomial) -> Optional[RLWitness]:
    """Divisibility of reading lists; a witness iff T is a product multiple of S."""
    return rl_search(S, T, True, value_slots(T))


def rl_leq_inclusion(S: TensorMonomial, T: TensorMonomial) -> Optional[RLWitness]:
    """The containment-only variant: g(S^i) inside T^{k_i}, nothing more."""
    return rl_search(S, T, False, value_slots(T))


def monomial_cmp(a: TensorMonomial, b: TensorMonomial) -> int:
    """Slotwise lexicographic order; returns LT, EQ or GT."""
    if (a.d, a.n, a.M) != (b.d, b.n, b.M):
        raise ValueError(f"bidegree mismatch: {(a.d,a.n,a.M)} vs {(b.d,b.n,b.M)}")
    if a.factors < b.factors:
        return LT
    if a.factors > b.factors:
        return GT
    return EQ


def leading_term(f: Element | SymElement):
    """The order-maximal monomial of f with its coefficient."""
    if f.is_zero():
        raise ValueError("leading term of the zero element")
    key = max(f.terms)
    return f.terms[key], TensorMonomial(f.d, f.n, f.M, key)


@dataclass(frozen=True)
class LabeledTree:
    """Path-branch tree encoding of a reading list.

    Branch j has one vertex per alphabet letter k, labeled
    (k, j, membership vector of k), the membership vector carrying j at
    position j when letter k occurs in factor j and 0 otherwise.
    """

    d: int
    M: int
    n: int
    root: tuple
    branches: tuple[tuple[tuple, ...], ...]


def _psi(k: int, S: TensorMonomial) -> tuple[int, ...]:
    return tuple((j + 1) if k in S.factors[j] else 0 for j in range(S.n))


def encode_tree(S: TensorMonomial) -> LabeledTree:
    root = (0, 0, (S.n + 1,) * S.n)
    psis = {k: _psi(k, S) for k in range(1, S.alphabet + 1)}
    branches = tuple(
        tuple((k, j, psis[k]) for k in range(1, S.alphabet + 1))
        for j in range(1, S.n + 1))
    return LabeledTree(S.d, S.M, S.n, root, branches)


def decode_tree(T: LabeledTree) -> TensorMonomial:
    factors = []
    for j in range(T.n):
        fac = []
        source = T.branches[0] if T.branches else ()
        for (k, _, psi) in source:
            if psi[j] == j + 1:
                fac.append(k)
        factors.append(tuple(fac))
    return TensorMonomial(T.d, T.n, T.M, tuple(factors))


def tree_leq(T1: LabeledTree, T2: LabeledTree) -> bool:
    """Branchwise subsequence embedding; labels need k <= k' and equal vectors."""
    if T1.n != T2.n:
        return False
    for j in range(T1.n):
        b1, b2 = T1.branches[j], T2.branches[j]
        pos = 0
        for (k, _, psi) in b1:
            while pos < len(b2) and not (b2[pos][0] >= k and b2[pos][2] == psi):
                pos += 1
            if pos >= len(b2):
                return False
            pos += 1
    return True


def minimal_elements(monomials: Iterable[TensorMonomial]) -> list[TensorMonomial]:
    """The divisibility-minimal members; every input is a multiple of one."""
    unique = sorted(set(monomials), key=lambda m: (m.d, m.n, m.factors))
    out = []
    for cand in unique:
        dominated = False
        for other in unique:
            if other is cand or (other.d, other.n, other.factors) == (cand.d, cand.n, cand.factors):
                continue
            if rl_leq(other, cand) is not None:
                dominated = True
                break
        if not dominated:
            out.append(cand)
    return out

"""The shuffle and star products on tensor elements and their symmetric forms.

A split interleaves the tensor slots of two elements; the star product
wedges corresponding slots after relabeling the left factors by an
increasing injection g and the right factors by its complement.  On the
symmetric side the shuffle becomes multiset concatenation and the star
product averages over slot matchings (1/n! times the sum over the
symmetric group), which is the monomial form of conjugating by the
symmetrization isomorphism.

Coefficients are summed as integer numerators (see `core`).  The tensor
star product merges each pair of wedge factors once per call: a table
keyed by the (f-factor, h-factor) pair holds the signed merge, and every
pair of terms that meets the same two factors in one slot reads it.  The
table lives only for the call.

No product of monomials cancels, so no loop here or in a caller checks for
a zero wedge or product.  g and its complement relabel the two sides into
disjoint letters, so every slot wedge has the sign +1 or -1 (in `sym_star`
the letters also split a merged factor back into its two sides, so the
matchings that reach one key share a sign).  A map that sends distinct
monomials to distinct monomials, or to disjoint supports, cannot merge two
terms.  An invariant element has one coefficient per slot orbit, so each
of its sorted splits sums copies of one sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations
from math import factorial

from .core import (
    Element,
    FactorTuple,
    IncFn,
    SymElement,
    from_numerators,
    int_tuple,
    is_sym_invariant,
    merge_signed,
    relabel_factor,
    to_numerators,
)

__all__ = [
    "IncFn", "Split", "shuffle_product", "star_product",
    "sym_star", "sym_shuffle", "invariant_shuffle", "all_splits",
    "all_incfns", "star_incfns",
]


@dataclass(frozen=True)
class Split:
    """A decomposition of [1..total] into left positions and their complement."""

    total: int
    left: tuple[int, ...]

    def __post_init__(self):
        if self.total.__class__ is not int:
            raise ValueError(f"{self.total!r} is not an integer")
        lf = int_tuple(self.left)
        if lf is not self.left:
            object.__setattr__(self, "left", lf)
        for a, b in zip(lf, lf[1:]):
            if a >= b:
                raise ValueError(f"left positions {lf} not strictly increasing")
        if lf and (lf[0] < 1 or lf[-1] > self.total):
            raise ValueError(f"left positions {lf} leave [1..{self.total}]")

    @property
    def right(self) -> tuple[int, ...]:
        inside = set(self.left)
        return tuple(i for i in range(1, self.total + 1) if i not in inside)


def all_splits(n: int, m: int):
    """All splits of [1..n+m] with n left positions."""
    for left in combinations(range(1, n + m + 1), n):
        yield Split(n + m, left)


def all_incfns(domain: int, codomain: int):
    """All increasing injections [1..domain] -> [1..codomain]."""
    for image in combinations(range(1, codomain + 1), domain):
        yield IncFn(domain, codomain, image)


def star_incfns(d: int, e: int, M: int):
    """The injections [M*d] -> [M*(d+e)] admissible for a star product."""
    return all_incfns(M * d, M * (d + e))


def _check_shuffle_shapes(f, h) -> None:
    if f.d != h.d or f.M != h.M:
        raise ValueError(f"shape mismatch: {f.bidegree} vs {h.bidegree}")


def _shuffle_into(out: dict, fnums, hnums, split: Split) -> None:
    """Add the shuffle of two numerator maps along one split into out."""
    left = [i - 1 for i in split.left]
    right = [i - 1 for i in split.right]
    slots: list = [None] * split.total
    for kf, cf in fnums.items():
        for k, pos in enumerate(left):
            slots[pos] = kf[k]
        for kh, ch in hnums.items():
            for k, pos in enumerate(right):
                slots[pos] = kh[k]
            key = tuple(slots)
            out[key] = out.get(key, 0) + cf * ch


def shuffle_product(f: Element, h: Element, split: Split) -> Element:
    """Interleave tensor slots: f's slots go to the left positions of the split."""
    _check_shuffle_shapes(f, h)
    n, m = f.n, h.n
    if split.total != n + m or len(split.left) != n:
        raise ValueError(f"split {split} does not fit bidegrees ({f.n}) and ({h.n})")
    fnums, fden = to_numerators(f.terms)
    hnums, hden = to_numerators(h.terms)
    out: dict[FactorTuple, int] = {}
    _shuffle_into(out, fnums, hnums, split)
    return Element(f.d, n + m, f.M, from_numerators(out, fden * hden), _validated=True)


def _check_star_shapes(f, h, g: IncFn) -> IncFn:
    if f.n != h.n or f.M != h.M:
        raise ValueError(f"shape mismatch: {f.bidegree} vs {h.bidegree}")
    M = f.M
    if g.domain != M * f.d or g.codomain != M * (f.d + h.d):
        raise ValueError(
            f"injection [{g.domain}]->[{g.codomain}] does not fit star of "
            f"widths ({f.d},{h.d}) at multiplier {M}")
    return g.complement()


def _relabelled_terms(f, h, g: IncFn) -> tuple[list, list, int]:
    """The terms of f relabeled by g and of h by its complement, as integer
    numerators, and the product of their denominators."""
    gc = _check_star_shapes(f, h, g)
    fnums, fden = to_numerators(f.terms)
    hnums, hden = to_numerators(h.terms)
    fready = [(tuple(relabel_factor(x, g) for x in kf), cf) for kf, cf in fnums.items()]
    hready = [(tuple(relabel_factor(x, gc) for x in kh), ch) for kh, ch in hnums.items()]
    return fready, hready, fden * hden


@cache
def _matchings(n: int) -> tuple[tuple[int, ...], ...]:
    """Every matching of n slots: entry k is the slot of f wedged onto slot k of h."""
    return tuple(permutations(range(n)))


def star_product(f: Element, h: Element, g: IncFn) -> Element:
    """Slotwise signed wedge of g-relabeled f with (g complement)-relabeled h.

    Each (f-factor, h-factor) pair is merged once per call: the merges are
    kept in a table that every pair of terms reads.
    """
    fready, hready, den = _relabelled_terms(f, h, g)
    merges: dict = {}
    out: dict[FactorTuple, int] = {}
    for rf, cf in fready:
        for rh, ch in hready:
            sign = cf * ch
            slots = []
            for ab in zip(rf, rh):
                got = merges.get(ab)
                if got is None:
                    got = merges[ab] = merge_signed(*ab)
                s, merged = got
                sign *= s
                slots.append(merged)
            key = tuple(slots)
            out[key] = out.get(key, 0) + sign
    return Element(f.d + h.d, f.n, f.M, from_numerators(out, den), _validated=True)


def sym_star(f: SymElement, h: SymElement, g: IncFn) -> SymElement:
    """Star product on symmetric elements.

    On monomials this is (1/n!) * sum over all matchings of f's factors to
    h's slots of the product of signed wedges, then canonical sorting.  Per
    pair of terms, each factor of f is merged with each factor of h once,
    into an n x n table that every matching reads.  (A per-call table of
    merges, as in `star_product`, does not pay here: most calls multiply
    two monomials, so no pair of factors repeats.)
    """
    fready, hready, den = _relabelled_terms(f, h, g)
    matchings = _matchings(f.n)
    out: dict[FactorTuple, int] = {}
    for rf, cf in fready:
        for rh, ch in hready:
            # table[k][j]: the wedge of slot j of f onto slot k of h
            table = [[merge_signed(a, b) for a in rf] for b in rh]
            for match in matchings:
                sign = cf * ch
                slots = []
                for row, j in zip(table, match):
                    s, merged = row[j]
                    sign *= s
                    slots.append(merged)
                key = tuple(sorted(slots))
                out[key] = out.get(key, 0) + sign
    return SymElement(f.d + h.d, f.n, f.M, from_numerators(out, den * factorial(f.n)),
                      _validated=True)


def sym_shuffle(f: SymElement, h: SymElement) -> SymElement:
    """Commutative multiset-concatenation product on symmetric elements."""
    if f.d != h.d or f.M != h.M:
        raise ValueError(f"shape mismatch: {f.bidegree} vs {h.bidegree}")
    fnums, fden = to_numerators(f.terms)
    hnums, hden = to_numerators(h.terms)
    out: dict[FactorTuple, int] = {}
    for kf, cf in fnums.items():
        for kh, ch in hnums.items():
            key = tuple(sorted(kf + kh))
            out[key] = out.get(key, 0) + cf * ch
    return SymElement(f.d, f.n + h.n, f.M, from_numerators(out, fden * hden), _validated=True)


def invariant_shuffle(f: Element, h: Element, check: bool = True) -> Element:
    """Sum of shuffle products over all splits; the product on invariants."""
    _check_shuffle_shapes(f, h)
    if check and not (is_sym_invariant(f) and is_sym_invariant(h)):
        raise ValueError("invariant_shuffle requires slot-permutation-invariant inputs")
    fnums, fden = to_numerators(f.terms)
    hnums, hden = to_numerators(h.terms)
    out: dict[FactorTuple, int] = {}
    for split in all_splits(f.n, h.n):
        _shuffle_into(out, fnums, hnums, split)
    return Element(f.d, f.n + h.n, f.M, from_numerators(out, fden * hden), _validated=True)

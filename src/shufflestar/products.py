"""The shuffle and star products on tensor elements and their symmetric forms.

A split interleaves the tensor slots of two elements; the star product
wedges corresponding slots after relabeling the left factors by an
increasing injection g and the right factors by its complement.  On the
symmetric side the shuffle becomes multiset concatenation and the star
product averages over slot matchings (1/n! times the sum over the
symmetric group), which is the monomial form of conjugating by the
symmetrization isomorphism.

Coefficients are summed as integer numerators (see `core`).  Each product
has one private per-term-pair routine (`_shuffle_into`, `_star_into`,
`_sym_star_into`, `_sym_shuffle_into`): it takes two monomial keys, the
star routines two keys already relabelled by g and its complement, and
adds their product times an integer into a numerator dict.  The element
products loop it over their pairs of terms; the pair products of
`symmetry` call it directly on pairs of sub-monomial keys.  The tensor
star product merges each pair of wedge factors once per call: a table
keyed by the (f-factor, h-factor) pair holds the signed merge, and every
pair of terms that meets the same two factors in one slot reads it.  The
table lives only for the call.  The tables kept across calls
(`_matchings`, `_split_orders`) are keyed by slot counts alone.

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
    to_numerators,
)

__all__ = [
    "IncFn", "Split", "shuffle_product", "star_product",
    "sym_star", "sym_shuffle", "invariant_shuffle", "all_splits",
    "all_incfns", "star_incfns",
]


@dataclass(frozen=True, slots=True)
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


def _split_order(split: Split) -> tuple[int, ...]:
    """Entry k is the index into kf + kh of the factor the split puts in slot k."""
    n = len(split.left)
    index = {pos: k for k, pos in enumerate(split.left)}
    index.update((pos, n + k) for k, pos in enumerate(split.right))
    return tuple(index[pos] for pos in range(1, split.total + 1))


@cache
def _split_orders(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The `_split_order` of every split of n + m slots with n on the left."""
    return tuple(_split_order(split) for split in all_splits(n, m))


def _shuffle_into(out: dict, kf: FactorTuple, kh: FactorTuple, c: int, orders) -> None:
    """Add c times the shuffle of two tensor monomials along each split order."""
    both = kf + kh
    for order in orders:
        key = tuple([both[k] for k in order])
        out[key] = out.get(key, 0) + c


def shuffle_product(f: Element, h: Element, split: Split) -> Element:
    """Interleave tensor slots: f's slots go to the left positions of the split."""
    _check_shuffle_shapes(f, h)
    n, m = f.n, h.n
    if split.total != n + m or len(split.left) != n:
        raise ValueError(f"split {split} does not fit bidegrees ({f.n}) and ({h.n})")
    fnums, fden = to_numerators(f.terms)
    hnums, hden = to_numerators(h.terms)
    orders = (_split_order(split),)
    out: dict[FactorTuple, int] = {}
    for kf, cf in fnums.items():
        for kh, ch in hnums.items():
            _shuffle_into(out, kf, kh, cf * ch, orders)
    return Element(f.d, n + m, f.M, from_numerators(out, fden * hden), _validated=True)


def _star_letters(M: int, d: int, e: int, g: IncFn) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """g and its complement as tables indexed by letter, entry 0 unused.

    Raises unless g fits a star product of widths (d, e) at multiplier M.
    """
    if g.domain != M * d or g.codomain != M * (d + e):
        raise ValueError(
            f"injection [{g.domain}]->[{g.codomain}] does not fit star of "
            f"widths ({d},{e}) at multiplier {M}")
    return (0, *g.image), (0, *g.complement().image)


def _relabel(key: FactorTuple, letters: tuple[int, ...]) -> FactorTuple:
    """Every factor of a monomial through a `_star_letters` table.

    The table does not check its index: the element and pair element
    constructors keep every index of a key in [1..M*d].
    """
    return tuple([tuple([letters[i] for i in x]) for x in key])


def _relabelled_terms(f, h, g: IncFn) -> tuple[list, list, int]:
    """The terms of f relabeled by g and of h by its complement, as integer
    numerators, and the product of their denominators."""
    if f.n != h.n or f.M != h.M:
        raise ValueError(f"shape mismatch: {f.bidegree} vs {h.bidegree}")
    fletters, hletters = _star_letters(f.M, f.d, h.d, g)
    fnums, fden = to_numerators(f.terms)
    hnums, hden = to_numerators(h.terms)
    return ([(_relabel(kf, fletters), cf) for kf, cf in fnums.items()],
            [(_relabel(kh, hletters), ch) for kh, ch in hnums.items()], fden * hden)


@cache
def _matchings(n: int) -> tuple[tuple[int, ...], ...]:
    """Every matching of n slots: entry k is the slot of f wedged onto slot k of h."""
    return tuple(permutations(range(n)))


def _star_into(out: dict, rf: FactorTuple, rh: FactorTuple, c: int, merges: dict) -> None:
    """Add c times the slotwise signed wedge of two relabelled tensor monomials.

    merges holds the merge of every (f-factor, h-factor) pair met so far.
    """
    sign = c
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
            _star_into(out, rf, rh, cf * ch, merges)
    return Element(f.d + h.d, f.n, f.M, from_numerators(out, den), _validated=True)


def _sym_star_into(out: dict, rf: FactorTuple, rh: FactorTuple, c: int) -> None:
    """Add c times n! times the symmetric star product of two relabelled monomials.

    Each factor of rf is merged with each factor of rh once, into an n x n
    table that every matching reads.
    """
    # table[k][j]: the wedge of slot j of f onto slot k of h
    table = [[merge_signed(a, b) for a in rf] for b in rh]
    for match in _matchings(len(rf)):
        sign = c
        slots = []
        for row, j in zip(table, match):
            s, merged = row[j]
            sign *= s
            slots.append(merged)
        key = tuple(sorted(slots))
        out[key] = out.get(key, 0) + sign


def sym_star(f: SymElement, h: SymElement, g: IncFn) -> SymElement:
    """Star product on symmetric elements.

    On monomials this is (1/n!) * sum over all matchings of f's factors to
    h's slots of the product of signed wedges, then canonical sorting.  (A
    per-call table of merges, as in `star_product`, does not pay here: most
    calls multiply two monomials, so no pair of factors repeats.)
    """
    fready, hready, den = _relabelled_terms(f, h, g)
    out: dict[FactorTuple, int] = {}
    for rf, cf in fready:
        for rh, ch in hready:
            _sym_star_into(out, rf, rh, cf * ch)
    return SymElement(f.d + h.d, f.n, f.M, from_numerators(out, den * factorial(f.n)),
                      _validated=True)


def _sym_shuffle_into(out: dict, kf: FactorTuple, kh: FactorTuple, c: int) -> None:
    """Add c times the multiset concatenation of two symmetric monomials."""
    key = tuple(sorted(kf + kh))
    out[key] = out.get(key, 0) + c


def sym_shuffle(f: SymElement, h: SymElement) -> SymElement:
    """Commutative multiset-concatenation product on symmetric elements."""
    _check_shuffle_shapes(f, h)
    fnums, fden = to_numerators(f.terms)
    hnums, hden = to_numerators(h.terms)
    out: dict[FactorTuple, int] = {}
    for kf, cf in fnums.items():
        for kh, ch in hnums.items():
            _sym_shuffle_into(out, kf, kh, cf * ch)
    return SymElement(f.d, f.n + h.n, f.M, from_numerators(out, fden * hden), _validated=True)


def invariant_shuffle(f: Element, h: Element, check: bool = True) -> Element:
    """Sum of shuffle products over all splits; the product on invariants."""
    _check_shuffle_shapes(f, h)
    if check and not (is_sym_invariant(f) and is_sym_invariant(h)):
        raise ValueError("invariant_shuffle requires slot-permutation-invariant inputs")
    fnums, fden = to_numerators(f.terms)
    hnums, hden = to_numerators(h.terms)
    orders = _split_orders(f.n, h.n)
    out: dict[FactorTuple, int] = {}
    for kf, cf in fnums.items():
        for kh, ch in hnums.items():
            _shuffle_into(out, kf, kh, cf * ch, orders)
    return Element(f.d, f.n + h.n, f.M, from_numerators(out, fden * hden), _validated=True)

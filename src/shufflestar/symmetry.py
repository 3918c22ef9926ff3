"""Maps between tensor, invariant and coinvariant elements, and comultiplication.

pi averages over slot permutations (projection onto invariants), the
symmetrization isomorphism sends a sorted multiset to the average of its
slot orderings, and the comultiplication splits a monomial over all
subsets of its slots.  Tensor-square elements are kept as sparse maps on
canonical (left, right) key pairs so the compatibility identities can be
checked by exact equality.

The pair products check their shapes and injection once per call, before
they read any term, and multiply the sub-monomial keys of each pair of
terms with the per-term-pair routines of `products`, memoised for that
call only: no one-term element is built per sub-monomial.  `pair_map`
calls its element map through the same kind of per-call memo.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from math import factorial, lcm
from typing import Mapping

from .core import (
    Element,
    FactorTuple,
    Rational,
    SymElement,
    _check_factor,
    exact,
    from_numerators,
    is_sym_invariant,
    to_numerators,
)
from .products import (
    IncFn,
    _relabel,
    _shuffle_into,
    _split_orders,
    _star_into,
    _star_letters,
    _sym_shuffle_into,
    _sym_star_into,
)

__all__ = [
    "pi", "pi_prime", "to_invariant", "from_invariant", "delta_sym",
    "delta_tensor", "delta_invariant", "PairElement", "pair_star",
    "pair_shuffle", "pair_map", "pair_star_invariant", "pair_shuffle_invariant",
]


def _project(f, den: int) -> Element:
    """The sum of f over all slot permutations, divided by den."""
    nums, fden = to_numerators(f.terms)
    out: dict[FactorTuple, int] = {}
    for key, c in nums.items():
        for perm in permutations(key):
            out[perm] = out.get(perm, 0) + c
    return Element(f.d, f.n, f.M, from_numerators(out, fden * den), _validated=True)


def pi(f: Element) -> Element:
    """Average of f over all slot permutations; idempotent onto invariants.

    On a symmetric element the same average is the symmetrization
    isomorphism into invariant tensors (`to_invariant`): a multiset
    w_1 ... w_n maps to the average of w_{s(1)} x ... x w_{s(n)} over all
    permutations s.
    """
    return _project(f, factorial(f.n))


def pi_prime(f: Element) -> Element:
    """The unnormalized projection: n! times pi."""
    return _project(f, 1)


# the symmetrization isomorphism is the projection read on multisets
to_invariant = pi


def from_invariant(f: Element) -> SymElement:
    """Inverse of the symmetrization isomorphism; input must be invariant."""
    if not is_sym_invariant(f):
        raise ValueError("from_invariant requires a slot-permutation-invariant element")
    nums, den = to_numerators(f.terms)
    out: dict[FactorTuple, int] = {}
    for key, c in nums.items():
        canon = tuple(sorted(key))
        out[canon] = out.get(canon, 0) + c
    return SymElement(f.d, f.n, f.M, from_numerators(out, den), _validated=True)


class PairElement:
    """Sparse element of a tensor square, keyed by (left, right) monomials.

    Both sides share the width d and multiplier M; the slot counts of the
    two sides vary term by term (as they do for a comultiplication image)
    and add up to total.  ``symmetric`` selects whether the sides are
    symmetric monomials (canonically sorted) or ordered tensor monomials.
    Coefficients follow the rule of `core`.
    """

    __slots__ = ("d", "M", "total", "symmetric", "terms")

    def __init__(self, d: int, M: int, total: int, symmetric: bool,
                 terms: Mapping[tuple[FactorTuple, FactorTuple], Rational] | None = None,
                 _validated: bool = False):
        """Keys are checked as `SymElement` checks its keys: every factor is a
        strictly increasing d-subset of [1..M*d], and symmetric sides are
        sorted.  `_validated` terms are adopted as they are: a fresh dict
        with canonical keys and coefficients and no zero coefficient."""
        if d.__class__ is not int or M.__class__ is not int or total.__class__ is not int \
                or d < 0 or M < 0 or total < 0:
            raise ValueError(f"bad pair shape: width {d!r}, multiplier {M!r}, total {total!r}")
        self.d = d
        self.M = M
        self.total = total
        self.symmetric = symmetric
        if _validated and terms is not None:
            self.terms = terms
            return
        tmap: dict[tuple[FactorTuple, FactorTuple], Rational] = {}
        if terms:
            alphabet = M * d
            for key, coeff in terms.items():
                c = exact(coeff)
                if not c:
                    continue
                if key.__class__ is not tuple or len(key) != 2:
                    raise ValueError(f"pair key {key!r} is not a (left, right) pair")
                left, right = (tuple(_check_factor(f, d, alphabet) for f in side) for side in key)
                if len(left) + len(right) != total:
                    raise ValueError(f"pair key {key!r} has {len(left)} + {len(right)} "
                                     f"slots, expected {total}")
                if symmetric:
                    left, right = tuple(sorted(left)), tuple(sorted(right))
                key = (left, right)
                s = exact(tmap.get(key, 0) + c)
                if s:
                    tmap[key] = s
                else:
                    del tmap[key]
        self.terms = tmap

    def __eq__(self, other):
        return (isinstance(other, PairElement) and self.d == other.d
                and self.M == other.M and self.total == other.total
                and self.symmetric == other.symmetric and self.terms == other.terms)

    def __repr__(self):
        return (f"PairElement(d={self.d},M={self.M},total={self.total},"
                f"sym={self.symmetric},{len(self.terms)} terms)")

    def swap(self) -> "PairElement":
        return PairElement(self.d, self.M, self.total, self.symmetric,
                           {(rk, lk): c for (lk, rk), c in self.terms.items()},
                           _validated=True)


def _slot_subsets(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(left, right) slot positions for every subset of n slots, in mask order."""
    return [(tuple(i for i in range(n) if mask >> i & 1),
             tuple(i for i in range(n) if not mask >> i & 1)) for mask in range(1 << n)]


def _delta_sums(nums: Mapping, n: int, canonical: bool) -> dict:
    """Numerators of the slot-subset comultiplication, optionally sorting each side.

    A subsequence of a sorted key is sorted, so symmetric input needs no sort.
    """
    subsets = _slot_subsets(n)
    out: dict = {}
    for key, c in nums.items():
        for li, ri in subsets:
            left = tuple([key[i] for i in li])
            right = tuple([key[i] for i in ri])
            if canonical:
                left, right = tuple(sorted(left)), tuple(sorted(right))
            pair = (left, right)
            out[pair] = out.get(pair, 0) + c
    return out


def _delta(f, symmetric: bool) -> PairElement:
    nums, den = to_numerators(f.terms)
    return PairElement(f.d, f.M, f.n, symmetric,
                       from_numerators(_delta_sums(nums, f.n, canonical=False), den),
                       _validated=True)


def delta_sym(f: SymElement) -> PairElement:
    """Comultiplication: split each multiset over all subsets of its slots."""
    return _delta(f, symmetric=True)


def delta_tensor(f: Element) -> PairElement:
    """Order-preserving slot-subset comultiplication on tensor elements.

    On invariants this is the transport of the coinvariant comultiplication
    through the symmetrization isomorphism.
    """
    return _delta(f, symmetric=False)


def delta_invariant(f: Element) -> PairElement:
    """The divided-power comultiplication on invariant tensor elements.

    Splits the slots over all subsets and applies the unnormalized
    projection on each side, scaled by 1/n!.  With this normalization the
    comultiplication is exactly multiplicative for both products
    (componentwise on the tensor square); it differs from delta_tensor by
    per-component factors.

    The unnormalized projection of a monomial k puts |Stab(k)|, the number
    of slot permutations fixing k, on each distinct reordering of k.  So
    the image depends only on the sorted sides of each split, and every
    reordered pair (l, r) gets the summed numerator of its sorted pair
    times |Stab(l)| * |Stab(r)|.
    """
    if not is_sym_invariant(f):
        raise ValueError("delta_invariant requires an invariant element")
    nums, den = to_numerators(f.terms)
    orbits: dict[FactorTuple, tuple[list, int]] = {}

    def orbit(key):
        got = orbits.get(key)
        if got is None:
            perms = list(dict.fromkeys(permutations(key)))
            got = orbits[key] = (perms, factorial(len(key)) // len(perms))
        return got

    out: dict = {}
    for (sl, sr), c in _delta_sums(nums, f.n, canonical=True).items():
        lperms, lstab = orbit(sl)
        rperms, rstab = orbit(sr)
        c *= lstab * rstab
        for lk in lperms:
            for rk in rperms:
                out[(lk, rk)] = c
    return PairElement(f.d, f.M, f.n, False, from_numerators(out, den * factorial(f.n)),
                       _validated=True)


class _PairSums:
    """Integer numerators of a tensor-square sum, bucketed by denominator.

    Each piece adds c * (left (x) right), where left and right are numerator
    maps over their own denominators; `element` brings the buckets to their
    lcm and divides once per key.
    """

    __slots__ = ("buckets",)

    def __init__(self):
        self.buckets: dict[int, dict] = {}

    def add(self, c: int, left, right) -> None:
        (lnums, lden), (rnums, rden) = left, right
        den = lden * rden
        bucket = self.buckets.get(den)
        if bucket is None:
            bucket = self.buckets[den] = {}
        for lk, lc in lnums.items():
            w = c * lc
            for rk, rc in rnums.items():
                key = (lk, rk)
                bucket[key] = bucket.get(key, 0) + w * rc

    def element(self, d: int, M: int, total: int, symmetric: bool, den: int) -> PairElement:
        """The sum divided by den, as a pair element with trusted keys."""
        bden = lcm(*self.buckets)
        if len(self.buckets) == 1:
            out = self.buckets[bden]
        else:
            out = {}
            for b, bucket in self.buckets.items():
                f = bden // b
                for key, v in bucket.items():
                    out[key] = out.get(key, 0) + f * v
        return PairElement(d, M, total, symmetric, from_numerators(out, den * bden),
                           _validated=True)


def pair_star_invariant(x: PairElement, y: PairElement, g: IncFn) -> PairElement:
    """Componentwise star product on tensor-square elements (invariant side).

    Each pair of sub-monomials is relabelled and merged slot by slot, with
    one table of factor merges for the whole call.
    """
    if x.symmetric or y.symmetric:
        raise ValueError("pair_star_invariant acts on tensor pair elements")
    fletters, hletters = _pair_star_letters(x, y, g)
    merges: dict = {}

    def side(a, b):
        out: dict = {}
        _star_into(out, _relabel(a, fletters), _relabel(b, hletters), 1, merges)
        return out, 1

    return _pair_product(x, y, side, d_out=x.d + y.d, total=x.total, slot_matched=True)


def pair_shuffle_invariant(x: PairElement, y: PairElement) -> PairElement:
    """Componentwise all-splits shuffle on tensor-square elements."""
    if x.symmetric or y.symmetric:
        raise ValueError("pair_shuffle_invariant acts on tensor pair elements")
    if x.d != y.d:
        raise ValueError("width mismatch")

    def side(a, b):
        out: dict = {}
        _shuffle_into(out, a, b, 1, _split_orders(len(a), len(b)))
        return out, 1

    return _pair_product(x, y, side, d_out=x.d, total=x.total + y.total)


def _pair_star_letters(x: PairElement, y: PairElement, g: IncFn):
    """`products._star_letters` for a pair star product, checked before any term is read.

    Only components with equal slot counts multiply, so unequal totals
    are refused like the unequal slot counts of an element star product.
    """
    if x.M != y.M or x.total != y.total:
        raise ValueError(f"shape mismatch: pair totals {x.total} vs {y.total} "
                         f"at multipliers {x.M} and {y.M}")
    return _star_letters(x.M, x.d, y.d, g)


def _pair_product(x: PairElement, y: PairElement, product, d_out: int, total: int,
                  slot_matched: bool = False) -> PairElement:
    """The componentwise product on both sides of every pair of terms.

    product(a, b) gives the product of two sub-monomial keys with
    coefficient 1, as (integer numerators, denominator); it is memoised for
    this call only.  With slot_matched the product is zero unless its two
    inputs have the same slot count, so each term of x meets only the terms
    of y whose left and right sides have the slot counts of its own.
    """
    if x.M != y.M or x.symmetric != y.symmetric:
        raise ValueError("pair element shape mismatch")
    side = cache(product)
    xnums, xden = to_numerators(x.terms)
    ynums, yden = to_numerators(y.terms)
    partners: dict = {}
    for (yl, yr), cy in ynums.items():
        shape = (len(yl), len(yr)) if slot_matched else None
        partners.setdefault(shape, []).append((yl, yr, cy))
    sums = _PairSums()
    for (xl, xr), cx in xnums.items():
        shape = (len(xl), len(xr)) if slot_matched else None
        for yl, yr, cy in partners.get(shape, ()):
            sums.add(cx * cy, side(xl, yl), side(xr, yr))
    return sums.element(d_out, x.M, total, x.symmetric, xden * yden)


def pair_star(x: PairElement, y: PairElement, g: IncFn) -> PairElement:
    """Componentwise star product of two tensor-square elements.

    Components whose slot counts do not match multiply to zero.  Each pair
    of sub-monomials is relabelled and multiplied by `sym_star`'s routine,
    over the n! of its slot count.
    """
    if not (x.symmetric and y.symmetric):
        raise ValueError("pair_star is defined on symmetric pair elements")
    fletters, hletters = _pair_star_letters(x, y, g)

    def side(a, b):
        out: dict = {}
        _sym_star_into(out, _relabel(a, fletters), _relabel(b, hletters), 1)
        return out, factorial(len(a))

    return _pair_product(x, y, side, d_out=x.d + y.d, total=x.total, slot_matched=True)


def pair_shuffle(x: PairElement, y: PairElement) -> PairElement:
    """Componentwise multiset product of two tensor-square elements."""
    if not (x.symmetric and y.symmetric):
        raise ValueError("pair_shuffle is defined on symmetric pair elements")
    if x.d != y.d:
        raise ValueError("width mismatch")

    def side(a, b):
        out: dict = {}
        _sym_shuffle_into(out, a, b, 1)
        return out, 1

    return _pair_product(x, y, side, d_out=x.d, total=x.total + y.total)


def pair_map(x: PairElement, fn, symmetric_out: bool) -> PairElement:
    """Apply an element map to both sides of every term (e.g. symmetrization).

    fn is called once per distinct side, on that monomial with coefficient
    1.  The keys of fn's results are used as they are, so with
    symmetric_out fn must return symmetric elements.
    """
    cls = SymElement if x.symmetric else Element

    @cache
    def side(k):
        res = fn(cls(x.d, len(k), x.M, {k: 1}, _validated=True))
        return to_numerators(res.terms) if res else None

    nums, den = to_numerators(x.terms)
    sums = _PairSums()
    for (lk, rk), c in nums.items():
        left = side(lk)
        right = side(rk)
        if left is not None and right is not None:
            sums.add(c, left, right)
    return sums.element(x.d, x.M, x.total, symmetric_out, den)

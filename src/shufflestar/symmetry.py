"""Maps between tensor, invariant and coinvariant elements, and comultiplication.

pi averages over slot permutations (projection onto invariants), the
symmetrization isomorphism sends a sorted multiset to the average of its
slot orderings, and the comultiplication splits a monomial over all
subsets of its slots.  Tensor-square elements are kept as sparse maps on
canonical (left, right) key pairs so the compatibility identities can be
checked by exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import Mapping

from .core import Element, FactorTuple, SymElement, is_sym_invariant
from .products import IncFn, invariant_shuffle, star_product, sym_shuffle, sym_star

__all__ = [
    "pi", "pi_prime", "to_invariant", "from_invariant", "delta_sym",
    "delta_tensor", "delta_invariant", "PairElement", "pair_star",
    "pair_shuffle", "pair_map", "pair_star_invariant", "pair_shuffle_invariant",
]


def pi(f: Element) -> Element:
    """Average of f over all slot permutations; idempotent onto invariants.

    On a symmetric element the same average is the symmetrization
    isomorphism into invariant tensors (`to_invariant`): a multiset
    w_1 ... w_n maps to the average of w_{s(1)} x ... x w_{s(n)} over all
    permutations s.
    """
    norm = Fraction(1, factorial(f.n))
    out: dict[FactorTuple, Fraction] = {}
    for key, coeff in f.terms.items():
        c = coeff * norm
        for perm in permutations(key):
            s = out.get(perm, Fraction(0)) + c
            if s:
                out[perm] = s
            else:
                out.pop(perm, None)
    return Element(f.d, f.n, f.M, out, _validated=True)


def pi_prime(f: Element) -> Element:
    """The unnormalized projection: n! times pi."""
    return pi(f).scale(factorial(f.n))


# the symmetrization isomorphism is the projection read on multisets
to_invariant = pi


def from_invariant(f: Element) -> SymElement:
    """Inverse of the symmetrization isomorphism; input must be invariant."""
    if not is_sym_invariant(f):
        raise ValueError("from_invariant requires a slot-permutation-invariant element")
    out: dict[FactorTuple, Fraction] = {}
    for key, coeff in f.terms.items():
        canon = tuple(sorted(key))
        s = out.get(canon, Fraction(0)) + coeff
        if s:
            out[canon] = s
        else:
            out.pop(canon, None)
    return SymElement(f.d, f.n, f.M, out, _validated=True)


class PairElement:
    """Sparse element of a tensor square, keyed by (left, right) monomials.

    Both sides share the width d and multiplier M; the slot counts of the
    two sides vary term by term (as they do for a comultiplication image).
    ``symmetric`` selects whether the sides are symmetric monomials
    (canonically sorted) or ordered tensor monomials.
    """

    __slots__ = ("d", "M", "total", "symmetric", "terms")

    def __init__(self, d: int, M: int, total: int, symmetric: bool,
                 terms: Mapping[tuple[FactorTuple, FactorTuple], Fraction] | None = None):
        self.d = d
        self.M = M
        self.total = total
        self.symmetric = symmetric
        self.terms: dict[tuple[FactorTuple, FactorTuple], Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                if coeff:
                    self.terms[key] = Fraction(coeff)

    def add_term(self, left: FactorTuple, right: FactorTuple, coeff: Fraction):
        if self.symmetric:
            left = tuple(sorted(left))
            right = tuple(sorted(right))
        key = (left, right)
        s = self.terms.get(key, Fraction(0)) + coeff
        if s:
            self.terms[key] = s
        else:
            self.terms.pop(key, None)

    def __eq__(self, other):
        return (isinstance(other, PairElement) and self.d == other.d
                and self.M == other.M and self.total == other.total
                and self.symmetric == other.symmetric and self.terms == other.terms)

    def __repr__(self):
        return (f"PairElement(d={self.d},M={self.M},total={self.total},"
                f"sym={self.symmetric},{len(self.terms)} terms)")

    def side_elements(self):
        """Group terms by slot-count split, yielding (left, right) element pairs."""
        cls = SymElement if self.symmetric else Element
        grouped: dict[tuple[int, int], dict] = {}
        for (lk, rk), coeff in self.terms.items():
            grouped.setdefault((len(lk), len(rk)), {})[(lk, rk)] = coeff
        for (nl, nr), sub in sorted(grouped.items()):
            yield (nl, nr), sub, cls

    def swap(self) -> "PairElement":
        out = PairElement(self.d, self.M, self.total, self.symmetric)
        for (lk, rk), coeff in self.terms.items():
            out.add_term(rk, lk, coeff)
        return out


def _delta(f, symmetric: bool) -> PairElement:
    out = PairElement(f.d, f.M, f.n, symmetric=symmetric)
    n = f.n
    for key, coeff in f.terms.items():
        for mask in range(1 << n):
            left = tuple(key[i] for i in range(n) if mask >> i & 1)
            right = tuple(key[i] for i in range(n) if not mask >> i & 1)
            out.add_term(left, right, coeff)
    return out


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
    """
    if not is_sym_invariant(f):
        raise ValueError("delta_invariant requires an invariant element")
    out = PairElement(f.d, f.M, f.n, symmetric=False)
    scale = Fraction(1, factorial(f.n))
    for (lk, rk), coeff in delta_tensor(f).terms.items():
        lel = pi_prime(Element(f.d, len(lk), f.M, {lk: coeff * scale}, _validated=True))
        rel = pi_prime(Element(f.d, len(rk), f.M, {rk: Fraction(1)}, _validated=True))
        for lkey, lc in lel.terms.items():
            for rkey, rc in rel.terms.items():
                out.add_term(lkey, rkey, lc * rc)
    return out


def pair_star_invariant(x: PairElement, y: PairElement, g: IncFn) -> PairElement:
    """Componentwise star product on tensor-square elements (invariant side)."""
    if x.symmetric or y.symmetric:
        raise ValueError("pair_star_invariant acts on tensor pair elements")

    def op(a: Element, b: Element):
        if a.n != b.n:
            return None
        return star_product(a, b, g)

    return _pair_product(x, y, op, d_out=x.d + y.d, total=x.total)


def pair_shuffle_invariant(x: PairElement, y: PairElement) -> PairElement:
    """Componentwise all-splits shuffle on tensor-square elements."""
    if x.symmetric or y.symmetric:
        raise ValueError("pair_shuffle_invariant acts on tensor pair elements")
    if x.d != y.d:
        raise ValueError("width mismatch")
    return _pair_product(x, y, lambda a, b: invariant_shuffle(a, b, check=False),
                         d_out=x.d, total=x.total + y.total)


def _pair_product(x: PairElement, y: PairElement, op, d_out: int, total: int) -> PairElement:
    if x.M != y.M or x.symmetric != y.symmetric:
        raise ValueError("pair element shape mismatch")
    cls = SymElement if x.symmetric else Element
    out = PairElement(d_out, x.M, total, x.symmetric)
    for (xl, xr), cx in x.terms.items():
        for (yl, yr), cy in y.terms.items():
            lres = op(cls(x.d, len(xl), x.M, {xl: Fraction(1)}, _validated=True),
                      cls(y.d, len(yl), y.M, {yl: Fraction(1)}, _validated=True))
            if lres is None or lres.is_zero():
                continue
            rres = op(cls(x.d, len(xr), x.M, {xr: Fraction(1)}, _validated=True),
                      cls(y.d, len(yr), y.M, {yr: Fraction(1)}, _validated=True))
            if rres is None or rres.is_zero():
                continue
            c = cx * cy
            for lk, lc in lres.terms.items():
                for rk, rc in rres.terms.items():
                    out.add_term(lk, rk, c * lc * rc)
    return out


def pair_star(x: PairElement, y: PairElement, g: IncFn) -> PairElement:
    """Componentwise star product of two tensor-square elements.

    Components whose slot counts do not match multiply to zero.
    """
    if not (x.symmetric and y.symmetric):
        raise ValueError("pair_star is defined on symmetric pair elements")

    def op(a: SymElement, b: SymElement):
        if a.n != b.n:
            return None
        return sym_star(a, b, g)

    return _pair_product(x, y, op, d_out=x.d + y.d, total=x.total)


def pair_shuffle(x: PairElement, y: PairElement) -> PairElement:
    """Componentwise multiset product of two tensor-square elements."""
    if not (x.symmetric and y.symmetric):
        raise ValueError("pair_shuffle is defined on symmetric pair elements")
    if x.d != y.d:
        raise ValueError("width mismatch")
    return _pair_product(x, y, sym_shuffle, d_out=x.d, total=x.total + y.total)


def pair_map(x: PairElement, fn, symmetric_out: bool) -> PairElement:
    """Apply an element map to both sides of every term (e.g. symmetrization)."""
    cls = SymElement if x.symmetric else Element
    out = PairElement(x.d, x.M, x.total, symmetric_out)
    for (lk, rk), coeff in x.terms.items():
        lres = fn(cls(x.d, len(lk), x.M, {lk: Fraction(1)}, _validated=True))
        rres = fn(cls(x.d, len(rk), x.M, {rk: Fraction(1)}, _validated=True))
        for lkey, lc in lres.terms.items():
            for rkey, rc in rres.terms.items():
                out.add_term(lkey, rkey, coeff * lc * rc)
    return out

"""Exact sparse elements of the bigraded tensor and symmetric algebras.

The ground space in bidegree (d, n) is the n-th tensor (or symmetric) power
of the d-th exterior power of k^(M*d), for a fixed multiplier M.  Basis
wedges are encoded by strictly increasing index tuples over the alphabet
[1 .. M*d]; a tensor monomial is an ordered list of n such tuples, a
symmetric monomial a canonically sorted multiset of them.

Coefficients are exact rationals held in one canonical form: an integral
value is an `int`, any other value a reduced `Fraction` with denominator
greater than 1, never a float.  `exact` applies this rule to one value.
Products and maps follow it by working integer-first: `to_numerators`
brings their input to integer numerators over one common denominator, the
integers are summed in a plain dict, and `from_numerators` divides each
distinct numerator once per call: keys with equal coefficients share one
quotient object (ints and Fractions are immutable, so sharing is safe),
which also lets `is_sym_invariant` settle most comparisons by identity.

Reports write elements in one JSON wire format.  `wire_dict` builds an
element's wire dict from its (monomial, coefficient) pairs, monomials kept
as the tuples they are, so a report writer needs no element and no list per
factor: `ideals.ComponentBasis.wire_rows` feeds it a component's canonical
rows directly.  `element_to_dict` gives the same dict with lists, and
`element_from_dict` reads either back.

Wedge factors validated from outside input are pooled.  There are only
C(M*d, d) distinct factors of width d, so `_check_factor` hands back one
shared tuple per factor value instead of the caller's copy: every
`TensorMonomial`, every `Element`, `SymElement` and `symmetry.PairElement`
built from unvalidated terms, and every element `element_from_dict` reads
holds the pooled tuple.  Validation runs first, on the caller's own value:
`(True, 2)` and `(1.0, 2.0)` hash equal to `(1, 2)`, so a lookup before the
type check would let them in under the pooled int tuple.  The pool keeps one
entry per distinct factor validated in the process, at most the sum of
C(alphabet, width) over the shapes in use.  Keys the library builds itself
(`_validated=True`) skip `_check_factor` and the pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import lcm
from typing import Iterable, Mapping, Sequence, Union

Rational = Union[int, Fraction]

# A wedge factor is a strictly increasing tuple of 1-based indices.
Factor = tuple[int, ...]
# A monomial key is the tuple of its factors.
FactorTuple = tuple[Factor, ...]


def exact(v) -> Rational:
    """v as an int when it is integral, else as a Fraction (exact for floats)."""
    cls = v.__class__
    if cls is int:
        return v
    if cls is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def exact_div(v: Rational, p: Rational) -> Rational:
    """v / p, as an int when the quotient is integral."""
    if v.__class__ is int and p.__class__ is int:
        q, r = divmod(v, p)
        return q if not r else Fraction(v, p)
    q = v / p
    return q.numerator if q.denominator == 1 else q


def to_numerators(terms: Mapping) -> tuple[Mapping, int]:
    """(numerators, L): integer numerators of the coefficients over their lcm L.

    All-integral terms come back as they are, with L = 1.
    """
    den = 1
    for c in terms.values():
        if c.__class__ is not int:
            den = lcm(den, c.denominator)
    if den == 1:
        return terms, 1
    return {k: c * den if c.__class__ is int else c.numerator * (den // c.denominator)
            for k, c in terms.items()}, den


def from_numerators(nums: Mapping, den: int) -> dict:
    """The coefficients nums / den in canonical form, zeros dropped.

    Each distinct numerator is divided once, and its quotient object is
    shared by every key that has it.
    """
    if den == 1:
        return {k: v for k, v in nums.items() if v}
    quotients: dict = {}
    out = {}
    for k, v in nums.items():
        if v:
            q = quotients.get(v)
            if q is None:
                q = quotients[v] = exact_div(v, den)
            out[k] = q
    return out


def int_tuple(values: Iterable[int]) -> tuple[int, ...]:
    """values as a tuple of ints, the tuple itself when it is one already.

    A float, a string or a bool raises ValueError: int() would truncate
    1.5 to 1 and read "2" and True as numbers.
    """
    t = values if values.__class__ is tuple else tuple(values)
    for i in t:
        if i.__class__ is not int:
            raise ValueError(f"{i!r} is not an integer")
    return t


# every validated factor, mapped to itself: the one tuple shared per value
_FACTORS: dict[Factor, Factor] = {}


def _check_factor(factor: Iterable[int], width: int, alphabet: int) -> Factor:
    """factor as the pooled tuple, once it is checked as a width-subset of [1..alphabet]."""
    f = int_tuple(factor)
    if len(f) != width:
        raise ValueError(f"factor {f} has width {len(f)}, expected {width}")
    for a, b in zip(f, f[1:]):
        if a >= b:
            raise ValueError(f"factor {f} is not strictly increasing")
    if f and (f[0] < 1 or f[-1] > alphabet):
        raise ValueError(f"factor {f} leaves alphabet [1..{alphabet}]")
    return _FACTORS.setdefault(f, f)


@dataclass(frozen=True, slots=True)
class IncFn:
    """A strictly increasing injection [1..domain] -> [1..codomain].

    The image tuple lists g(1) < g(2) < ... < g(domain).
    """

    domain: int
    codomain: int
    image: tuple[int, ...]

    def __post_init__(self):
        if self.domain.__class__ is not int or self.codomain.__class__ is not int:
            raise ValueError(f"[{self.domain!r}] -> [{self.codomain!r}] is not integral")
        img = int_tuple(self.image)
        if img is not self.image:
            object.__setattr__(self, "image", img)
        if len(img) != self.domain:
            raise ValueError(f"image {img} has size {len(img)}, expected {self.domain}")
        if self.domain > self.codomain:
            raise ValueError(f"no increasing injection [{self.domain}] -> [{self.codomain}]")
        for a, b in zip(img, img[1:]):
            if a >= b:
                raise ValueError(f"image {img} is not strictly increasing")
        if img and (img[0] < 1 or img[-1] > self.codomain):
            raise ValueError(f"image {img} leaves codomain [1..{self.codomain}]")

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.domain:
            raise ValueError(f"{i} outside domain [1..{self.domain}]")
        return self.image[i - 1]

    def complement(self) -> "IncFn":
        """The increasing enumeration of [1..codomain] minus the image."""
        inside = set(self.image)
        rest = tuple(i for i in range(1, self.codomain + 1) if i not in inside)
        return IncFn(self.codomain - self.domain, self.codomain, rest)


def merge_signed(a: Factor, b: Factor) -> tuple[int, Factor]:
    """Merge two increasing index tuples, tracking the permutation sign.

    Returns (0, ()) when the tuples share an index.  The sign is the parity
    of the number of transpositions sorting the concatenation a + b, counted
    as inversions during a linear merge.
    """
    i, j, la, lb = 0, 0, len(a), len(b)
    out = []
    inversions = 0
    while i < la and j < lb:
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        elif a[i] > b[j]:
            out.append(b[j])
            inversions += la - i
            j += 1
        else:
            return 0, ()
    out.extend(a[i:])
    out.extend(b[j:])
    return (1 if inversions % 2 == 0 else -1), tuple(out)


def relabel_factor(factor: Factor, g: IncFn) -> Factor:
    """Apply an increasing injection to every index; order is preserved."""
    img = g.image
    dom = g.domain
    out = []
    for i in factor:
        if not 1 <= i <= dom:
            raise ValueError(f"index {i} outside domain [1..{dom}] of {g}")
        out.append(img[i - 1])
    return tuple(out)


def canonicalize(factors: Iterable[Factor]) -> FactorTuple:
    """Sort wedge factors into the canonical nondecreasing-lex representative."""
    fs = tuple(tuple(f) for f in factors)
    widths = {len(f) for f in fs}
    if len(widths) > 1:
        raise ValueError(f"inhomogeneous factor widths {sorted(widths)}")
    return tuple(sorted(fs))


@dataclass(frozen=True, slots=True)
class TensorMonomial:
    """A basis monomial of bidegree (d, n): n wedge factors over [1..M*d].

    This doubles as the reading-list encoding: factor i records the indices
    in tensor slot i.
    """

    d: int
    n: int
    M: int
    factors: FactorTuple

    def __post_init__(self):
        alphabet = self.M * self.d
        fs = tuple(_check_factor(f, self.d, alphabet) for f in self.factors)
        if len(fs) != self.n:
            raise ValueError(f"{len(fs)} factors, expected {self.n}")
        object.__setattr__(self, "factors", fs)

    @property
    def alphabet(self) -> int:
        return self.M * self.d

    @staticmethod
    def from_factors(factors: Iterable[Iterable[int]], M: int) -> "TensorMonomial":
        fs = tuple(tuple(f) for f in factors)
        d = len(fs[0]) if fs else 0
        return TensorMonomial(d, len(fs), M, fs)


class _BaseElement:
    """Shared sparse-linear-combination plumbing for Element and SymElement."""

    __slots__ = ("d", "n", "M", "terms")

    _canonical = False

    def __init__(self, d: int, n: int, M: int, terms: Mapping[FactorTuple, Rational] | None = None,
                 _validated: bool = False):
        """`_validated` terms are adopted as they are: a fresh dict with
        canonical keys and coefficients and no zero coefficient."""
        # a float, a string or a bool is refused, as in `int_tuple`
        if d.__class__ is not int or n.__class__ is not int or M.__class__ is not int \
                or d < 0 or n < 0 or M < 0:
            raise ValueError(f"bad bidegree ({d!r},{n!r}) with multiplier {M!r}")
        self.d = d
        self.n = n
        self.M = M
        if _validated and terms is not None:
            self.terms = terms
            return
        tmap: dict[FactorTuple, Rational] = {}
        if terms:
            alphabet = self.M * self.d
            for key, coeff in terms.items():
                c = exact(coeff)
                if not c:
                    continue
                fs = tuple(_check_factor(f, self.d, alphabet) for f in key)
                if len(fs) != self.n:
                    raise ValueError(f"monomial {fs} has {len(fs)} factors, expected {self.n}")
                if self._canonical:
                    fs = canonicalize(fs)
                s = exact(tmap.get(fs, 0) + c)
                if s:
                    tmap[fs] = s
                else:
                    del tmap[fs]
        self.terms = tmap

    @property
    def bidegree(self) -> tuple[int, int, int]:
        return (self.d, self.n, self.M)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (type(self) is type(other) and self.bidegree == other.bidegree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((type(self).__name__, self.bidegree, frozenset(self.terms.items())))

    def _same_shape(self, other) -> None:
        if type(self) is not type(other):
            raise ValueError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.bidegree != other.bidegree:
            raise ValueError(f"bidegree mismatch: {self.bidegree} vs {other.bidegree}")

    def add_scale(self, other, c: Rational = 1):
        """self + c * other, dropping zero coefficients.

        The result's coefficients are in canonical form.
        """
        self._same_shape(other)
        c = exact(c)
        out = dict(self.terms)
        if c:
            for key, coeff in other.terms.items():
                s = out.get(key, 0) + c * coeff
                if s:
                    out[key] = s if s.__class__ is int else exact(s)
                else:
                    out.pop(key, None)
        return type(self)(self.d, self.n, self.M, out, _validated=True)

    def scale(self, c: Rational):
        c = exact(c)
        if not c:
            return type(self)(self.d, self.n, self.M)
        nums, den = to_numerators(self.terms)
        if c.__class__ is not int:
            den *= c.denominator
            c = c.numerator
        return type(self)(self.d, self.n, self.M,
                          from_numerators({k: c * v for k, v in nums.items()}, den),
                          _validated=True)

    def __add__(self, other):
        return self.add_scale(other)

    def __sub__(self, other):
        return self.add_scale(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return f"{type(self).__name__}({self.d},{self.n},M={self.M}; 0)"
        bits = []
        for key in sorted(self.terms):
            bits.append(f"{self.terms[key]}*{key}")
        return f"{type(self).__name__}({self.d},{self.n},M={self.M}; " + " + ".join(bits) + ")"


class Element(_BaseElement):
    """Sparse rational combination of tensor monomials of one bidegree.

    Keys of ``terms`` are tuples of n wedge factors, one per tensor slot.
    The zero element keeps its bidegree tag so products stay well typed.
    """

    _canonical = False


class SymElement(_BaseElement):
    """Sparse rational combination of symmetric monomials (sorted multisets)."""

    _canonical = True


def monomial(d: int, n: int, M: int, factors: Iterable[Iterable[int]],
             coeff: Rational = 1) -> Element:
    return Element(d, n, M, {tuple(tuple(f) for f in factors): coeff})


def sym_monomial(d: int, n: int, M: int, factors: Iterable[Iterable[int]],
                 coeff: Rational = 1) -> SymElement:
    return SymElement(d, n, M, {tuple(tuple(f) for f in factors): coeff})


def permute_slots(f: Element, perm: Sequence[int]) -> Element:
    """Reorder tensor slots: slot k of the result is slot perm[k] of f (0-based).

    The reordering is a bijection on keys, so coefficients carry over as they are.
    The library does not call it; it stays public as the definition of slot
    invariance that `is_sym_invariant` is tested against, and because the
    benchmark's tracer wraps it by name.
    """
    if sorted(perm) != list(range(f.n)):
        raise ValueError(f"{perm} is not a permutation of range({f.n})")
    return Element(f.d, f.n, f.M,
                   {tuple(key[p] for p in perm): coeff for key, coeff in f.terms.items()},
                   _validated=True)


def is_sym_invariant(f: Element) -> bool:
    """True when f is fixed by every permutation of its tensor slots.

    Adjacent transpositions generate the symmetric group, so it suffices
    that swapping any two neighbouring slots of any key gives a key with
    the same coefficient.
    """
    terms = f.terms
    for key, coeff in terms.items():
        for i in range(f.n - 1):
            a, b = key[i], key[i + 1]
            if a != b:
                got = terms.get(key[:i] + (b, a) + key[i + 2:])
                if got is not coeff and got != coeff:
                    return False
    return True


def iter_factors(width: int, alphabet: int) -> Iterable[Factor]:
    """All strictly increasing width-tuples over [1..alphabet]."""
    return combinations(range(1, alphabet + 1), width)


def iter_tensor_keys(d: int, n: int, M: int) -> Iterable[FactorTuple]:
    """All tensor monomial keys of bidegree (d, n)."""
    return product(iter_factors(d, M * d), repeat=n)


def iter_sym_keys(d: int, n: int, M: int) -> Iterable[FactorTuple]:
    """All canonical symmetric monomial keys of bidegree (d, n)."""
    return combinations_with_replacement(iter_factors(d, M * d), n)


# ---------------------------------------------------------------------------
# JSON wire format
#
#   {"bidegree": [d, n, M],
#    "terms": [{"coeff": "p/q", "monomial": [[i, ...], ...]}, ...]}
#
# Factors must be strictly increasing; readers reject violations.  Terms
# are listed in ascending monomial order.  `wire_dict` builds this dict from
# (monomial, coefficient) pairs and leaves each monomial its tuple of factor
# tuples, which `json` writes as the same arrays; `element_to_dict` returns
# lists, for Python callers that read or compare the dict.
# ---------------------------------------------------------------------------

def coeff_to_str(c: Rational) -> str:
    if c.__class__ is int:
        return f"{c}/1"
    c = Fraction(c)
    return f"{c.numerator}/{c.denominator}"


def coeff_from_str(s: str) -> Rational:
    """The coefficient "p/q" as an int when integral, else as a Fraction.

    "p/1", the common case, is read without building a Fraction.  A zero
    denominator, like any unreadable string, raises ValueError.
    """
    if not isinstance(s, str):
        raise ValueError(f"coefficient must be a string, got {s!r}")
    num, _, den = s.partition("/")
    if den == "1" and (num[1:] if num[:1] == "-" else num).isdecimal():
        return int(num)
    try:
        c = Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {s!r} has a zero denominator") from None
    return c.numerator if c.denominator == 1 else c


def wire_dict(d: int, n: int, M: int, terms: Iterable[tuple[FactorTuple, Rational]]) -> dict:
    """The wire dict of the element of bidegree (d, n, M) with these terms.

    `terms` are (monomial, nonzero coefficient) pairs in ascending monomial
    order.  Each monomial goes in as it is, a tuple of factor tuples, so
    `json.dumps` writes the bytes it writes for `element_to_dict`.
    """
    return {"bidegree": [d, n, M],
            "terms": [{"coeff": coeff_to_str(c), "monomial": key} for key, c in terms]}


def element_to_dict(f: _BaseElement) -> dict:
    terms = []
    for key in sorted(f.terms):
        terms.append({"coeff": coeff_to_str(f.terms[key]),
                      "monomial": [list(factor) for factor in key]})
    return {"bidegree": [f.d, f.n, f.M], "terms": terms}


def element_from_dict(data: Mapping, symmetric: bool = False) -> Element | SymElement:
    try:
        d, n, M = int_tuple(data["bidegree"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad or missing bidegree: {exc}") from exc
    cls = SymElement if symmetric else Element
    terms: dict[FactorTuple, Rational] = {}
    try:
        for entry in data.get("terms", []):
            coeff = coeff_from_str(entry["coeff"])
            key = tuple(map(int_tuple, entry["monomial"]))
            terms[key] = terms.get(key, 0) + coeff
    except (KeyError, TypeError) as exc:
        # a term without a field, or terms, a term or a factor of another type
        raise ValueError(f"bad term: {exc!r}") from exc
    return cls(d, n, M, terms)

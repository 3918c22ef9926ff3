"""Plucker ideal generators, evaluation oracles, joins, secants, degree probe.

Width-d decomposable points are encoded by their maximal-minor coordinate
vectors; the quadratic generators come from the classical shuffle
(exchange) relations, and the basic width-2n family pairs each half-size
subset with its complement once.  Join components are exact kernels of the
comultiplication followed by quotient projections, computed over the
component of the second input one summand after another, the balanced
split first and membership in the first input last, each on the
combinations the summands before it left.  The conditions are linear, so
each monomial's are tabled once from the normal forms of its slot splits,
which are read off the canonical reduced quotient components with no
elimination, once per sub-monomial and input ideal: the ideal keeps them
(`quotient_reader`), so every block and summand of its joins shares them.

Both the join and the evaluation oracle work one torus-weight block at a
time (see `weights`).  The diagonal torus of GL_N acts on a monomial by the
character of its weight (how often each index occurs across its factors).
When both ideals of a join certify `permutation_stable`, their components
are graded and stable under the signed permutation action of S_N, and so
is the join kernel.  Its block at a dominant weight w
(`JoinIdeal.weight_block`) is then the kernel over the second input's
block at w, with the first input's block at w as the membership quotient,
solved and memoised alone; its block at any other weight is the signed
permutation (`weights.from_dominant`) of the dominant block of its orbit,
so a join kernel is solved only at dominant weights.  A whole component is
put together from the blocks at dominant weights, which `weights.orbit_fill`
carries to the rest of their orbits.  The quotient conditions take each
sub-monomial's normal form from its input's `quotient_reader`, one method
for both kinds of ideal, which reads it off the block at the
sub-monomial's weight, climbed from blocks for a `DiIdeal` and solved or
moved for a join, so no input of a certified join, and no inner join of an
r >= 2 secant, is built whole at any degree.  Without the certificate the join eliminates
all of the second input's component as one block, and reads its quotients
whole.
The evaluation kernel is the independent oracle: exact kernels of integer
evaluation matrices at random sums of decomposables, re-sampled until
stable.  The vanishing ideal is torus-stable, so it is the direct sum of
its weight pieces: blocking leaves the kernel unchanged while shrinking the
dense eliminations from every monomial to the largest block.  The secant
variety is stable under permutation matrices, so the ideal is stable under
the signed S_N action as well, and the oracle solves only the dominant
blocks, enumerating their monomials directly (`weights.dominant_weights`,
`weights.monomials_of_weight`); the same orbit fill carries their kernels
to the rest of each orbit, and every carried vector is evaluated exactly
at the last round's points, so the oracle does not take the action on
trust.  Both paths keep kernels as sparse rows in canonical form and turn
them back into rows with `linalg.recombine`.  The oracle loads `certified`,
whose mod-p kernels run on packed Python ints, on first use.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm
from operator import add, mul, sub
from typing import Iterable, Mapping, Optional, Sequence

from .core import (
    Factor,
    FactorTuple,
    IncFn,
    Rational,
    SymElement,
    int_tuple,
    merge_signed,
    sym_monomial,
    to_numerators,
)
from .ideals import ComponentBasis, DiIdeal, NormalForm
from .linalg import SparseRREF, kernel_basis, recombine
from .products import sym_star
from .stages import ASSEMBLY, JOIN_KERNELS
from .weights import (
    FactorTable,
    Weight,
    act,
    dominant_weights,
    from_dominant,
    is_dominant,
    monomials_of_weight,
    orbit_fill,
)

__all__ = [
    "GrassmannConfig", "basic_plucker", "weyman_quadrics", "plucker_ideal",
    "evaluate", "decomposable_point", "random_secant_point",
    "evaluation_kernel", "pfaffian", "JoinIdeal", "secant_ideal", "degree_probe",
]


@dataclass(frozen=True)
class GrassmannConfig:
    """Target Grassmannian Gr(d, N) and secant index r.

    N defaults to d * (r + 2).  The alphabet multiplier M = N / d is derived
    here and nowhere else; N must be a multiple of d.  The fields are checked
    once, in `__post_init__`, so the config is frozen.  It is not slotted: the
    `__setattr__` that `dataclass` generates for a frozen slotted class
    raises TypeError, not AttributeError, for a name that is not a field,
    such as `M`, and a handful of configs per run saves no memory.
    """

    d: int
    N: Optional[int] = None
    r: int = 0

    def __post_init__(self):
        # a float, a string or a bool is refused, as in `core.int_tuple`
        int_tuple((self.d, self.r) if self.N is None else (self.d, self.N, self.r))
        if self.N is None:
            object.__setattr__(self, "N", self.d * (self.r + 2))
        if not 1 <= self.d <= self.N:
            raise ValueError(f"need 1 <= d <= N, got d={self.d}, N={self.N}")
        if self.r < 0:
            raise ValueError("secant index must be >= 0")
        if self.N % self.d:
            raise ValueError(f"N={self.N} is not a multiple of d={self.d}; "
                             "symmetric-algebra machinery needs N = M*d")

    @property
    def M(self) -> int:
        return self.N // self.d


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def basic_plucker(n: int) -> SymElement:
    """The width-2n quadric pairing each 2n-subset of [4n] with its complement.

    Signs are the parities of the permutations sorting (S, complement);
    n = 1 gives x12 x34 - x13 x24 + x14 x23.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    total = 4 * n
    terms: dict[FactorTuple, int] = {}
    universe = tuple(range(1, total + 1))
    for rest in combinations(universe[1:], 2 * n - 1):
        S = (1,) + rest
        comp = tuple(i for i in universe if i not in set(S))
        sign, _ = merge_signed(S, comp)
        key = tuple(sorted((S, comp)))
        terms[key] = sign
    return SymElement(2 * n, 2, 2, terms)


def weyman_quadrics(d: int, N: int) -> list[SymElement]:
    """Quadratic exchange relations for the width-d minors inside [N].

    For index sets i (size u), j (size 2d-u-v) and l (size v), sum over
    shuffles of the j-block split (d-u | d-v) with the shuffle sign.  The
    returned set spans the full degree-2 component of the vanishing ideal.
    """
    M = GrassmannConfig(d=d, N=N).M
    if d < 2 or 2 * d > N:
        return []
    out: list[SymElement] = []
    universe = tuple(range(1, N + 1))
    for u in range(d):
        for v in range(d - u):
            # the shuffled block must be longer than one factor (u + v < d),
            # otherwise the alternating sum is not a relation
            jlen = 2 * d - u - v
            for iset in combinations(universe, u):
                for jset in combinations(universe, jlen):
                    for lset in combinations(universe, v):
                        terms: dict[FactorTuple, int] = {}
                        for first_pos in combinations(range(jlen), d - u):
                            second_pos = tuple(k for k in range(jlen) if k not in set(first_pos))
                            shuffle_sign, _ = merge_signed(first_pos, second_pos)
                            s1, f1 = merge_signed(iset, tuple(jset[k] for k in first_pos))
                            s2, f2 = merge_signed(tuple(jset[k] for k in second_pos), lset)
                            key = tuple(sorted((f1, f2)))
                            c = terms.get(key, 0) + shuffle_sign * s1 * s2
                            if c:
                                terms[key] = c
                            else:
                                terms.pop(key, None)
                        el = SymElement(d, 2, M, terms, _validated=True)
                        if el:
                            out.append(el)
    return out


def plucker_ideal(M: int, max_d: int, cache_dir=None) -> DiIdeal:
    """The sum of the width-d' minor ideals for d' up to max_d, as a di-ideal.

    The quadric families are reduced to a basis per width first; the ideal
    they generate is unchanged and every later enumeration shrinks.  That
    basis is built once per (M, max_d) in a process; every call gets its
    own copies of it in a new ideal.
    """
    gens = [SymElement(g.d, g.n, g.M, dict(g.terms), _validated=True)
            for g in _plucker_generators(M, max_d)]
    return DiIdeal(M, gens, cache_dir=cache_dir)


@cache
def _plucker_generators(M: int, max_d: int) -> tuple[SymElement, ...]:
    gens: list[SymElement] = []
    for d in range(2, max_d + 1):
        comp = ComponentBasis(d, 2, M)
        for q in weyman_quadrics(d, M * d):
            comp.add(q)
        gens.extend(comp.basis_elements())
    return tuple(gens)


# ---------------------------------------------------------------------------
# points and evaluation
#
# A batch of sampled points is held as one list per minor coordinate, its
# value at every point.  The batch's matrix entries are drawn at once, and
# each minor is expanded over all its matrices at once.  A monomial's values
# are the elementwise product of its factors' lists, and a polynomial's one
# integer combination of its monomials' lists.
# ---------------------------------------------------------------------------

# `rng.randint(-9, 9)` takes the top 5 bits of a 32-bit word and redraws
# while they are 19 or more: per top byte its 5 bits, the bytes redrawn,
# and the entry an accepted value stands for
_TOP5 = bytes(b >> 3 for b in range(256))
_REDRAWN = bytes(range(19 << 3, 256))
_ENTRY = range(-9, 10)


def _draw_entries(rng: random.Random, count: int) -> list[int]:
    """The values of the next count `rng.randint(-9, 9)` calls, drawn in bulk.

    `getrandbits(32 * m)` holds the next m words, the first least
    significant, so its little-endian bytes [3::4] are their top bytes in
    draw order.  A word gives at most one value, so asking for no more
    words than values still missing takes exactly the words the calls
    take, and leaves the generator where they leave it.
    """
    drawn = b""
    while len(drawn) < count:
        m = count - len(drawn)
        drawn += rng.getrandbits(32 * m).to_bytes(4 * m, "little")[3::4].translate(
            _TOP5, _REDRAWN)
    return list(map(_ENTRY.__getitem__, drawn))


@cache
def _minor_plan(d: int, N: int) -> tuple[tuple[Factor, ...], tuple]:
    """How to expand every d x d minor of a d x N matrix, bottom row first.

    Level k covers the minors of the bottom k rows, one per k-subset S of
    the columns in `combinations` order; level 1 is the bottom row itself,
    and for k >= 2 the minor at S expands along the top row of the k into
    the minors of level k-1.  For each S, level k lists per position p of
    S the 0-based column at p and the index in level k-1 of S without that
    column.  Returns the width-d subsets (the coordinates of a point, in
    order) and the levels from 2 up.
    """
    index = {(c,): c - 1 for c in range(1, N + 1)}
    levels = []
    for k in range(2, d + 1):
        subsets = list(combinations(range(1, N + 1), k))
        levels.append(tuple(tuple((S[p] - 1, index[S[:p] + S[p + 1:]]) for p in range(k))
                            for S in subsets))
        index = {S: i for i, S in enumerate(subsets)}
    return tuple(index), tuple(levels)


def _minor_columns(entries: Sequence[int], d: int, N: int) -> list[list[int]]:
    """The maximal minors of a batch of d x N matrices, one list over the
    matrices per minor, in the order of `_minor_plan`; `entries` holds the
    matrices one after another, each row by row."""
    size = d * N
    minors = [entries[(d - 1) * N + c::size] for c in range(N)]
    for i, level in zip(reversed(range(d - 1)), _minor_plan(d, N)[1]):
        row = [entries[i * N + c::size] for c in range(N)]
        expanded = []
        for (c, below), *rest in level:
            minor = list(map(mul, row[c], minors[below]))
            for p, (c, below) in enumerate(rest, 1):
                minor = list(map(sub if p % 2 else add, minor, map(mul, row[c], minors[below])))
            expanded.append(minor)
        minors = expanded
    return minors


def _secant_columns(rng: random.Random, d: int, N: int, r: int,
                    count: int) -> dict[Factor, list[int]]:
    """count random sums of r+1 decomposables, as one list over the points
    per coordinate: the points of count `random_secant_point` calls."""
    keys, _ = _minor_plan(d, N)
    k = r + 1
    out = {}
    for key, minor in zip(keys, _minor_columns(_draw_entries(rng, count * k * d * N), d, N)):
        total = minor[::k]
        for t in range(1, k):
            total = list(map(add, total, minor[t::k]))
        out[key] = total
    return out


def decomposable_point(matrix: Sequence[Sequence[int]], d: int, N: int) -> dict[Factor, int]:
    """Minor coordinates of the span of d row vectors in k^N.

    All d x d minors in one pass, bottom row first: the minor of rows
    i..d-1 at columns S expands along row i into minors of rows i+1..d-1,
    each computed once per point and shared by every S that contains it.
    """
    if len(matrix) != d or any(len(row) != N for row in matrix):
        raise ValueError(f"need a {d}x{N} matrix")
    keys, _ = _minor_plan(d, N)
    minors = _minor_columns([x for row in matrix for x in row], d, N)
    return {key: minor for key, (minor,) in zip(keys, minors)}


def random_secant_point(rng: random.Random, d: int, N: int, r: int) -> dict[Factor, int]:
    """Coordinates of a sum of r+1 random decomposables."""
    return {key: values[0] for key, values in _secant_columns(rng, d, N, r, 1).items()}


def evaluate(f: SymElement, point: Mapping[Factor, int | Fraction]) -> Fraction:
    """Exact value of f at a coordinate vector indexed by width-d subsets,
    summed in integer numerators over one denominator."""
    nums, den = to_numerators(f.terms)
    total = 0
    try:
        for key, prod in nums.items():
            for fac in key:
                prod *= point[fac]
                if not prod:
                    break
            total += prod
    except KeyError as exc:
        raise ValueError(f"point has no coordinate for {exc.args[0]} "
                         f"(alphabet [1..{f.M * f.d}])") from None
    return Fraction(total, den)


class _Values(dict):
    """Monomials' values at a batch of points (`_secant_columns`), filled on
    first use: a monomial's list is the elementwise product of its factors'
    lists, kept for every vector that has the monomial.  Build one per
    block of monomials, and let it go with them."""

    __slots__ = ()

    def __init__(self, points: Mapping[Factor, list[int]]):
        super().__init__(((fac,), values) for fac, values in points.items())
        self[()] = [1] * len(next(iter(points.values())))

    def __missing__(self, key: FactorTuple) -> list[int]:
        values = self[key[:1]]
        for fac in key[1:]:
            values = list(map(mul, values, self[(fac,)]))
        self[key] = values
        return values


def _combination(values: Mapping[FactorTuple, list[int]],
                 terms: Iterable[tuple[FactorTuple, int]]) -> list[int]:
    """The sum of a * values[key] over nonempty (key, a) terms, at every point."""
    total = None
    for key, a in terms:
        column = values[key]
        if total is None:
            total = column if a == 1 else list(map(a.__mul__, column))
        elif a == 1:
            total = list(map(add, total, column))
        elif a == -1:
            total = list(map(sub, total, column))
        else:
            total = list(map(add, total, map(a.__mul__, column)))
    return total


# ---------------------------------------------------------------------------
# evaluation-kernel oracle
# ---------------------------------------------------------------------------

def _cut_kernel(keys: Sequence[FactorTuple], kernel: list[dict[int, Rational]],
                values: _Values) -> list[dict[int, Rational]]:
    """The combinations of the sparse kernel vectors that also vanish at the points.

    `values` holds the points for the block whose monomials are `keys`.
    Each vector's values times the lcm L of the denominators are one
    integer combination; scaling each point's row by L keeps its kernel.
    The combinations keep the canonical form: each has coefficient 1 at its
    largest column and 0 at the largest column of every other vector.
    """
    scaled = [to_numerators(vec) for vec in kernel]
    common = lcm(*(den for _, den in scaled))
    at_points = [_combination(values, [(keys[c], a * (common // den)) for c, a in nums.items()])
                 for nums, den in scaled]
    if not any(map(any, at_points)):
        return kernel  # every vector vanishes at the points
    rows = ({t: v for t, v in enumerate(row) if v} for row in zip(*at_points))
    return recombine(kernel_basis(rows, len(kernel)), kernel)


def evaluation_kernel(cfg: GrassmannConfig, n: int, samples: Optional[int] = None,
                      seed: int = 0) -> list[SymElement]:
    """Polynomials of degree n vanishing on sums of r+1 decomposables.

    The monomial columns are split into weight blocks (see `weights`).
    The vanishing ideal is stable under the diagonal torus, which scales a
    monomial by the character of its weight, so each of its components is
    the direct sum of its weight pieces, and a polynomial vanishes on the
    secant variety iff each of its weight pieces does.  The secant variety
    is also stable under permutation matrices, so the ideal is stable
    under the signed action of S_N and each block's kernel is sigma times
    the kernel of the dominant block of its orbit.

    Only the dominant blocks are therefore solved: the certified exact
    kernel of the integer evaluation matrix of a block's columns at random
    points (`samples` points shared by the dominant blocks, by default the
    largest block size plus 24).  Each later round draws max(64, 2k) fresh
    points, k the largest block kernel, and restricts them to every block
    whose kernel is not yet zero, until no block's kernel changes for two
    consecutive rounds.  Then `weights.orbit_fill` carries each kernel to
    the rest of its orbit, and every vector it carries is evaluated exactly
    at the last round's points, at which the last round has just cut the
    kernel itself; one that does not vanish raises.

    The filled vectors go into one `SparseRREF` whose columns are the
    monomials themselves, with no index over the whole monomial space; the
    blocks have disjoint columns, so each is echeloned alone, with its
    smallest monomial as pivot.  Each basis vector is weight-homogeneous,
    has coefficient 1 at its smallest monomial, the largest column in the
    descending order of `ideals.monomial_space`, 0 at the pivot of every
    other vector and an int at every integral coefficient; the vectors are
    sorted by pivot, largest first.  This is the reduced echelon basis of
    the whole kernel.
    """
    from .certified import certified_kernel

    d, N, r, M = cfg.d, cfg.N, cfg.r, cfg.M
    # each dominant block's monomials, in column order
    blocks = [(w, monomials_of_weight(w, d, n)) for w in dominant_weights(d, n, N)]
    # blocks of one orbit have one size, so the largest block is dominant
    if samples is None:
        samples = max(len(keys) for _, keys in blocks) + 24
    points = _secant_columns(random.Random(1_000_003 * seed), d, N, r, samples)
    # (dominant weight, block monomials, kernel over the block's columns)
    kernels = []
    for w, keys in blocks:
        # one row per point; the value lists go before the kernel is solved
        rows = list(zip(*map(_Values(points).__getitem__, keys)))
        kernel = certified_kernel(rows, len(keys))
        if kernel:
            kernels.append((w, keys, kernel))
    stable = 0
    round_no = 0
    while kernels and stable < 2:
        round_no += 1
        if round_no > 16:
            raise RuntimeError("evaluation kernel failed to stabilize")
        rng = random.Random(1_000_003 * seed + round_no)
        largest = max(len(kernel) for _, _, kernel in kernels)
        points = _secant_columns(rng, d, N, r, max(64, 2 * largest))
        cut = [(w, keys, _cut_kernel(keys, kernel, _Values(points)))
               for w, keys, kernel in kernels]
        changed = any(len(new) < len(old) for (_, _, new), (_, _, old) in zip(cut, kernels))
        stable = 0 if changed else stable + 1
        kernels = [entry for entry in cut if entry[2]]
    basis = SparseRREF()
    for w, keys, kernel in kernels:
        elems = [SymElement(d, n, M, {keys[j]: v for j, v in vec.items()}, _validated=True)
                 for vec in kernel]
        # the last cut made the block's own vectors vanish at these points,
        # so only the carried ones are evaluated, from the values of each
        # sigma's block of monomials, built once
        for k, e in enumerate(orbit_fill(w, elems)):
            if k >= len(elems):
                if k % len(elems) == 0:
                    values = _Values(points)
                if any(_combination(values, to_numerators(e.terms)[0].items())):
                    raise RuntimeError(f"a vector filled into the orbit of weight {w} "
                                       "does not vanish at the last round's points")
            basis.add(e.terms)
    return [SymElement(d, n, M, row, _validated=True) for row in reversed(basis.basis_rows())]


# ---------------------------------------------------------------------------
# Pfaffians
# ---------------------------------------------------------------------------

def pfaffian(indices: Sequence[int], N: int) -> SymElement:
    """Sub-Pfaffian of the generic skew matrix on the given even index set."""
    idx = tuple(sorted(int_tuple(indices)))
    if len(idx) % 2 != 0:
        raise ValueError("Pfaffian needs an even index set")
    if len(set(idx)) != len(idx):
        raise ValueError("repeated indices")
    if N % 2 != 0:
        raise ValueError("alphabet size must be even for width-2 elements")
    if idx and (idx[0] < 1 or idx[-1] > N):
        raise ValueError(f"indices leave [1..{N}]")
    k = len(idx) // 2

    def matchings(elems: tuple[int, ...]):
        if not elems:
            yield (), 1
            return
        first = elems[0]
        rest = elems[1:]
        for pos, partner in enumerate(rest):
            remaining = rest[:pos] + rest[pos + 1:]
            for pairs, sign in matchings(remaining):
                yield ((first, partner),) + pairs, sign * (-1) ** pos

    terms = {tuple(sorted(pairs)): sign for pairs, sign in matchings(idx)}
    return SymElement(2, k, N // 2, terms)


# ---------------------------------------------------------------------------
# generation of the basic quadric family
#
# Each basic quadric generates the next one: summing the star products of
# the width-2n quadric with every unordered split monomial over all
# injections fixing 1, weighted by the sign sorting the reassembled index
# list, is an exact multiple of the width-(2n+2) quadric (9 times it for
# n = 1).  Ordered split pairs would double-count: the symmetric product
# already averages the two factor orders.
# ---------------------------------------------------------------------------

SPLIT_REPS = (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))


def _family_terms(n: int):
    """All (g, split, second-factor monomial, sign) for the generation sum."""
    dom, cod = 4 * n, 4 * n + 4
    for rest in combinations(range(2, cod + 1), dom - 1):
        g = IncFn(dom, cod, (1,) + rest)
        comp = g.complement().image
        for (s12, s34) in SPLIT_REPS:
            reassembled = (g.image[:2 * n]
                           + (comp[s12[0] - 1], comp[s12[1] - 1])
                           + g.image[2 * n:]
                           + (comp[s34[0] - 1], comp[s34[1] - 1]))
            inv = sum(1 for a in range(len(reassembled))
                      for b in range(a + 1, len(reassembled))
                      if reassembled[a] > reassembled[b])
            sign = -1 if inv % 2 else 1
            yield g, (s12, s34), sym_monomial(2, 2, 2, [s12, s34]), sign


def quadric_generation_sum(n: int, signed: bool = True) -> SymElement:
    """The signed star-product sum taking the n-th basic quadric one step up."""
    fn = basic_plucker(n)
    total = SymElement(2 * n + 2, 2, 2)
    for g, _, mono, sign in _family_terms(n):
        prod = sym_star(fn, mono, g)
        total = total.add_scale(prod, sign if signed else 1)
    return total


def generation_census(n: int, target: FactorTuple) -> dict[FactorTuple, int]:
    """How many (g, split) pairs produce the target monomial, per quadric term."""
    fn = basic_plucker(n)
    target = tuple(sorted(tuple(sorted(f)) for f in target))
    counts: dict[FactorTuple, int] = {}
    for key in sorted(fn.terms):
        single = SymElement(fn.d, fn.n, fn.M, {key: 1}, _validated=True)
        c = 0
        for g, _, mono, _ in _family_terms(n):
            if target in sym_star(single, mono, g).terms:
                c += 1
        counts[key] = c
    return counts


def gamma_count(n: int) -> int:
    """The integer count (number of summed terms over the target term count)."""
    from math import comb
    num = comb(4 * n, 2 * n) * 6 * comb(4 * n + 3, 2 * n + 1)
    den = comb(4 * n + 4, 2 * n + 2)
    if num % den:
        raise ArithmeticError(f"count is not integral at n={n}")
    return num // den


# ---------------------------------------------------------------------------
# joins and secants
#
# The (d, n) component of the join of I and J is the kernel of the subset
# comultiplication followed, in each summand Sym^i x Sym^(n-i), by the
# quotient projections modulo I_(d,i) and J_(d,n-i).  The i = 0 summand
# forces membership in J, so the kernel is solved over V, J's part at
# (d, n); the i = n summand, membership in I, is its last condition.  The
# summands are solved in a chain, each in its own elimination over the
# combinations of V's rows that the ones before it left.  The quotients are
# read one sub-monomial at a time, through `quotient_reader`: a certified
# input, a `DiIdeal` or a join, reads its normal form off the block at the
# sub-monomial's weight, so a certified join never builds a whole component
# of an input, at any degree, and reads or writes no cache file for it.
# ---------------------------------------------------------------------------

class _ConditionTables(dict):
    """The condition table of each column of one summand, filled on first use.

    The table of the column c, whose monomial is monomials[c], sums the
    normal forms of left and right multiplied out over the C(n, i) slot
    splits of its monomial, left modulo QL and right modulo QR.  Each side
    maps a sub-monomial to its normal form: an ideal's `quotient_reader`,
    a `DiIdeal`'s or a join's, which the ideal keeps, so the normal forms
    are shared by every summand and block that reads that ideal at that
    degree, and read once each.  When i = n - i, a sub-monomial has one
    normal form per side unless the two sides are one reader, as in the
    balanced summand of a self-join.  A table keeps its cancelled entries
    (`_join_kernel` drops them once, from its summed condition rows).  The
    tables are this summand's: build one per solve, and let it go with it.
    """

    __slots__ = ("QL", "QR", "monomials", "splits")

    def __init__(self, QL: Mapping[FactorTuple, NormalForm],
                 QR: Mapping[FactorTuple, NormalForm], i: int,
                 monomials: Sequence[FactorTuple]):
        super().__init__()
        self.QL, self.QR, self.monomials = QL, QR, monomials
        n = len(monomials[0])
        self.splits = [(pos, tuple(t for t in range(n) if t not in pos))
                       for pos in combinations(range(n), i)]

    def __missing__(self, col: int) -> dict[tuple[int, int], Rational]:
        get = self.monomials[col].__getitem__
        QL, QR = self.QL, self.QR
        table = self[col] = {}
        for pos, rest in self.splits:
            rnf = QR[tuple(map(get, rest))]
            for lc, lv in QL[tuple(map(get, pos))]:
                for rc, rv in rnf:
                    table[(lc, rc)] = table.get((lc, rc), 0) + lv * rv
        return table


def exact_join_component(join: JoinIdeal, d: int, n: int) -> ComponentBasis:
    """The (d, n) component of a join, in canonical reduced form.

    When the join certifies `permutation_stable(d, n)`, the component is
    put together from its blocks at the dominant weights
    (`JoinIdeal.weight_block`): `weights.orbit_fill` yields each block's
    rows as they are, then carries them to the other blocks of their orbit,
    one signed permutation per block.  The blocks have disjoint columns, so
    the order they are added in does not change the rows.  Without the
    certificate the kernel is eliminated once, over all of J_(d,n).
    """
    with ASSEMBLY:
        I, J = join.I, join.J
        comp = ComponentBasis(d, n, join.M)
        if join.permutation_stable(d, n):
            for w in dominant_weights(d, n, join.M * d):
                for e in orbit_fill(w, join.weight_block(d, n, w).basis_elements()):
                    comp.add(e)
        else:
            for row in _join_kernel(I, J, d, n, J.component(d, n)):
                comp.basis.add(row)
    return comp


def _join_kernel(I, J, d: int, n: int, V: ComponentBasis) -> list[dict[int, Rational]]:
    """The combinations of V's rows that satisfy every summand i >= 1, in columns.

    V is J's part at (d, n): its whole component, or its block at one
    weight.  Summand i reads I_(d,i) on the left and J_(d,n-i) on the right,
    each through its `quotient_reader`, so the membership summand i = n reads
    I's block at each monomial's weight when I is certified and I's whole
    component otherwise.  The summands are solved one after the
    other, in increasing |n - 2i|: the balanced split, which cuts the most
    for the least work, first, and membership in I last.  A summand has
    one condition row per (left, right) column pair, whose entry t sums the
    column tables of the t-th row left so far, scaled by its coefficients;
    the rows, with their cancelled entries dropped, go into one
    `linalg.kernel_basis`, which stops at full rank.  Its kernel recombines
    the rows left, and the next summand reads only the combinations.  The
    rows returned span the kernel but are not reduced.
    """
    with JOIN_KERNELS:
        rows = V.basis.basis_rows()
        summands = range(1, n + 1)
        if I is J:
            # V lies in I, and the (n-i)-th condition is the slot swap of the i-th one
            summands = [i for i in range(1, n) if i <= n - i]
        for i in sorted(summands, key=lambda i: abs(n - 2 * i)):
            nv = len(rows)
            if not nv:
                break
            tables = _ConditionTables(I.quotient_reader(d, i), J.quotient_reader(d, n - i),
                                      i, V.monomials)
            conditions: dict[tuple[int, int], dict[int, Rational]] = defaultdict(dict)
            for t, row in enumerate(rows):
                for col, coeff in row.items():
                    for key, v in tables[col].items():
                        cond = conditions[key]
                        cond[t] = cond.get(t, 0) + coeff * v
            # the one place cancelled entries are dropped; no empty row is added
            nonzero = ({t: v for t, v in conditions[key].items() if v}
                       for key in sorted(conditions))
            rows = recombine(kernel_basis(filter(None, nonzero), nv), rows)
    return rows


class JoinIdeal:
    """The join of two ideals, with per-bidegree exact kernel components."""

    def __init__(self, I, J):
        if I.M != J.M:
            raise ValueError("multiplier mismatch")
        self.I = I
        self.J = J
        self.M = I.M
        self._components: dict[tuple[int, int], ComponentBasis] = {}
        # weight blocks solved alone; in memory only
        self._blocks: dict[tuple[int, int, Weight], ComponentBasis] = {}
        # the normal forms of `quotient_reader`, one reader per (d, k); in
        # memory only
        self._readers: dict = {}

    def component(self, d: int, n: int) -> ComponentBasis:
        key = (d, n)
        comp = self._components.get(key)
        if comp is None:
            comp = exact_join_component(self, d, n)
            self._components[key] = comp
        return comp

    def weight_block(self, d: int, n: int, w: Weight) -> ComponentBasis:
        """The canonical reduced rows of the (d, n) component at the torus weight w.

        At a dominant w, the kernel over J's block at w of the middle
        conditions and of membership in I, read off I's block at w: the
        comultiplication and the quotient projections are torus-equivariant,
        so this is the weight-w part of the component once the join is
        graded.  At any other w it is sigma times the block at the dominant
        rearrangement of w, for sigma = `weights.from_dominant(w)`, echeloned
        again, since the component is S_N-stable too; so a join kernel is
        solved only at dominant weights.  A ValueError is raised unless
        `permutation_stable(d, n)` holds.  Blocks are memoised per (d, n, w),
        never cached on disk.
        """
        key = (d, n, w)
        block = self._blocks.get(key)
        if block is not None:
            return block
        if not self.permutation_stable(d, n):
            raise ValueError(f"the join at {(d, n)} is not certified graded")
        block = ComponentBasis(d, n, self.M)
        if is_dominant(w):
            for row in _join_kernel(self.I, self.J, d, n, self.J.weight_block(d, n, w)):
                block.basis.add(row)
        else:
            dominant = self.weight_block(d, n, tuple(sorted(w, reverse=True)))
            with ASSEMBLY:
                table = FactorTable(from_dominant(w))
                for e in dominant.basis_elements():
                    block.add(act(table, e))
        self._blocks[key] = block
        return block

    # normal forms read off the block at a monomial's weight when
    # certified, else off the whole component
    quotient_reader = DiIdeal.quotient_reader

    def permutation_stable(self, d: int, n: int) -> bool:
        """Both inputs certified: every join component (d, k), k <= n, is then
        graded and S_N-stable, since the comultiplication is equivariant."""
        return self.I.permutation_stable(d, n) and self.J.permutation_stable(d, n)


def secant_ideal(I, r: int):
    """The r-th iterated join; r = 0 is the ideal itself."""
    if int_tuple((r,))[0] < 0:
        raise ValueError("secant index must be >= 0")
    out = I
    for _ in range(r):
        out = JoinIdeal(I, out)
    return out


def modp_self_join_upper(I: DiIdeal, d: int, n: int,
                         must_contain: Sequence[SymElement] = ()) -> Optional[int]:
    """The dimension of the self-join component at (d, n), or None when an
    element of must_contain is not in I's (d, n) component.

    The library does not call it: it stays only because bench/tracing.py
    wraps it by name, and the benchmark change of ROADMAP item 1 deletes it
    with that entry.
    """
    comp = I.component(d, n)
    if not all(map(comp.contains, must_contain)):
        return None
    return JoinIdeal(I, I).component(d, n).dim


# ---------------------------------------------------------------------------
# degree probe
# ---------------------------------------------------------------------------

def degree_probe(cfg: GrassmannConfig, max_n: int, base: Optional[DiIdeal] = None) -> dict:
    """Per-degree dimensions, generated-from-below dimensions and new-generator counts.

    With C the secant ideal's components, the from-below span at (d, n) is
    one climb step (`DiIdeal.climb`) of C_(d,n-1): its multiples by every
    variable, plus the star rows of the narrower C_(d',n), d' < d, taken as
    the generators of a `DiIdeal` (none when C_(d',n) is zero).  That is
    the span generated by every C_(d',n') with d' <= d, n' <= n other than
    C_(d,n) itself, because the secant ideal is closed under both
    products: a star product of C_(d',n') lands in C_(d,n'), and a shuffle
    of C_(d,n') with n' < n lies in x * C_(d,n-1).

    `base` is the Plucker ideal `plucker_ideal(cfg.M, cfg.d)` whose secant
    is probed, passed in to read its components from a disk cache and its
    `cache_stats` afterwards; by default a new one without a cache.
    """
    d, r, M = cfg.d, cfg.r, cfg.M
    ideal = secant_ideal(base if base is not None else plucker_ideal(M, d), r)
    rows = []
    largest_new = None
    for n in range(1, max_n + 1):
        narrower = [e for dp in range(1, d) for e in ideal.component(dp, n).basis_elements()]
        lower = ideal.component(d, n - 2) if n >= 2 else None
        from_below = DiIdeal(M, narrower).climb(ideal.component(d, n - 1), d, n, lower).dim
        dim = ideal.component(d, n).dim
        rows.append({"n": n, "dim": dim, "from_below": from_below,
                     "new_generators": dim - from_below})
        if dim > from_below:
            largest_new = n
    return {
        "d": d, "N": cfg.N, "r": r, "M": M, "max_n": max_n,
        "rows": rows, "largest_new_n": largest_new,
    }

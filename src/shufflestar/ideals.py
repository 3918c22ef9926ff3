"""Two-product ideals of the symmetric algebra: component spans and quotients.

A generator list determines, in each bidegree (d, n), the span of all
h * (f star_g a) with f a generator, a a monomial raising the width, g an
increasing relabeling, and h a monomial raising the tensor degree.  That
single-round enumeration is exhaustive (products of products reduce to it),
and it is computed degree-climbing: the (d, n) component is spanned by
variable multiples of the (d, n-1) component together with the width-d
star products of generators of tensor degree exactly n.  `DiIdeal.climb`
takes that one step from any (d, n-1) span; `plucker.degree_probe` takes
a row's from-below span as one such step of C_(d,n-1), with the narrower
components as the generators whose star rows it adds.

The climb multiplies in column coordinates.  A variable x has coefficient
1 and sends distinct monomials to distinct monomials, so x times a stored
row of C_(d,n-1) is that row with its entries moved to the columns of x
times their monomials (`_multiples`).  Each column's images are looked up
once per climb step, each moved row is built entry by entry straight from
the row, and the moved rows are added each row, then each variable.  A
block climb step moves rows by one variable, a whole one by every
variable.  `raw_spanning_rows` spans the same component through
`sym_star` and `sym_shuffle`, as an independent check.

A whole climb step skips the products it knows to be redundant, the Koszul
pairs x_k * x_j * c that x_j * C_(d,n-1) already holds.  Given C_(d,n-2),
each row b of C_(d,n-1) is moved only by the variables, in `iter_factors`
order, up to and including the least factor x_j of its leading monomial
LM(b) with LM(b)/x_j a leading monomial of C_(d,n-2); a row with no such
factor is moved by every variable.  This is exact:
- C_(d,n-1) contains x * C_(d,n-2) for every variable x.
- The monomial order is multiplicative, x * a < x * b whenever a < b: of
  two sorted factor tuples of one length, the smaller is the one that
  holds the least factor whose counts in the two differ more often, and
  multiplying both by x changes no difference of counts.
- So b = x_j * c + (rows of C_(d,n-1) with smaller leading monomials),
  for the row c of C_(d,n-2) led by LM(b)/x_j, and for a later variable
  x_k, x_k * b = x_j * (x_k * c) + (x_k times those rows).  Since x_k * c
  lies in C_(d,n-1), every product on the right has a smaller leading
  monomial than x_k * b, or the same one and the earlier variable x_j.
  Induction on that pair puts every skipped product in the span of the
  kept ones, so the span and its canonical basis are unchanged.
`_compute_component` passes the C_(d,n-2) it holds in memory, if any (so
none when C_(d,n-1) was read from a file and nothing below it was built),
and `plucker.degree_probe` passes the secant's C_(d,n-2).  Block climbs
(`weight_block`) move every row.

All components of one (d, n, M) share its `monomial_space`: the monomials
in descending order and the column of each, built once per process and
never modified.

Components are auto-reduced against a descending monomial order, so pivot
monomials are the leading terms and non-pivots are the standard monomials
of the quotient (`standard_monomials` reads them off one keep-mask over
the columns).  A component goes into a report through `wire_rows`, the
wire dict of each canonical row, its columns in reverse, which are its
monomials in ascending order; no element is built for it.

Components are cached in memory and optionally on disk:
one JSON file per (M, d, n), named with a content hash of the generators
and of the file layout, holding the canonical reduced echelon rows as flat
arrays: `coeffs`, the distinct coefficients as "p/q" strings; `cols`, every
row's columns in ascending order, so a row's first column is its pivot;
`vals`, the index into `coeffs` of each entry; and `ends`, the cumulative
row ends.  The three index arrays are packed (`_pack`): each is stored as
[typecode, base64 text] of a little-endian unsigned `array` of the
narrowest typecode of B, H and I that holds its values, and index data
that does not decode is refused as malformed.  A read adopts those rows
without eliminating them again, after checks over the whole arrays
(`SparseRREF.from_arrays`), a check that every coefficient string is the
one the writer would write, and a check of the key and dimension; a file
that fails any check is recomputed and overwritten, never trusted.  The
adopted rows are built on first read, so a membership query builds only
the rows its reduction hits and a quotient basis none.  A file of an older
layout has another name, so it is never read: it is a miss, not a reject.
Each `DiIdeal` counts its cache hits, misses and rejects by reason in
`cache_stats`.

`DiIdeal.permutation_stable` certifies that the components up to a tensor
degree are graded by torus weight and stable under the signed permutation
action of S_N on the alphabet (see `weights`), by mapping each star row
through the two generators of S_N in `weights.sn_generators`; joins of
certified ideals then solve one weight block per S_N orbit.  A certified
C_(d,n) is the direct sum of its weight blocks over disjoint columns, so
the union of the blocks' reduced echelon rows is its reduced echelon
basis.
`DiIdeal.weight_block` climbs one block from blocks: x * b for each
variable x inside the support of w and each row b of the block of
C_(d,n-1) at weight w - wt(x), plus the star rows of weight w; it refuses
an ideal whose C_(d,n-1) is not certified.  `DiIdeal.quotient_reader`
maps a (d, k) monomial to its normal form modulo C_(d,k), read off its
block when the component is certified, else off the whole component; a
join reads its own quotients with the same method.  Each ideal keeps one
reader per (d, k) as long as it lives, so every summand and block of the
joins that read it share the normal forms: each is read once per ideal
and bidegree.  A reader holds its ideal only weakly, so the two form no
reference cycle and go with the last reference to the ideal.  The certificate
and the certified join (`plucker.JoinIdeal.weight_block` and its condition
tables) read the ideal only through these blocks, which are memoised per
weight and never cached on disk, so a certified join builds no whole
component and touches no cache file.  `component` still builds, reads and
writes whole components, climbed whole by `_compute_component`, one
`climb` step per degree.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import weakref
from array import array
from bisect import bisect_right
from functools import cache, cached_property
from itertools import combinations, compress
from math import gcd
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .core import (
    Factor,
    FactorTuple,
    Rational,
    SymElement,
    coeff_from_str,
    coeff_to_str,
    element_to_dict,
    iter_factors,
    iter_sym_keys,
    to_numerators,
    wire_dict,
)
from .linalg import NotReducedError, SparseRREF
from .products import _relabel, _star_letters, _sym_star_into, star_incfns, sym_shuffle, sym_star
from .stages import CLIMBS
from .weights import FactorTable, Weight, act, sn_generators, weight

# a monomial's normal form modulo a component: its (column, coefficient)
# pairs in the component's `monomial_space`
NormalForm = tuple[tuple[int, Rational], ...]

__all__ = ["ComponentBasis", "DiIdeal", "quotient_basis",
           "initial_component", "monomial_space"]


@cache
def monomial_space(d: int, n: int, M: int) -> tuple[tuple[FactorTuple, ...], dict[FactorTuple, int]]:
    """The (d, n) monomials in descending order, and each one's column.

    Built once per process and shared by every component of that bidegree;
    callers must not modify it.
    """
    keys = tuple(sorted(iter_sym_keys(d, n, M), reverse=True))
    return keys, {key: i for i, key in enumerate(keys)}


class ComponentBasis:
    """Auto-reduced basis of one (d, n) component over descending monomials.

    `monomials` and `index` are the shared `monomial_space` of the
    bidegree; only `basis` belongs to this component.
    """

    __slots__ = ("d", "n", "M", "monomials", "index", "basis")

    def __init__(self, d: int, n: int, M: int):
        self.d = d
        self.n = n
        self.M = M
        self.monomials, self.index = monomial_space(d, n, M)
        self.basis = SparseRREF()

    @property
    def dim(self) -> int:
        return self.basis.rank

    @property
    def space_dim(self) -> int:
        return len(self.monomials)

    def coords(self, f: SymElement) -> dict[int, Rational]:
        if (f.d, f.n, f.M) != (self.d, self.n, self.M):
            raise ValueError(f"bidegree mismatch: {f.bidegree} vs {(self.d, self.n, self.M)}")
        return {self.index[key]: c for key, c in f.terms.items()}

    def element(self, vec: dict[int, Rational]) -> SymElement:
        return SymElement(self.d, self.n, self.M,
                          {self.monomials[i]: c for i, c in vec.items() if c},
                          _validated=True)

    def add(self, f: SymElement) -> bool:
        return self.basis.add(self.coords(f))

    def contains(self, f: SymElement) -> bool:
        return self.basis.contains(self.coords(f))

    def reduce(self, f: SymElement) -> SymElement:
        """Canonical remainder of f modulo the component (standard coordinates)."""
        return self.element(self.basis.reduce(self.coords(f)))

    def basis_elements(self) -> list[SymElement]:
        return [self.element(row) for row in self.basis.basis_rows()]

    def wire_rows(self) -> Iterator[dict]:
        """The wire dict (`core.wire_dict`) of each basis row, in pivot order.

        Read straight from the canonical rows: a row's columns sorted as ints
        in reverse are its monomials in ascending order.  The dicts serialize
        to the bytes of `element_to_dict` over `basis_elements()`, without
        building an element.
        """
        d, n, M, monomials = self.d, self.n, self.M, self.monomials
        for row in self.basis.basis_rows():
            yield wire_dict(d, n, M, [(monomials[c], row[c]) for c in sorted(row, reverse=True)])

    def pivot_monomials(self) -> list[FactorTuple]:
        return [self.monomials[c] for c in self.basis.pivot_columns()]

    def standard_monomials(self) -> list[FactorTuple]:
        keep = bytearray(b"\x01") * len(self.monomials)
        for c in self.basis.pivots:
            keep[c] = 0
        return list(compress(self.monomials, keep))


# part of every cache file name, so files of another layout are never read
_LAYOUT = "packed-rows-1"
_INDEX_ARRAYS = ("cols", "vals", "ends")
# unsigned array typecodes a file may use, narrowest first
_TYPECODES = ("B", "H", "I")


def _pack(values: list[int]) -> list[str]:
    """[typecode, base64 text] of values as a little-endian array of the
    narrowest unsigned typecode that holds them.  Only cache reads and
    writes load `base64`."""
    import base64

    top = max(values, default=0)
    code = next(t for t in _TYPECODES if top < 1 << 8 * array(t).itemsize)
    packed = array(code, values)
    if sys.byteorder == "big":
        packed.byteswap()
    return [code, base64.b64encode(packed.tobytes()).decode("ascii")]


def _unpack(field) -> array:
    """The array `_pack` wrote; a ValueError or TypeError when it does not decode."""
    import base64

    code, text = field
    if code not in _TYPECODES:
        raise ValueError(f"typecode {code!r}")
    packed = array(code)
    packed.frombytes(base64.b64decode(text, validate=True))
    if sys.byteorder == "big":
        packed.byteswap()
    return packed


def _generator_hash(generators: Sequence[SymElement], M: int) -> str:
    payload = json.dumps([element_to_dict(g) for g in generators] + [M, _LAYOUT],
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _multiples(below: ComponentBasis, target: ComponentBasis, factors: Sequence[Factor],
               lower: Optional[ComponentBasis] = None) -> Iterator[dict[int, Rational]]:
    """x * b for each row b of `below` in pivot order, each x of `factors`
    in turn, in the columns of `target`; given `lower`, a span one degree
    below `below` whose variable multiples lie in `below`, only the x up to
    and including b's cutoff.

    A variable x has coefficient 1 and maps distinct monomials to distinct
    monomials, so x * b is the row itself moved to the columns of
    x * (its monomials), entry by entry.  The columns of x * (the monomial
    at column c), one per x, are looked up once per call for each c.

    The cutoff of b is the least factor x_j of its leading monomial LM(b)
    (its pivot) with LM(b)/x_j a pivot monomial of `lower`; a row with no
    such factor is moved by every x.  The products skipped are redundant.
    The order is multiplicative, so b = x_j * c + (rows of `below` with
    smaller pivots) for the row c of `lower` with pivot LM(b)/x_j.  For a
    later x_k, x_k * b = x_j * (x_k * c) + (x_k times those rows), and
    x_k * c lies in `below`.  So every term on the right is a product with a
    smaller leading monomial than x_k * b, or with the same one and the
    earlier variable x_j, and induction on that pair puts each skipped
    product in the span of the kept ones.  `factors` must then be every
    variable in `iter_factors` order: the factors of a monomial are
    ascending in it, so the first one that qualifies is the least.
    """
    monomials, index = below.monomials, target.index
    shifts: dict[int, list[int]] = {}
    each_x = range(len(factors))
    if lower is not None:
        position = {x: j for j, x in enumerate(factors)}
        lower_index, lower_pivots = lower.index, lower.basis.pivots
    for p, row in zip(below.basis.pivot_columns(), below.basis.basis_rows()):
        for c in row:
            if c not in shifts:
                key = monomials[c]
                cols = shifts[c] = []
                for x in factors:
                    moved = list(key)
                    moved.insert(bisect_right(key, x), x)
                    cols.append(index[tuple(moved)])
        xs = each_x
        if lower is not None:
            lead = monomials[p]
            for i, x in enumerate(lead):
                if lower_index[lead[:i] + lead[i + 1:]] in lower_pivots:
                    xs = range(position[x] + 1)
                    break
        items = row.items()
        for j in xs:
            moved = {}
            for c, v in items:
                moved[shifts[c][j]] = v
            yield moved


def _normal_form(comp: ComponentBasis, key: FactorTuple) -> NormalForm:
    """The (column, coefficient) pairs of `comp.basis.reduce({c: 1})` for
    the monomial key at column c, with no elimination: in the canonical
    reduced basis it is the monomial itself off the pivots, else minus the
    rest of its pivot row.  Pairs, not a dict: a reader keeps every normal
    form it reads, most of them one pair, at half a dict's size."""
    c = comp.index[key]
    at = comp.basis.pivots.get(c)
    if at is None:
        return ((c, 1),)
    return tuple((k, -v) for k, v in comp.basis.row(at).items() if k != c)


class _QuotientReader(dict):
    """An ideal's normal forms modulo C_(d,k), by (d, k) monomial, each read
    on first use off the basis that holds it: the block at the monomial's
    weight of a certified ideal, else its whole component.

    Every basis of one bidegree shares its `monomial_space` columns, so a
    normal form is the same read off a block or the whole component.  The
    ideal keeps its readers, so a reader holds the ideal only weakly: a
    cycle between them would keep both alive until the cyclic collector
    runs.
    """

    __slots__ = ("ideal", "d", "k", "N", "whole")

    def __init__(self, ideal, d: int, k: int):
        super().__init__()
        self.ideal = weakref.ref(ideal)
        self.d, self.k, self.N = d, k, ideal.M * d
        self.whole = None if ideal.permutation_stable(d, k) else ideal.component(d, k)

    def __missing__(self, key: FactorTuple) -> NormalForm:
        basis = self.whole
        if basis is None:
            basis = self.ideal().weight_block(self.d, self.k, weight(key, self.N))
        nf = self[key] = _normal_form(basis, key)
        return nf


class DiIdeal:
    """An ideal of the symmetric algebra closed under both products."""

    def __init__(self, M: int, generators: Iterable[SymElement],
                 cache_dir: str | os.PathLike | None = None):
        if M.__class__ is not int:
            raise ValueError(f"multiplier {M!r} is not an integer")
        self.M = M
        self.generators: list[SymElement] = []
        for g in generators:
            if g.M != self.M:
                raise ValueError(f"generator multiplier {g.M} != ideal multiplier {self.M}")
            if g.is_zero():
                continue
            if g.n == 0 or g.d == 0:
                raise ValueError("generators must have positive width and tensor degree")
            self.generators.append(g)
        self.cache_dir = Path(cache_dir) if cache_dir else None
        # every component below this tensor degree is zero
        self._first_degree = min((g.n for g in self.generators), default=0)
        self._components: dict[tuple[int, int], ComponentBasis] = {}
        self._stable: dict[tuple[int, int], bool] = {}
        # weight blocks climbed alone, and the star rows by weight; in
        # memory only
        self._blocks: dict[tuple[int, int, Weight], ComponentBasis] = {}
        self._star_weights: dict[tuple[int, int], Optional[dict[Weight, list[SymElement]]]] = {}
        # the normal forms of `quotient_reader`, one reader per (d, k); in
        # memory only
        self._readers: dict[tuple[int, int], _QuotientReader] = {}
        # disk cache reads of this ideal: files adopted, files absent, and
        # files refused, by the reason of the failed check
        self.cache_stats: dict = {"hits": 0, "misses": 0, "rejects": {}}

    # -- disk cache -------------------------------------------------------

    @cached_property
    def gen_hash(self) -> str:
        """The content hash of the generators in every cache file name,
        computed on first use: a run without a cache never needs it."""
        return _generator_hash(self.generators, self.M)

    def _cache_path(self, d: int, n: int) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"component_M{self.M}_d{d}_n{n}_{self.gen_hash}.json"

    def _load_cached(self, d: int, n: int) -> Optional[ComponentBasis]:
        """The cached (d, n) component, or None when it must be computed.

        The stored rows are adopted as they are once they pass the checks of
        `SparseRREF.from_arrays`; a file that fails any check, whose key or
        dim does not match, or whose coefficient strings are not the ones
        `_store_cached` writes, is counted as a reject by reason.
        """
        path = self._cache_path(d, n)
        if path is None:
            return None
        if not path.exists():
            self.cache_stats["misses"] += 1
            return None
        try:
            data = json.loads(path.read_text())
            if data.get("generator_hash") != self.gen_hash or \
                    [data.get("M"), data.get("d"), data.get("n")] != [self.M, d, n]:
                return self._reject("stale key")
            strings = data["coeffs"]
            if type(strings) is not list:
                return self._reject("malformed")
            cols, vals, ends = [_unpack(data[key]) for key in _INDEX_ARRAYS]
            coeffs = [coeff_from_str(v) for v in strings]
            if list(map(coeff_to_str, coeffs)) != strings:
                return self._reject("non-canonical entry")
            comp = ComponentBasis(d, n, self.M)
            comp.basis = SparseRREF.from_arrays(coeffs, cols, vals, ends, comp.space_dim)
        except NotReducedError as exc:
            return self._reject(exc.reason)
        except (ValueError, KeyError, TypeError, AttributeError):
            # unreadable JSON or text, a missing field, a bad coefficient,
            # index data that does not decode
            return self._reject("malformed")
        if comp.dim != data.get("dim"):
            return self._reject("dim mismatch")
        self.cache_stats["hits"] += 1
        return comp

    def _reject(self, reason: str) -> None:
        rejects = self.cache_stats["rejects"]
        rejects[reason] = rejects.get(reason, 0) + 1
        return None

    def _store_cached(self, comp: ComponentBasis) -> None:
        path = self._cache_path(comp.d, comp.n)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        # the rows repeat a few coefficients: each is tabled and formatted once
        table: dict[Rational, int] = {}
        cols: list[int] = []
        vals: list[int] = []
        ends: list[int] = []
        for row in comp.basis.basis_rows():
            keys = sorted(row)
            cols += keys
            vals += [table.setdefault(row[c], len(table)) for c in keys]
            ends.append(len(cols))
        data = {
            "M": self.M, "d": comp.d, "n": comp.n,
            "generator_hash": self.gen_hash,
            "dim": comp.dim,
            "coeffs": [coeff_to_str(v) for v in table],
            "cols": _pack(cols), "vals": _pack(vals), "ends": _pack(ends),
        }
        # a private temporary file per write, so concurrent writers never
        # share one; os.replace then publishes it atomically
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(data, separators=(",", ":")))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    # -- component computation ---------------------------------------------

    def component(self, d: int, n: int) -> ComponentBasis:
        key = (d, n)
        comp = self._components.get(key)
        if comp is not None:
            return comp
        comp = self._load_cached(d, n)
        if comp is None:
            comp = self._compute_component(d, n)
            self._store_cached(comp)
        self._components[key] = comp
        return comp

    def _compute_component(self, d: int, n: int) -> ComponentBasis:
        if n == 0 or d == 0:
            return ComponentBasis(d, n, self.M)
        below = self.component(d, n - 1)
        # C_(d,n-2) only if it is in memory, which after a cache read of
        # C_(d,n-1) it usually is not
        return self.climb(below, d, n, self._components.get((d, n - 2)))

    def climb(self, below: ComponentBasis, d: int, n: int,
              lower: Optional[ComponentBasis] = None) -> ComponentBasis:
        """One climb step: the (d, n) span of x * below over every variable x,
        plus this ideal's star rows of tensor degree n.

        `below` is any (d, n-1) span in canonical reduced form; with this
        ideal's own C_(d,n-1) the step gives C_(d,n).  `lower`, when given,
        is a (d, n-2) span in canonical reduced form whose variable
        multiples lie in `below`, such as C_(d,n-2) under C_(d,n-1).  Then
        each row b of `below` is multiplied only by the variables up to and
        including the least factor x_j of its leading monomial with
        LM(b)/x_j a pivot monomial of `lower`, in `iter_factors` order.  The
        other products lie in the span of those kept, so the span and its
        canonical basis are the same: the order is multiplicative, so b is
        x_j * c plus rows with smaller pivots, for the row c of `lower` led
        by LM(b)/x_j, and x_k * b for a later x_k is x_j * (x_k * c), a
        multiple of `below` by the earlier x_j, plus products with smaller
        leading monomials (`_multiples` gives the induction).

        With a coefficient-bit budget (`linalg.set_default_max_bits`) the
        intermediate rows can differ from those of the step without
        `lower`: a skipped product may be one that step accepts before
        later rows span it.  So whether the budget aborts can depend on
        `lower`; the rows of a step that finishes do not.
        """
        if (below.d, below.n, below.M) != (d, n - 1, self.M):
            raise ValueError(f"climb to {(d, n)} from {(below.d, below.n, below.M)}")
        if lower is not None and (lower.d, lower.n, lower.M) != (d, n - 2, self.M):
            raise ValueError(f"climb to {(d, n)} past {(lower.d, lower.n, lower.M)}")
        with CLIMBS:
            comp = ComponentBasis(d, n, self.M)
            if below.dim:
                # row by row, each x in turn: adding all rows of one x before
                # the next x was measured slower (more fill-in)
                add = comp.basis.add
                factors = list(iter_factors(d, self.M * d))
                for out in _multiples(below, comp, factors, lower):
                    add(out)
            for prod in self._star_rows(d, n):
                comp.add(prod)
        return comp

    def weight_block(self, d: int, n: int, w: Weight) -> ComponentBasis:
        """The canonical reduced rows of C_(d,n) at the torus weight w.

        Climbs the block from blocks: x * b for each variable x and each
        row b of the block of C_(d,n-1) at weight w - wt(x), plus the star
        rows of weight w.  Only the variables inside the support of w can
        reach it, and those must hold every index that w counts n times;
        nothing is climbed when C_(d,n-1) lies below the least tensor
        degree of a generator, where it is zero.  That is the weight-w part
        of C_(d,n) only when C_(d,n-1) is graded and the star rows are
        weight-homogeneous: a ValueError is raised unless
        `permutation_stable(d, n - 1)` holds and the star rows are
        homogeneous.  Blocks are memoised per (d, n, w), never cached on
        disk, and no component is built whole.
        """
        block = self._blocks.get((d, n, w))
        if block is not None:
            return block
        with CLIMBS:
            block = ComponentBasis(d, n, self.M)
            if d and n > self._first_degree:
                if not self.permutation_stable(d, n - 1):
                    raise ValueError(f"the component at {(d, n - 1)} is not certified graded")
                support = [i for i, c in enumerate(w, 1) if c]
                forced = {i for i, c in enumerate(w, 1) if c == n}
                add, block_at = block.basis.add, self.weight_block
                for fac in combinations(support, d):
                    if not forced.issubset(fac):
                        continue
                    u = list(w)
                    for i in fac:
                        u[i - 1] -= 1
                    u = tuple(u)
                    below = block_at(d, n - 1, u)
                    if below.dim:
                        for out in _multiples(below, block, (fac,)):
                            add(out)
            stars = self._stars_by_weight(d, n)
            if stars is None:
                raise ValueError(f"the star rows at {(d, n)} are not weight-homogeneous")
            for prod in stars.get(w, ()):
                block.add(prod)
        self._blocks[(d, n, w)] = block
        return block

    def quotient_reader(self, d: int, k: int) -> Mapping[FactorTuple, NormalForm]:
        """The normal form modulo C_(d,k) of each (d, k) monomial, by monomial.

        One reader per (d, k), kept as long as this ideal, so every summand
        and every block of the joins that read it share its normal forms:
        each is read once, off the block at the monomial's weight when
        `permutation_stable(d, k)` holds, else off the whole component (see
        `_QuotientReader`).  `plucker.JoinIdeal` reads its quotients with
        this same method, through its own `weight_block` and `component`."""
        reader = self._readers.get((d, k))
        if reader is None:
            reader = self._readers[(d, k)] = _QuotientReader(self, d, k)
        return reader

    def _star_rows(self, d: int, n: int):
        """Star products of the generators of tensor degree exactly n at width d,
        each scaled to a primitive integer vector.

        Scaling keeps the span, and it keeps elimination on these rows in
        ints: a star product carries the 1/n! of `sym_star`.  A generator of
        width d is its own star row: its one star product, with the width-0
        unit along the identity, is f itself.  Each injection's letter tables
        are built once per call; `products._sym_star_into` sums n! times each
        product on monomial keys, which has the same primitive vector.

        Every star product of a generator is a row, whatever the width it
        adds.  For the Plucker quadrics only the rows that add one to the
        width lie in the Plucker ideal: the Klein quadric
        f = x12 x34 - x13 x24 + x14 x23 starred along g = (1, 2, 3, 4) with
        x56 x78 does not vanish on Gr(4, 8), while with x56 x56 it does.
        So `plucker.plucker_ideal` stops at width 3, where every star row
        of a quadric adds at most one.
        """
        M = self.M

        def primitive(nums):
            common = gcd(*nums.values())
            return SymElement(d, n, M, {k: v // common for k, v in nums.items() if v},
                              _validated=True)

        # per width of f, per injection: f's letters and the relabelled raising monomials
        tables: dict[int, list] = {}
        for f in self.generators:
            if f.n != n or f.d > d:
                continue
            fnums, _ = to_numerators(f.terms)
            ext = d - f.d
            if not ext:
                yield primitive(fnums)
                continue
            if f.d not in tables:
                akeys = list(iter_sym_keys(ext, n, M))
                tables[f.d] = [(fletters, [_relabel(a, hletters) for a in akeys])
                               for g in star_incfns(f.d, ext, M)
                               for fletters, hletters in [_star_letters(M, f.d, ext, g)]]
            for fletters, relabelled in tables[f.d]:
                fready = [(_relabel(kf, fletters), cf) for kf, cf in fnums.items()]
                for rh in relabelled:
                    nums: dict[FactorTuple, int] = {}
                    for rf, cf in fready:
                        _sym_star_into(nums, rf, rh, cf)
                    yield primitive(nums)

    def permutation_stable(self, d: int, n: int) -> bool:
        """Certificate that every component (d, k), k <= n, is graded and S_N-stable.

        S_N permutes the alphabet [1..M*d] (see `weights`).  The (d, n)
        component is x * C_(d,n-1) plus the star rows of `_star_rows`, and a
        permutation maps x * C_(d,n-1) into itself once C_(d,n-1) is stable.
        So it suffices that C_(d,n-1) is certified, that every star row is
        weight-homogeneous, and that the transposition (1 2) and the N-cycle
        (1 2 ... N) map every star row into C_(d,n): the permutations that
        map C_(d,n) into itself are closed under composition, so they form
        a subgroup, and these two generate S_N (`weights.sn_generators`).
        """
        key = (d, n)
        ok = self._stable.get(key)
        if ok is None:
            ok = n == 0 or d == 0 or (self.permutation_stable(d, n - 1)
                                      and self._stars_stable(d, n))
            self._stable[key] = ok
        return ok

    def _stars_by_weight(self, d: int, n: int) -> Optional[dict[Weight, list[SymElement]]]:
        """The star rows at (d, n) by weight, or None when one mixes weights."""
        key = (d, n)
        if key not in self._star_weights:
            N = self.M * d
            groups: Optional[dict[Weight, list[SymElement]]] = {}
            for row in self._star_rows(d, n):
                ws = {weight(k, N) for k in row.terms}
                if len(ws) > 1:
                    groups = None
                    break
                groups.setdefault(ws.pop(), []).append(row)
            self._star_weights[key] = groups
        return self._star_weights[key]

    def _stars_stable(self, d: int, n: int) -> bool:
        """Every star row is weight-homogeneous and each of the two
        generators of S_N, (1 2) and (1 2 ... N), maps it into C_(d,n).

        Called once C_(d,n-1) is certified, so the block of C_(d,n) at the
        weight of an image is its `weight_block`, and the image lies in
        C_(d,n) iff it lies in that block; C_(d,n) is never built whole.
        """
        stars = self._stars_by_weight(d, n)
        if stars is None:
            return False
        N = self.M * d
        for tau in sn_generators(N):
            table = FactorTable(tau)
            for rows in stars.values():
                images = [act(table, row) for row in rows]
                block = self.weight_block(d, n, weight(next(iter(images[0].terms)), N))
                if not all(block.contains(image) for image in images):
                    return False
        return True

    def raw_spanning_rows(self, d: int, n: int):
        """Unreduced spanning products of the (d, n) component.

        Yields every h * (f star_g a) over generators f, width-raising
        monomials a, admissible injections g and degree-raising monomials h.
        The span equals the component; rows are typically very sparse.
        """
        for f in self.generators:
            if f.d > d or f.n > n:
                continue
            ext = d - f.d
            stars = []
            for g in star_incfns(f.d, ext, self.M):
                for akey in iter_sym_keys(ext, f.n, self.M):
                    a = SymElement(ext, f.n, self.M, {akey: 1}, _validated=True)
                    stars.append(sym_star(f, a, g))
            for s in stars:
                for hkey in iter_sym_keys(d, n - f.n, self.M):
                    h = SymElement(d, n - f.n, self.M, {hkey: 1}, _validated=True)
                    yield sym_shuffle(s, h)

    # -- queries ------------------------------------------------------------

    def membership(self, f: SymElement) -> bool:
        if f.M != self.M:
            raise ValueError(f"multiplier mismatch: {f.M} vs {self.M}")
        if f.is_zero():
            return True
        return self.component(f.d, f.n).contains(f)


def quotient_basis(I: DiIdeal, bidegree: tuple[int, int]) -> list[FactorTuple]:
    return I.component(*bidegree).standard_monomials()


def initial_component(I: DiIdeal, bidegree: tuple[int, int]) -> list[FactorTuple]:
    return I.component(*bidegree).pivot_monomials()

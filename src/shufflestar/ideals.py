"""Two-product ideals of the symmetric algebra: component spans and quotients.

A generator list determines, in each bidegree (d, n), the span of all
h * (f star_g a) with f a generator, a a monomial raising the width, g an
increasing relabeling, and h a monomial raising the tensor degree.  That
single-round enumeration is exhaustive (products of products reduce to it),
and it is computed degree-climbing: the (d, n) component is spanned by
variable multiples of the (d, n-1) component together with the width-d
star products of generators of tensor degree exactly n.

The climb multiplies in column coordinates.  A variable x has coefficient
1 and sends distinct monomials to distinct monomials, so x times a stored
row of C_(d,n-1) is that row with its entries moved to the columns of x
times their monomials (`_multiples`).  Each column's images are looked up
once per climb step, and the moved rows are added each row, then each
variable.  `raw_spanning_rows` spans the same component through
`sym_star` and `sym_shuffle`, as an independent check.

All components of one (d, n, M) share its `monomial_space`: the monomials
in descending order and the column of each, built once per process and
never modified.

Components are auto-reduced against a descending monomial order, so pivot
monomials are the leading terms and non-pivots are the standard monomials
of the quotient.  Components are cached in memory and optionally on disk:
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
action of S_N on the alphabet (see `weights`); joins of certified ideals
then solve one weight block per S_N orbit.  A certified C_(d,n) is the
direct sum of its weight blocks over disjoint columns, so the union of the
blocks' reduced echelon rows is its reduced echelon basis.
`DiIdeal.weight_block` climbs one block alone from the full C_(d,n-1):
x * b for each variable x and each row b of weight w - wt(x), plus the star
rows of weight w; it refuses an ideal whose C_(d,n-1) is not certified.
The certificate and the certified join (`plucker.JoinIdeal.weight_block`)
read the top degree only through these blocks, which are memoised per
weight and never cached on disk, even when C_(d,n) is also built whole;
`component` still builds, reads and writes whole components.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from array import array
from bisect import bisect_right
from functools import cache
from math import gcd
from pathlib import Path
from typing import Iterable, Optional, Sequence

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
)
from .linalg import NotReducedError, SparseRREF
from .products import star_incfns, sym_shuffle, sym_star
from .weights import FactorTable, Weight, act, adjacent_transpositions, weight

__all__ = ["ComponentBasis", "DiIdeal", "component_span", "membership",
           "quotient_basis", "initial_component", "monomial_space"]


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

    __slots__ = ("d", "n", "M", "monomials", "index", "basis", "_by_weight")

    def __init__(self, d: int, n: int, M: int):
        self.d = d
        self.n = n
        self.M = M
        self.monomials, self.index = monomial_space(d, n, M)
        self.basis = SparseRREF()
        self._by_weight: Optional[tuple[int, dict[Weight, list[dict[int, Rational]]]]] = None

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

    def pivot_monomials(self) -> list[FactorTuple]:
        return [self.monomials[c] for c in self.basis.pivot_columns()]

    def standard_monomials(self) -> list[FactorTuple]:
        pivots = self.basis.pivots
        return [key for i, key in enumerate(self.monomials) if i not in pivots]

    def weight_rows(self) -> dict[Weight, list[dict[int, Rational]]]:
        """The basis rows grouped by torus weight, each group in pivot order.

        Valid for a graded component, whose rows are weight-homogeneous:
        each row is weighed at its pivot only.  Grouped once per rank.
        """
        memo = self._by_weight
        if memo is None or memo[0] != self.basis.rank:
            N = self.M * self.d
            groups: dict[Weight, list[dict[int, Rational]]] = {}
            for row in self.basis.basis_rows():
                groups.setdefault(weight(self.monomials[min(row)], N), []).append(row)
            memo = self._by_weight = (self.basis.rank, groups)
        return memo[1]


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


def _multiples(rows: Iterable[dict[int, Rational]], below: ComponentBasis,
               target: ComponentBasis, factors: Sequence[Factor]):
    """x * row for each row of `below`, each x of `factors` in turn, in the
    columns of `target`.

    A variable x has coefficient 1 and maps distinct monomials to distinct
    monomials, so x * row is the row itself moved to the columns of
    x * (its monomials); each column's images are looked up once per call.
    """
    below_keys = below.monomials
    index = target.index
    # column c of `below` -> the column of x * (its monomial), per x
    shifts: dict[int, list[int]] = {}
    for row in rows:
        moved = [{} for _ in factors]
        for c, v in row.items():
            cols = shifts.get(c)
            if cols is None:
                key = below_keys[c]
                cols = shifts[c] = []
                for fac in factors:
                    at = bisect_right(key, fac)
                    cols.append(index[key[:at] + (fac,) + key[at:]])
            for out, col in zip(moved, cols):
                out[col] = v
        yield from moved


class DiIdeal:
    """An ideal of the symmetric algebra closed under both products."""

    def __init__(self, M: int, generators: Iterable[SymElement],
                 cache_dir: str | os.PathLike | None = None):
        self.M = int(M)
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
        self.gen_hash = _generator_hash(self.generators, self.M)
        self._components: dict[tuple[int, int], ComponentBasis] = {}
        self._stable: dict[tuple[int, int], bool] = {}
        # weight blocks climbed alone, and the star rows by weight; in
        # memory only
        self._blocks: dict[tuple[int, int, Weight], ComponentBasis] = {}
        self._star_weights: dict[tuple[int, int], Optional[dict[Weight, list[SymElement]]]] = {}
        # disk cache reads of this ideal: files adopted, files absent, and
        # files refused, by the reason of the failed check
        self.cache_stats: dict = {"hits": 0, "misses": 0, "rejects": {}}

    # -- disk cache -------------------------------------------------------

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
        comp = ComponentBasis(d, n, self.M)
        if n == 0 or d == 0:
            return comp
        below = self.component(d, n - 1)
        if below.dim:
            # row by row, each x in turn: adding all rows of one x before
            # the next x was measured slower (more fill-in)
            add = comp.basis.add
            factors = list(iter_factors(d, self.M * d))
            for out in _multiples(below.basis.basis_rows(), below, comp, factors):
                add(out)
        for prod in self._star_rows(d, n):
            comp.add(prod)
        return comp

    def weight_block(self, d: int, n: int, w: Weight) -> ComponentBasis:
        """The canonical reduced rows of C_(d,n) at the torus weight w.

        Climbs the block alone, as x * b for each variable x and each row b
        of C_(d,n-1) of weight w - wt(x), plus the star rows of weight w.
        That is the weight-w part of C_(d,n) only when C_(d,n-1) is graded
        and the star rows are weight-homogeneous: a ValueError is raised
        unless `permutation_stable(d, n - 1)` holds and the star rows are
        homogeneous.  Blocks are memoised per (d, n, w), never cached on
        disk.
        """
        key = (d, n, w)
        block = self._blocks.get(key)
        if block is not None:
            return block
        block = ComponentBasis(d, n, self.M)
        if n and d:
            if not self.permutation_stable(d, n - 1):
                raise ValueError(f"the component at {(d, n - 1)} is not certified graded")
            below = self.component(d, n - 1)
            groups = below.weight_rows()
            add = block.basis.add
            for fac in iter_factors(d, self.M * d):
                u = list(w)
                for i in fac:
                    u[i - 1] -= 1
                rows = groups.get(tuple(u))
                if rows:
                    for out in _multiples(rows, below, block, [fac]):
                        add(out)
        stars = self._stars_by_weight(d, n)
        if stars is None:
            raise ValueError(f"the star rows at {(d, n)} are not weight-homogeneous")
        for prod in stars.get(w, ()):
            block.add(prod)
        self._blocks[key] = block
        return block

    def _star_rows(self, d: int, n: int):
        """Star products of the generators of tensor degree exactly n at width d,
        each scaled to a primitive integer vector.

        Scaling keeps the span, and it keeps elimination on these rows in
        ints: a star product carries the 1/n! of `sym_star`.  A generator of
        width d is its own star row: its one star product, with the width-0
        unit along the identity, is f itself.
        """
        M = self.M
        for f in self.generators:
            if f.n != n or f.d > d:
                continue
            ext = d - f.d
            if ext:
                prods = (sym_star(f, SymElement(ext, n, M, {akey: 1}, _validated=True), g)
                         for g in star_incfns(f.d, ext, M)
                         for akey in iter_sym_keys(ext, n, M))
            else:
                prods = (f,)
            for prod in prods:
                if prod:
                    nums, _ = to_numerators(prod.terms)
                    common = gcd(*nums.values())
                    yield SymElement(d, n, M, {k: v // common for k, v in nums.items()},
                                     _validated=True)

    def permutation_stable(self, d: int, n: int) -> bool:
        """Certificate that every component (d, k), k <= n, is graded and S_N-stable.

        S_N permutes the alphabet [1..M*d] (see `weights`).  The (d, n)
        component is x * C_(d,n-1) plus the star rows of `_star_rows`, and a
        permutation maps x * C_(d,n-1) into itself once C_(d,n-1) is stable.
        So it suffices that C_(d,n-1) is certified, that every star row is
        weight-homogeneous, and that each adjacent transposition, which
        together generate S_N, maps every star row into C_(d,n).
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
        """Every star row is weight-homogeneous and each adjacent
        transposition maps it into C_(d,n).

        Called once C_(d,n-1) is certified, so the block of C_(d,n) at the
        weight of an image is its `weight_block`, and the image lies in
        C_(d,n) iff it lies in that block; C_(d,n) is never built whole.
        """
        stars = self._stars_by_weight(d, n)
        if stars is None:
            return False
        N = self.M * d
        for tau in adjacent_transpositions(N):
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
                    prod = sym_star(f, a, g)
                    if prod:
                        stars.append(prod)
            for s in stars:
                for hkey in iter_sym_keys(d, n - f.n, self.M):
                    h = SymElement(d, n - f.n, self.M, {hkey: 1}, _validated=True)
                    row = sym_shuffle(s, h)
                    if row:
                        yield row

    # -- queries ------------------------------------------------------------

    def membership(self, f: SymElement) -> bool:
        if f.M != self.M:
            raise ValueError(f"multiplier mismatch: {f.M} vs {self.M}")
        if f.is_zero():
            return True
        return self.component(f.d, f.n).contains(f)


def component_span(I: DiIdeal, bidegree: tuple[int, int]) -> list[SymElement]:
    return I.component(*bidegree).basis_elements()


def membership(f: SymElement, I: DiIdeal) -> bool:
    return I.membership(f)


def quotient_basis(I: DiIdeal, bidegree: tuple[int, int]) -> list[FactorTuple]:
    return I.component(*bidegree).standard_monomials()


def initial_component(I: DiIdeal, bidegree: tuple[int, int]) -> list[FactorTuple]:
    return I.component(*bidegree).pivot_monomials()

"""Two-product ideals of the symmetric algebra: component spans and quotients.

A generator list determines, in each bidegree (d, n), the span of all
h * (f star_g a) with f a generator, a a monomial raising the width, g an
increasing relabeling, and h a monomial raising the tensor degree.  That
single-round enumeration is exhaustive (products of products reduce to it),
and it is computed degree-climbing: the (d, n) component is spanned by
variable multiples of the (d, n-1) component together with the width-d
star products of generators of tensor degree exactly n.

Components are auto-reduced against a descending monomial order, so pivot
monomials are the leading terms and non-pivots are the standard monomials
of the quotient.  Components are cached in memory and optionally on disk
(one JSON file per (M, d, n), named with a content hash of the generators;
corrupted or stale files are recomputed).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .core import (
    FactorTuple,
    SymElement,
    coeff_from_str,
    coeff_to_str,
    element_to_dict,
    iter_factors,
    iter_sym_keys,
    sym_monomial,
)
from .linalg import SparseRREF
from .products import star_incfns, sym_shuffle, sym_star

__all__ = ["ComponentBasis", "DiIdeal", "component_span", "membership",
           "quotient_basis", "initial_component"]


class ComponentBasis:
    """Auto-reduced basis of one (d, n) component over descending monomials."""

    __slots__ = ("d", "n", "M", "monomials", "index", "basis")

    def __init__(self, d: int, n: int, M: int):
        self.d = d
        self.n = n
        self.M = M
        self.monomials: list[FactorTuple] = sorted(iter_sym_keys(d, n, M), reverse=True)
        self.index = {key: i for i, key in enumerate(self.monomials)}
        self.basis = SparseRREF()

    @property
    def dim(self) -> int:
        return self.basis.rank

    @property
    def space_dim(self) -> int:
        return len(self.monomials)

    def coords(self, f: SymElement) -> dict[int, Fraction]:
        if (f.d, f.n, f.M) != (self.d, self.n, self.M):
            raise ValueError(f"bidegree mismatch: {f.bidegree} vs {(self.d, self.n, self.M)}")
        return {self.index[key]: c for key, c in f.terms.items()}

    def element(self, vec: dict[int, Fraction]) -> SymElement:
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

    def reduce_coords(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        return self.basis.reduce(vec)

    def basis_elements(self) -> list[SymElement]:
        return [self.element(row) for row in self.basis.basis_rows()]

    def pivot_monomials(self) -> list[FactorTuple]:
        return [self.monomials[c] for c in self.basis.pivot_columns()]

    def standard_monomials(self) -> list[FactorTuple]:
        pivots = set(self.basis.pivot_columns())
        return [key for i, key in enumerate(self.monomials) if i not in pivots]


def _generator_hash(generators: Sequence[SymElement], M: int) -> str:
    payload = json.dumps([element_to_dict(g) for g in generators] + [M],
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


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

    # -- disk cache -------------------------------------------------------

    def _cache_path(self, d: int, n: int) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"component_M{self.M}_d{d}_n{n}_{self.gen_hash}.json"

    def _load_cached(self, d: int, n: int) -> Optional[ComponentBasis]:
        path = self._cache_path(d, n)
        if path is None or not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
            if data.get("generator_hash") != self.gen_hash or \
                    [data.get("M"), data.get("d"), data.get("n")] != [self.M, d, n]:
                return None
            comp = ComponentBasis(d, n, self.M)
            for row in data["basis"]:
                vec = {int(c): coeff_from_str(v) for c, v in row}
                if not comp.basis.add(vec):
                    return None
            if comp.dim != data.get("dim"):
                return None
            return comp
        except (ValueError, KeyError, TypeError, json.JSONDecodeError):
            return None

    def _store_cached(self, comp: ComponentBasis) -> None:
        path = self._cache_path(comp.d, comp.n)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            "M": self.M, "d": comp.d, "n": comp.n,
            "generator_hash": self.gen_hash,
            "dim": comp.dim,
            "basis": [sorted((c, coeff_to_str(v)) for c, v in row.items())
                      for row in comp.basis.basis_rows()],
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
        # variable multiples of the previous tensor degree
        if n >= 1:
            below = self.component(d, n - 1)
            if below.dim:
                variables = [sym_monomial(d, 1, self.M, [fac])
                             for fac in iter_factors(d, self.M * d)]
                for b in below.basis_elements():
                    for x in variables:
                        comp.add(sym_shuffle(b, x))
        # star products of generators of tensor degree exactly n
        for f in self.generators:
            if f.n != n or f.d > d:
                continue
            ext = d - f.d
            for g in star_incfns(f.d, ext, self.M):
                for akey in iter_sym_keys(ext, n, self.M):
                    a = SymElement(ext, n, self.M, {akey: Fraction(1)}, _validated=True)
                    prod = sym_star(f, a, g)
                    if prod:
                        comp.add(prod)
        return comp

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
                    a = SymElement(ext, f.n, self.M, {akey: Fraction(1)}, _validated=True)
                    prod = sym_star(f, a, g)
                    if prod:
                        stars.append(prod)
            for s in stars:
                for hkey in iter_sym_keys(d, n - f.n, self.M):
                    h = SymElement(d, n - f.n, self.M, {hkey: Fraction(1)}, _validated=True)
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

    def component_dim(self, d: int, n: int) -> int:
        return self.component(d, n).dim


def component_span(I: DiIdeal, bidegree: tuple[int, int]) -> list[SymElement]:
    return I.component(*bidegree).basis_elements()


def membership(f: SymElement, I: DiIdeal) -> bool:
    return I.membership(f)


def quotient_basis(I: DiIdeal, bidegree: tuple[int, int]) -> list[FactorTuple]:
    return I.component(*bidegree).standard_monomials()


def initial_component(I: DiIdeal, bidegree: tuple[int, int]) -> list[FactorTuple]:
    return I.component(*bidegree).pivot_monomials()

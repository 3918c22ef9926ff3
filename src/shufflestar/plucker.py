"""Plucker ideal generators, evaluation oracles, joins, secants, degree probe.

Width-d decomposable points are encoded by their maximal-minor coordinate
vectors; the quadratic generators come from the classical shuffle
(exchange) relations, and the basic width-2n family pairs each half-size
subset with its complement once.  Join components are exact kernels of the
comultiplication followed by quotient projections, computed over the
intersection of the two ideal components with a streamed-condition
elimination whose candidates are verified against the full condition set,
so early exits stay exact.  The evaluation kernel is the independent
oracle: exact kernels of integer evaluation matrices at random sums of
decomposables, re-sampled until stable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .certified import certified_kernel, modp_kernel, PRIMES
from .core import (
    Factor,
    FactorTuple,
    IncFn,
    SymElement,
    iter_sym_keys,
    merge_signed,
    sym_monomial,
)
from .ideals import ComponentBasis, DiIdeal
from .linalg import (CoeffLimitExceeded, RatMatrix, SparseRREF,
                     kernel_basis, sparse_rref_kernel)
from .products import sym_star

__all__ = [
    "GrassmannConfig", "basic_plucker", "weyman_quadrics", "plucker_ideal",
    "evaluate", "decomposable_point", "random_decomposable", "random_secant_point",
    "evaluation_kernel", "pfaffian", "JoinIdeal", "join_component",
    "secant_ideal", "secant_component", "degree_probe",
]


@dataclass
class GrassmannConfig:
    """Target Grassmannian and secant index; alphabet multiplier M = N / d."""

    d: int
    N: Optional[int] = None
    r: int = 0
    M: Optional[int] = None

    def __post_init__(self):
        if self.M is None:
            self.M = self.N // self.d if self.N is not None else self.r + 2
        if self.N is None:
            self.N = self.M * self.d
        if not 0 <= self.d <= self.N:
            raise ValueError(f"need 0 <= d <= N, got d={self.d}, N={self.N}")
        if self.r < 0:
            raise ValueError("secant index must be >= 0")

    def require_multiplier(self) -> int:
        if self.N != self.M * self.d:
            raise ValueError(
                f"N={self.N} is not d*M (d={self.d}, M={self.M}); "
                "symmetric-algebra machinery needs N = M*d")
        return self.M


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
    terms: dict[FactorTuple, Fraction] = {}
    universe = tuple(range(1, total + 1))
    for rest in combinations(universe[1:], 2 * n - 1):
        S = (1,) + rest
        comp = tuple(i for i in universe if i not in set(S))
        sign, _ = merge_signed(S, comp)
        key = tuple(sorted((S, comp)))
        terms[key] = Fraction(sign)
    return SymElement(2 * n, 2, 2, terms)


def weyman_quadrics(d: int, N: int) -> list[SymElement]:
    """Quadratic exchange relations for the width-d minors inside [N].

    For index sets i (size u), j (size 2d-u-v) and l (size v), sum over
    shuffles of the j-block split (d-u | d-v) with the shuffle sign.  The
    returned set spans the full degree-2 component of the vanishing ideal.
    """
    if N % d != 0:
        raise ValueError(f"width {d} must divide the alphabet size {N}")
    M = N // d
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
                        terms: dict[FactorTuple, Fraction] = {}
                        for first_pos in combinations(range(jlen), d - u):
                            second_pos = tuple(k for k in range(jlen) if k not in set(first_pos))
                            shuffle_sign, _ = merge_signed(first_pos, second_pos)
                            s1, f1 = merge_signed(iset, tuple(jset[k] for k in first_pos))
                            s2, f2 = merge_signed(tuple(jset[k] for k in second_pos), lset)
                            key = tuple(sorted((f1, f2)))
                            c = terms.get(key, Fraction(0)) + shuffle_sign * s1 * s2
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
    they generate is unchanged and every later enumeration shrinks.
    """
    gens: list[SymElement] = []
    for d in range(2, max_d + 1):
        comp = ComponentBasis(d, 2, M)
        for q in weyman_quadrics(d, M * d):
            comp.add(q)
        gens.extend(comp.basis_elements())
    return DiIdeal(M, gens, cache_dir=cache_dir)


# ---------------------------------------------------------------------------
# points and evaluation
# ---------------------------------------------------------------------------

def _int_det(rows: Sequence[Sequence[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    memo: dict[tuple[int, ...], int] = {}

    def rec(cols: tuple[int, ...]) -> int:
        if len(cols) == 1:
            return rows[n - 1][cols[0]]
        val = memo.get(cols)
        if val is not None:
            return val
        level = n - len(cols)
        total = 0
        sign = 1
        for k, c in enumerate(cols):
            a = rows[level][c]
            if a:
                total += sign * a * rec(cols[:k] + cols[k + 1:])
            sign = -sign
        memo[cols] = total
        return total

    return rec(tuple(range(n)))


def decomposable_point(matrix: Sequence[Sequence[int]], d: int, N: int) -> dict[Factor, int]:
    """Minor coordinates of the span of d row vectors in k^N."""
    if len(matrix) != d or any(len(row) != N for row in matrix):
        raise ValueError(f"need a {d}x{N} matrix")
    out: dict[Factor, int] = {}
    for fac in combinations(range(1, N + 1), d):
        sub = [[matrix[i][c - 1] for c in fac] for i in range(d)]
        out[fac] = _int_det(sub)
    return out


def random_decomposable(rng: random.Random, d: int, N: int) -> dict[Factor, int]:
    matrix = [[rng.randint(-9, 9) for _ in range(N)] for _ in range(d)]
    return decomposable_point(matrix, d, N)


def random_secant_point(rng: random.Random, d: int, N: int, r: int) -> dict[Factor, int]:
    """Coordinates of a sum of r+1 random decomposables."""
    total: dict[Factor, int] = {}
    for _ in range(r + 1):
        pt = random_decomposable(rng, d, N)
        for fac, v in pt.items():
            total[fac] = total.get(fac, 0) + v
    return total


def evaluate(f: SymElement, point: Mapping[Factor, int | Fraction]) -> Fraction:
    """Exact value of f at a coordinate vector indexed by width-d subsets."""
    N = f.M * f.d
    total = Fraction(0)
    for key, coeff in f.terms.items():
        prod = Fraction(coeff)
        for fac in key:
            if fac not in point:
                raise ValueError(f"point has no coordinate for {fac} (alphabet [1..{N}])")
            prod *= point[fac]
            if not prod:
                break
        total += prod
    return total


# ---------------------------------------------------------------------------
# evaluation-kernel oracle
# ---------------------------------------------------------------------------

def _sampled_value_rows(monos: Sequence[FactorTuple], d: int, N: int, r: int,
                        samples: int, rng: random.Random) -> list[list[int]]:
    rows = []
    for _ in range(samples):
        pt = random_secant_point(rng, d, N, r)
        row = []
        for key in monos:
            v = 1
            for fac in key:
                v *= pt[fac]
                if not v:
                    break
            row.append(v)
        rows.append(row)
    return rows


def evaluation_kernel(cfg: GrassmannConfig, n: int, samples: Optional[int] = None,
                      seed: int = 0) -> list[SymElement]:
    """Polynomials of degree n vanishing on sums of r+1 decomposables.

    Exact kernel of the integer evaluation matrix at random points,
    re-sampled with fresh seeds and intersected until the kernel is
    unchanged for two consecutive rounds.
    """
    M = cfg.require_multiplier()
    d, N, r = cfg.d, cfg.N, cfg.r
    monos = sorted(iter_sym_keys(d, n, M), reverse=True)
    ncols = len(monos)
    if samples is None:
        samples = ncols + 24
    rng = random.Random(1_000_003 * seed)
    rows = _sampled_value_rows(monos, d, N, r, samples, rng)
    kernel = certified_kernel(rows, ncols)
    stable = 0
    round_no = 0
    while kernel and stable < 2:
        round_no += 1
        if round_no > 16:
            raise RuntimeError("evaluation kernel failed to stabilize")
        rng = random.Random(1_000_003 * seed + round_no)
        fresh = _sampled_value_rows(monos, d, N, r, max(64, 2 * len(kernel)), rng)
        # restrict the fresh conditions to the current kernel and intersect
        restricted = []
        for row in fresh:
            restricted.append([sum(Fraction(row[c]) * vec[c] for c in range(ncols) if vec[c])
                               for vec in kernel])
        small = RatMatrix.from_rows(restricted, cols=len(kernel))
        null = kernel_basis(small)
        if len(null) == len(kernel):
            stable += 1
            continue
        stable = 0
        new_kernel = []
        for mu in null:
            vec = [Fraction(0)] * ncols
            for t, c in enumerate(mu):
                if c:
                    kt = kernel[t]
                    for col in range(ncols):
                        if kt[col]:
                            vec[col] += c * kt[col]
            new_kernel.append(vec)
        kernel = new_kernel
    out = []
    for vec in kernel:
        terms = {monos[c]: vec[c] for c in range(ncols) if vec[c]}
        out.append(SymElement(d, n, M, terms, _validated=True))
    return out


# ---------------------------------------------------------------------------
# Pfaffians
# ---------------------------------------------------------------------------

def pfaffian(indices: Sequence[int], N: int) -> SymElement:
    """Sub-Pfaffian of the generic skew matrix on the given even index set."""
    idx = tuple(sorted(int(i) for i in indices))
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

    terms: dict[FactorTuple, Fraction] = {}
    for pairs, sign in matchings(idx):
        key = tuple(sorted(pairs))
        c = terms.get(key, Fraction(0)) + sign
        if c:
            terms[key] = c
        else:
            terms.pop(key, None)
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
        total = total.add_scale(prod, Fraction(sign if signed else 1))
    return total


def generation_census(n: int, target: FactorTuple) -> dict[FactorTuple, int]:
    """How many (g, split) pairs produce the target monomial, per quadric term."""
    fn = basic_plucker(n)
    target = tuple(sorted(tuple(sorted(f)) for f in target))
    counts: dict[FactorTuple, int] = {}
    for key in sorted(fn.terms):
        single = SymElement(fn.d, fn.n, fn.M, {key: Fraction(1)}, _validated=True)
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
# quotient projections modulo I_(d,i) and J_(d,n-i).  The i = 0 and i = n
# summands force membership in J and I, so the kernel is computed inside
# V = I_(d,n) intersect J_(d,n), streaming the middle conditions and
# verifying every candidate against the full condition set before
# accepting an early exit.
# ---------------------------------------------------------------------------

def _delta_parts(f: SymElement, i: int) -> dict[FactorTuple, dict[FactorTuple, Fraction]]:
    """Group the size-i slot splits of f by left monomial."""
    n = f.n
    out: dict[FactorTuple, dict[FactorTuple, Fraction]] = {}
    for key, coeff in f.terms.items():
        for pos in combinations(range(n), i):
            inside = set(pos)
            lkey = tuple(key[t] for t in pos)
            rkey = tuple(key[t] for t in range(n) if t not in inside)
            slot = out.setdefault(lkey, {})
            slot[rkey] = slot.get(rkey, Fraction(0)) + coeff
    return out


def _condition_coords(I, J, d: int, n: int, i: int, f: SymElement,
                      left_memo: dict) -> dict[tuple[int, int], Fraction]:
    """Quotient coordinates of the i-th comultiplication summand of f."""
    QL = I.component(d, i)
    QR = J.component(d, n - i)
    out: dict[tuple[int, int], Fraction] = {}
    for lkey, rvec in _delta_parts(f, i).items():
        rred = QR.reduce_coords({QR.index[rk]: c for rk, c in rvec.items()})
        if not rred:
            continue
        lred = left_memo.get((i, lkey))
        if lred is None:
            lred = QL.reduce_coords({QL.index[lkey]: Fraction(1)})
            left_memo[(i, lkey)] = lred
        for lc, lv in lred.items():
            for rc, rv in rred.items():
                key = (lc, rc)
                c = out.get(key, Fraction(0)) + lv * rv
                if c:
                    out[key] = c
                else:
                    out.pop(key, None)
    return out


def _join_conditions_ok(I, J, d: int, n: int, f: SymElement) -> bool:
    """Exact check of all middle comultiplication conditions."""
    memo: dict = {}
    for i in range(1, n):
        if _condition_coords(I, J, d, n, i, f, memo):
            return False
    return True


def exact_join_component(I, J, d: int, n: int) -> ComponentBasis:
    if I.M != J.M:
        raise ValueError(f"multiplier mismatch: {I.M} vs {J.M}")
    M = I.M
    comp = ComponentBasis(d, n, M)
    CI = I.component(d, n)
    if I is J:
        v_elems = CI.basis_elements()
    else:
        CJ = J.component(d, n)
        v_elems = _intersect_components(CI, CJ)
    if not v_elems:
        return comp
    nv = len(v_elems)
    acc = SparseRREF()
    left_memo: dict = {}
    blocks = list(range(1, n))
    if I is J:
        # the (n-i)-th condition is the slot swap of the i-th one
        blocks = [i for i in blocks if i <= n - i]
    for blk_idx, i in enumerate(blocks):
        rows_map: dict[tuple[int, int], dict[int, Fraction]] = {}
        for t, b in enumerate(v_elems):
            for key, val in _condition_coords(I, J, d, n, i, b, left_memo).items():
                rows_map.setdefault(key, {})[t] = val
        for key in sorted(rows_map):
            acc.add(rows_map[key])
        if acc.rank == nv:
            return comp  # zero kernel
        candidates = sparse_rref_kernel(acc, nv)
        elems = [_combine(v_elems, lam) for lam in candidates]
        if blk_idx + 1 == len(blocks) or all(
                _join_conditions_ok(I, J, d, n, e) for e in elems):
            for e in elems:
                comp.add(e)
            return comp
    for lam in sparse_rref_kernel(acc, nv):
        comp.add(_combine(v_elems, lam))
    return comp


def _combine(elems: Sequence[SymElement], lam: Mapping[int, Fraction]) -> SymElement:
    if not elems:
        raise ValueError("empty combination")
    first = elems[0]
    out = SymElement(first.d, first.n, first.M)
    for t, c in lam.items():
        out = out.add_scale(elems[t], c)
    return out


def _intersect_components(CI: ComponentBasis, CJ: ComponentBasis) -> list[SymElement]:
    """Basis of the intersection of two component subspaces."""
    ui = CI.basis_elements()
    if not ui or CJ.dim == 0:
        return []
    residuals = [CJ.reduce_coords(CJ.coords(u)) for u in ui]
    rows_map: dict[int, dict[int, Fraction]] = {}
    for t, res in enumerate(residuals):
        for c, v in res.items():
            rows_map.setdefault(c, {})[t] = v
    acc = SparseRREF()
    for c in sorted(rows_map):
        acc.add(rows_map[c])
    out = []
    for lam in sparse_rref_kernel(acc, len(ui)):
        out.append(_combine(ui, lam))
    return out


class JoinIdeal:
    """The join of two ideals, with per-bidegree exact kernel components."""

    def __init__(self, I, J):
        if I.M != J.M:
            raise ValueError("multiplier mismatch")
        self.I = I
        self.J = J
        self.M = I.M
        self._components: dict[tuple[int, int], ComponentBasis] = {}

    def component(self, d: int, n: int) -> ComponentBasis:
        key = (d, n)
        comp = self._components.get(key)
        if comp is None:
            comp = exact_join_component(self.I, self.J, d, n)
            self._components[key] = comp
        return comp

    def component_dim(self, d: int, n: int) -> int:
        return self.component(d, n).dim

    def membership(self, f: SymElement) -> bool:
        if f.is_zero():
            return True
        return self.component(f.d, f.n).contains(f)


def join_component(I, J, bidegree: tuple[int, int]) -> list[SymElement]:
    return exact_join_component(I, J, *bidegree).basis_elements()


def secant_ideal(I, r: int):
    """The r-th iterated join; r = 0 is the ideal itself."""
    if r < 0:
        raise ValueError("secant index must be >= 0")
    out = I
    for _ in range(r):
        out = JoinIdeal(I, out)
    return out


def secant_component(I, r: int, bidegree: tuple[int, int]) -> list[SymElement]:
    return secant_ideal(I, r).component(*bidegree).basis_elements()


# ---------------------------------------------------------------------------
# mod-p upper bound for self-join component dimensions
#
# Ranks can only drop mod p, so a mod-p kernel of the join conditions can
# only be too big.  The library does not call this: the degree probe takes
# the exact join component, which is faster.  It stays because
# bench/tracing.py wraps `modp_self_join_upper` by name.
# ---------------------------------------------------------------------------

def _std_extraction_modp(comp: ComponentBasis, p: int) -> tuple[np.ndarray, list[int]]:
    """Matrix of the quotient projection onto standard coordinates, mod p.

    Rows are indexed by standard monomials, columns by all monomials of the
    component space; reduce(e_col) has standard coordinates equal to the
    column of the result.
    """
    space = comp.space_dim
    pivots = comp.basis.pivot_columns()
    std_cols = [c for c in range(space) if c not in set(pivots)]
    pos = {c: k for k, c in enumerate(std_cols)}
    E = np.zeros((len(std_cols), space), dtype=np.int64)
    for k, c in enumerate(std_cols):
        E[k, c] = 1
    for pcol in pivots:
        row = comp.basis.rows[comp.basis.pivots[pcol]]
        den = 1
        for v in row.values():
            den = den * v.denominator // _gcd(den, v.denominator)
        inv_den = pow(den % p, -1, p)
        for c, v in row.items():
            if c == pcol:
                continue
            E[pos[c], pcol] = (-int(v * den) * inv_den) % p
    return E % p, std_cols


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _rows_to_modp_matrix(rows: Iterable[SymElement], comp: ComponentBasis,
                         p: int) -> np.ndarray:
    mat = []
    for el in rows:
        den = 1
        for v in el.terms.values():
            den = den * v.denominator // _gcd(den, v.denominator)
        vec = [0] * comp.space_dim
        for key, v in el.terms.items():
            vec[comp.index[key]] = int(v * den) % p
        mat.append(vec)
    return np.array(mat, dtype=np.int64)


def modp_self_join_upper(I: DiIdeal, d: int, n: int,
                         must_contain: Sequence[SymElement] = (),
                         p: int = PRIMES[0]) -> Optional[int]:
    """Mod-p upper bound for dim of the self-join component at (d, n).

    Returns None when the bound cannot be formed (an element of
    must_contain escapes the component, or a block would not fit in
    memory); callers then fall back to the exact elimination.
    """
    comp = I.component(d, n)
    if comp.dim == 0:
        return 0
    for el in must_contain:
        if not comp.contains(el):
            return None
    R = _rows_to_modp_matrix(comp.basis_elements(), comp, p)
    Z = R.T.copy() % p  # space_dim x k, columns span the component mod p
    mono_keys = comp.monomials
    for i in range(1, n // 2 + 1):
        QL = I.component(d, i)
        QR = I.component(d, n - i)
        ER, _ = _std_extraction_modp(QR, p)
        if i == 1 and QL.dim == 0:
            # per-variable slices: left factors are single variables
            for var_key in QL.monomials:
                var = var_key[0]
                Y = np.zeros((QR.space_dim, Z.shape[1]), dtype=np.int64)
                for c, key in enumerate(mono_keys):
                    if not np.any(Z[c]):
                        continue
                    for t, fac in enumerate(key):
                        if fac == var:
                            rkey = key[:t] + key[t + 1:]
                            Y[QR.index[rkey]] = (Y[QR.index[rkey]] + Z[c]) % p
                S = (ER @ Y) % p
                K, _, _ = modp_kernel(S, p)
                if K.shape[0] == 0:
                    return 0
                Z = (Z @ K.T) % p
        else:
            EL, _ = _std_extraction_modp(QL, p)
            k = Z.shape[1]
            if QL.space_dim * QR.space_dim * k > 80_000_000:
                return None  # block would not fit; let the caller go exact
            T = np.zeros((QL.space_dim, QR.space_dim, k), dtype=np.int64)
            for c, key in enumerate(mono_keys):
                if not np.any(Z[c]):
                    continue
                for pos in combinations(range(n), i):
                    inside = set(pos)
                    lkey = tuple(key[t] for t in pos)
                    rkey = tuple(key[t] for t in range(n) if t not in inside)
                    T[QL.index[lkey], QR.index[rkey]] = \
                        (T[QL.index[lkey], QR.index[rkey]] + Z[c]) % p
            G = np.tensordot(EL, T, axes=(1, 0)) % p
            H = np.tensordot(ER, G, axes=(1, 1)) % p   # (std_R, std_L, k)
            flat = H.reshape(-1, Z.shape[1]) % p
            K, _, _ = modp_kernel(flat, p)
            if K.shape[0] == 0:
                return 0
            Z = (Z @ K.T) % p
    return Z.shape[1]


# ---------------------------------------------------------------------------
# degree probe
# ---------------------------------------------------------------------------

def degree_probe(cfg: GrassmannConfig, max_n: int, cache_dir=None) -> dict:
    """Per-degree dimensions, generated-from-below dimensions and new-generator counts.

    The from-below span at (d, n) is generated, with the full product
    enumeration, by the secant-component bases at every (d', n') with
    d' <= d, n' <= n other than (d, n) itself.
    """
    M = cfg.require_multiplier()
    d, r = cfg.d, cfg.r
    base = plucker_ideal(M, d, cache_dir=cache_dir)
    ideal = secant_ideal(base, r)
    known: dict[tuple[int, int], list[SymElement]] = {}
    rows = []
    # narrower widths contribute generators too; their spaces are small
    for dp in range(1, d):
        for np_ in range(1, max_n + 1):
            known[(dp, np_)] = ideal.component(dp, np_).basis_elements()
    largest_new = None
    incomplete = False
    for n in range(1, max_n + 1):
        try:
            row, comp = _probe_row(ideal, known, d, n, M)
        except CoeffLimitExceeded:
            incomplete = True
            break
        known[(d, n)] = comp.basis_elements()
        if row["new_generators"] > 0:
            largest_new = n
        rows.append(row)
    report = {
        "d": d, "N": cfg.N, "r": r, "M": M, "max_n": max_n,
        "rows": rows, "largest_new_n": largest_new,
    }
    if incomplete:
        report["incomplete"] = True
    return report


def _probe_row(ideal, known, d: int, n: int, M: int):
    gens: list[SymElement] = []
    for (dp, np_), els in known.items():
        if dp <= d and np_ <= n and (dp, np_) != (d, n):
            gens.extend(els)
    if gens:
        from_below = DiIdeal(M, gens).component(d, n).dim
    else:
        from_below = 0
    comp = ideal.component(d, n)
    row = {"n": n, "dim": comp.dim, "from_below": from_below,
           "new_generators": comp.dim - from_below}
    return row, comp

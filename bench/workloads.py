"""The four benchmark workloads: set-up, one op, and the op's exactness check.

Every workload draws its inputs from the seed alone and hands the library
only the generated inputs.  An op is one certified, checked answer; its
check runs outside the timed interval and returns the list of problems it
found (empty when the answer is exactly right).  Library calls go through
module attributes (`products.sym_star`, not an imported name) so that the
tracer's wrappers see them.

Sizes:  the full workloads are the ones `BENCHMARK.json` describes; with
`smoke=True` each runs a toy instance of the same code path in about a
second, for the smoke test.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from pathlib import Path

from shufflestar import cli, core, ideals, plucker, poset, products, symmetry
from shufflestar.core import Element, IncFn, SymElement, TensorMonomial


def _rng(seed: int, *salt: int) -> random.Random:
    return random.Random(":".join(map(str, (seed, *salt))))


def hook_content_dim(rows: tuple[int, ...], n: int) -> int:
    """Dimension of the Schur module of shape `rows` over k^n (hook-content formula).

    For rows = (t, t) this is the degree-t part of the coordinate ring of
    the Grassmannian of 2-planes in k^n, i.e. the number of standard
    monomials of the Plucker ideal in tensor degree t.
    """
    cells = [(i, j) for i, r in enumerate(rows) for j in range(r)]
    cols = [sum(1 for r in rows if r > j) for j in range(rows[0])]
    num = prod(n + j - i for i, j in cells)
    den = prod((rows[i] - j - 1) + (cols[j] - i - 1) + 1 for i, j in cells)
    return num // den


def _is_multiple(el: SymElement, ref: SymElement) -> bool:
    """True when el is a nonzero rational multiple of ref."""
    if not el.terms or el.terms.keys() != ref.terms.keys():
        return False
    key = next(iter(ref.terms))
    ratio = el.terms[key] / ref.terms[key]
    return all(el.terms[k] == ratio * c for k, c in ref.terms.items())


class Workload:
    """Defaults for the hooks a workload may leave out."""

    def cache_dir(self, state, i: int):
        """The component cache directory op i uses, if any."""
        return None

    def counters(self, answer) -> dict:
        """Deterministic counts read off an op's answer."""
        return {}


class _CliOp:
    """Runs `psa` in-process through cli.main, its report going to a file."""

    def __init__(self, workdir: Path):
        self.out = workdir / "report.json"

    def __call__(self, argv: list[str]) -> dict:
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*argv, "--jobs", "1", "--out", str(self.out)])
        if code != 0:
            raise RuntimeError(f"psa {' '.join(argv)} exited {code}")
        text = self.out.read_text()
        report = json.loads(text)
        report["_bytes"] = len(text.encode())
        return report


# ---------------------------------------------------------------------------
# algebra: products, maps, comultiplications and divisibility on small inputs
# ---------------------------------------------------------------------------

def _random_tensor(rng, d, n, M, terms=2) -> Element:
    out = {}
    for _ in range(terms):
        key = tuple(tuple(sorted(rng.sample(range(1, M * d + 1), d))) for _ in range(n))
        out[key] = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
    return Element(d, n, M, out)


def _random_sym(rng, d, n, M, terms=2) -> SymElement:
    return SymElement(d, n, M, _random_tensor(rng, d, n, M, terms).terms)


def _random_incfn(rng, domain, codomain) -> IncFn:
    return IncFn(domain, codomain, tuple(sorted(rng.sample(range(1, codomain + 1), domain))))


def _random_monomial(rng, d, n, M) -> TensorMonomial:
    return TensorMonomial(d, n, M, tuple(tuple(sorted(rng.sample(range(1, M * d + 1), d)))
                                         for _ in range(n)))


def _star_key(S: TensorMonomial, g: tuple[int, ...], gc: tuple[int, ...],
              a_slots) -> tuple:
    """Key of S star_g a slot by slot, or None when a slot repeats a letter."""
    slots = []
    for fac, afac in zip(S.factors, a_slots):
        letters = [g[i - 1] for i in fac] + [gc[i - 1] for i in afac]
        if len(set(letters)) != len(letters):
            return None
        slots.append(tuple(sorted(letters)))
    return tuple(slots)


def _multiple_of(rng, S: TensorMonomial, e: int, m: int) -> TensorMonomial:
    """A random product multiple h * (S star_g a) of bidegree (e, m)."""
    M = S.M
    g = _random_incfn(rng, M * S.d, M * e)
    gc = g.complement().image
    while True:
        a = [tuple(sorted(rng.sample(range(1, M * (e - S.d) + 1), e - S.d))) for _ in range(S.n)]
        key = _star_key(S, g.image, gc, a)
        if key is not None:
            break
    slots = [tuple(sorted(rng.sample(range(1, M * e + 1), e))) for _ in range(m)]
    for slot, pos in zip(key, sorted(rng.sample(range(m), S.n))):
        slots[pos] = slot
    return TensorMonomial(e, m, M, tuple(slots))


def brute_force_divides(S: TensorMonomial, T: TensorMonomial) -> bool:
    """Is T a product multiple of S?  Enumerates injections, slot positions and
    star cofactors at the key level, without the library's product code.

    The choices of cofactor slot a_i are independent across slots, so each
    is searched on its own.
    """
    if S.d > T.d or S.n > T.n:
        return False
    M, ext = S.M, T.d - S.d
    a_keys = list(combinations(range(1, M * ext + 1), ext))
    for image in combinations(range(1, M * T.d + 1), M * S.d):
        gc = IncFn(M * S.d, M * T.d, image).complement().image
        for pos in combinations(range(T.n), S.n):
            if all(any(_star_key(TensorMonomial(S.d, 1, M, (fac,)), image, gc, [a])
                       == (T.factors[k],) for a in a_keys)
                   for fac, k in zip(S.factors, pos)):
                return True
    return False


class Algebra(Workload):
    """Seeded batches of small elements through every product, map and delta."""

    # (tensor degree n, shuffle partner degree m, multiplier M, widths d, e):
    # every batch runs the same shapes, each several times with fresh random
    # contents, so that batches cost about the same whatever the seed
    SHAPES = ((1, 3, 3, 1, 2), (2, 2, 2, 1, 1), (3, 1, 3, 1, 1),
              (4, 0, 3, 2, 1), (2, 1, 1, 2, 1), (3, 0, 2, 1, 2)) * 3
    SMOKE_SHAPES = ((1, 1, 2, 1, 1), (2, 0, 1, 1, 2))

    def __init__(self, smoke: bool):
        self.shapes = self.SMOKE_SHAPES if smoke else self.SHAPES
        self.pairs = 4 if smoke else 256
        self.max_n = 2 if smoke else 4
        self.pool = 4 if smoke else 32

    def setup(self, seed: int, workdir: Path):
        return [self._batch(_rng(seed, b)) for b in range(self.pool)]

    def _batch(self, rng) -> dict:
        items = []
        for n, m, M, d, e in self.shapes:
            items.append({
                "n": n, "m": m,
                "g": _random_incfn(rng, M * d, M * (d + e)),
                "f": _random_tensor(rng, d, n, M), "h": _random_tensor(rng, e, n, M),
                "f2": _random_tensor(rng, d, n, M),
                "h2": _random_tensor(rng, d, m, M) if m else None,
                "split": products.Split(n + m, tuple(sorted(rng.sample(range(1, n + m + 1), n)))),
                "x": _random_sym(rng, d, n, M), "w": _random_sym(rng, e, n, M),
                "y": _random_sym(rng, d, n, M),
                "v": _random_sym(rng, d, m, M) if m else None,
            })
        pairs = []
        for _ in range(self.pairs):
            M = rng.randint(1, 3)
            d = rng.randint(1, 2)
            e = rng.randint(d, 3)
            n = rng.randint(1, 2)
            m = rng.randint(n, self.max_n)
            S = _random_monomial(rng, d, n, M)
            multiple = rng.random() < 0.5
            T = _multiple_of(rng, S, e, m) if multiple else _random_monomial(rng, e, m, M)
            pairs.append((S, T, multiple))
        return {"items": items, "pairs": pairs, "rng_seed": rng.random()}

    def op(self, state, i: int) -> dict:
        batch = state[i % len(state)]
        results = []
        for it in batch["items"]:
            g, n, m = it["g"], it["n"], it["m"]
            r = {}
            # star products: tensor, symmetric, and through the symmetrization
            f_inv = symmetry.pi(it["f"])
            r["star_pi"] = symmetry.pi(products.star_product(f_inv, it["h"], g))
            r["star_pi_rhs"] = products.star_product(f_inv, symmetry.pi(it["h"]), g)
            r["sym_star"] = products.sym_star(it["x"], it["w"], g)
            r["star_conj"] = symmetry.from_invariant(products.star_product(
                symmetry.to_invariant(it["x"]), symmetry.to_invariant(it["w"]), g))
            r["delta_star"] = symmetry.delta_sym(r["sym_star"])
            r["pair_star"] = symmetry.pair_star(symmetry.delta_sym(it["x"]),
                                                symmetry.delta_sym(it["w"]), g)
            # the symmetrization isomorphism and the comultiplications
            ty = symmetry.to_invariant(it["y"])
            r["inverse"] = symmetry.from_invariant(ty)
            r["iso_comult"] = symmetry.pair_map(symmetry.delta_sym(it["y"]),
                                                symmetry.to_invariant, symmetric_out=False)
            r["delta_tensor"] = symmetry.delta_tensor(ty)
            if m:
                # shuffles: one split, all splits, symmetric, and their deltas
                pf2, ph2 = symmetry.pi(it["f2"]), symmetry.pi(it["h2"])
                r["split_pi"] = symmetry.pi(products.shuffle_product(it["f2"], it["h2"], it["split"]))
                r["inv_shuffle"] = products.invariant_shuffle(pf2, ph2)
                r["delta_inv"] = symmetry.delta_invariant(r["inv_shuffle"])
                r["pair_shuffle_inv"] = symmetry.pair_shuffle_invariant(
                    symmetry.delta_invariant(pf2), symmetry.delta_invariant(ph2))
                r["sym_shuffle"] = products.sym_shuffle(it["y"], it["v"])
                r["delta_shuffle"] = symmetry.delta_sym(r["sym_shuffle"])
                r["pair_shuffle"] = symmetry.pair_shuffle(symmetry.delta_sym(it["y"]),
                                                          symmetry.delta_sym(it["v"]))
                r["iso_product"] = products.invariant_shuffle(
                    ty, symmetry.to_invariant(it["v"]), check=False)
            results.append(r)
        witnesses = [poset.rl_leq(S, T) for S, T, _ in batch["pairs"]]
        return {"items": results, "witnesses": witnesses}

    def check(self, state, i: int, answer: dict) -> list[str]:
        batch = state[i % len(state)]
        bad = []
        for it, r in zip(batch["items"], answer["items"]):
            n, m = it["n"], it["m"]
            if r["star_pi"] != r["star_pi_rhs"]:
                bad.append("projection does not commute with the star product")
            if r["sym_star"] != r["star_conj"]:
                bad.append("symmetric star differs from the conjugated tensor star")
            scaled = {k: c * comb(n, len(k[0])) for k, c in r["delta_star"].terms.items()}
            if scaled != r["pair_star"].terms:
                bad.append("comultiplication is not multiplicative for the star product")
            if r["inverse"] != it["y"]:
                bad.append("symmetrization maps do not invert each other")
            if r["iso_comult"] != r["delta_tensor"]:
                bad.append("symmetrization does not intertwine the comultiplications")
            if m:
                if r["split_pi"].scale(comb(n + m, n)) != r["inv_shuffle"]:
                    bad.append("projection of a split shuffle differs from the invariant shuffle")
                if r["delta_inv"] != r["pair_shuffle_inv"]:
                    bad.append("invariant comultiplication is not multiplicative for the shuffle")
                if r["delta_shuffle"] != r["pair_shuffle"]:
                    bad.append("comultiplication is not multiplicative for the shuffle")
                # from_invariant returns canonical keys, so this also pins the
                # symmetric product's monomials to their sorted form
                if symmetry.from_invariant(r["iso_product"]) != \
                        r["sym_shuffle"].scale(comb(n + m, n)):
                    bad.append("symmetrization does not intertwine the shuffle products")
        # every witness is checked; a constructed multiple must have one, and
        # a seeded sample of "incomparable" answers is re-derived by brute force
        rng = random.Random(batch["rng_seed"])
        incomparable = []
        for (S, T, multiple), w in zip(batch["pairs"], answer["witnesses"]):
            if w is not None:
                if not w.check(S, T):
                    bad.append(f"witness for {S.factors} | {T.factors} fails its check")
            elif multiple:
                bad.append(f"{T.factors} is a multiple of {S.factors} but no witness was found")
            else:
                incomparable.append((S, T))
        for S, T in rng.sample(incomparable, min(2, len(incomparable))):
            if brute_force_divides(S, T):
                bad.append(f"{S.factors} divides {T.factors} by brute force")
        return bad


# ---------------------------------------------------------------------------
# probe: where the first secant of Gr(2,6) gets new generators, and the oracle
# ---------------------------------------------------------------------------

class Probe(Workload):
    """`psa probe` then `psa secant --oracle`, both through cli.main."""

    # (N, r, max_n, expected dims, expected new-generator degrees, oracle degree)
    FULL = (6, 1, 4, [0, 0, 1, 15], [3], 3)
    SMOKE = (4, 0, 3, [0, 1, 6], [2], 2)

    def __init__(self, smoke: bool):
        self.N, self.r, self.max_n, self.dims, self.new, self.oracle_degree = \
            self.SMOKE if smoke else self.FULL

    def setup(self, seed: int, workdir: Path):
        return {"run": _CliOp(workdir), "seed": seed}

    def op(self, state, i: int) -> dict:
        run = state["run"]
        probe = run(["probe", "--d", "2", "--N", str(self.N), "--r", str(self.r),
                     "--max-n", str(self.max_n)])
        # the oracle samples its evaluation points from the workload seed
        oracle = run(["secant", "--d", "2", "--N", str(self.N), "--r", str(self.r),
                      "--degree", str(self.oracle_degree), "--oracle",
                      "--seed", str(_rng(state["seed"], i).randrange(2 ** 31))])
        return {"probe": probe, "oracle": oracle}

    def check(self, state, i: int, answer: dict) -> list[str]:
        bad = []
        rows = answer["probe"]["result"]["rows"]
        dims = [row["dim"] for row in rows]
        new = [row["n"] for row in rows if row["new_generators"]]
        if dims != self.dims:
            bad.append(f"probe dims {dims}, expected {self.dims}")
        if new != self.new:
            bad.append(f"new-generator degrees {new}, expected {self.new}")
        oracle = answer["oracle"]["result"]
        if oracle["dimension"] != 1 or len(oracle["basis"]) != 1:
            bad.append(f"oracle kernel dimension {oracle['dimension']}, expected 1")
        else:
            pf = plucker.pfaffian(range(1, 2 * self.oracle_degree + 1), self.N)
            el = core.element_from_dict(oracle["basis"][0], symmetric=True)
            if not _is_multiple(el, pf):
                bad.append("oracle kernel is not spanned by the Pfaffian")
        return bad

    def counters(self, answer) -> dict:
        rows = answer["probe"]["result"]["rows"]
        return {"cli.report_bytes": answer["probe"]["_bytes"] + answer["oracle"]["_bytes"],
                "plucker.pinched_rows": sum(row.get("engine") == "pinched" for row in rows)}


# ---------------------------------------------------------------------------
# secant: a cold first-secant component, written through the disk cache
# ---------------------------------------------------------------------------

class Secant(Workload):
    """`psa secant` at degree 5 with a fresh, empty cache directory per op."""

    def __init__(self, smoke: bool):
        self.degree, self.dim = (3, 1) if smoke else (5, 120)

    def setup(self, seed: int, workdir: Path):
        return {"run": _CliOp(workdir), "seed": seed, "workdir": workdir}

    def cache_dir(self, state, i: int) -> Path:
        return state["workdir"] / f"cache{i}"

    def op(self, state, i: int) -> dict:
        cache = self.cache_dir(state, i)
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir()
        return state["run"](["secant", "--d", "2", "--N", "6", "--r", "1",
                             "--degree", str(self.degree), "--cache-dir", str(cache)])

    def check(self, state, i: int, answer: dict) -> list[str]:
        shutil.rmtree(self.cache_dir(state, i))
        res = answer["result"]
        if res["dimension"] != self.dim or len(res["basis"]) != self.dim:
            return [f"secant dimension {res['dimension']}, expected {self.dim}"]
        basis = [core.element_from_dict(b, symmetric=True) for b in res["basis"]]
        bad = []
        # distinct leading monomials make the basis independent
        if len({max(b.terms) for b in basis if b.terms}) != self.dim:
            bad.append("secant basis elements are zero or share a leading monomial")
        rng = _rng(state["seed"], i)
        for b in rng.sample(basis, min(3, len(basis))):
            for _ in range(2):
                point = plucker.random_secant_point(rng, 2, 6, 1)
                if plucker.evaluate(b, point) != 0:
                    bad.append("a secant basis element does not vanish on the secant")
        return bad

    def counters(self, answer) -> dict:
        return {"cli.report_bytes": answer["_bytes"]}


# ---------------------------------------------------------------------------
# ideal_warm: Plucker components read back from a filled cache
# ---------------------------------------------------------------------------

class IdealWarm(Workload):
    """Membership and a standard-monomial basis from cache-loaded components."""

    def __init__(self, smoke: bool):
        self.top = 3 if smoke else 5
        self.M = 2 if smoke else 3
        self.queries = 4 if smoke else 8
        self.pool = 4 if smoke else 16

    def setup(self, seed: int, workdir: Path):
        """Fills a fresh cache and draws membership queries from it."""
        cache = workdir / "cache"
        shutil.rmtree(cache, ignore_errors=True)
        P = plucker.plucker_ideal(self.M, 2, cache_dir=cache)
        for n in range(1, self.top + 1):
            P.component(2, n)
        rng = _rng(seed)
        variables = [core.sym_monomial(2, 1, self.M, [fac])
                     for fac in core.iter_factors(2, 2 * self.M)]
        basis = {n: P.component(2, n).basis_elements() for n in range(2, self.top)}
        standard = {n: P.component(2, n).standard_monomials() for n in range(3, self.top + 1)}
        ops = []
        for _ in range(self.pool):
            queries = []
            for q in range(self.queries):
                n = rng.randint(3, self.top)
                member = products.sym_shuffle(rng.choice(basis[n - 1]), rng.choice(variables))
                member = member.scale(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
                if q % 2:
                    std = SymElement(2, n, self.M, {rng.choice(standard[n]): Fraction(1)})
                    queries.append((member + std, False))
                else:
                    queries.append((member, True))
            ops.append(queries)
        return {"cache": cache, "ops": ops}

    def cache_dir(self, state, i: int) -> Path:
        return state["cache"]

    def op(self, state, i: int) -> dict:
        P = plucker.plucker_ideal(self.M, 2, cache_dir=state["cache"])
        answers = [P.membership(q) for q, _ in state["ops"][i % len(state["ops"])]]
        return {"members": answers,
                "standard": len(ideals.quotient_basis(P, (2, self.top)))}

    def check(self, state, i: int, answer: dict) -> list[str]:
        bad = []
        expected = [member for _, member in state["ops"][i % len(state["ops"])]]
        if answer["members"] != expected:
            bad.append(f"membership answers {answer['members']}, expected {expected}")
        want = hook_content_dim((self.top, self.top), 2 * self.M)
        if answer["standard"] != want:
            bad.append(f"{answer['standard']} standard monomials, expected {want}")
        return bad


WORKLOADS = {"algebra": Algebra, "probe": Probe, "secant": Secant, "ideal_warm": IdealWarm}

"""The acceptance suite: every headline computation as a checkable function.

Each check returns a dict with a name, a boolean, and enough detail to see
what was computed.  All randomness is seeded, so reports are reproducible.
The checks are also the CLI's `verify` command and the backing of the
acceptance tests.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

from .core import (
    Element,
    IncFn,
    SymElement,
    TensorMonomial,
    iter_factors,
    iter_sym_keys,
    iter_tensor_keys,
    merge_signed,
    monomial,
    relabel_factor,
    sym_monomial,
)
from . import linalg
from .ideals import ComponentBasis
from .poset import (
    LabeledTree,
    encode_tree,
    rl_leq,
    rl_search,
    tree_leq,
    value_slots,
)
from .products import (
    Split,
    all_incfns,
    all_splits,
    invariant_shuffle,
    shuffle_product,
    star_product,
    sym_shuffle,
    sym_star,
)
from .symmetry import (
    delta_invariant,
    delta_sym,
    delta_tensor,
    from_invariant,
    pair_map,
    pair_shuffle,
    pair_shuffle_invariant,
    pair_star,
    pair_star_invariant,
    pi,
    to_invariant,
)
from .plucker import (
    GrassmannConfig,
    basic_plucker,
    degree_probe,
    evaluate,
    evaluation_kernel,
    gamma_count,
    generation_census,
    pfaffian,
    plucker_ideal,
    quadric_generation_sum,
    random_secant_point,
    secant_ideal,
    weyman_quadrics,
)

__all__ = ["run_checks", "CHECK_NAMES", "ALL_CHECKS"]


# ---------------------------------------------------------------------------
# 1. generation identity for the basic quadrics
# ---------------------------------------------------------------------------

def check_fonesum(seed: int = 0) -> dict:
    nine_f2 = basic_plucker(2).scale(9)
    signed = quadric_generation_sum(1, signed=True)
    plain = quadric_generation_sum(1, signed=False)
    passed = signed == nine_f2
    return {
        "name": "fonesum",
        "passed": passed,
        "details": {
            "signed_sum_equals_9_f2": signed == nine_f2,
            "unsigned_sum_equals_9_f2": plain == nine_f2,
            "convention": "sign of the permutation sorting the reassembled index "
                          "list; one representative per unordered split pair",
        },
    }


# ---------------------------------------------------------------------------
# 2. coefficient census
# ---------------------------------------------------------------------------

def check_census(seed: int = 0) -> dict:
    counts = generation_census(1, ((1, 4, 5, 7), (2, 3, 6, 8)))
    expected = {
        ((1, 2), (3, 4)): 2,
        ((1, 3), (2, 4)): 11,
        ((1, 4), (2, 3)): 5,
    }
    return {
        "name": "census",
        "passed": counts == expected,
        "details": {"counts": {str(k): v for k, v in counts.items()},
                    "total": sum(counts.values())},
    }


# ---------------------------------------------------------------------------
# 3. integrality and parity of the term-count ratio
# ---------------------------------------------------------------------------

def check_gamma(seed: int = 0) -> dict:
    values = {n: gamma_count(n) for n in range(1, 11)}
    passed = values[1] == 18 and all(v % 2 == 0 for v in values.values())
    return {"name": "gamma", "passed": passed,
            "details": {"values": values}}


# ---------------------------------------------------------------------------
# 4. tree encoding of the worked divisibility pair
# ---------------------------------------------------------------------------

def _expected_tree(factors, M) -> LabeledTree:
    S = TensorMonomial.from_factors(factors, M)
    n = S.n
    md = S.alphabet
    psis = {}
    for k in range(1, md + 1):
        psis[k] = tuple((j + 1) if k in S.factors[j] else 0 for j in range(n))
    branches = tuple(tuple((k, j, psis[k]) for k in range(1, md + 1))
                     for j in range(1, n + 1))
    return LabeledTree(S.d, S.M, n, (0, 0, (n + 1,) * n), branches)


def check_tree(seed: int = 0) -> dict:
    S1 = TensorMonomial.from_factors([(1, 2), (2, 3), (1, 4)], 2)
    S2 = TensorMonomial.from_factors([(1, 2, 3), (1, 3, 4), (2, 5, 6)], 2)
    T1 = encode_tree(S1)
    T2 = encode_tree(S2)
    # frozen labels from the worked example
    t1_branch1 = ((1, 1, (1, 0, 3)), (2, 1, (1, 2, 0)), (3, 1, (0, 2, 0)), (4, 1, (0, 0, 3)))
    t2_branch1 = ((1, 1, (1, 2, 0)), (2, 1, (1, 0, 3)), (3, 1, (1, 2, 0)),
                  (4, 1, (0, 2, 0)), (5, 1, (0, 0, 3)), (6, 1, (0, 0, 3)))
    trees_ok = (T1 == _expected_tree([(1, 2), (2, 3), (1, 4)], 2)
                and T2 == _expected_tree([(1, 2, 3), (1, 3, 4), (2, 5, 6)], 2)
                and T1.root == (0, 0, (4, 4, 4)) and T2.root == (0, 0, (4, 4, 4))
                and T1.branches[0] == t1_branch1 and T2.branches[0] == t2_branch1)
    embeds = tree_leq(T1, T2)
    witness = rl_leq(S1, S2)
    witness_ok = witness is not None and witness.check(S1, S2)
    expected_g = witness is not None and witness.g.image == (2, 3, 4, 5)
    return {
        "name": "tree",
        "passed": trees_ok and embeds and witness_ok,
        "details": {
            "trees_match_worked_example": trees_ok,
            "tree_embedding": embeds,
            "witness_positions": witness.positions if witness else None,
            "witness_image": witness.g.image if witness else None,
            "witness_is_the_worked_one": expected_g,
        },
    }


# ---------------------------------------------------------------------------
# 5. divisibility decision vs brute-force product enumeration
# ---------------------------------------------------------------------------

def _brute_force_keys(S: TensorMonomial, e: int, m: int, M: int) -> set:
    """Monomial keys of bidegree (e, m) in the product ideal generated by S.

    Key-level re-derivation, independent of the element product code: every
    h * (S star_g a) over monomials a, injections g and splits.
    """
    d, n = S.d, S.n
    if e < d or m < n:
        return set()
    out: set = set()
    star_keys: set = set()
    facs = S.factors
    for g in all_incfns(M * d, M * e):
        gimg = g.image
        relabeled = tuple(tuple(gimg[i - 1] for i in fac) for fac in facs)
        gc = g.complement().image
        for akey in iter_tensor_keys(e - d, n, M):
            slots = []
            for k in range(n):
                merged = tuple(sorted(relabeled[k] + tuple(gc[i - 1] for i in akey[k])))
                slots.append(merged)
            star_keys.add(tuple(slots))
    hspace = list(iter_tensor_keys(e, m - n, M))
    positions = list(combinations(range(m), n))
    for skey in star_keys:
        for hkey in hspace:
            for pos in positions:
                inside = set(pos)
                slots = []
                it_s = iter(skey)
                it_h = iter(hkey)
                for t in range(m):
                    slots.append(next(it_s) if t in inside else next(it_h))
                out.add(tuple(slots))
    return out


def check_poset_oracle(seed: int = 0) -> dict:
    M = 2
    pairs = 0
    disagreements = []
    inclusion_disagreements = 0
    # each target monomial is built (and validated) once, not once per S,
    # and so are its value bitmasks, which both searches read
    targets = {}
    for e in range(0, 4):
        for m in range(0, 4):
            built = [(tkey, TensorMonomial(e, m, M, tkey)) for tkey in iter_tensor_keys(e, m, M)]
            targets[e, m] = [(tkey, T, value_slots(T)) for tkey, T in built]
    for d in range(0, 3):
        for n in range(0, 3):
            for skey in iter_tensor_keys(d, n, M):
                S = TensorMonomial(d, n, M, skey)
                for e in range(0, 4):
                    for m in range(0, 4):
                        member_keys = _brute_force_keys(S, e, m, M)
                        for tkey, T, slots in targets[e, m]:
                            pairs += 1
                            member = tkey in member_keys
                            # rl_leq and rl_leq_inclusion, on T's bitmasks
                            decided = rl_search(S, T, True, slots) is not None
                            if decided != member:
                                disagreements.append((skey, tkey))
                            if (rl_search(S, T, False, slots) is not None) != member:
                                inclusion_disagreements += 1
    return {
        "name": "poset_oracle",
        "passed": not disagreements,
        "details": {
            "pairs_checked": pairs,
            "disagreements": disagreements[:10],
            "containment_only_variant_disagreements": inclusion_disagreements,
        },
    }


# ---------------------------------------------------------------------------
# 6. symmetrization and comultiplication identities
# ---------------------------------------------------------------------------

def _random_element(rng, d, n, M, terms=2) -> Element:
    keys = list(iter_tensor_keys(d, n, M))
    out: dict = {}
    for _ in range(terms):
        out[rng.choice(keys)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Element(d, n, M, out)


def _random_sym(rng, d, n, M, terms=2) -> SymElement:
    keys = list(iter_sym_keys(d, n, M))
    out: dict = {}
    for _ in range(terms):
        out[rng.choice(keys)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return SymElement(d, n, M, out)


def _random_incfn(rng, domain, codomain) -> IncFn:
    return IncFn(domain, codomain, tuple(sorted(rng.sample(range(1, codomain + 1), domain))))


def check_hopf(seed: int = 0, rounds: int = 100) -> dict:
    rng = random.Random(seed)
    fails: dict[str, int] = {}

    def tally(name, ok):
        if not ok:
            fails[name] = fails.get(name, 0) + 1

    for _ in range(rounds):
        M = rng.randint(1, 3)
        d = rng.randint(1, 2)
        e = rng.randint(1, 2)
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        g = _random_incfn(rng, M * d, M * (d + e))
        # projection vs star (both sides)
        f_inv = pi(_random_element(rng, d, n, M))
        h = _random_element(rng, e, n, M)
        tally("proj_star_right", pi(star_product(f_inv, h, g)) == star_product(f_inv, pi(h), g))
        g2 = _random_incfn(rng, M * e, M * (d + e))
        tally("proj_star_left", pi(star_product(h, f_inv, g2)) == star_product(pi(h), f_inv, g2))
        # projection vs shuffle, every split
        f2 = _random_element(rng, d, n, M)
        h2 = _random_element(rng, d, m, M)
        pf2, ph2 = pi(f2), pi(h2)
        binomial = Fraction(comb(n + m, n))
        ok = True
        for split in all_splits(n, m):
            lhs = pi(shuffle_product(f2, h2, split)).scale(binomial)
            if lhs != invariant_shuffle(pf2, ph2, check=False):
                ok = False
                break
        tally("proj_shuffle", ok)
        # comultiplication is multiplicative for both products (invariant side)
        yi = pi(_random_element(rng, d, n, M))
        vi = pi(_random_element(rng, d, m, M))
        tally("comult_shuffle_invariant",
              delta_invariant(invariant_shuffle(yi, vi, check=False))
              == pair_shuffle_invariant(delta_invariant(yi), delta_invariant(vi)))
        xi = pi(_random_element(rng, d, n, M))
        wi = pi(_random_element(rng, e, n, M))
        tally("comult_star_invariant",
              delta_invariant(star_product(xi, wi, g))
              == pair_star_invariant(delta_invariant(xi), delta_invariant(wi), g))
        # coinvariant transfer: the shuffle form is strict, the star form
        # carries a binomial per component
        y = _random_sym(rng, d, n, M)
        v = _random_sym(rng, d, m, M)
        tally("comult_shuffle", delta_sym(sym_shuffle(y, v)) == pair_shuffle(delta_sym(y), delta_sym(v)))
        x = _random_sym(rng, d, n, M)
        w = _random_sym(rng, e, n, M)
        lhs = delta_sym(sym_star(x, w, g))
        lhs_scaled = type(lhs)(lhs.d, lhs.M, lhs.total, True,
                               {k: c * comb(n, len(k[0])) for k, c in lhs.terms.items()})
        tally("comult_star", lhs_scaled == pair_star(delta_sym(x), delta_sym(w), g))
        # symmetrization is an isomorphism; the product square carries the
        # split-count binomial, the comultiplication square is strict
        tally("iso_product", to_invariant(sym_shuffle(y, v)).scale(comb(n + m, n))
              == invariant_shuffle(to_invariant(y), to_invariant(v), check=False))
        tally("iso_comult", pair_map(delta_sym(y), to_invariant, symmetric_out=False)
              == delta_tensor(to_invariant(y)))
        # modified associativity with the constructed witnesses
        tally("modified_assoc", _modified_assoc_holds(rng, M))
        # the symmetrization maps invert each other
        s = _random_sym(rng, d, n, M)
        tally("inverse_pair", from_invariant(to_invariant(s)) == s)
        inv = pi(_random_element(rng, d, n, M))
        tally("inverse_pair_other", to_invariant(from_invariant(inv)) == inv)
        # direct star formula vs conjugation by symmetrization
        s2 = _random_sym(rng, e, n, M)
        tally("star_conjugation", sym_star(x, s2, g)
              == from_invariant(star_product(to_invariant(x), to_invariant(s2), g)))
    return {
        "name": "hopf",
        "passed": not fails,
        "details": {"rounds": rounds, "failures": fails},
    }


def _modified_assoc_holds(rng, M) -> bool:
    """(f .s b) *g a  ==  (f *g p) .s h with the explicit witnesses."""
    d = rng.randint(1, 2)
    e = rng.randint(1, 2)
    n = rng.randint(1, 2)
    m = rng.randint(1, 2)
    fkey = rng.choice(list(iter_tensor_keys(d, n, M)))
    bkey = rng.choice(list(iter_tensor_keys(d, m, M)))
    akey = rng.choice(list(iter_tensor_keys(e, n + m, M)))
    f = monomial(d, n, M, fkey)
    b = monomial(d, m, M, bkey)
    a = monomial(e, n + m, M, akey)
    split = Split(n + m, tuple(sorted(rng.sample(range(1, n + m + 1), n))))
    g = _random_incfn(rng, M * d, M * (d + e))
    gc = g.complement()
    lhs = star_product(shuffle_product(f, b, split), a, g)
    left = [i - 1 for i in split.left]
    right = [i - 1 for i in split.right]
    pkey = tuple(akey[t] for t in left)
    p = monomial(e, n, M, pkey)
    sign = 1
    hslots = []
    for k, t in enumerate(right):
        s, merged = merge_signed(relabel_factor(bkey[k], g), relabel_factor(akey[t], gc))
        sign *= s
        hslots.append(merged)
    h = monomial(d + e, m, M, hslots, Fraction(sign))
    rhs = shuffle_product(star_product(f, p, g), h, split)
    return lhs == rhs


# ---------------------------------------------------------------------------
# 7. degree-2 spaces of the small Grassmannians
# ---------------------------------------------------------------------------

def _span_of(elements, d, n, M) -> ComponentBasis:
    comp = ComponentBasis(d, n, M)
    for el in elements:
        comp.add(el)
    return comp


def _same_span(a: ComponentBasis, b: ComponentBasis) -> bool:
    return (a.dim == b.dim
            and all(a.contains(el) for el in b.basis_elements()))


def check_plucker_degree2(seed: int = 0) -> dict:
    details = {}
    # smallest case: one quadric
    K = evaluation_kernel(GrassmannConfig(d=2, N=4, r=0), 2, seed=seed)
    f1_span = _span_of([basic_plucker(1)], 2, 2, 2)
    ok1 = len(K) == 1 and _same_span(f1_span, _span_of(K, 2, 2, 2))
    details["gr24"] = {"kernel_dim": len(K), "equals_span_f1": ok1}
    passed = ok1
    for (d, N) in ((2, 6), (3, 6)):
        cfg = GrassmannConfig(d=d, N=N)
        M = cfg.M
        W = _span_of(weyman_quadrics(d, N), d, 2, M)
        K = evaluation_kernel(cfg, 2, seed=seed)
        Kspan = _span_of(K, d, 2, M)
        same = _same_span(W, Kspan)
        details[f"gr{d}{N}"] = {"weyman_dim": W.dim, "kernel_dim": Kspan.dim, "equal": same}
        passed = passed and same
    return {"name": "plucker_degree2", "passed": passed, "details": details}


# ---------------------------------------------------------------------------
# 8. first secant of the width-2 Grassmannian in six variables
# ---------------------------------------------------------------------------

def check_secant_gr26(seed: int = 0) -> dict:
    P = plucker_ideal(3, 2)
    S1 = secant_ideal(P, 1)
    c22 = S1.component(2, 2)
    c23 = S1.component(2, 3)
    pf = pfaffian(range(1, 7), 6)
    pf_span = _span_of([pf], 2, 3, 3)
    join_ok = c22.dim == 0 and c23.dim == 1 and _same_span(pf_span, c23)
    K = evaluation_kernel(GrassmannConfig(d=2, N=6, r=1), 3, seed=seed)
    oracle_ok = len(K) == 1 and _same_span(pf_span, _span_of(K, 2, 3, 3))
    return {
        "name": "secant_gr26",
        "passed": join_ok and oracle_ok,
        "details": {
            "join_dim_2_2": c22.dim,
            "join_dim_2_3": c23.dim,
            "join_is_pfaffian_span": join_ok,
            "oracle_dim_2_3": len(K),
            "oracle_matches": oracle_ok,
        },
    }


# ---------------------------------------------------------------------------
# 9. products of ideal elements vanish on decomposables
# ---------------------------------------------------------------------------

def check_diideal_closure(seed: int = 0, products: int = 50, points: int = 20) -> dict:
    rng = random.Random(seed)
    M = 3
    P = plucker_ideal(M, 2)
    pools = {bid: P.component(*bid).basis_elements() for bid in ((2, 2), (2, 3))}
    failures = 0
    checked = 0
    for k in range(products):
        bid = (2, 2) if k % 2 == 0 else (2, 3)
        basis = pools[bid]
        u = basis[rng.randrange(len(basis))].scale(Fraction(rng.randint(1, 3)))
        u = u.add_scale(basis[rng.randrange(len(basis))], Fraction(rng.randint(-2, 2)))
        if u.is_zero():
            u = basis[0]
        d, n = u.d, u.n
        if k % 2 == 0:
            ekey = rng.choice(list(iter_sym_keys(1, n, M)))
            a = sym_monomial(1, n, M, ekey)
            g = _random_incfn(rng, M * d, M * (d + 1))
            prod = sym_star(u, a, g)
            width = d + 1
        else:
            var = rng.choice(list(iter_factors(d, M * d)))
            prod = sym_shuffle(u, sym_monomial(d, 1, M, [var]))
            width = d
        N = M * width
        for _ in range(points):
            checked += 1
            pt = random_secant_point(rng, width, N, 0)
            val = evaluate(prod, pt)
            if val != 0:
                failures += 1
    return {
        "name": "diideal_closure",
        "passed": failures == 0,
        "details": {"products": products, "evaluations": checked, "nonzero": failures},
    }


# ---------------------------------------------------------------------------
# 10. degree-probe regressions
# ---------------------------------------------------------------------------

def check_degree_probe(seed: int = 0) -> dict:
    rep0 = degree_probe(GrassmannConfig(d=2, r=0), 4)
    new0 = [row["n"] for row in rep0["rows"] if row["new_generators"]]
    rep1 = degree_probe(GrassmannConfig(d=2, N=6, r=1), 4)
    new1 = [row["n"] for row in rep1["rows"] if row["new_generators"]]
    passed = new0 == [2] and new1 == [3]
    return {
        "name": "degree_probe",
        "passed": passed,
        "details": {
            "plain_new_generator_degrees": new0,
            "first_secant_new_generator_degrees": new1,
            "plain_rows": rep0["rows"],
            "first_secant_rows": rep1["rows"],
        },
    }


ALL_CHECKS = (
    check_fonesum,
    check_census,
    check_gamma,
    check_tree,
    check_poset_oracle,
    check_hopf,
    check_plucker_degree2,
    check_secant_gr26,
    check_diideal_closure,
    check_degree_probe,
)

CHECK_NAMES = tuple(fn.__name__.removeprefix("check_") for fn in ALL_CHECKS)


def _run_one(item):
    fn, seed = item
    t0 = time.perf_counter()
    res = fn(seed=seed)
    return res, time.perf_counter() - t0


def run_checks(only=None, seed: int = 0, with_timings: bool = False,
               jobs: int = 1) -> dict:
    """Run the acceptance checks (all, or the named subset).

    With jobs > 1 the independent checks run in a process pool, each worker
    under this process's coefficient guard, whatever the start method; the
    report order stays fixed either way.
    """
    wanted = set(only) if only else None
    if wanted:
        unknown = wanted - set(CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}; "
                             f"available: {list(CHECK_NAMES)}")
    selected = [fn for fn in ALL_CHECKS
                if not wanted or fn.__name__.removeprefix("check_") in wanted]
    items = [(fn, seed) for fn in selected]
    if jobs > 1 and len(items) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs, initializer=linalg.set_default_max_bits,
                                 initargs=(linalg.default_max_bits(),)) as pool:
            outcomes = list(pool.map(_run_one, items))
    else:
        outcomes = [_run_one(item) for item in items]
    results = []
    for res, elapsed in outcomes:
        if with_timings:
            res["seconds"] = round(elapsed, 3)
        results.append(res)
    return {
        "seed": seed,
        "checks": results,
        "passed": all(r["passed"] for r in results),
    }

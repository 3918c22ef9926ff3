import hashlib
import json
import random
from dataclasses import FrozenInstanceError, fields
from itertools import combinations, permutations
from math import prod

import pytest
from fractions import Fraction

from shufflestar.core import (SymElement, element_to_dict, iter_factors, iter_sym_keys,
                             sym_monomial)
from shufflestar.ideals import ComponentBasis, DiIdeal
from shufflestar.products import sym_shuffle, sym_star
from shufflestar.plucker import (
    GrassmannConfig,
    JoinIdeal,
    basic_plucker,
    decomposable_point,
    degree_probe,
    evaluate,
    evaluation_kernel,
    gamma_count,
    generation_census,
    exact_join_component,
    pfaffian,
    plucker_ideal,
    quadric_generation_sum,
    random_secant_point,
    secant_ideal,
    weyman_quadrics,
)
from shufflestar.weights import (
    FactorTable,
    act,
    dominant_weights,
    is_dominant,
    sn_generators,
    weight,
)


def test_basic_plucker():
    f1 = basic_plucker(1)
    assert f1.terms == {((1, 2), (3, 4)): Fraction(1),
                        ((1, 3), (2, 4)): Fraction(-1),
                        ((1, 4), (2, 3)): Fraction(1)}
    assert f1.terms[((1, 3), (2, 4))] == -1
    f2 = basic_plucker(2)
    assert len(f2.terms) == 35
    assert set(abs(c) for c in f2.terms.values()) == {1}


def test_weyman_small_case_is_the_klein_quadric():
    from shufflestar.core import merge_signed
    # d = 2, u = 0, v = 1, j = (1,2,3), l = (4): three shuffles
    terms = {}
    j, l = (1, 2, 3), (4,)
    for first in [(0, 1), (0, 2), (1, 2)]:
        second = tuple(k for k in range(3) if k not in first)
        sgn, _ = merge_signed(first, second)
        s1, f1 = merge_signed((), tuple(j[k] for k in first))
        s2, f2 = merge_signed(tuple(j[k] for k in second), l)
        key = tuple(sorted((f1, f2)))
        terms[key] = terms.get(key, Fraction(0)) + sgn * s1 * s2
    assert SymElement(2, 2, 2, terms) == basic_plucker(1)


def test_weyman_spans():
    W = weyman_quadrics(2, 4)
    span = ComponentBasis(2, 2, 2)
    for q in W:
        span.add(q)
    assert span.dim == 1 and span.contains(basic_plucker(1))
    assert weyman_quadrics(1, 3) == []
    rng = random.Random(0)
    for q in weyman_quadrics(3, 6)[:25]:
        for _ in range(3):
            assert evaluate(q, random_secant_point(rng, 3, 6, 0)) == 0


def test_evaluate_examples():
    f1 = basic_plucker(1)
    e12 = decomposable_point([[1, 0, 0, 0], [0, 1, 0, 0]], 2, 4)
    assert e12[(1, 2)] == 1 and sum(map(abs, e12.values())) == 1
    assert evaluate(f1, e12) == 0
    point = {fac: 0 for fac in e12}
    point[(1, 2)] = 1
    point[(3, 4)] = 1
    assert evaluate(f1, point) == 1
    with pytest.raises(ValueError):
        evaluate(f1, {(1, 2): 1})


def test_decomposable_minors():
    pt = decomposable_point([[1, 2, 3], [0, 1, 4]], 2, 3)
    assert pt == {(1, 2): 1, (1, 3): 4, (2, 3): 2 * 4 - 3 * 1}


def _leibniz_det(rows):
    total = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
                         if perm[a] > perm[b])
        prod = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += prod
    return total


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_shared_minors_match_the_leibniz_formula(d):
    rng = random.Random(d)
    N = d + 3
    for _ in range(5):
        # some zero entries, as a sampled matrix can have
        matrix = [[rng.choice([0, rng.randint(-9, 9)]) for _ in range(N)] for _ in range(d)]
        pt = decomposable_point(matrix, d, N)
        assert list(pt) == list(combinations(range(1, N + 1), d))
        for fac, v in pt.items():
            assert v == _leibniz_det([[row[c - 1] for c in fac] for row in matrix])


# SHA-256 of the first 50 `random_secant_point(random.Random(0), d, N, r)`
# draws, each as its [factor, value] pairs in key order, as compact JSON;
# recorded before the minors were expanded from a per-(d, N) plan, so every
# seed must keep drawing the same points
_SECANT_POINTS = {
    (2, 6, 1): "0192b14e306521f035e58752ec52f2e86e9a55f6e3b102ec342564037384b379",
    (3, 9, 1): "2d4a157598be467809a593b6dd69899ad368e63aa78943d752f055b57e5a13a4",
}


@pytest.mark.parametrize("d, N, r", sorted(_SECANT_POINTS))
def test_secant_points_are_the_pinned_draws(d, N, r):
    rng = random.Random(0)
    points = [random_secant_point(rng, d, N, r) for _ in range(50)]
    text = json.dumps([[[list(fac), v] for fac, v in pt.items()] for pt in points],
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == _SECANT_POINTS[(d, N, r)]


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_random_matrices_are_the_randint_draws(seed):
    # the draws `rng.randint(-9, 9)` makes, entry by entry, leaving the
    # generator where it leaves it
    from shufflestar.plucker import _draw_entries
    for d, N in ((1, 1), (2, 6), (3, 9), (2, 10), (4, 3)):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert _draw_entries(rng, d * N) == [ref.randint(-9, 9) for _ in range(d * N)]
        assert rng.random() == ref.random()


def _leibniz_point(matrices):
    """The minor coordinates of the sum of the matrices' row spans, by the
    Leibniz formula."""
    d, N = len(matrices[0]), len(matrices[0][0])
    return {fac: sum(_leibniz_det([[row[c - 1] for c in fac] for row in m]) for m in matrices)
            for fac in combinations(range(1, N + 1), d)}


@pytest.mark.parametrize("d, N, r", [(2, 6, 1), (3, 9, 1), (2, 8, 2), (2, 4, 0), (3, 6, 0)])
@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_bulk_points_are_the_one_at_a_time_draws(d, N, r, seed):
    # coordinate lists over the points, drawn in bulk, hold the points that
    # as many one-point draws give, and leave the generator where they do;
    # both are the sums of Leibniz minors of the `randint(-9, 9)` matrices
    from shufflestar.plucker import _secant_columns
    for count in (0, 1, 2, 64, 167):
        rng, one, ref = (random.Random(seed) for _ in range(3))
        columns = _secant_columns(rng, d, N, r, count)
        assert list(columns) == list(combinations(range(1, N + 1), d))
        assert all(len(values) == count for values in columns.values())
        points = [{fac: values[j] for fac, values in columns.items()} for j in range(count)]
        assert points == [random_secant_point(one, d, N, r) for _ in range(count)]
        following = rng.random()
        assert following == one.random()
        if count <= 64:
            assert points == [_leibniz_point([[[ref.randint(-9, 9) for _ in range(N)]
                                               for _ in range(d)] for _ in range(r + 1)])
                              for _ in range(count)]
            assert following == ref.random()


@pytest.mark.parametrize("d, N, r, n", [(2, 6, 1, 1), (2, 6, 1, 3), (2, 6, 0, 4), (3, 6, 0, 2),
                                        (3, 9, 1, 2)])
def test_value_columns_equal_the_evaluation_point_by_point(d, N, r, n):
    from shufflestar.ideals import monomial_space
    from shufflestar.plucker import _secant_columns, _Values
    count = 9
    columns = _secant_columns(random.Random(n), d, N, r, count)
    points = [{fac: values[j] for fac, values in columns.items()} for j in range(count)]
    values = _Values(columns)
    for key in monomial_space(d, n, N // d)[0]:
        mono = SymElement(d, n, N // d, {key: 1}, _validated=True)
        assert values[key] == [evaluate(mono, pt) for pt in points]


@pytest.mark.parametrize("d, N, r, n", [(2, 6, 1, 3), (2, 6, 0, 3), (3, 6, 0, 2)])
def test_cut_kernel_equals_the_point_by_point_cut(d, N, r, n):
    # two points leave big kernels with fractions in them; the cut at the
    # next points, one combination per vector, is the point-by-point one
    from shufflestar.certified import certified_kernel
    from shufflestar.plucker import _cut_kernel, _secant_columns, _Values
    from shufflestar.weights import monomials_of_weight
    recombined = 0
    for w in dominant_weights(d, n, N):
        keys = monomials_of_weight(w, d, n)
        rng = random.Random(len(keys))
        kernel = certified_kernel(_reference_value_rows(keys, _reference_points(d, N, r, 2, rng)),
                                  len(keys))
        state = rng.getstate()
        got = _cut_kernel(keys, kernel, _Values(_secant_columns(rng, d, N, r, len(keys) // 2)))
        rng.setstate(state)
        want = _reference_cut_kernel(keys, kernel, _reference_points(d, N, r, len(keys) // 2, rng))
        assert got == want
        recombined += got is not kernel
    assert recombined


def test_the_oracle_draws_no_point_alone(monkeypatch):
    # every round draws its points in one batch, as coordinate lists
    from shufflestar import plucker

    def refuse(*args):
        raise AssertionError("a point drawn alone")

    cfg = GrassmannConfig(d=2, N=6, r=1)
    want = evaluation_kernel(cfg, 3, seed=1)
    monkeypatch.setattr(plucker, "random_secant_point", refuse)
    monkeypatch.setattr(plucker, "decomposable_point", refuse)
    assert evaluation_kernel(cfg, 3, seed=1) == want
    assert evaluation_kernel(GrassmannConfig(d=3, N=6, r=0), 2, seed=1)


def test_pfaffian():
    assert pfaffian((1, 2, 3, 4), 4) == basic_plucker(1)
    # distinct perfect matchings give distinct monomials, so none cancel:
    # (2k-1)!! terms, each with coefficient +1 or -1
    for k in range(1, 5):
        terms = pfaffian(range(1, 2 * k + 1), 2 * k).terms
        assert len(terms) == prod(range(1, 2 * k, 2))
        assert all(abs(c) == 1 for c in terms.values())
    assert pfaffian((2, 5), 6).terms == {((2, 5),): Fraction(1)}
    with pytest.raises(ValueError):
        pfaffian((1, 2, 3), 6)
    # int() would truncate both to the indices of x12
    for indices in ([1.5, 2.9], [True, 2]):
        with pytest.raises(ValueError, match="not an integer"):
            pfaffian(indices, 4)


def test_join_and_secant_reject_bad_input():
    with pytest.raises(ValueError, match="multiplier"):
        JoinIdeal(plucker_ideal(2, 2), plucker_ideal(3, 2))
    with pytest.raises(ValueError, match="secant index"):
        secant_ideal(plucker_ideal(2, 2), -1)
    # range(1.0) would raise TypeError, and True would build one join
    for bad in (1.0, True):
        with pytest.raises(ValueError, match="not an integer"):
            secant_ideal(plucker_ideal(2, 2), bad)


def test_oracle_small_cases():
    K = evaluation_kernel(GrassmannConfig(d=2, N=4, r=0), 2, seed=1)
    assert len(K) == 1
    span = ComponentBasis(2, 2, 2)
    span.add(basic_plucker(1))
    assert span.contains(K[0])
    assert evaluation_kernel(GrassmannConfig(d=1, N=3, r=0), 2, seed=1) == []
    assert evaluation_kernel(GrassmannConfig(d=2, N=6, r=1), 2, seed=1) == []


def test_join_of_zero_ideals_is_zero():
    Z = DiIdeal(2, [])
    assert JoinIdeal(Z, Z).component(2, 2).basis_elements() == []
    assert JoinIdeal(Z, Z).component(2, 1).basis_elements() == []


def test_join_commutes():
    I = DiIdeal(2, [basic_plucker(1)])
    J = DiIdeal(2, [sym_monomial(2, 2, 2, [(1, 2), (1, 2)])])
    # x12^2 is not S_4-stable, so these joins take the one-block path
    assert I.permutation_stable(2, 3) and not J.permutation_stable(2, 2)
    for bid in ((2, 2), (2, 3)):
        a = JoinIdeal(I, J).component(*bid).basis_elements()
        b = JoinIdeal(J, I).component(*bid).basis_elements()
        assert len(a) == len(b)
        span = ComponentBasis(*bid, 2)
        for el in a:
            span.add(el)
        assert all(span.contains(el) for el in b)


def test_join_inside_both(klein_pair=None):
    I = DiIdeal(2, [basic_plucker(1)])
    J = DiIdeal(2, [sym_monomial(2, 2, 2, [(1, 2), (1, 2)])])
    for bid in ((2, 2), (2, 3)):
        for el in JoinIdeal(I, J).component(*bid).basis_elements():
            assert I.membership(el) and J.membership(el)


def test_join_degree_one_is_intersection():
    gens = [sym_monomial(1, 1, 2, [(1,)])]
    I = DiIdeal(2, gens)
    J = DiIdeal(2, [sym_monomial(1, 1, 2, [(1,)]),
                    sym_monomial(1, 1, 2, [(2,)])])
    basis = JoinIdeal(I, J).component(1, 1).basis_elements()
    assert len(basis) == 1
    assert basis[0].terms == {((1,),): Fraction(1)}


def test_secant_base_case():
    I = DiIdeal(2, [basic_plucker(1)])
    assert secant_ideal(I, 0) is I
    b0 = secant_ideal(I, 0).component(2, 2).basis_elements()
    assert len(b0) == I.component(2, 2).dim == 1


def test_secant_gr26_small_degrees():
    P = plucker_ideal(3, 2)
    S1 = secant_ideal(P, 1)
    assert isinstance(S1, JoinIdeal)
    assert S1.component(2, 1).dim == 0
    assert S1.component(2, 2).dim == 0


def test_join_matches_oracle_for_the_klein_ideal():
    # components of the plain ideal agree with the evaluation kernel
    I = plucker_ideal(2, 2)
    K = evaluation_kernel(GrassmannConfig(d=2, N=4, r=0), 3, seed=3)
    comp = I.component(2, 3)
    assert comp.dim == len(K) == 6
    assert all(comp.contains(v) for v in K)


def test_oracle_spans_the_plucker_component_gr26_degree3():
    comp = plucker_ideal(3, 2).component(2, 3)
    K = evaluation_kernel(GrassmannConfig(d=2, N=6, r=0), 3, seed=2)
    assert comp.dim == len(K) == 190
    assert all(comp.contains(v) for v in K)


def test_oracle_spans_the_first_secant_component_gr26_degree4():
    comp = secant_ideal(plucker_ideal(3, 2), 1).component(2, 4)
    K = evaluation_kernel(GrassmannConfig(d=2, N=6, r=1), 4, seed=5)
    assert comp.dim == len(K) == 15
    assert all(comp.contains(v) for v in K)


@pytest.mark.parametrize("r", [0, 1])
def test_oracle_rounds_reach_the_same_basis_from_two_first_points(r):
    # two first-round points leave most block kernels too big; the fresh
    # rounds must cut them to the same reduced basis
    cfg = GrassmannConfig(d=2, N=6, r=r)
    assert (evaluation_kernel(cfg, 3, samples=2, seed=4)
            == evaluation_kernel(cfg, 3, seed=4))


def _reference_points(d, N, r, count, rng):
    """Sampled points one at a time, each a dict of its coordinates."""
    return [random_secant_point(rng, d, N, r) for _ in range(count)]


def _reference_value_rows(keys, points):
    """One row per point: each monomial's value there, factor by factor."""
    rows = []
    for pt in points:
        row = []
        for key in keys:
            v = 1
            for fac in key:
                v *= pt[fac]
            row.append(v)
        rows.append(row)
    return rows


def _reference_cut_kernel(keys, kernel, points):
    """The combinations of the kernel vectors that vanish at the points, with
    every vector's value computed point by point in fractions."""
    from shufflestar.linalg import kernel_basis, recombine
    values = [{t: sum(Fraction(row[c]) * a for c, a in vec.items())
               for t, vec in enumerate(kernel)}
              for row in _reference_value_rows(keys, points)]
    null = kernel_basis(values, len(kernel))
    if len(null) == len(kernel):
        return kernel
    return recombine(null, kernel)


def _all_blocks_kernel(cfg, n, samples=None, seed=0):
    """The oracle as it was before the orbit reduction: every weight block
    goes through the certified kernels and the re-sampling rounds, with the
    points drawn, held and evaluated one at a time."""
    from shufflestar.certified import certified_kernel
    from shufflestar.ideals import monomial_space
    d, N, r, M = cfg.d, cfg.N, cfg.r, cfg.M
    monos = monomial_space(d, n, M)[0]
    groups = {}
    for c, key in enumerate(monos):
        groups.setdefault(weight(key, N), []).append(c)
    blocks = list(groups.values())
    if samples is None:
        samples = max(len(cols) for cols in blocks) + 24
    points = _reference_points(d, N, r, samples, random.Random(1_000_003 * seed))
    kernels = []
    for cols in blocks:
        keys = [monos[c] for c in cols]
        kernel = certified_kernel(_reference_value_rows(keys, points), len(cols))
        if kernel:
            kernels.append((cols, keys, kernel))
    stable = 0
    round_no = 0
    while kernels and stable < 2:
        round_no += 1
        assert round_no <= 16
        rng = random.Random(1_000_003 * seed + round_no)
        largest = max(len(kernel) for _, _, kernel in kernels)
        points = _reference_points(d, N, r, max(64, 2 * largest), rng)
        cut = [(cols, keys, _reference_cut_kernel(keys, kernel, points))
               for cols, keys, kernel in kernels]
        changed = any(len(new) < len(old) for (_, _, new), (_, _, old) in zip(cut, kernels))
        stable = 0 if changed else stable + 1
        kernels = [entry for entry in cut if entry[2]]
    found = []
    for cols, keys, kernel in kernels:
        for vec in kernel:
            terms = {keys[j]: v for j, v in vec.items()}
            found.append((cols[max(vec)], SymElement(d, n, M, terms, _validated=True)))
    found.sort(key=lambda t: t[0])
    return [el for _, el in found]


@pytest.mark.parametrize("d, N, r, n, samples", [
    (2, 4, 0, 2, None),
    (2, 4, 0, 3, None),
    (2, 6, 0, 3, None),
    (2, 6, 1, 3, None),
    (2, 6, 1, 4, None),
    (2, 6, 1, 3, 2),
    (3, 6, 0, 2, None),
])
def test_orbit_oracle_equals_the_all_blocks_loop(d, N, r, n, samples):
    cfg = GrassmannConfig(d=d, N=N, r=r)
    got = evaluation_kernel(cfg, n, samples=samples, seed=3)
    want = _all_blocks_kernel(cfg, n, samples=samples, seed=3)
    assert [element_to_dict(e) for e in got] == [element_to_dict(e) for e in want]
    assert got == want


def test_orbit_oracle_raises_when_the_action_drops_its_sign(monkeypatch):
    # the exact evaluation of every carried vector catches a wrong action
    from shufflestar import weights
    from shufflestar.weights import act_on_key

    def unsigned_act(table, f):
        terms = {act_on_key(table, key)[1]: c for key, c in f.terms.items()}
        return SymElement(f.d, f.n, f.M, terms, _validated=True)

    cfg = GrassmannConfig(d=2, N=6, r=0)
    assert evaluation_kernel(cfg, 3, seed=1)
    monkeypatch.setattr(weights, "act", unsigned_act)
    with pytest.raises(RuntimeError, match="does not vanish"):
        evaluation_kernel(cfg, 3, seed=1)


def _canonical(c):
    """`core`'s coefficient rule: an int when integral, else a Fraction."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


@pytest.mark.parametrize("d, N, r, n", [(2, 4, 0, 2), (2, 6, 1, 3), (3, 6, 0, 2)])
def test_oracle_and_its_kernels_keep_canonical_coefficients(d, N, r, n):
    from shufflestar.certified import certified_kernel
    from shufflestar.plucker import _cut_kernel, _secant_columns, _Values
    from shufflestar.weights import monomials_of_weight
    K = evaluation_kernel(GrassmannConfig(d=d, N=N, r=r), n, seed=1)
    assert K and all(_canonical(c) for v in K for c in v.terms.values())
    # two points leave big kernels, so the cut recombines them
    rng = random.Random(0)
    for w in dominant_weights(d, n, N):
        keys = monomials_of_weight(w, d, n)
        kernel = certified_kernel(_reference_value_rows(keys, _reference_points(d, N, r, 2, rng)),
                                  len(keys))
        cut = _cut_kernel(keys, kernel, _Values(_secant_columns(rng, d, N, r, len(keys))))
        assert all(_canonical(c) for vec in kernel + cut for c in vec.values())


@pytest.mark.parametrize("cfg, n", [
    (GrassmannConfig(d=2, N=6, r=0), 3),
    (GrassmannConfig(d=2, N=6, r=1), 4),
    (GrassmannConfig(d=3, N=6, r=0), 2),
])
def test_oracle_basis_is_weight_homogeneous_and_reduced(cfg, n):
    K = evaluation_kernel(cfg, n, seed=1)
    assert K
    column = {key: c for c, key in
              enumerate(sorted(iter_sym_keys(cfg.d, n, cfg.M), reverse=True))}
    leads = []
    for v in K:
        # one weight: the same multiset of indices in every term
        assert len({tuple(sorted(i for fac in key for i in fac)) for key in v.terms}) == 1
        lead = max(v.terms, key=column.__getitem__)
        assert v.terms[lead] == 1
        leads.append(column[lead])
    assert leads == sorted(set(leads))
    # reduced: no vector has a nonzero coefficient at another vector's lead
    lead_keys = {max(v.terms, key=column.__getitem__) for v in K}
    for v in K:
        assert len(lead_keys & set(v.terms)) == 1


def test_secant_components_close_under_products():
    # products of a secant-component element stay in the secant ideal:
    # multiples stay in the computed join component, and width-raising star
    # products vanish on sums of two decomposables
    rng = random.Random(4)
    P = plucker_ideal(3, 2)
    S1 = secant_ideal(P, 1)
    p6 = S1.component(2, 3).basis_elements()[0]
    rep = degree_probe(GrassmannConfig(d=2, N=6, r=1), 4)
    assert rep["rows"][3]["dim"] == 15
    c24 = S1.component(2, 4)  # exact join component; the probe built its own ideal
    for fac in list(iter_factors(2, 6))[:5]:
        assert c24.contains(sym_shuffle(p6, sym_monomial(2, 1, 3, [fac])))
    from shufflestar.products import star_incfns
    for g in list(star_incfns(2, 1, 3))[:3]:
        akey = rng.choice(list(iter_sym_keys(1, 3, 3)))
        prod = sym_star(p6, sym_monomial(1, 3, 3, akey), g)
        for _ in range(5):
            pt = {}
            for _ in range(2):
                dec = random_secant_point(rng, 3, 9, 0)
                for k, v in dec.items():
                    pt[k] = pt.get(k, 0) + v
            assert evaluate(prod, pt) == 0


def test_generation_sum_and_census():
    assert quadric_generation_sum(1) == basic_plucker(2).scale(9)
    counts = generation_census(1, ((1, 4, 5, 7), (2, 3, 6, 8)))
    assert list(counts.values()) == [2, 11, 5]
    assert gamma_count(1) == 18


def test_generation_sum_next_degree_is_still_a_multiple():
    # the unordered-split signed sum stays proportional to the next quadric
    # one degree up (the multiplier differs from the term-count ratio there)
    s = quadric_generation_sum(2)
    f3 = basic_plucker(3)
    ratio = None
    for key, coeff in s.terms.items():
        r = coeff / f3.terms[key]
        ratio = ratio or r
        assert r == ratio
    assert set(s.terms) == set(f3.terms)
    assert ratio == 75


def test_probe_small():
    rep = degree_probe(GrassmannConfig(d=2, r=0), 3)
    assert [row["new_generators"] for row in rep["rows"]] == [0, 1, 0]
    assert rep["largest_new_n"] == 2
    rep = degree_probe(GrassmannConfig(d=1, r=0), 2)
    assert rep["largest_new_n"] is None


def _reference_from_below(cfg, max_n):
    """Each row's from-below dimension as the (d, n) component of a new ideal
    generated by the elements of C_(d,n-1) and of the narrower C_(d',n)."""
    d, M = cfg.d, cfg.M
    ideal = secant_ideal(plucker_ideal(M, d), cfg.r)
    dims = []
    for n in range(1, max_n + 1):
        gens = ideal.component(d, n - 1).basis_elements()
        for dp in range(1, d):
            gens.extend(ideal.component(dp, n).basis_elements())
        dims.append(DiIdeal(M, gens).component(d, n).dim)
    return dims


@pytest.mark.parametrize("d, N, r, max_n", [(2, 6, 1, 4), (2, 8, 2, 4), (3, 6, 0, 3)])
def test_probe_from_below_is_the_ideal_its_rows_generate(d, N, r, max_n):
    # one climb step of C_(d,n-1) plus the narrower star rows spans what
    # C_(d,n-1) and the narrower components generate; (3, 6, 0) has nonzero
    # width-2 components below its width-3 rows
    cfg = GrassmannConfig(d=d, N=N, r=r)
    rep = degree_probe(cfg, max_n)
    assert [row["from_below"] for row in rep["rows"]] == _reference_from_below(cfg, max_n)


def test_probe_builds_no_whole_component_of_a_certified_secant(monkeypatch):
    cfg = GrassmannConfig(d=2, N=6, r=1)
    base = plucker_ideal(cfg.M, cfg.d)
    built, widths = [], []
    compute, init = DiIdeal._compute_component, DiIdeal.__init__

    def recording(self, d, n):
        built.append((d, n))
        return compute(self, d, n)

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        widths.extend(g.d for g in self.generators)

    monkeypatch.setattr(DiIdeal, "_compute_component", recording)
    monkeypatch.setattr(DiIdeal, "__init__", recording_init)
    rep = degree_probe(cfg, 4, base=base)
    assert [row["from_below"] for row in rep["rows"]] == [0, 0, 0, 15]
    # the span below is one climb step, never a new ideal's climb from degree 0
    assert built == []
    assert all(w < cfg.d for w in widths)


@pytest.mark.parametrize("N, max_n, zero, accepted, rows", [
    # zero adds when every row was moved by every variable: 16,622
    (8, 5, 6783, 23958, [(0, 0), (0, 0), (28, 0), (721, 721), (9640, 9640)]),
    # the secant's C_(2,n-2) is zero up to n = 4, so nothing is pruned
    (6, 4, 167, 184, [(0, 0), (0, 0), (1, 0), (15, 15)]),
], ids=["gr28-1-5", "gr26-1-4"])
def test_probe_from_below_climb_skips_koszul_redundant_products(N, max_n, zero, accepted, rows,
                                                               add_counts):
    cfg = GrassmannConfig(d=2, N=N, r=1)
    base = plucker_ideal(cfg.M, cfg.d)
    add_counts[:] = [0, 0]
    rep = degree_probe(cfg, max_n, base=base)
    assert [(row["dim"], row["from_below"]) for row in rep["rows"]] == rows
    assert add_counts == [zero, accepted]


def test_climb_refuses_a_span_of_another_bidegree():
    P = plucker_ideal(3, 2)
    assert P.climb(P.component(2, 2), 2, 3).basis.basis_rows() == \
        P.component(2, 3).basis.basis_rows()
    assert P.climb(P.component(2, 3), 2, 4, P.component(2, 2)).basis.basis_rows() == \
        P.climb(P.component(2, 3), 2, 4).basis.basis_rows()
    with pytest.raises(ValueError):
        P.climb(P.component(2, 2), 2, 4)
    with pytest.raises(ValueError):
        P.climb(P.component(2, 3), 2, 4, P.component(2, 1))


def test_config_defaults():
    cfg = GrassmannConfig(d=2, r=1)
    assert cfg.M == 3 and cfg.N == 6
    cfg = GrassmannConfig(d=3, N=6)
    assert cfg.M == 2
    cfg = GrassmannConfig(d=3, r=1)
    assert cfg.N == 9 and cfg.M == 3
    with pytest.raises(ValueError):
        GrassmannConfig(d=5, N=3)
    # validated once, at construction
    with pytest.raises(ValueError, match="not a multiple"):
        GrassmannConfig(d=2, N=5)
    with pytest.raises(ValueError):
        GrassmannConfig(d=0, N=4)
    with pytest.raises(ValueError):
        GrassmannConfig(d=2, r=-1)
    with pytest.raises(AttributeError):
        cfg.M = 4
    # frozen: a float N set after construction reached the probe as a TypeError
    with pytest.raises(FrozenInstanceError):
        cfg.N = 6.0
    assert cfg.N == 9
    assert GrassmannConfig(d=2).N == 4
    assert [f.name for f in fields(GrassmannConfig)] == ["d", "N", "r"]
    # a float N failed later inside the probe or the oracle, and d = True ran as d = 1
    for kwargs in ({"d": 2, "N": 6.0}, {"d": 2.0, "N": 6}, {"d": 2.0}, {"d": True, "N": 4},
                   {"d": 2, "N": 6, "r": 1.0}, {"d": 2, "r": True}):
        with pytest.raises(ValueError, match="not an integer"):
            GrassmannConfig(**kwargs)


def test_plucker_ideal_certifies_and_a_monomial_ideal_does_not(tmp_path):
    P = plucker_ideal(3, 2)
    assert P.permutation_stable(2, 4)
    assert JoinIdeal(P, P).permutation_stable(2, 4)
    # read back from the disk cache, the star rows are recomputed and checked
    plucker_ideal(3, 2, cache_dir=tmp_path).component(2, 3)
    cached = plucker_ideal(3, 2, cache_dir=tmp_path)
    assert cached.permutation_stable(2, 3)
    square = DiIdeal(2, [sym_monomial(2, 2, 2, [(1, 2), (1, 2)])])
    assert square.permutation_stable(2, 1)   # nothing below the generator
    assert not square.permutation_stable(2, 2)
    assert not square.permutation_stable(2, 3)
    assert not JoinIdeal(plucker_ideal(2, 2), square).permutation_stable(2, 3)
    # so the join refuses to solve a block alone, though square's own block
    # at (2, 2) climbs from its certified (2, 1)
    square.weight_block(2, 2, (2, 2, 0, 0))
    with pytest.raises(ValueError, match="join at"):
        JoinIdeal(plucker_ideal(2, 2), square).weight_block(2, 2, (2, 2, 0, 0))


def _inhomogeneous_stable_generators():
    """The S_4-orbit of x12^2 + x12 x34: closed under permutations, but each
    generator mixes two weights."""
    f = SymElement(2, 2, 2, {((1, 2), (1, 2)): 1, ((1, 2), (3, 4)): 1})
    return [act(FactorTable(sigma), f) for sigma in permutations(range(1, 5))]


def test_an_inhomogeneous_stable_generator_set_does_not_certify():
    # its generators mix two weights, so the ideal is not graded
    assert not DiIdeal(2, _inhomogeneous_stable_generators()).permutation_stable(2, 2)


def _adjacent_transpositions(N):
    return [tuple(range(1, j + 1)) + (j + 2, j + 1) + tuple(range(j + 3, N + 1))
            for j in range(N - 1)]


def _reference_certificate(I, d, n):
    """permutation_stable(d, n) through every adjacent transposition, each
    image of a star row looked up in its whole component."""
    N = I.M * d
    for k in range(1, n + 1):
        stars = list(I._star_rows(d, k))
        if any(len({weight(key, N) for key in row.terms}) > 1 for row in stars):
            return False
        comp = I.component(d, k)
        for tau in _adjacent_transpositions(N):
            table = FactorTable(tau)
            if not all(comp.contains(act(table, row)) for row in stars):
                return False
    return True


@pytest.mark.parametrize("make, d, verdicts", [
    (lambda: plucker_ideal(3, 2), 2, [True] * 5),
    (lambda: plucker_ideal(3, 3), 3, [True] * 3),
    (lambda: DiIdeal(2, [sym_monomial(2, 2, 2, [(1, 2), (1, 2)])]), 2, [True, True, False, False]),
    (lambda: DiIdeal(2, _inhomogeneous_stable_generators()), 2, [True, True, False]),
], ids=["plucker-2-6", "plucker-3-9", "square", "inhomogeneous"])
def test_two_generator_certificate_agrees_with_every_adjacent_transposition(make, d, verdicts):
    I, reference = make(), make()
    for n, verdict in enumerate(verdicts):
        assert I.permutation_stable(d, n) == _reference_certificate(reference, d, n) == verdict


def test_neither_generator_of_s_n_can_be_dropped_from_the_certificate():
    # spans of monomials at (1, 2) over [1..4]: x1 x2 is fixed by (1 2) and
    # moved by the 4-cycle, while the edges of the cycle 1-2-3-4-1 are
    # permuted by the 4-cycle and moved by (1 2), which sends x2 x3 to x1 x3
    swap, cycle = sn_generators(4)
    edge = [sym_monomial(1, 2, 4, [(1,), (2,)])]
    edges = [sym_monomial(1, 2, 4, [(a,), (b,)]) for a, b in ((1, 2), (2, 3), (3, 4), (1, 4))]
    for gens, fixing, moving in ((edge, swap, cycle), (edges, cycle, swap)):
        I = DiIdeal(4, gens)
        comp = I.component(1, 2)
        assert all(comp.contains(act(FactorTable(fixing), g)) for g in gens)
        assert not all(comp.contains(act(FactorTable(moving), g)) for g in gens)
        assert not I.permutation_stable(1, 2)


def test_certified_joins_never_build_their_top_degree_component(tmp_path, monkeypatch):
    from shufflestar.cli import main
    built = []
    compute = DiIdeal._compute_component

    def recording(self, d, n):
        built.append((d, n))
        return compute(self, d, n)

    monkeypatch.setattr(DiIdeal, "_compute_component", recording)
    P = plucker_ideal(3, 2)
    assert P.permutation_stable(2, 2)
    out = tmp_path / "r.json"
    assert main(["secant", "--d", "2", "--N", "6", "--r", "1", "--degree", "5",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["dimension"] > 0
    # the join's blocks and condition tables read the base ideal's blocks
    # only, climbed from blocks: no whole component is built at any degree
    assert built == []


def test_certified_secant_counts_its_eliminations(tmp_path, monkeypatch):
    # a deterministic work count: climbing the base ideal's components of
    # degrees 0-4 whole, as the join's quotients once were, took 4,126
    # `SparseRREF.add` calls here
    from shufflestar import linalg
    from shufflestar.cli import main
    plucker_ideal(3, 2)   # the quadric basis is built once per process
    calls = []
    add = linalg.SparseRREF.add
    monkeypatch.setattr(linalg.SparseRREF, "add",
                        lambda self, vec: calls.append(1) or add(self, vec))
    out = tmp_path / "r.json"
    assert main(["secant", "--d", "2", "--N", "6", "--r", "1", "--degree", "5",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["dimension"] == 120
    assert len(calls) == 1765
    # r = 2: the two join inputs differ, and the membership summand runs
    plucker_ideal(4, 2)
    calls.clear()
    assert main(["secant", "--d", "2", "--N", "8", "--r", "2", "--degree", "5",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["dimension"] == 28
    assert len(calls) == 11505


def _reference_delta_parts(f, i):
    """The size-i slot splits of f grouped by left monomial."""
    n = f.n
    splits = [(pos, tuple(t for t in range(n) if t not in pos))
              for pos in combinations(range(n), i)]
    out = {}
    for key, coeff in f.terms.items():
        get = key.__getitem__
        for pos, rest in splits:
            slot = out.setdefault(tuple(map(get, pos)), {})
            rkey = tuple(map(get, rest))
            slot[rkey] = slot.get(rkey, 0) + coeff
    return out


def _reference_condition_coords(QL, QR, i, f):
    """The i-th middle condition of f, one reduction per right vector and per
    left monomial: the row-by-row route the per-monomial tables replace."""
    out = {}
    for lkey, rvec in _reference_delta_parts(f, i).items():
        rred = QR.basis.reduce({QR.index[rk]: c for rk, c in rvec.items()})
        if not rred:
            continue
        lred = QL.basis.reduce({QL.index[lkey]: 1})
        for lc, lv in lred.items():
            for rc, rv in rred.items():
                c = out.get((lc, rc), 0) + lv * rv
                if c:
                    out[(lc, rc)] = c
                else:
                    out.pop((lc, rc), None)
    return out


def _summed_tables(tables, row):
    """The condition coordinates of one row: the sum of its columns' tables,
    scaled by its coefficients, with cancelled entries dropped."""
    out = {}
    for col, coeff in row.items():
        for k, v in tables[col].items():
            out[k] = out.get(k, 0) + coeff * v
    return {k: v for k, v in out.items() if v}


def test_one_monomial_normal_form_is_read_from_its_column():
    from shufflestar.ideals import _normal_form
    comp = plucker_ideal(3, 2).component(2, 3)
    assert 0 < comp.dim < comp.space_dim
    for c, key in enumerate(comp.monomials):
        assert dict(_normal_form(comp, key)) == comp.basis.reduce({c: 1})


@pytest.mark.parametrize("M, r, n, summands", [
    (3, 1, 4, (1, 2)),
    (3, 1, 5, (1, 2)),
    # I is not J, so the left quotient is nonzero for i >= 2, and the
    # membership summand i = n reads I's block on the left
    (4, 2, 4, (1, 2, 3, 4)),
])
def test_condition_tables_equal_the_row_by_row_reduction(M, r, n, summands):
    from shufflestar.plucker import _ConditionTables
    P = plucker_ideal(M, 2)
    join = JoinIdeal(P, secant_ideal(P, r - 1))
    quotients = set()
    for w in dominant_weights(2, n, 2 * M):
        V, top = join.J.weight_block(2, n, w), join.I.weight_block(2, n, w)
        for i in summands:
            QL = top if i == n else join.I.component(2, i)
            QR = join.J.component(2, n - i)
            if QL.dim or QR.dim:
                quotients.add(i)
            # the normal forms are read from blocks, the membership summand
            # i = n's from P's block at w; the reference reduces against the
            # whole components
            tables = _ConditionTables(join.I.quotient_reader(2, i),
                                      join.J.quotient_reader(2, n - i), i, V.monomials)
            # J's block rows, the rows the join kernel solves over
            for row, f in zip(V.basis.basis_rows(), V.basis_elements()):
                assert (_summed_tables(tables, row)
                        == _reference_condition_coords(QL, QR, i, f))
    assert quotients == set(summands)


def test_condition_tables_on_repeated_factors_equal_the_row_by_row_reduction():
    # I is not J: at i = 2 the half x14 x23 of x14^2 x23^2 is the pivot of
    # the quadric modulo QL = I_(2,2) but standard modulo QR = J_(2,2) = 0,
    # so its left and right normal forms differ
    from shufflestar.ideals import monomial_space
    from shufflestar.plucker import _ConditionTables
    P = plucker_ideal(4, 2)
    J = JoinIdeal(P, P)
    monomials, index = monomial_space(2, 4, 4)
    keys = [((1, 4), (1, 4), (2, 3), (2, 3)), ((1, 2), (1, 2), (1, 2), (3, 4)),
            ((1, 3), (1, 3), (2, 4), (2, 4)), ((1, 4),) * 4]
    half = ((1, 4), (2, 3))
    for i in (1, 2, 3):
        QL, QR = P.component(2, i), J.component(2, 4 - i)
        if i == 2:
            assert QL.index[half] in QL.basis.pivots and QR.dim == 0
        tables = _ConditionTables(P.quotient_reader(2, i), J.quotient_reader(2, 4 - i),
                                  i, monomials)
        for key in keys:
            assert (_summed_tables(tables, {index[key]: 1})
                    == _reference_condition_coords(QL, QR, i, SymElement(2, 4, 4, {key: 1})))


def test_certificate_and_condition_tables_count_their_work(monkeypatch):
    # deterministic counts: mapping every star row through each adjacent
    # transposition (75 images) or reducing each split of each column afresh
    # (828 normal forms) fails here, not only in a timing; so does keeping
    # the normal forms one summand of one block only (277), or two memos for
    # the one quotient of a self-join's balanced summand (482)
    from collections import Counter
    from shufflestar import ideals
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ideals, "act", counting("act", ideals.act))
    monkeypatch.setattr(ideals, "_normal_form", counting("normal_form", ideals._normal_form))
    assert plucker_ideal(3, 2).permutation_stable(2, 4)
    assert calls["act"] == 30   # 15 star rows, 2 generators
    assert secant_ideal(plucker_ideal(3, 2), 1).component(2, 4).dim == 15
    assert calls["normal_form"] == 152


def test_each_normal_form_is_read_once_per_join_input(monkeypatch):
    # the degree-5 sigma_1(Gr(2,6)) join reads 714 distinct sub-monomials of
    # its one input; a memo per summand of one block read them 1,887 times
    from collections import Counter
    from shufflestar import ideals
    calls = Counter()
    normal_form = ideals._normal_form

    def counting(comp, key):
        calls[key] += 1
        return normal_form(comp, key)

    monkeypatch.setattr(ideals, "_normal_form", counting)
    join = secant_ideal(plucker_ideal(3, 2), 1)
    assert join.I is join.J and join.permutation_stable(2, 5)
    assert join.component(2, 5).dim == 120
    assert len(calls) == 714
    assert set(calls.values()) == {1}


def test_an_ideal_and_its_join_are_freed_without_the_cyclic_collector():
    # the quotient readers an ideal keeps hold it weakly, so dropping the
    # last references frees the ideal and the join by reference counts alone
    import gc
    import weakref
    gc.collect()
    gc.disable()
    try:
        join = secant_ideal(plucker_ideal(3, 2), 1)
        assert join.component(2, 4).dim == 15
        refs = [weakref.ref(join.I), weakref.ref(join)]
        del join
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


class _ReducedForms(dict):
    """The normal form of each monomial by a reduction against the whole
    component: the reference for an ideal's `quotient_reader`."""

    def __init__(self, comp):
        super().__init__()
        self.comp = comp

    def __missing__(self, key):
        nf = self[key] = tuple(self.comp.basis.reduce({self.comp.index[key]: 1}).items())
        return nf


def _reference_join_kernel(I, J, d, n, V, top, summands=None):
    """The join kernel as one elimination: the conditions of every summand
    (or of the given ones), smallest i first, on every row of V, recombined
    once at the end.  The solver before the summand chain, kept as an
    independent reference."""
    from shufflestar.linalg import SparseRREF, recombine, sparse_rref_kernel
    from shufflestar.plucker import _ConditionTables
    rows = V.basis.basis_rows()
    nv = len(rows)
    if not nv:
        return []
    acc = SparseRREF()
    if summands is None:
        summands = range(1, n + 1)
        if I is J:
            summands = [i for i in range(1, n) if i <= n - i]
    for i in summands:
        QL = top if i == n else I.component(d, i)
        QR = J.component(d, n - i)
        tables = _ConditionTables(_ReducedForms(QL), _ReducedForms(QR), i, V.monomials)
        rows_map = {}
        for t, row in enumerate(rows):
            for key, val in _summed_tables(tables, row).items():
                rows_map.setdefault(key, {})[t] = val
        for key in sorted(rows_map):
            if acc.add(rows_map[key]) and acc.rank == nv:
                return []
    return recombine(sparse_rref_kernel(acc, nv), rows)


def _reference_block(I, J, d, n, V, top):
    block = ComponentBasis(d, n, I.M)
    for row in _reference_join_kernel(I, J, d, n, V, top):
        block.basis.add(row)
    return block


def _one_block_join(I, J, d, n):
    """The join component through the reference solver: all of J_(d,n), identity only."""
    return _reference_block(I, J, d, n, J.component(d, n), I.component(d, n))


@pytest.mark.parametrize("M, r, n", [(3, 1, 4), (3, 1, 5), (4, 2, 4)],
                         ids=["sigma1-gr26-4", "sigma1-gr26-5", "sigma2-gr28-4"])
def test_join_blocks_equal_the_one_elimination_reference(M, r, n):
    # sigma_1 is a self-join; sigma_2 joins P with sigma_1, so I is not J and
    # the membership summand i = n runs
    join = secant_ideal(plucker_ideal(M, 2), r)
    assert join.permutation_stable(2, n)
    found = 0
    for w in dominant_weights(2, n, 2 * M):
        block = join.weight_block(2, n, w)
        want = _reference_block(join.I, join.J, 2, n, join.J.weight_block(2, n, w),
                                join.I.weight_block(2, n, w))
        assert block.basis.basis_rows() == want.basis.basis_rows()
        found += block.dim
    assert found


def test_a_self_join_where_the_balanced_summand_alone_leaves_a_kernel():
    # sigma_1(Gr(3,6)) is zero at (3, 4), but at some dominant weights the
    # balanced summand i = 2 alone leaves combinations that only i = 1 cuts
    join = secant_ideal(plucker_ideal(2, 3), 1)
    assert join.I is join.J and join.permutation_stable(3, 4)
    balanced_only = 0
    for w in dominant_weights(3, 4, 6):
        V = join.J.weight_block(3, 4, w)
        assert join.weight_block(3, 4, w).dim == 0
        assert _reference_join_kernel(join.I, join.J, 3, 4, V, V) == []
        balanced_only += len(_reference_join_kernel(join.I, join.J, 3, 4, V, V, summands=(2,)))
    assert balanced_only > 0


@pytest.mark.parametrize("order", ["square-first", "square-second", "square-self"])
def test_uncertified_joins_equal_the_one_elimination_reference(order):
    # x12^2 is not S_4-stable, so these joins are solved over the whole
    # second input, in one block
    square = DiIdeal(2, [sym_monomial(2, 2, 2, [(1, 2), (1, 2)])])
    P = plucker_ideal(2, 2)
    I, J = {"square-first": (square, P), "square-second": (P, square),
            "square-self": (square, square)}[order]
    join = JoinIdeal(I, J)
    for n in (2, 3, 4):
        assert not join.permutation_stable(2, n)
        got = join.component(2, n)
        assert got.basis.basis_rows() == _one_block_join(I, J, 2, n).basis.basis_rows()


@pytest.mark.parametrize("M, r", [(3, 1), (4, 2)])
def test_orbit_path_equals_the_one_block_path(M, r):
    # Gr(2,6) r=1 is a self-join; Gr(2,8) r=2 joins P with its first secant,
    # so its membership summand reads P's blocks
    P = plucker_ideal(M, 2)
    inner = secant_ideal(P, r - 1)
    assert P.permutation_stable(2, 4) and inner.permutation_stable(2, 4)
    orbit = exact_join_component(JoinIdeal(P, inner), 2, 4)
    one = _one_block_join(P, inner, 2, 4)
    assert orbit.dim == one.dim > 0
    assert orbit.basis.basis_rows() == one.basis.basis_rows()
    if r > 1:
        # the swapped join solves over P's blocks, with the inner join's
        # blocks as the membership quotient
        swapped = exact_join_component(JoinIdeal(inner, P), 2, 4)
        assert swapped.basis.basis_rows() == orbit.basis.basis_rows()


def test_join_weight_blocks_equal_the_whole_component_at_every_weight():
    # sigma_1(Gr(2,6)) is a self-join; sigma_2(Gr(2,8)) joins P with
    # sigma_1, so I is not J and its second input is a join
    for M, r in ((3, 1), (4, 2)):
        P = plucker_ideal(M, 2)
        # the whole component, eliminated as one block
        whole = _one_block_join(P, secant_ideal(P, r - 1), 2, 4)
        assert whole.dim
        N = 2 * M
        by_weight = {}
        for row in whole.basis.basis_rows():
            by_weight.setdefault(weight(whole.monomials[min(row)], N), []).append(row)
        join = secant_ideal(plucker_ideal(M, 2), r)
        union = []
        for w in {weight(key, N) for key in whole.monomials}:
            # every weight, dominant or not
            rows = join.weight_block(2, 4, w).basis.basis_rows()
            assert rows == by_weight.get(w, [])
            union.extend(rows)
        assert sorted(union, key=min) == whole.basis.basis_rows()
        # neither the join nor either input is built whole at any degree
        assert not join._components and not join.I._components and not join.J._components


@pytest.mark.parametrize("other", ["plucker", "square"])
@pytest.mark.parametrize("every_first", [True, False])
def test_joining_the_ideal_of_every_variable_gives_the_other_input(every_first, other):
    # Every middle condition reads a quotient by the ideal of every variable
    # at width 2, which is zero, so the join is the meet of its inputs: the
    # other input.  With that ideal second, the kernel solves over all
    # monomials and only the membership summand i = n cuts them down to the
    # other input.  The secants cannot show that summand is there: when the
    # second input has no linear forms at width d, the i = n-1 summand and
    # Euler's formula f = (1/n) sum_x x * df/dx already put f in the first.
    # Joins with the Plucker ideal are certified and solve one weight block
    # at a time; x12^2 is not S_4-stable, so joins with it take the
    # one-block path.
    every = DiIdeal(2, [sym_monomial(2, 1, 2, [f]) for f in iter_factors(2, 4)])
    ideal = (plucker_ideal(2, 2) if other == "plucker"
             else DiIdeal(2, [sym_monomial(2, 2, 2, [(1, 2), (1, 2)])]))
    join = JoinIdeal(every, ideal) if every_first else JoinIdeal(ideal, every)
    for n, dim in ((2, 1), (3, 6)):
        assert join.permutation_stable(2, n) == (other == "plucker")
        comp = join.component(2, n)
        assert comp.dim == dim
        assert comp.basis.basis_rows() == ideal.component(2, n).basis.basis_rows()


def test_second_secant_puts_only_its_outer_join_together(tmp_path, monkeypatch):
    from shufflestar import plucker
    from shufflestar.cli import main
    built = []
    whole = plucker.exact_join_component

    def recording(join, d, n):
        built.append((join, d, n))
        return whole(join, d, n)

    monkeypatch.setattr(plucker, "exact_join_component", recording)
    out = tmp_path / "r.json"
    assert main(["secant", "--d", "2", "--N", "8", "--r", "2", "--degree", "4",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["dimension"] == 1
    # only the outer join is put together, once, at (2, 4); its inner join,
    # the first secant, is read one block at a time at every degree
    assert len(built) == 1
    (outer, d, n), = built
    assert (d, n) == (2, 4) and isinstance(outer.J, JoinIdeal)


def test_second_secant_solves_join_kernels_only_at_dominant_weights(tmp_path, monkeypatch):
    # work-count guard: a block at any other weight is moved from the
    # dominant block of its orbit, never solved
    from shufflestar import plucker
    from shufflestar.cli import main
    asked = []
    solved = []
    block, kernel = JoinIdeal.weight_block, plucker._join_kernel

    def recording_block(join, d, n, w):
        asked.append(w)
        try:
            return block(join, d, n, w)
        finally:
            asked.pop()

    def recording_kernel(I, J, d, n, V):
        solved.append(asked[-1])
        return kernel(I, J, d, n, V)

    monkeypatch.setattr(JoinIdeal, "weight_block", recording_block)
    monkeypatch.setattr(plucker, "_join_kernel", recording_kernel)
    assert main(["secant", "--d", "2", "--N", "8", "--r", "2", "--degree", "4",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert all(map(is_dominant, solved))
    # 42 when the first secant was put together whole at each (2, k), k < 4
    assert len(solved) == 36


@pytest.mark.parametrize("d, N, r, n", [(2, 6, 1, 4), (2, 8, 2, 5)],
                         ids=["sigma1-gr26-4", "sigma2-gr28-5"])
def test_oracle_and_join_agree_block_by_block(d, N, r, n):
    # the independent oracle's kernel, split by weight, has at each
    # dominant weight exactly as many vectors as the join's block there
    counts = {}
    for e in evaluation_kernel(GrassmannConfig(d=d, N=N, r=r), n, seed=1):
        ws = {weight(key, N) for key in e.terms}
        assert len(ws) == 1
        w = ws.pop()
        counts[w] = counts.get(w, 0) + 1
    join = secant_ideal(plucker_ideal(N // d, d), r)
    assert join.permutation_stable(d, n)
    dims = {w: join.weight_block(d, n, w).dim for w in dominant_weights(d, n, N)}
    assert any(dims.values())
    assert {w: counts.get(w, 0) for w in dims} == dims


@pytest.mark.parametrize("r", [0, 1, 2])
def test_pfaffian_family_new_generators_only_in_degree_r_plus_2(r):
    # rank <= 2(r+1) skew forms on k^(2(r+2)) are cut out by the one
    # sub-Pfaffian of the full index set
    N = 2 * (r + 2)
    rep = degree_probe(GrassmannConfig(d=2, N=N, r=r), r + 2)
    assert [row["new_generators"] for row in rep["rows"]] == [0] * (r + 1) + [1]
    assert rep["largest_new_n"] == r + 2
    comp = secant_ideal(plucker_ideal(N // 2, 2), r).component(2, r + 2)
    assert comp.dim == 1
    assert comp.contains(pfaffian(range(1, N + 1), N))
    # the independent oracle keeps up: one vector, spanning the same line
    K = evaluation_kernel(GrassmannConfig(d=2, N=N, r=r), r + 2)
    assert len(K) == 1 and comp.contains(K[0])


def test_plucker_ideal_calls_share_no_state(tmp_path):
    a = plucker_ideal(3, 2)
    b = plucker_ideal(3, 2, cache_dir=tmp_path)
    assert a.generators == b.generators and a.gen_hash == b.gen_hash
    assert a.generators is not b.generators
    for ga, gb in zip(a.generators, b.generators):
        assert ga is not gb and ga.terms is not gb.terms
    b.component(2, 3)
    assert b.cache_stats["misses"] and not a._components
    assert a.cache_stats == {"hits": 0, "misses": 0, "rejects": {}}


def test_modp_self_join_upper_is_the_exact_self_join_dimension():
    from shufflestar.plucker import modp_self_join_upper
    P = plucker_ideal(3, 2)
    assert [modp_self_join_upper(P, 2, n) for n in (2, 3, 4)] == [0, 1, 15]
    # x12^3 is not in P's (2, 3) component, so no bound is formed
    cube = sym_monomial(2, 3, 3, [(1, 2)] * 3)
    assert not P.component(2, 3).contains(cube)
    assert modp_self_join_upper(P, 2, 3, must_contain=[cube]) is None
    members = P.component(2, 3).basis_elements()[:3]
    assert modp_self_join_upper(P, 2, 3, must_contain=members) == 1


def test_plucker_ideal_stops_at_width_three():
    with pytest.raises(ValueError, match="width 3, not 4"):
        plucker_ideal(2, 4)
    assert {g.d for g in plucker_ideal(2, 3).generators} == {2, 3}


def test_a_star_row_two_widths_up_leaves_the_plucker_ideal():
    # the Klein quadric starred along g = (1, 2, 3, 4): with x56 x78 the row
    # takes width 2 to width 4 in one star product and misses Gr(4,8); with
    # x56 x56 it is the Klein quadric in the minors through 5 and 6
    from shufflestar.core import IncFn
    klein = SymElement(2, 2, 2, {((1, 2), (3, 4)): 1, ((1, 3), (2, 4)): -1,
                                 ((1, 4), (2, 3)): 1})
    g = IncFn(4, 8, (1, 2, 3, 4))
    apart = sym_star(klein, sym_monomial(2, 2, 2, [(1, 2), (3, 4)]), g)
    same = sym_star(klein, sym_monomial(2, 2, 2, [(1, 2), (1, 2)]), g)
    assert ((1, 2, 5, 6), (3, 4, 7, 8)) in apart.terms
    assert ((1, 2, 5, 6), (3, 4, 5, 6)) in same.terms
    rng = random.Random(1)
    points = [decomposable_point([[rng.randint(-9, 9) for _ in range(8)] for _ in range(4)],
                                 4, 8) for _ in range(3)]
    assert all(evaluate(same, p) == 0 for p in points)
    assert all(evaluate(apart, p) != 0 for p in points)


def _reference_condition_table(QL, QR, i, key):
    # the table of one column as it was built before the getter table: each
    # side of each split read by position, one factor at a time
    table: dict = {}
    for pos in combinations(range(len(key)), i):
        rest = tuple(t for t in range(len(key)) if t not in pos)
        rnf = QR[tuple(key[t] for t in rest)]
        for lc, lv in QL[tuple(key[t] for t in pos)]:
            for rc, rv in rnf:
                table[(lc, rc)] = table.get((lc, rc), 0) + lv * rv
    return table


@pytest.mark.parametrize("M, r, n", [(3, 1, 3), (3, 1, 4), (4, 2, 4)])
def test_condition_tables_equal_the_split_by_position_reference(M, r, n):
    # i = 1 and i = n - 1 read one side through a one-slot getter
    from shufflestar.ideals import monomial_space
    from shufflestar.plucker import _ConditionTables
    P = plucker_ideal(M, 2)
    join = JoinIdeal(P, secant_ideal(P, r - 1))
    monomials, _ = monomial_space(2, n, M)
    rng = random.Random(n)
    cols = rng.sample(range(len(monomials)), 150)
    for i in range(1, n):
        QL, QR = join.I.quotient_reader(2, i), join.J.quotient_reader(2, n - i)
        tables = _ConditionTables(QL, QR, i, monomials)
        nonzero = 0
        for col in cols:
            want = _reference_condition_table(QL, QR, i, monomials[col])
            assert tables[col] == want
            nonzero += any(want.values())
        assert nonzero

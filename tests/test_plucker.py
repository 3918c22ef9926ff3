import random

import pytest
from fractions import Fraction

from shufflestar.core import SymElement, iter_sym_keys, sym_monomial
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
    join_component,
    pfaffian,
    plucker_ideal,
    quadric_generation_sum,
    random_decomposable,
    secant_component,
    secant_ideal,
    weyman_quadrics,
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
            assert evaluate(q, random_decomposable(rng, 3, 6)) == 0


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


def test_pfaffian():
    assert pfaffian((1, 2, 3, 4), 4) == basic_plucker(1)
    p6 = pfaffian(range(1, 7), 6)
    assert len(p6.terms) == 15
    assert pfaffian((2, 5), 6).terms == {((2, 5),): Fraction(1)}
    with pytest.raises(ValueError):
        pfaffian((1, 2, 3), 6)


def test_oracle_small_cases():
    K = evaluation_kernel(GrassmannConfig(d=2, N=4, r=0, M=2), 2, seed=1)
    assert len(K) == 1
    span = ComponentBasis(2, 2, 2)
    span.add(basic_plucker(1))
    assert span.contains(K[0])
    assert evaluation_kernel(GrassmannConfig(d=1, N=3, r=0, M=3), 2, seed=1) == []
    assert evaluation_kernel(GrassmannConfig(d=2, N=6, r=1, M=3), 2, seed=1) == []


def test_join_of_zero_ideals_is_zero():
    Z = DiIdeal(2, [])
    assert join_component(Z, Z, (2, 2)) == []
    assert join_component(Z, Z, (2, 1)) == []


def test_join_commutes():
    I = DiIdeal(2, [basic_plucker(1)])
    J = DiIdeal(2, [sym_monomial(2, 2, 2, [(1, 2), (1, 2)])])
    for bid in ((2, 2), (2, 3)):
        a = join_component(I, J, bid)
        b = join_component(J, I, bid)
        assert len(a) == len(b)
        span = ComponentBasis(*bid, 2)
        for el in a:
            span.add(el)
        assert all(span.contains(el) for el in b)


def test_join_inside_both(klein_pair=None):
    I = DiIdeal(2, [basic_plucker(1)])
    J = DiIdeal(2, [sym_monomial(2, 2, 2, [(1, 2), (1, 2)])])
    for bid in ((2, 2), (2, 3)):
        for el in join_component(I, J, bid):
            assert I.membership(el) and J.membership(el)


def test_join_degree_one_is_intersection():
    gens = [sym_monomial(1, 1, 2, [(1,)])]
    I = DiIdeal(2, gens)
    J = DiIdeal(2, [sym_monomial(1, 1, 2, [(1,)]),
                    sym_monomial(1, 1, 2, [(2,)])])
    basis = join_component(I, J, (1, 1))
    assert len(basis) == 1
    assert basis[0].terms == {((1,),): Fraction(1)}


def test_secant_base_case():
    I = DiIdeal(2, [basic_plucker(1)])
    assert secant_ideal(I, 0) is I
    b0 = secant_component(I, 0, (2, 2))
    assert len(b0) == I.component_dim(2, 2) == 1


def test_secant_gr26_small_degrees():
    P = plucker_ideal(3, 2)
    S1 = secant_ideal(P, 1)
    assert isinstance(S1, JoinIdeal)
    assert S1.component_dim(2, 1) == 0
    assert S1.component_dim(2, 2) == 0


def test_join_matches_oracle_for_the_klein_ideal():
    # components of the plain ideal agree with the evaluation kernel
    I = plucker_ideal(2, 2)
    K = evaluation_kernel(GrassmannConfig(d=2, N=4, r=0, M=2), 3, seed=3)
    comp = I.component(2, 3)
    assert comp.dim == len(K) == 6
    assert all(comp.contains(v) for v in K)


def test_secant_components_close_under_products():
    # products of a secant-component element stay in the secant ideal:
    # multiples stay in the computed join component, and width-raising star
    # products vanish on sums of two decomposables
    rng = random.Random(4)
    P = plucker_ideal(3, 2)
    S1 = secant_ideal(P, 1)
    p6 = S1.component(2, 3).basis_elements()[0]
    rep = degree_probe(GrassmannConfig(d=2, N=6, r=1, M=3), 4)
    assert rep["rows"][3]["dim"] == 15
    c24 = S1.component(2, 4)  # exact join component; the probe built its own ideal
    from shufflestar.core import iter_factors
    for fac in list(iter_factors(2, 6))[:5]:
        assert c24.contains(sym_shuffle(p6, sym_monomial(2, 1, 3, [fac])))
    from shufflestar.products import star_incfns
    for g in list(star_incfns(2, 1, 3))[:3]:
        akey = rng.choice(list(iter_sym_keys(1, 3, 3)))
        prod = sym_star(p6, sym_monomial(1, 3, 3, akey), g)
        for _ in range(5):
            pt = {}
            for _ in range(2):
                dec = random_decomposable(rng, 3, 9)
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
    rep = degree_probe(GrassmannConfig(d=2, r=0, M=2), 3)
    assert [row["new_generators"] for row in rep["rows"]] == [0, 1, 0]
    assert rep["largest_new_n"] == 2
    rep = degree_probe(GrassmannConfig(d=1, r=0, M=2), 2)
    assert rep["largest_new_n"] is None


def test_config_defaults():
    cfg = GrassmannConfig(d=2, r=1)
    assert cfg.M == 3 and cfg.N == 6
    cfg = GrassmannConfig(d=3, N=6)
    assert cfg.M == 2
    with pytest.raises(ValueError):
        GrassmannConfig(d=5, N=3)
    with pytest.raises(ValueError):
        GrassmannConfig(d=2, N=5, M=2).require_multiplier()

import json
import random

import pytest
from fractions import Fraction

from shufflestar.core import SymElement, iter_factors, iter_sym_keys, sym_monomial
from shufflestar.ideals import (
    ComponentBasis,
    DiIdeal,
    component_span,
    initial_component,
    membership,
    quotient_basis,
)
from shufflestar.plucker import basic_plucker
from shufflestar.poset import leading_term
from shufflestar.products import star_incfns, sym_shuffle, sym_star


@pytest.fixture(scope="module")
def klein():
    return DiIdeal(2, [basic_plucker(1)])


def test_empty_component(klein):
    assert component_span(klein, (1, 1)) == []
    assert klein.component_dim(2, 1) == 0


def test_component_2_3_is_variable_multiples(klein):
    basis = component_span(klein, (2, 3))
    assert len(basis) == 6
    f1 = basic_plucker(1)
    expected = ComponentBasis(2, 3, 2)
    for fac in iter_factors(2, 4):
        expected.add(sym_shuffle(f1, sym_monomial(2, 1, 2, [fac])))
    assert expected.dim == 6
    for b in basis:
        assert expected.contains(b)


def test_membership_examples(klein):
    # the width-4 quadric lies in the ideal generated by the width-2 one
    f2 = basic_plucker(2)
    assert membership(f2, klein)
    assert membership(SymElement(2, 2, 2), klein)
    square = sym_monomial(2, 2, 2, [(1, 2), (1, 2)])
    assert not membership(square, klein)


def test_quotient_and_initial(klein):
    q = quotient_basis(klein, (2, 2))
    assert len(q) == 21 - 1
    init = initial_component(klein, (2, 2))
    assert len(init) == 1
    _, lead = leading_term(basic_plucker(1))
    assert init[0] == lead.factors
    assert len(initial_component(klein, (2, 3))) == klein.component_dim(2, 3)
    assert initial_component(klein, (1, 1)) == []


def test_full_component_quotient():
    # an ideal whose degree-(1,1) component is everything
    gens = [sym_monomial(1, 1, 2, [(i,)]) for i in (1, 2)]
    I = DiIdeal(2, gens)
    assert quotient_basis(I, (1, 1)) == []


def test_ideal_axioms(klein):
    rng = random.Random(0)
    M = 2
    for _ in range(15):
        basis = component_span(klein, (2, 2))
        u = basis[rng.randrange(len(basis))]
        var = rng.choice(list(iter_factors(2, 4)))
        shuffled = sym_shuffle(u, sym_monomial(2, 1, M, [var]))
        assert membership(shuffled, klein)
        akey = rng.choice(list(iter_sym_keys(1, 2, M)))
        a = sym_monomial(1, 2, M, akey)
        g = rng.choice(list(star_incfns(2, 1, M)))
        starred = sym_star(u, a, g)
        assert membership(starred, klein)


def test_leading_terms_close_under_products(klein):
    # the leading monomial of a product comes from the leading monomial of
    # the ideal element, for both products, at small sizes
    from shufflestar.poset import leading_term
    for bid in ((2, 2), (2, 3)):
        for u in klein.component(*bid).basis_elements():
            cu, mu = leading_term(u)
            lead = SymElement(u.d, u.n, u.M, {mu.factors: cu}, _validated=True)
            for var in iter_factors(2, 4):
                m = sym_monomial(2, 1, 2, [var])
                assert leading_term(sym_shuffle(u, m))[1] == \
                    leading_term(sym_shuffle(lead, m))[1]
            for g in list(star_incfns(2, 1, 2))[:4]:
                for akey in list(iter_sym_keys(1, u.n, 2))[:3]:
                    a = sym_monomial(1, u.n, 2, akey)
                    assert leading_term(sym_star(u, a, g))[1] == \
                        leading_term(sym_star(lead, a, g))[1]


def test_raw_rows_span_component(klein):
    comp = klein.component(2, 3)
    raw = ComponentBasis(2, 3, 2)
    for row in klein.raw_spanning_rows(2, 3):
        raw.add(row)
    assert raw.dim == comp.dim
    for b in comp.basis_elements():
        assert raw.contains(b)


def test_generator_validation():
    with pytest.raises(ValueError):
        DiIdeal(2, [sym_monomial(2, 2, 3, [(1, 2), (3, 4)])])
    with pytest.raises(ValueError):
        DiIdeal(2, [SymElement(2, 0, 2, {(): Fraction(1)})])


def test_disk_cache_round_trip(tmp_path):
    I1 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    dim = I1.component_dim(2, 3)
    files = list(tmp_path.glob("component_*.json"))
    assert files
    # a second ideal object reuses the files
    I2 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    assert I2.component_dim(2, 3) == dim
    # cache coherence: recomputing without the cache gives the same space
    I3 = DiIdeal(2, [basic_plucker(1)])
    a = I3.component(2, 3)
    b = I2.component(2, 3)
    assert a.dim == b.dim
    for el in a.basis_elements():
        assert b.contains(el)


def test_disk_cache_tamper_detection(tmp_path):
    I1 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    dim = I1.component_dim(2, 2)
    path = I1._cache_path(2, 2)
    data = json.loads(path.read_text())
    data["dim"] = 99
    path.write_text(json.dumps(data))
    I2 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    assert I2.component_dim(2, 2) == dim
    path.write_text("{not json")
    I3 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    assert I3.component_dim(2, 2) == dim


def test_cache_distinguishes_generators(tmp_path):
    I1 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    I2 = DiIdeal(2, [basic_plucker(1).scale(2)], cache_dir=tmp_path)
    assert I1.gen_hash != I2.gen_hash
    assert I1.component_dim(2, 2) == I2.component_dim(2, 2) == 1


def test_cache_write_uses_a_private_temporary_file(tmp_path):
    # a directory squatting on the old fixed temporary name must not block
    # the write, and a finished write leaves no temporary file behind
    I1 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    comp = I1.component(2, 2)
    path = I1._cache_path(2, 2)
    path.unlink()
    squatter = path.with_suffix(".tmp")
    squatter.mkdir()
    I1._store_cached(comp)
    assert path.is_file()
    assert list(tmp_path.glob("*.tmp")) == [squatter]
    loaded = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)._load_cached(2, 2)
    assert loaded is not None and loaded.dim == comp.dim
    assert loaded.basis.basis_rows() == comp.basis.basis_rows()

import json
import random

import pytest
from fractions import Fraction

from shufflestar.core import (
    Element,
    ExteriorMonomial,
    IncFn,
    SymElement,
    TensorMonomial,
    canonicalize,
    coeff_from_str,
    coeff_to_str,
    element_from_dict,
    element_to_dict,
    is_sym_invariant,
    iter_factors,
    merge_signed,
    monomial,
    permute_slots,
    relabel_factor,
    sym_monomial,
    wedge,
)


def test_wedge_examples():
    s, m = wedge(ExteriorMonomial(4, (1, 2)), ExteriorMonomial(4, (3, 4)))
    assert (s, m.indices) == (1, (1, 2, 3, 4))
    s, m = wedge(ExteriorMonomial(4, (1, 3)), ExteriorMonomial(4, (2, 4)))
    assert (s, m.indices) == (-1, (1, 2, 3, 4))
    s, m = wedge(ExteriorMonomial(4, (1, 2)), ExteriorMonomial(4, (2, 3)))
    assert s == 0


def test_wedge_alphabet_mismatch():
    with pytest.raises(ValueError):
        wedge(ExteriorMonomial(4, (1, 2)), ExteriorMonomial(6, (3, 4)))


def test_wedge_anticommutativity():
    rng = random.Random(0)
    for _ in range(200):
        alpha = rng.randint(2, 9)
        ka = rng.randint(0, alpha)
        kb = rng.randint(0, alpha)
        a = tuple(sorted(rng.sample(range(1, alpha + 1), ka)))
        b = tuple(sorted(rng.sample(range(1, alpha + 1), kb)))
        sab, mab = merge_signed(a, b)
        sba, mba = merge_signed(b, a)
        if sab:
            assert mab == mba
            assert sab == (-1) ** (len(a) * len(b)) * sba


def test_relabel_examples():
    g = IncFn(4, 5, (2, 3, 4, 5))
    assert relabel_factor((1, 2), g) == (2, 3)
    # worked relabeling: 2 -> 3 and 3 -> 4
    assert relabel_factor((2, 3), g) == (3, 4)
    assert relabel_factor((), g) == ()
    with pytest.raises(ValueError):
        relabel_factor((5,), g)


def test_relabel_commutes_with_wedge():
    rng = random.Random(1)
    for _ in range(100):
        alpha = rng.randint(2, 7)
        cod = alpha + rng.randint(0, 4)
        g = IncFn(alpha, cod, tuple(sorted(rng.sample(range(1, cod + 1), alpha))))
        a = tuple(sorted(rng.sample(range(1, alpha + 1), rng.randint(0, alpha))))
        rest = [i for i in range(1, alpha + 1)]
        b = tuple(sorted(rng.sample(rest, rng.randint(0, alpha))))
        s1, m1 = merge_signed(a, b)
        s2, m2 = merge_signed(relabel_factor(a, g), relabel_factor(b, g))
        assert s1 == s2
        if s1:
            assert relabel_factor(m1, g) == m2


def test_canonicalize():
    assert canonicalize([(2, 3), (1, 2)]) == ((1, 2), (2, 3))
    assert canonicalize([(1, 2), (1, 2)]) == ((1, 2), (1, 2))
    assert canonicalize([(1, 4), (1, 3), (1, 2)]) == ((1, 2), (1, 3), (1, 4))
    with pytest.raises(ValueError):
        canonicalize([(1, 2), (1,)])


def test_canonicalize_permutation_invariant():
    rng = random.Random(2)
    for _ in range(50):
        facs = [tuple(sorted(rng.sample(range(1, 7), 2))) for _ in range(4)]
        shuffled = facs[:]
        rng.shuffle(shuffled)
        assert canonicalize(shuffled) == canonicalize(facs)
        assert canonicalize(canonicalize(facs)) == canonicalize(facs)


def test_add_scale():
    f = sym_monomial(2, 1, 2, [(1, 2)], 3)
    assert f.add_scale(f, Fraction(-1)).is_zero()
    g = sym_monomial(2, 1, 2, [(3, 4)], 5)
    assert f.add_scale(g, 0) == f
    m = monomial(2, 2, 2, [(1, 2), (3, 4)])
    assert m.add_scale(m).terms[((1, 2), (3, 4))] == 2
    with pytest.raises(ValueError):
        f.add_scale(sym_monomial(2, 2, 2, [(1, 2), (1, 2)]))


def test_exact_vector_space():
    rng = random.Random(3)
    keys = list(iter_factors(2, 4))
    for _ in range(50):
        f = Element(2, 1, 2, {(k,): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                              for k in rng.sample(keys, 3)})
        g = Element(2, 1, 2, {(k,): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                              for k in rng.sample(keys, 3)})
        assert (f + g) - g == f


def test_zero_keeps_bidegree():
    z = SymElement(3, 2, 2)
    assert z.is_zero() and z.bidegree == (3, 2, 2)
    f = sym_monomial(3, 2, 2, [(1, 2, 3), (4, 5, 6)])
    assert (f - f).bidegree == (3, 2, 2)


def test_tensor_monomial_validation():
    with pytest.raises(ValueError):
        TensorMonomial(2, 1, 2, ((2, 1),))
    with pytest.raises(ValueError):
        TensorMonomial(2, 1, 2, ((1, 5),))
    with pytest.raises(ValueError):
        TensorMonomial(2, 2, 2, ((1, 2),))
    t = TensorMonomial.from_factors([(1, 2), (2, 3)], 2)
    assert (t.d, t.n, t.alphabet) == (2, 2, 4)


def test_permute_slots_and_invariance():
    f = monomial(1, 2, 2, [(1,), (2,)])
    g = permute_slots(f, [1, 0])
    assert g.terms == {((2,), (1,)): Fraction(1)}
    assert not is_sym_invariant(f)
    assert is_sym_invariant(f + g)


def test_json_round_trip():
    f = SymElement(2, 2, 2, {((1, 2), (3, 4)): Fraction(-3, 7),
                             ((1, 3), (2, 4)): Fraction(5)})
    data = element_to_dict(f)
    assert data["bidegree"] == [2, 2, 2]
    assert all("/" in t["coeff"] for t in data["terms"])
    back = element_from_dict(json.loads(json.dumps(data)), symmetric=True)
    assert back == f


def test_coefficient_strings():
    for c in (0, 1, -1, 7, -2 ** 80, Fraction(-3, 7), Fraction(1, 2 ** 70)):
        s = coeff_to_str(c)
        assert s == f"{Fraction(c).numerator}/{Fraction(c).denominator}"
        back = coeff_from_str(s)
        assert back == c
        # integral values come back as int, true fractions as Fraction
        assert type(back) is (int if Fraction(c).denominator == 1 else Fraction)
    assert coeff_to_str(Fraction(6, 3)) == "2/1" and coeff_to_str(True) == "1/1"
    assert type(coeff_from_str("4/2")) is int and type(coeff_from_str("5")) is int
    for bad in ("1/0", "0/0", "-/1", "/1", "1/", "x/1", "5 /1", 3):
        with pytest.raises(ValueError):
            coeff_from_str(bad)


def test_json_reader_rejections():
    good = {"bidegree": [2, 1, 2], "terms": [{"coeff": "1/1", "monomial": [[1, 2]]}]}
    element_from_dict(good)
    bad = {"bidegree": [2, 1, 2], "terms": [{"coeff": "1/1", "monomial": [[2, 1]]}]}
    with pytest.raises(ValueError):
        element_from_dict(bad)
    bad = {"bidegree": [2, 1, 2], "terms": [{"coeff": "1/1", "monomial": [[1, 5]]}]}
    with pytest.raises(ValueError):
        element_from_dict(bad)
    bad = {"bidegree": [2, 1, 2], "terms": [{"coeff": 1, "monomial": [[1, 2]]}]}
    with pytest.raises(ValueError):
        element_from_dict(bad)
    with pytest.raises(ValueError):
        element_from_dict({"terms": []})


def test_incfn():
    g = IncFn(4, 8, (1, 4, 6, 8))
    assert g(2) == 4
    assert g.complement().image == (2, 3, 5, 7)
    with pytest.raises(ValueError):
        IncFn(3, 8, (1, 1, 2))
    with pytest.raises(ValueError):
        IncFn(3, 2, (1, 2, 3))

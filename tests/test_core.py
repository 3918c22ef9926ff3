import json
import random

import pytest
from fractions import Fraction

from shufflestar.core import (
    Element,
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
)


def test_wedge_examples():
    assert merge_signed((1, 2), (3, 4)) == (1, (1, 2, 3, 4))
    assert merge_signed((1, 3), (2, 4)) == (-1, (1, 2, 3, 4))
    assert merge_signed((1, 2), (2, 3)) == (0, ())


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


@pytest.mark.parametrize("bad", [1.0, 1.5, "1", True], ids=["whole-float", "float", "string", "bool"])
def test_constructors_refuse_non_integer_indices_and_bidegrees(bad):
    from shufflestar.ideals import DiIdeal
    from shufflestar.products import Split
    with pytest.raises(ValueError):
        SymElement(2, 1, 2, {((bad, 2),): 1})
    with pytest.raises(ValueError):
        TensorMonomial(2, 1, 2, ((bad, 2),))
    with pytest.raises(ValueError):
        IncFn(2, 4, (bad, 3))
    with pytest.raises(ValueError):
        IncFn(bad, 4, (1,))
    with pytest.raises(ValueError):
        Split(4, (bad, 3))
    with pytest.raises(ValueError):
        Split(bad, (1,))
    for bidegree in ((bad, 1, 2), (2, bad, 2), (2, 1, bad)):
        with pytest.raises(ValueError):
            SymElement(*bidegree)
        with pytest.raises(ValueError):
            Element(*bidegree, {((1, 2),): 1})
    with pytest.raises(ValueError):
        DiIdeal(bad, [])


def test_constructors_keep_a_tuple_of_ints_as_it_is():
    from shufflestar.products import Split
    image, left = (1, 3), (2, 4)
    assert IncFn(2, 4, image).image is image
    assert Split(4, left).left is left
    assert IncFn(2, 4, [1, 3]).image == (1, 3)
    # factors are pooled: equal but distinct inputs share one tuple equal to them
    factor, twin = (1, 2), tuple([1, 2])
    assert twin is not factor
    kept = next(iter(SymElement(2, 1, 2, {(factor,): 1}).terms))[0]
    assert kept == factor
    assert next(iter(SymElement(2, 1, 2, {(twin,): 1}).terms))[0] is kept


def test_factor_pool_never_bypasses_validation():
    from shufflestar.symmetry import PairElement
    pooled = TensorMonomial(2, 1, 3, ((1, 2),)).factors[0]
    # (True, 2) and (1.0, 2.0) hash equal to the pooled (1, 2)
    for bad, message in (((True, 2), "True is not an integer"),
                         ((1.0, 2.0), "1.0 is not an integer"),
                         ((2, 1), r"factor \(2, 1\) is not strictly increasing"),
                         ((1, 7), r"factor \(1, 7\) leaves alphabet \[1..6\]")):
        with pytest.raises(ValueError, match=message):
            TensorMonomial(2, 1, 3, (bad,))
        with pytest.raises(ValueError, match=message):
            SymElement(2, 1, 3, {(bad,): 1})
        with pytest.raises(ValueError, match=message):
            Element(2, 1, 3, {(bad,): 1})
        with pytest.raises(ValueError, match=message):
            PairElement(2, 3, 1, True, {((bad,), ()): 1})
    with pytest.raises(ValueError, match="True is not an integer"):
        element_from_dict({"bidegree": [2, 1, 3],
                           "terms": [{"coeff": "1/1", "monomial": [[True, 2]]}]})
    # a JSON list is read into the pooled tuple
    read = element_from_dict(json.loads(
        '{"bidegree": [2, 2, 3], "terms": [{"coeff": "1/1", "monomial": [[1, 2], [3, 4]]}]}'))
    assert list(read.terms) == [((1, 2), (3, 4))]
    # equal factors built separately are one object, whichever path checked them
    held = [next(iter(SymElement(2, 1, 3, {(tuple([1, 2]),): 1}).terms))[0],
            next(iter(Element(2, 1, 3, {(tuple([1, 2]),): 1}).terms))[0],
            next(iter(PairElement(2, 3, 1, True, {((tuple([1, 2]),), ()): 1}).terms))[0][0],
            next(iter(PairElement(2, 3, 1, False, {((), (tuple([1, 2]),)): 1}).terms))[1][0],
            next(iter(read.terms))[0],
            TensorMonomial.from_factors([[1, 2]], 3).factors[0]]
    assert all(f is pooled for f in held)


def _value_objects():
    from shufflestar.plucker import GrassmannConfig
    from shufflestar.poset import encode_tree, rl_leq
    from shufflestar.products import Split
    return {
        "TensorMonomial": (TensorMonomial(2, 2, 2, ((1, 2), (3, 4))),
                           "TensorMonomial(d=2, n=2, M=2, factors=((1, 2), (3, 4)))"),
        "IncFn": (IncFn(2, 4, (1, 3)), "IncFn(domain=2, codomain=4, image=(1, 3))"),
        "Split": (Split(4, (2, 4)), "Split(total=4, left=(2, 4))"),
        "RLWitness": (rl_leq(TensorMonomial(1, 1, 2, ((1,),)),
                             TensorMonomial(2, 2, 2, ((1, 3), (2, 4)))),
                      "RLWitness(positions=(1,), g=IncFn(domain=2, codomain=4, image=(1, 2)))"),
        "LabeledTree": (encode_tree(TensorMonomial(1, 2, 2, ((1,), (2,)))),
                        "LabeledTree(d=1, M=2, n=2, root=(0, 0, (3, 3)), branches=("
                        "((1, 1, (1, 0)), (2, 1, (0, 2))), ((1, 2, (1, 0)), (2, 2, (0, 2)))))"),
        "GrassmannConfig": (GrassmannConfig(d=2, r=1), "GrassmannConfig(d=2, N=6, r=1)"),
    }


@pytest.mark.parametrize("name", ["TensorMonomial", "IncFn", "Split", "RLWitness",
                                  "LabeledTree", "GrassmannConfig"])
def test_value_classes_are_frozen_and_compare_hash_print_and_pickle_as_before(name):
    import dataclasses
    import pickle
    obj, text = _value_objects()[name]
    values = tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))
    # GrassmannConfig keeps its dict, so that setting its derived M stays an AttributeError
    assert hasattr(obj, "__dict__") == (name == "GrassmannConfig")
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))
    # a name that is not a field is refused too; the __setattr__ dataclass
    # generates for a frozen slotted class raises TypeError there (CPython 3.10-3.13)
    with pytest.raises(dataclasses.FrozenInstanceError if name == "GrassmannConfig"
                       else (AttributeError, TypeError)):
        obj.extra = 1
    assert repr(obj) == text
    twin = type(obj)(*values)
    assert twin == obj and twin is not obj and hash(twin) == hash(obj) == hash(values)
    back = pickle.loads(pickle.dumps(obj))
    assert back == obj and repr(back) == text and hash(back) == hash(obj)

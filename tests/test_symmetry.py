import random

import pytest
from fractions import Fraction

from shufflestar.core import (
    Element,
    IncFn,
    SymElement,
    iter_sym_keys,
    iter_tensor_keys,
    monomial,
    sym_monomial,
)
from shufflestar.products import invariant_shuffle, star_product
from shufflestar.symmetry import (
    PairElement,
    delta_invariant,
    delta_sym,
    delta_tensor,
    from_invariant,
    pair_shuffle_invariant,
    pair_star_invariant,
    pi,
    pi_prime,
    to_invariant,
)


def test_pi_examples():
    f = monomial(1, 2, 2, [(1,), (2,)])
    res = pi(f)
    assert res.terms == {((1,), (2,)): Fraction(1, 2), ((2,), (1,)): Fraction(1, 2)}
    assert pi(res) == res
    g = monomial(1, 2, 2, [(1,), (1,)])
    assert pi(g) == g
    assert pi_prime(f).terms == {((1,), (2,)): Fraction(1), ((2,), (1,)): Fraction(1)}


def test_to_invariant_examples():
    f = sym_monomial(2, 2, 2, [(1, 2), (3, 4)])
    res = to_invariant(f)
    assert res.terms == {((1, 2), (3, 4)): Fraction(1, 2),
                         ((3, 4), (1, 2)): Fraction(1, 2)}
    rep = sym_monomial(2, 2, 2, [(1, 2), (1, 2)])
    assert to_invariant(rep).terms == {((1, 2), (1, 2)): Fraction(1)}
    single = sym_monomial(2, 1, 2, [(1, 2)])
    assert to_invariant(single).terms == {((1, 2),): Fraction(1)}


def test_from_invariant_examples():
    inv = Element(2, 2, 2, {((1, 2), (3, 4)): Fraction(1, 2),
                            ((3, 4), (1, 2)): Fraction(1, 2)})
    assert from_invariant(inv) == sym_monomial(2, 2, 2, [(1, 2), (3, 4)])
    rep = monomial(1, 2, 2, [(1,), (1,)])
    assert from_invariant(rep) == sym_monomial(1, 2, 2, [(1,), (1,)])
    with pytest.raises(ValueError):
        from_invariant(monomial(1, 2, 2, [(1,), (2,)]))


def test_inverse_pair_random():
    rng = random.Random(0)
    for _ in range(40):
        d = rng.randint(1, 2)
        n = rng.randint(1, 3)
        M = rng.randint(1, 3)
        keys = list(iter_sym_keys(d, n, M))
        f = SymElement(d, n, M, {rng.choice(keys): Fraction(rng.randint(-4, 4), 3)
                                 for _ in range(2)})
        assert from_invariant(to_invariant(f)) == f
        g = pi(Element(d, n, M, {rng.choice(list(iter_tensor_keys(d, n, M))): Fraction(1)}))
        assert to_invariant(from_invariant(g)) == g


def test_delta_examples():
    x = sym_monomial(2, 1, 2, [(1, 2)])
    d = delta_sym(x)
    assert d.terms == {((), ((1, 2),)): Fraction(1), (((1, 2),), ()): Fraction(1)}
    xy = sym_monomial(2, 2, 2, [(1, 2), (3, 4)])
    d = delta_sym(xy)
    assert d.terms == {
        ((), ((1, 2), (3, 4))): Fraction(1),
        (((1, 2),), ((3, 4),)): Fraction(1),
        (((3, 4),), ((1, 2),)): Fraction(1),
        (((1, 2), (3, 4)), ()): Fraction(1),
    }
    sq = sym_monomial(2, 2, 2, [(1, 2), (1, 2)])
    d = delta_sym(sq)
    assert d.terms[(((1, 2),), ((1, 2),))] == Fraction(2)
    assert d.terms[((), ((1, 2), (1, 2)))] == Fraction(1)


def test_delta_cocommutative_and_coassociative():
    rng = random.Random(1)
    for _ in range(25):
        d = rng.randint(1, 2)
        n = rng.randint(1, 4)
        M = rng.randint(1, 2)
        keys = list(iter_sym_keys(d, n, M))
        f = SymElement(d, n, M, {rng.choice(keys): Fraction(rng.randint(-3, 3))
                                 for _ in range(2)})
        D = delta_sym(f)
        assert D.swap() == D
        # triple splits agree
        left_first: dict = {}
        right_first: dict = {}
        for (a, b), c in D.terms.items():
            for (a1, a2), c2 in delta_sym(
                    SymElement(d, len(a), M, {a: c}, _validated=True)).terms.items():
                left_first[(a1, a2, b)] = left_first.get((a1, a2, b), Fraction(0)) + c2
            for (b1, b2), c2 in delta_sym(
                    SymElement(d, len(b), M, {b: c}, _validated=True)).terms.items():
                right_first[(a, b1, b2)] = right_first.get((a, b1, b2), Fraction(0)) + c2
        left_first = {k: v for k, v in left_first.items() if v}
        right_first = {k: v for k, v in right_first.items() if v}
        assert left_first == right_first


def test_delta_invariant_is_multiplicative():
    rng = random.Random(2)
    for _ in range(15):
        M = rng.randint(1, 2)
        d = rng.randint(1, 2)
        e = rng.randint(1, 2)
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        x = pi(Element(d, n, M, {rng.choice(list(iter_tensor_keys(d, n, M))): Fraction(2)}))
        v = pi(Element(e, n, M, {rng.choice(list(iter_tensor_keys(e, n, M))): Fraction(3)}))
        cod = M * (d + e)
        g = IncFn(M * d, cod, tuple(sorted(rng.sample(range(1, cod + 1), M * d))))
        assert delta_invariant(star_product(x, v, g)) == \
            pair_star_invariant(delta_invariant(x), delta_invariant(v), g)
        y = pi(Element(d, m, M, {rng.choice(list(iter_tensor_keys(d, m, M))): Fraction(1)}))
        assert delta_invariant(invariant_shuffle(x, y, check=False)) == \
            pair_shuffle_invariant(delta_invariant(x), delta_invariant(y))


def test_delta_invariant_requires_invariance():
    with pytest.raises(ValueError):
        delta_invariant(monomial(1, 2, 2, [(1,), (2,)]))


def test_pair_element_grouping():
    f = sym_monomial(2, 2, 2, [(1, 2), (3, 4)])
    D = delta_sym(f)
    shapes = sorted({(len(lk), len(rk)) for lk, rk in D.terms})
    assert shapes == [(0, 2), (1, 1), (2, 0)]


def test_pair_element_eq():
    a = PairElement(2, 2, 1, True, {(((1, 2),), ()): Fraction(1)})
    b = PairElement(2, 2, 1, True, {(((1, 2),), ()): Fraction(1)})
    assert a == b and a != PairElement(2, 2, 1, False, dict(a.terms))

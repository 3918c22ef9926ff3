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
from shufflestar.products import (
    Split,
    all_incfns,
    all_splits,
    invariant_shuffle,
    shuffle_product,
    star_incfns,
    star_product,
    sym_shuffle,
    sym_star,
)
from shufflestar.symmetry import from_invariant, pi_prime, to_invariant


def test_complement_examples():
    assert IncFn(4, 8, (1, 2, 3, 4)).complement().image == (5, 6, 7, 8)
    assert IncFn(4, 8, (1, 4, 6, 8)).complement().image == (2, 3, 5, 7)
    assert IncFn(0, 5, ()).complement().image == (1, 2, 3, 4, 5)


def test_shuffle_examples():
    u = monomial(1, 2, 3, [(1,), (2,)])
    v = monomial(1, 1, 3, [(3,)])
    res = shuffle_product(u, v, Split(3, (1, 3)))
    assert res.terms == {((1,), (3,), (2,)): Fraction(1)}
    unit = Element(2, 0, 2, {(): Fraction(1)})
    f = monomial(2, 1, 2, [(1, 2)])
    assert shuffle_product(f, unit, Split(1, (1,))) == f
    g = monomial(2, 1, 2, [(3, 4)])
    res = shuffle_product(f, g, Split(2, (2,)))
    assert res.terms == {((3, 4), (1, 2)): Fraction(1)}


def test_shuffle_rejects_bad_split():
    f = monomial(2, 1, 2, [(1, 2)])
    g = monomial(2, 1, 2, [(3, 4)])
    with pytest.raises(ValueError):
        shuffle_product(f, g, Split(3, (1,)))
    with pytest.raises(ValueError):
        shuffle_product(f, g, Split(2, (1, 2)))
    with pytest.raises(ValueError):
        shuffle_product(f, monomial(1, 1, 2, [(1,)]), Split(2, (1,)))


def test_star_examples():
    # direct substitution, complement slots (5, 6)
    f = monomial(2, 2, 2, [(1, 2), (2, 3)])
    h = monomial(1, 2, 2, [(1,), (2,)])
    g = IncFn(4, 6, (1, 2, 3, 4))
    res = star_product(f, h, g)
    assert res.terms == {((1, 2, 5), (2, 3, 6)): Fraction(1)}
    # one transposition picks up a sign
    f = monomial(1, 1, 2, [(2,)])
    h = monomial(1, 1, 2, [(1,)])
    g = IncFn(2, 4, (3, 4))
    res = star_product(f, h, g)
    assert res.terms == {((1, 4),): Fraction(-1)}
    # a complement-relabeled pair never collides, so monomial stars are
    # never zero; the zero element still propagates
    f = monomial(1, 1, 1, [(1,)])
    h = monomial(1, 1, 1, [(1,)])
    res = star_product(f, h, IncFn(1, 2, (1,)))
    assert res.terms == {((1, 2),): Fraction(1)}
    zero = Element(1, 1, 1)
    assert star_product(zero, h, IncFn(1, 2, (1,))).is_zero()


def test_star_shape_errors():
    f = monomial(2, 1, 2, [(1, 2)])
    h = monomial(1, 2, 2, [(1,), (2,)])
    with pytest.raises(ValueError):
        star_product(f, h, IncFn(4, 6, (1, 2, 3, 4)))
    with pytest.raises(ValueError):
        star_product(f, monomial(1, 1, 2, [(1,)]), IncFn(4, 5, (1, 2, 3, 4)))


def test_sym_star_worked_example():
    f1 = SymElement(2, 2, 2, {((1, 2), (3, 4)): Fraction(1),
                              ((1, 3), (2, 4)): Fraction(-1),
                              ((1, 4), (2, 3)): Fraction(1)})
    h = sym_monomial(2, 2, 2, [(1, 2), (3, 4)])
    res = sym_star(f1, h, IncFn(4, 8, (1, 2, 3, 4)))
    expected = SymElement(4, 2, 2, {
        ((1, 2, 5, 6), (3, 4, 7, 8)): Fraction(1, 2),
        ((1, 2, 7, 8), (3, 4, 5, 6)): Fraction(1, 2),
        ((1, 3, 5, 6), (2, 4, 7, 8)): Fraction(-1, 2),
        ((1, 3, 7, 8), (2, 4, 5, 6)): Fraction(-1, 2),
        ((1, 4, 5, 6), (2, 3, 7, 8)): Fraction(1, 2),
        ((1, 4, 7, 8), (2, 3, 5, 6)): Fraction(1, 2),
    })
    assert res == expected


def test_sym_star_single_slot_has_no_averaging():
    a = sym_monomial(2, 1, 2, [(1, 2)])
    b = sym_monomial(2, 1, 2, [(1, 2)])
    g = IncFn(4, 8, (1, 3, 5, 7))
    res = sym_star(a, b, g)
    ta = monomial(2, 1, 2, [(1, 2)])
    assert res.terms == star_product(ta, ta, g).terms


def test_sym_star_matches_conjugated_definition():
    rng = random.Random(4)
    for _ in range(30):
        M = rng.randint(1, 2)
        d = rng.randint(1, 2)
        e = rng.randint(1, 2)
        n = rng.randint(1, 4)
        keys = list(iter_sym_keys(d, n, M))
        f = SymElement(d, n, M, {rng.choice(keys): Fraction(rng.randint(-3, 3), 2)})
        keys = list(iter_sym_keys(e, n, M))
        h = SymElement(e, n, M, {rng.choice(keys): Fraction(rng.randint(-3, 3))})
        cod = M * (d + e)
        g = IncFn(M * d, cod, tuple(sorted(rng.sample(range(1, cod + 1), M * d))))
        direct = sym_star(f, h, g)
        conj = from_invariant(star_product(to_invariant(f), to_invariant(h), g))
        assert direct == conj


def test_sym_shuffle():
    a = sym_monomial(2, 1, 2, [(1, 2)])
    b = sym_monomial(2, 1, 2, [(3, 4)])
    assert sym_shuffle(a, b).terms == {((1, 2), (3, 4)): Fraction(1)}
    unit = SymElement(2, 0, 2, {(): Fraction(1)})
    assert sym_shuffle(a, unit) == a
    rng = random.Random(5)
    keys = list(iter_sym_keys(2, 2, 2))
    for _ in range(20):
        f = SymElement(2, 2, 2, {rng.choice(keys): Fraction(rng.randint(-3, 3))})
        h = SymElement(2, 2, 2, {rng.choice(keys): Fraction(rng.randint(-3, 3))})
        assert sym_shuffle(f, h) == sym_shuffle(h, f)


def test_invariant_shuffle():
    a = monomial(1, 1, 2, [(1,)])
    b = monomial(1, 1, 2, [(2,)])
    res = invariant_shuffle(a, b)
    assert res.terms == {((1,), (2,)): Fraction(1), ((2,), (1,)): Fraction(1)}
    unit = Element(1, 0, 2, {(): Fraction(1)})
    assert invariant_shuffle(a, unit) == a
    # three splits per term
    f = pi_prime(monomial(1, 2, 2, [(1,), (2,)]))
    g = pi_prime(monomial(1, 1, 2, [(1,)]))
    res = invariant_shuffle(f, g)
    expected = Element(1, 3, 2)
    for key in [((1,), (2,)), ((2,), (1,))]:
        for pos in [(1, 2), (1, 3), (2, 3)]:
            slots = [None, None, None]
            slots[pos[0] - 1], slots[pos[1] - 1] = key[0], key[1]
            slots[slots.index(None)] = (1,)
            expected = expected.add_scale(monomial(1, 3, 2, slots))
    assert res == expected


def test_invariant_shuffle_rejects_non_invariant():
    f = monomial(1, 2, 2, [(1,), (2,)])
    with pytest.raises(ValueError):
        invariant_shuffle(f, f)


def test_monomial_closure():
    rng = random.Random(6)
    for _ in range(50):
        M = rng.randint(1, 2)
        d = rng.randint(1, 2)
        e = rng.randint(1, 2)
        n = rng.randint(1, 2)
        m = rng.randint(0, 2)
        fk = rng.choice(list(iter_tensor_keys(d, n, M)))
        hk = rng.choice(list(iter_tensor_keys(d, m, M)))
        f = monomial(d, n, M, fk)
        h = monomial(d, m, M, hk)
        left = tuple(sorted(rng.sample(range(1, n + m + 1), n)))
        res = shuffle_product(f, h, Split(n + m, left))
        assert len(res.terms) == 1 and abs(next(iter(res.terms.values()))) == 1
        ak = rng.choice(list(iter_tensor_keys(e, n, M)))
        a = monomial(e, n, M, ak)
        cod = M * (d + e)
        g = IncFn(M * d, cod, tuple(sorted(rng.sample(range(1, cod + 1), M * d))))
        res = star_product(f, a, g)
        assert res.is_zero() or (len(res.terms) == 1
                                 and abs(next(iter(res.terms.values()))) == 1)


def test_enumerators():
    assert len(list(all_splits(2, 1))) == 3
    assert len(list(all_incfns(2, 4))) == 6
    assert len(list(star_incfns(1, 1, 2))) == 6

import random
from itertools import permutations
from math import factorial

import pytest
from fractions import Fraction

from shufflestar.core import (
    Element,
    IncFn,
    SymElement,
    from_numerators,
    is_sym_invariant,
    iter_sym_keys,
    iter_tensor_keys,
    monomial,
    slot_splits,
    sym_monomial,
    to_numerators,
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


@pytest.mark.parametrize("key, total", [
    ((((0, 1),), ((1, 2),)), 2),          # index 0
    ((((1, 2),), ((3, 5),)), 2),          # an index above M*d = 4
    ((((2, 1),), ((1, 2),)), 2),          # an unsorted factor
    ((((1, 2, 3),), ((1, 2),)), 2),       # a factor of the wrong width
    ((((1, 2),), ((1, 2),)), 3),          # 1 + 1 slots against a total of 3
    ((((1, 2),),), 1),                    # not a (left, right) pair
])
@pytest.mark.parametrize("symmetric", [True, False])
def test_pair_element_checks_its_keys(key, total, symmetric):
    with pytest.raises(ValueError):
        PairElement(2, 2, total, symmetric, {key: 1})


def test_pair_element_sorts_symmetric_sides():
    unsorted = (((3, 4), (1, 2)), ((2, 4),))
    key = (((1, 2), (3, 4)), ((2, 4),))
    assert PairElement(2, 2, 3, True, {unsorted: Fraction(1, 2), key: Fraction(1, 2)}).terms \
        == {key: 1}
    assert PairElement(2, 2, 3, True, {unsorted: 1, key: -1}).terms == {}
    assert PairElement(2, 2, 3, False, {unsorted: 2}).terms == {unsorted: 2}
    with pytest.raises(ValueError):
        PairElement(2, 2.0, 3, True, {key: 1})


def test_pair_element_swap_is_an_involution():
    f = sym_monomial(2, 3, 2, [(1, 2), (1, 2), (3, 4)])
    g = to_invariant(monomial(1, 2, 2, [(1,), (2,)]))
    # a comultiplication is cocommutative, so only a lopsided element shows the swap
    lopsided = PairElement(2, 2, 3, True, {(((1, 2),), ((1, 2), (3, 4))): 2,
                                           ((), next(iter(f.terms))): Fraction(1, 3)})
    for x in (delta_sym(f), delta_tensor(g), delta_invariant(g), lopsided):
        y = x.swap()
        assert len(y.terms) == len(x.terms)
        assert y.terms == {(r, l): c for (l, r), c in x.terms.items()}
        assert y.swap() == x


# references that split along every slot subset and, for invariants, sum
# every ordering: the comultiplications as they were computed before the
# getter table and the orbit pass

def _reference_delta_sums(nums, n, canonical):
    out: dict = {}
    for key, c in nums.items():
        for mask in range(1 << n):
            left = tuple(key[i] for i in range(n) if mask >> i & 1)
            right = tuple(key[i] for i in range(n) if not mask >> i & 1)
            if canonical:
                left, right = tuple(sorted(left)), tuple(sorted(right))
            out[(left, right)] = out.get((left, right), 0) + c
    return out


def _reference_delta(f):
    nums, den = to_numerators(f.terms)
    return from_numerators(_reference_delta_sums(nums, f.n, False), den)


def _reference_delta_invariant(f):
    assert is_sym_invariant(f)
    nums, den = to_numerators(f.terms)
    out: dict = {}
    for (sl, sr), c in _reference_delta_sums(nums, f.n, True).items():
        lperms, rperms = set(permutations(sl)), set(permutations(sr))
        c *= factorial(len(sl)) // len(lperms) * (factorial(len(sr)) // len(rperms))
        for lk in lperms:
            for rk in rperms:
                out[(lk, rk)] = c
    return from_numerators(out, den * factorial(f.n))


def _reference_from_invariant(f):
    assert is_sym_invariant(f)
    nums, den = to_numerators(f.terms)
    out: dict = {}
    for key, c in nums.items():
        canon = tuple(sorted(key))
        out[canon] = out.get(canon, 0) + c
    return from_numerators(out, den)


def _typed(terms):
    # equal term for term: same keys, values and int-or-Fraction classes
    return {k: (type(v), v) for k, v in terms.items()}


def _seeded_elements(rng, n):
    """Tensor elements with Fraction coefficients over alphabets small
    enough that keys repeat factors: x1, x2 at d = 1, M = 2, and the six
    x_ij at d = 2, M = 2."""
    for d, M in ((1, 2), (2, 2), (1, 3)):
        keys = list(iter_tensor_keys(d, n, M))
        for _ in range(4):
            yield Element(d, n, M, {rng.choice(keys): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                    for _ in range(rng.randint(1, 5))})


@pytest.mark.parametrize("n", range(5))
def test_comultiplications_equal_the_every_subset_references(n):
    rng = random.Random(100 + n)
    repeated = 0
    for f in _seeded_elements(rng, n):
        inv = pi(f)
        sym = from_invariant(inv)
        repeated += any(len(set(k)) < n for k in sym.terms)
        assert _typed(sym.terms) == _typed(_reference_from_invariant(inv))
        assert _typed(delta_sym(sym).terms) == _typed(_reference_delta(sym))
        assert _typed(delta_tensor(f).terms) == _typed(_reference_delta(f))
        assert _typed(delta_tensor(inv).terms) == _typed(_reference_delta(inv))
        assert _typed(delta_invariant(inv).terms) == _typed(_reference_delta_invariant(inv))
    assert n < 2 or repeated


def test_slot_getters_return_tuples_in_slot_order():
    key = tuple((i,) for i in range(1, 6))
    for n in range(6):
        splits = slot_splits(n)
        assert slot_splits(n) is splits and len(splits) == 1 << n
        assert list(splits) == [tuple(i for i in range(n) if mask >> i & 1)
                                for mask in range(1 << n)]
        for pos, (left, right) in splits.items():
            rest = tuple(i for i in range(n) if i not in pos)
            assert left(key[:n]) == tuple(key[i] for i in pos)
            assert right(key[:n]) == tuple(key[i] for i in rest)
            assert type(left(key[:n])) is tuple and type(right(key[:n])) is tuple


_NOT_INVARIANT = [
    # x1 x2 without x2 x1
    Element(1, 2, 2, {((1,), (2,)): Fraction(1, 2)}),
    # an orbit of x1 x1 x2 missing x2 x1 x1
    Element(1, 3, 2, {((1,), (1,), (2,)): 1, ((1,), (2,), (1,)): 1}),
    # the whole orbit of x1 x2 x3 but one unequal coefficient
    Element(1, 3, 3, {tuple((i,) for i in p): Fraction(2 if p == (2, 1, 3) else 1, 3)
                      for p in permutations((1, 2, 3))}),
    Element(1, 2, 2, {((1,), (2,)): 1, ((2,), (1,)): 2, ((1,), (1,)): 5}),
]


@pytest.mark.parametrize("f", _NOT_INVARIANT, ids=range(len(_NOT_INVARIANT)))
def test_the_orbit_pass_refuses_what_is_not_invariant(f):
    assert not is_sym_invariant(f)
    with pytest.raises(ValueError, match="^from_invariant requires a "
                                         "slot-permutation-invariant element$"):
        from_invariant(f)
    with pytest.raises(ValueError, match="^delta_invariant requires an invariant element$"):
        delta_invariant(f)

import random
from itertools import combinations

import pytest
from fractions import Fraction

from shufflestar.core import (
    Element,
    IncFn,
    SymElement,
    TensorMonomial,
    iter_tensor_keys,
    monomial,
)
from shufflestar.poset import (
    EQ,
    GT,
    LT,
    decode_tree,
    encode_tree,
    leading_term,
    minimal_elements,
    monomial_cmp,
    rl_leq,
    rl_leq_inclusion,
    tree_leq,
)
from shufflestar.products import Split, shuffle_product, star_product


def _tm(factors, M=2):
    return TensorMonomial.from_factors(factors, M)


def test_divisibility_worked_example():
    S = _tm([(1, 2), (2, 3), (1, 4)])
    T = _tm([(1, 2, 3), (1, 3, 4), (2, 5, 6)])
    w = rl_leq(S, T)
    assert w is not None
    assert w.positions == (1, 2, 3)
    assert w.g.image == (2, 3, 4, 5)
    assert w.check(S, T)


def test_divisibility_reflexive():
    S = _tm([(1, 2), (3, 4)])
    w = rl_leq(S, S)
    assert w is not None and w.g.image == (1, 2, 3, 4) and w.positions == (1, 2)


def test_divisibility_same_width_needs_identity():
    assert rl_leq(_tm([(1, 2)]), _tm([(1, 3)])) is None


def test_divisibility_multiplier_mismatch():
    with pytest.raises(ValueError):
        rl_leq(_tm([(1, 2)], M=2), _tm([(1, 2)], M=3))


def test_containment_variant_differs():
    # the containment-only reading admits pairs that are not actual
    # product multiples; this is the documented counterexample
    S = _tm([(1,)])
    T = _tm([(3, 4)])
    assert rl_leq(S, T) is None
    w = rl_leq_inclusion(S, T)
    assert w is not None and w.check(S, T, exact=False)


def test_monomial_cmp():
    a = _tm([(1, 2), (3, 4)])
    b = _tm([(1, 3), (2, 4)])
    assert monomial_cmp(a, b) == LT
    assert monomial_cmp(a, a) == EQ
    assert monomial_cmp(_tm([(2, 3)]), _tm([(1, 4)])) == GT
    with pytest.raises(ValueError):
        monomial_cmp(a, _tm([(1, 2)]))


def test_leading_term():
    f1 = SymElement(2, 2, 2, {((1, 2), (3, 4)): Fraction(1),
                              ((1, 3), (2, 4)): Fraction(-1),
                              ((1, 4), (2, 3)): Fraction(1)})
    # oracle: the comparison function over the three canonical monomials
    keys = [TensorMonomial(2, 2, 2, k) for k in f1.terms]
    best = keys[0]
    for k in keys[1:]:
        if monomial_cmp(best, k) == LT:
            best = k
    coeff, mono = leading_term(f1)
    assert mono.factors == best.factors == ((1, 4), (2, 3))
    assert coeff == 1
    c, m = leading_term(SymElement(2, 1, 2, {((1, 3),): Fraction(-5)}))
    assert (c, m.factors) == (Fraction(-5), ((1, 3),))
    smaller = f1.add_scale(SymElement(2, 2, 2, {((1, 2), (1, 2)): Fraction(7)}))
    assert leading_term(smaller)[1].factors == ((1, 4), (2, 3))
    with pytest.raises(ValueError):
        leading_term(SymElement(2, 2, 2))


def test_tree_encoding_worked_examples():
    S1 = _tm([(1, 2), (2, 3), (1, 4)])
    T1 = encode_tree(S1)
    assert T1.root == (0, 0, (4, 4, 4))
    assert T1.branches[0][0] == (1, 1, (1, 0, 3))
    assert T1.branches[0][1] == (2, 1, (1, 2, 0))
    assert T1.branches[1][0] == (1, 2, (1, 0, 3))
    assert T1.branches[2][3] == (4, 3, (0, 0, 3))
    S2 = _tm([(1, 2, 3), (1, 3, 4), (2, 5, 6)])
    T2 = encode_tree(S2)
    assert T2.branches[0][2] == (3, 1, (1, 2, 0))
    assert T2.branches[0][5] == (6, 1, (0, 0, 3))
    assert tree_leq(T1, T2)
    assert tree_leq(T1, T1)


def test_tree_round_trip():
    rng = random.Random(0)
    for _ in range(40):
        d = rng.randint(0, 3)
        n = rng.randint(0, 3)
        M = rng.randint(1, 2)
        keys = list(iter_tensor_keys(d, n, M))
        S = TensorMonomial(d, n, M, rng.choice(keys))
        assert decode_tree(encode_tree(S)) == S


def test_tree_embedding_implies_divisibility():
    rng = random.Random(1)
    hits = 0
    for _ in range(300):
        d = rng.randint(1, 2)
        e = rng.randint(d, 3)
        n = rng.randint(1, 2)
        M = 2
        S = TensorMonomial(d, n, M, rng.choice(list(iter_tensor_keys(d, n, M))))
        T = TensorMonomial(e, n, M, rng.choice(list(iter_tensor_keys(e, n, M))))
        if tree_leq(encode_tree(S), encode_tree(T)):
            hits += 1
            assert rl_leq(S, T) is not None
    assert hits > 0


def test_transitivity():
    rng = random.Random(2)
    checked = 0
    for _ in range(400):
        d = rng.randint(1, 2)
        n = rng.randint(1, 2)
        M = 2
        S = TensorMonomial(d, n, M, rng.choice(list(iter_tensor_keys(d, n, M))))
        e = rng.randint(d, 3)
        m = rng.randint(n, 2)
        T = TensorMonomial(e, m, M, rng.choice(list(iter_tensor_keys(e, m, M))))
        f = rng.randint(e, 3)
        p = rng.randint(m, 3)
        U = TensorMonomial(f, p, M, rng.choice(list(iter_tensor_keys(f, p, M))))
        if rl_leq(S, T) is not None and rl_leq(T, U) is not None:
            checked += 1
            assert rl_leq(S, U) is not None
    assert checked > 0


def test_minimal_elements():
    S = _tm([(1, 2)])
    T = _tm([(1, 2), (1, 2)])
    assert minimal_elements([S, T]) == [S]
    anti = [_tm([(1, 2)]), _tm([(1, 3)])]
    assert minimal_elements(anti) == sorted(anti, key=lambda m: m.factors)
    out = minimal_elements([_tm([(1, 2)]), _tm([(1, 3)]), _tm([(1, 2), (1, 2)])])
    assert {m.factors for m in out} == {((1, 2),), ((1, 3),)}


def test_order_monotone_under_products():
    # exhaustive at tiny sizes: the order survives star and shuffle
    M = 2
    mons1 = [TensorMonomial(1, 1, M, k) for k in iter_tensor_keys(1, 1, M)]
    nmon = [TensorMonomial(1, 1, M, k) for k in iter_tensor_keys(1, 1, M)]
    from shufflestar.products import all_incfns, all_splits
    for a in mons1:
        for b in mons1:
            if monomial_cmp(a, b) != LT:
                continue
            ea = monomial(1, 1, M, a.factors)
            eb = monomial(1, 1, M, b.factors)
            for nm in nmon:
                en = monomial(1, 1, M, nm.factors)
                for g in all_incfns(M, 2 * M):
                    ra = star_product(ea, en, g)
                    rb = star_product(eb, en, g)
                    ka = TensorMonomial(2, 1, M, next(iter(ra.terms)))
                    kb = TensorMonomial(2, 1, M, next(iter(rb.terms)))
                    assert monomial_cmp(ka, kb) == LT
                for split in all_splits(1, 1):
                    sa = shuffle_product(en, ea, split)
                    sb = shuffle_product(en, eb, split)
                    ka = TensorMonomial(1, 2, M, next(iter(sa.terms)))
                    kb = TensorMonomial(1, 2, M, next(iter(sb.terms)))
                    assert monomial_cmp(ka, kb) == LT


def _reference_rl_search(S, T, exact):
    """The frozenset form of the divisibility search, kept as the reference
    for the bitmask search of `rl_leq` and `rl_leq_inclusion`."""
    if S.d > T.d or S.n > T.n:
        return None
    dom, cod = S.alphabet, T.alphabet
    letter_sigs = [frozenset(i for i in range(S.n) if (l + 1) in set(S.factors[i]))
                   for l in range(dom)]
    for pos in combinations(range(1, T.n + 1), S.n):
        slot_sets = [frozenset(T.factors[k - 1]) for k in pos]
        val_sig = [frozenset(i for i in range(S.n) if v in slot_sets[i])
                   for v in range(1, cod + 1)]
        out, prev = [], 0
        for sig in letter_sigs:
            choice = next((v for v in range(prev + 1, cod + 1)
                           if (val_sig[v - 1] == sig if exact else sig <= val_sig[v - 1])),
                          None)
            if choice is None:
                break
            out.append(choice)
            prev = choice
        else:
            return pos, tuple(out)
    return None


def _random_pair(rng):
    M = rng.randint(1, 3)
    d, n = rng.randint(0, 2), rng.randint(0, 3)
    e, m = rng.randint(d, 3), rng.randint(n, 4)
    S = TensorMonomial(d, n, M, tuple(tuple(sorted(rng.sample(range(1, M * d + 1), d)))
                                      for _ in range(n)))
    if rng.random() < 0.5 and d:
        # plant a relabelled copy of S in T so that many pairs are comparable
        letters = sorted(rng.sample(range(1, M * e + 1), M * d))
        slots = [tuple(sorted(rng.sample(range(1, M * e + 1), e))) for _ in range(m)]
        for fac, k in zip(S.factors, sorted(rng.sample(range(m), n))):
            rest = [v for v in range(1, M * e + 1) if v not in letters]
            mapped = [letters[i - 1] for i in fac]
            slots[k] = tuple(sorted(mapped + rng.sample(rest, e - d)))
        return S, TensorMonomial(e, m, M, tuple(slots))
    return S, TensorMonomial(e, m, M, tuple(tuple(sorted(rng.sample(range(1, M * e + 1), e)))
                                            for _ in range(m)))


@pytest.mark.parametrize("search,exact", [(rl_leq, True), (rl_leq_inclusion, False)])
def test_bitmask_search_gives_the_reference_witnesses(search, exact):
    rng = random.Random(17)
    found = 0
    for _ in range(3000):
        S, T = _random_pair(rng)
        want = _reference_rl_search(S, T, exact)
        got = search(S, T)
        if want is None:
            assert got is None, (S.factors, T.factors)
            continue
        found += 1
        assert got is not None and (got.positions, got.g.image) == want, (S.factors, T.factors)
        assert got.check(S, T, exact=exact)
    assert 500 < found < 2900

import random
from collections import Counter
from math import factorial, prod

from shufflestar.core import SymElement, iter_sym_keys
from shufflestar.plucker import pfaffian
from shufflestar.weights import (
    FactorTable,
    act,
    act_on_key,
    dominant_weights,
    from_dominant,
    is_dominant,
    monomials_of_weight,
    orbit_fill,
    orbit_permutations,
    weight,
)


def _random_element(rng, d, n, M, terms=6):
    keys = list(iter_sym_keys(d, n, M))
    return SymElement(d, n, M, {rng.choice(keys): rng.randint(-5, 5) for _ in range(terms)})


def compose(sigma, tau):
    """sigma tau in one-line form: first tau, then sigma."""
    return tuple(sigma[t - 1] for t in tau)


def adjacent_transpositions(N):
    """The N - 1 swaps (j j+1) in one-line form."""
    return [tuple(range(1, j + 1)) + (j + 2, j + 1) + tuple(range(j + 3, N + 1))
            for j in range(N - 1)]


def _random_permutation(rng, N):
    sigma = list(range(1, N + 1))
    rng.shuffle(sigma)
    return tuple(sigma)


def test_weight_is_the_content_vector():
    assert weight(((1, 2), (1, 4), (2, 3)), 6) == (2, 2, 1, 1, 0, 0)
    assert is_dominant((2, 2, 1, 1, 0, 0))
    assert not is_dominant((1, 2, 1, 1, 0, 0))


def _weight_groups(monos, N):
    """Column indices of monos grouped by weight, each group in column order."""
    blocks = {}
    for c, key in enumerate(monos):
        blocks.setdefault(weight(key, N), []).append(c)
    return blocks


def test_weight_blocks_partition_the_columns_in_order():
    # monomials_of_weight enumerates each block in column order, and the
    # dominant weights are those of the blocks with a weakly decreasing weight
    for d, n, M in ((2, 2, 2), (2, 3, 3), (3, 2, 2), (1, 4, 3), (3, 2, 3)):
        N = M * d
        monos = sorted(iter_sym_keys(d, n, M), reverse=True)
        blocks = _weight_groups(monos, N)
        assert sorted(c for cols in blocks.values() for c in cols) == list(range(len(monos)))
        for w, cols in blocks.items():
            assert monomials_of_weight(w, d, n) == tuple(monos[c] for c in cols)
        dominant = dominant_weights(d, n, N)
        assert sorted(dominant, reverse=True) == dominant
        assert set(dominant) == {w for w in blocks if is_dominant(w)}


def test_action_composes_and_transpositions_are_involutions():
    rng = random.Random(7)
    for d, n, M in ((2, 3, 3), (3, 2, 2), (1, 4, 5)):
        N = M * d
        f = _random_element(rng, d, n, M)
        for _ in range(5):
            sigma = _random_permutation(rng, N)
            tau = _random_permutation(rng, N)
            assert (act(FactorTable(sigma), act(FactorTable(tau), f))
                    == act(FactorTable(compose(sigma, tau)), f))
        for tau in adjacent_transpositions(N):
            table = FactorTable(tau)
            assert act(table, act(table, f)) == f


def test_action_maps_the_pfaffian_to_plus_or_minus_itself():
    pf = pfaffian(range(1, 7), 6)
    for tau in adjacent_transpositions(6):
        assert act(FactorTable(tau), pf) == -pf   # Pf(P A P^T) = det(P) Pf(A)
    rng = random.Random(3)
    for _ in range(5):
        image = act(FactorTable(_random_permutation(rng, 6)), pf)
        assert image in (pf, -pf)


def test_action_moves_weight_blocks():
    sigma = (3, 1, 2, 4)
    sign, key = act_on_key(FactorTable(sigma), ((1, 2), (1, 4)))
    # 1 -> 3, 2 -> 1, 4 -> 4: (1,2) -> (3,1) = -(1,3), (1,4) -> (3,4)
    assert (sign, key) == (-1, ((1, 3), (3, 4)))
    w = weight(((1, 2), (1, 4)), 4)
    assert weight(key, 4) == tuple(w[sigma.index(i + 1)] for i in range(4))


def _reference_act_on_key(sigma, key):
    """sigma . key one factor at a time, the sign by counting inversions."""
    sign = 1
    out = []
    for fac in key:
        mapped = [sigma[i - 1] for i in fac]
        inversions = sum(1 for a in range(len(mapped)) for b in range(a + 1, len(mapped))
                         if mapped[a] > mapped[b])
        sign *= -1 if inversions % 2 else 1
        out.append(tuple(sorted(mapped)))
    return sign, tuple(sorted(out))


def test_factor_table_action_matches_the_per_key_reference():
    from itertools import permutations
    keys = list(iter_sym_keys(2, 2, 2))
    for sigma in permutations(range(1, 5)):
        table = FactorTable(sigma)
        for key in keys:
            assert act_on_key(table, key) == _reference_act_on_key(sigma, key)
        assert len(table) <= 6   # one entry per factor of [1..4]
    rng = random.Random(11)
    keys = list(iter_sym_keys(3, 3, 3))
    for _ in range(20):
        sigma = _random_permutation(rng, 9)
        table = FactorTable(sigma)
        f = SymElement(3, 3, 3, {key: rng.randint(1, 5) for key in rng.sample(keys, 40)})
        want = {}
        for key, c in f.terms.items():
            sign, image = _reference_act_on_key(sigma, key)
            assert act_on_key(table, key) == (sign, image)
            want[image] = sign * c
        assert act(table, f) == SymElement(3, 3, 3, want)


def test_orbit_permutations_reach_each_rearrangement_once():
    for w in ((2, 2, 1, 1, 0, 0), (3, 1, 1, 1), (1, 1, 1, 1), (4, 0, 0)):
        perms = list(orbit_permutations(w))
        assert perms[0] == tuple(range(1, len(w) + 1))
        mult = Counter(w).values()
        assert len(perms) == factorial(len(w)) // prod(factorial(m) for m in mult)
        images = set()
        for sigma in perms:
            u = [0] * len(w)
            for j, s in enumerate(sigma):
                u[s - 1] = w[j]
            images.add(tuple(u))
        assert len(images) == len(perms)


def test_from_dominant_is_the_orbit_permutation_reaching_the_weight():
    from itertools import permutations
    # repeated counts, a count shared by every index, and zeros
    for w in ((2, 2, 1, 1, 0, 0), (3, 1, 1, 1), (1, 1, 1, 1), (4, 0, 0), (3, 2, 1, 0)):
        reached = {}
        for sigma in orbit_permutations(w):
            u = [0] * len(w)
            for j, s in enumerate(sigma):
                u[s - 1] = w[j]
            reached[tuple(u)] = sigma
        rearrangements = set(permutations(w))
        assert set(reached) == rearrangements
        for u in rearrangements:
            assert from_dominant(u) == reached[u]


def test_orbit_fill_of_an_empty_block_builds_no_table(monkeypatch):
    from shufflestar import weights
    built = []

    class CountingTable(FactorTable):
        def __init__(self, sigma):
            super().__init__(sigma)
            built.append(sigma)

    monkeypatch.setattr(weights, "FactorTable", CountingTable)
    w = (2, 2, 1, 1, 0, 0)
    assert list(orbit_fill(w, [])) == [] and built == []
    f = SymElement(2, 3, 3, {((1, 2), (1, 3), (2, 4)): 1})
    assert weight(next(iter(f.terms)), 6) == w
    assert len(list(orbit_fill(w, [f]))) == len(orbit_permutations(w)) == len(built) + 1

import random
from collections import Counter
from math import factorial, prod

from shufflestar.core import SymElement, iter_sym_keys
from shufflestar.plucker import pfaffian
from shufflestar.weights import (
    act,
    act_on_key,
    adjacent_transpositions,
    is_dominant,
    orbit_permutations,
    weight,
    weight_blocks,
)


def _random_element(rng, d, n, M, terms=6):
    keys = list(iter_sym_keys(d, n, M))
    return SymElement(d, n, M, {rng.choice(keys): rng.randint(-5, 5) for _ in range(terms)})


def compose(sigma, tau):
    """sigma tau in one-line form: first tau, then sigma."""
    return tuple(sigma[t - 1] for t in tau)


def _random_permutation(rng, N):
    sigma = list(range(1, N + 1))
    rng.shuffle(sigma)
    return tuple(sigma)


def test_weight_is_the_content_vector():
    assert weight(((1, 2), (1, 4), (2, 3)), 6) == (2, 2, 1, 1, 0, 0)
    assert is_dominant((2, 2, 1, 1, 0, 0))
    assert not is_dominant((1, 2, 1, 1, 0, 0))


def test_weight_blocks_partition_the_columns_in_order():
    monos = sorted(iter_sym_keys(2, 2, 2), reverse=True)
    blocks = weight_blocks(monos, 4)
    assert sorted(c for cols in blocks.values() for c in cols) == list(range(len(monos)))
    for w, cols in blocks.items():
        assert cols == sorted(cols)
        assert all(weight(monos[c], 4) == w for c in cols)


def test_action_composes_and_transpositions_are_involutions():
    rng = random.Random(7)
    for d, n, M in ((2, 3, 3), (3, 2, 2), (1, 4, 5)):
        N = M * d
        f = _random_element(rng, d, n, M)
        for _ in range(5):
            sigma = _random_permutation(rng, N)
            tau = _random_permutation(rng, N)
            assert act(sigma, act(tau, f)) == act(compose(sigma, tau), f)
        for tau in adjacent_transpositions(N):
            assert act(tau, act(tau, f)) == f


def test_action_maps_the_pfaffian_to_plus_or_minus_itself():
    pf = pfaffian(range(1, 7), 6)
    for tau in adjacent_transpositions(6):
        assert act(tau, pf) == -pf   # Pf(P A P^T) = det(P) Pf(A)
    rng = random.Random(3)
    for _ in range(5):
        image = act(_random_permutation(rng, 6), pf)
        assert image in (pf, -pf)


def test_action_moves_weight_blocks():
    sigma = (3, 1, 2, 4)
    sign, key = act_on_key(sigma, ((1, 2), (1, 4)))
    # 1 -> 3, 2 -> 1, 4 -> 4: (1,2) -> (3,1) = -(1,3), (1,4) -> (3,4)
    assert (sign, key) == (-1, ((1, 3), (3, 4)))
    w = weight(((1, 2), (1, 4)), 4)
    assert weight(key, 4) == tuple(w[sigma.index(i + 1)] for i in range(4))


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

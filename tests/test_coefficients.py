"""The integer-first products, maps and comultiplications against plain Fractions.

The reference functions below are the straightforward `Fraction` formulas:
every term is multiplied and added as a `Fraction`, a normalised map
divides every term by n!, and a comultiplication of invariants projects
each side of every split separately.  The library computes the same maps
over integer numerators with one division per output key; both must agree
exactly, and the library's coefficients must be in canonical form: an
`int` when integral, else a `Fraction` with denominator above 1.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest

from shufflestar.core import (
    Element,
    IncFn,
    SymElement,
    element_from_dict,
    from_numerators,
    is_sym_invariant,
    merge_signed,
    monomial,
    permute_slots,
    relabel_factor,
    sym_monomial,
    to_numerators,
)
from shufflestar.products import (
    Split,
    invariant_shuffle,
    shuffle_product,
    star_product,
    sym_shuffle,
    sym_star,
)
from shufflestar.symmetry import (
    PairElement,
    delta_invariant,
    delta_sym,
    delta_tensor,
    from_invariant,
    pair_map,
    pair_shuffle,
    pair_shuffle_invariant,
    pair_star,
    pair_star_invariant,
    pi,
    pi_prime,
    to_invariant,
)


# ---------------------------------------------------------------------------
# reference formulas over plain Fractions, on term dicts
# ---------------------------------------------------------------------------

def _acc(out, key, c):
    out[key] = out.get(key, Fraction(0)) + c


def _nonzero(out):
    return {k: v for k, v in out.items() if v}


def ref_shuffle(fterms, hterms, n, m, left):
    right = [i for i in range(1, n + m + 1) if i not in left]
    out = {}
    for kf, cf in fterms.items():
        for kh, ch in hterms.items():
            slots = [None] * (n + m)
            for k, pos in enumerate(left):
                slots[pos - 1] = kf[k]
            for k, pos in enumerate(right):
                slots[pos - 1] = kh[k]
            _acc(out, tuple(slots), Fraction(cf) * Fraction(ch))
    return _nonzero(out)


def ref_invariant_shuffle(fterms, hterms, n, m):
    out = {}
    for left in combinations(range(1, n + m + 1), n):
        for k, c in ref_shuffle(fterms, hterms, n, m, left).items():
            _acc(out, k, c)
    return _nonzero(out)


def _ref_star(fterms, hterms, n, g, matchings, canonical):
    gc = g.complement()
    out = {}
    norm = Fraction(1, len(matchings))
    for kf, cf in fterms.items():
        rf = [relabel_factor(x, g) for x in kf]
        for kh, ch in hterms.items():
            rh = [relabel_factor(x, gc) for x in kh]
            for perm in matchings:
                sign, slots = 1, []
                for k in range(n):
                    s, merged = merge_signed(rf[perm[k]], rh[k])
                    sign *= s
                    slots.append(merged)
                if sign:
                    key = tuple(sorted(slots)) if canonical else tuple(slots)
                    _acc(out, key, sign * Fraction(cf) * Fraction(ch) * norm)
    return _nonzero(out)


def ref_star(fterms, hterms, n, g):
    return _ref_star(fterms, hterms, n, g, [tuple(range(n))], False)


def ref_sym_star(fterms, hterms, n, g):
    return _ref_star(fterms, hterms, n, g, list(permutations(range(n))), True)


def ref_sym_shuffle(fterms, hterms):
    out = {}
    for kf, cf in fterms.items():
        for kh, ch in hterms.items():
            _acc(out, tuple(sorted(kf + kh)), Fraction(cf) * Fraction(ch))
    return _nonzero(out)


def ref_pi(terms, n):
    out = {}
    for key, c in terms.items():
        for perm in permutations(key):
            _acc(out, perm, Fraction(c, factorial(n)))
    return _nonzero(out)


def ref_pi_prime(terms, n):
    return {k: v * factorial(n) for k, v in ref_pi(terms, n).items()}


def ref_from_invariant(terms):
    out = {}
    for key, c in terms.items():
        _acc(out, tuple(sorted(key)), Fraction(c))
    return _nonzero(out)


def ref_delta(terms, n, symmetric):
    out = {}
    for key, c in terms.items():
        for mask in range(1 << n):
            left = tuple(key[i] for i in range(n) if mask >> i & 1)
            right = tuple(key[i] for i in range(n) if not mask >> i & 1)
            if symmetric:
                left, right = tuple(sorted(left)), tuple(sorted(right))
            _acc(out, (left, right), Fraction(c))
    return _nonzero(out)


def ref_delta_invariant(terms, n):
    out = {}
    for (lk, rk), c in ref_delta(terms, n, False).items():
        lel = ref_pi_prime({lk: c / factorial(n)}, len(lk))
        rel = ref_pi_prime({rk: Fraction(1)}, len(rk))
        for lkey, lc in lel.items():
            for rkey, rc in rel.items():
                _acc(out, (lkey, rkey), lc * rc)
    return _nonzero(out)


def ref_pair_product(xterms, yterms, op):
    """op(a_key, b_key) is the reference product of two monomials, or None."""
    out = {}
    for (xl, xr), cx in xterms.items():
        for (yl, yr), cy in yterms.items():
            lres, rres = op(xl, yl), op(xr, yr)
            if not lres or not rres:
                continue
            for lk, lc in lres.items():
                for rk, rc in rres.items():
                    _acc(out, (lk, rk), Fraction(cx) * Fraction(cy) * lc * rc)
    return _nonzero(out)


def ref_pair_map(xterms, fn):
    out = {}
    for (lk, rk), c in xterms.items():
        for lkey, lc in fn(lk).items():
            for rkey, rc in fn(rk).items():
                _acc(out, (lkey, rkey), Fraction(c) * lc * rc)
    return _nonzero(out)


def ref_is_sym_invariant(f):
    return all(permute_slots(f, perm) == f for perm in permutations(range(f.n)))


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _coeff(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))


def _key(rng, d, n, M):
    return tuple(tuple(sorted(rng.sample(range(1, M * d + 1), d))) for _ in range(n))


def _tensor(rng, d, n, M, terms=3):
    return Element(d, n, M, {_key(rng, d, n, M): _coeff(rng) for _ in range(terms)})


def _sym(rng, d, n, M, terms=3):
    return SymElement(d, n, M, {_key(rng, d, n, M): _coeff(rng) for _ in range(terms)})


def _incfn(rng, domain, codomain):
    return IncFn(domain, codomain, tuple(sorted(rng.sample(range(1, codomain + 1), domain))))


def _shapes(seed, count, max_n=4):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, max_n)


def _cancelling(d, n):
    """(a (x) b - b (x) a) (x) a...: nonzero, with a zero projection (M = 2)."""
    a, b = tuple(range(1, d + 1)), tuple(range(d + 1, 2 * d + 1))
    rest = (a,) * (n - 2)
    return Element(d, n, 2, {(a, b) + rest: Fraction(3, 7), (b, a) + rest: Fraction(-3, 7)})


def assert_canonical(terms):
    for v in terms.values():
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1), repr(v)
        assert v, "zero coefficient stored"


def assert_same(element, reference):
    assert element.terms == reference
    assert_canonical(element.terms)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_tensor_products_match_reference(seed):
    for rng, M, d, e, n in _shapes(seed, 12, max_n=3):
        m = rng.randint(0, 2)
        f, f2, h2 = _tensor(rng, d, n, M), _tensor(rng, d, n, M), _tensor(rng, d, m, M)
        h = _tensor(rng, e, n, M)
        g = _incfn(rng, M * d, M * (d + e))
        assert_same(star_product(f, h, g), ref_star(f.terms, h.terms, n, g))
        split = Split(n + m, tuple(sorted(rng.sample(range(1, n + m + 1), n))))
        assert_same(shuffle_product(f2, h2, split),
                    ref_shuffle(f2.terms, h2.terms, n, m, split.left))
        pf, ph = pi(f2), pi(h2)
        assert_same(invariant_shuffle(pf, ph), ref_invariant_shuffle(pf.terms, ph.terms, n, m))


@pytest.mark.parametrize("seed", range(6))
def test_symmetric_products_match_reference(seed):
    for rng, M, d, e, n in _shapes(seed, 12, max_n=3):
        x, w = _sym(rng, d, n, M), _sym(rng, e, n, M)
        g = _incfn(rng, M * d, M * (d + e))
        assert_same(sym_star(x, w, g), ref_sym_star(x.terms, w.terms, n, g))
        v = _sym(rng, d, rng.randint(0, 2), M)
        assert_same(sym_shuffle(x, v), ref_sym_shuffle(x.terms, v.terms))
        xi, vi = x.scale(factorial(7)), v.scale(factorial(7))
        assert_same(sym_shuffle(xi, vi), ref_sym_shuffle(xi.terms, vi.terms))


def test_star_products_of_terms_that_repeat_factors_match_reference():
    # every term of f shares its factors with the others, and so does every
    # term of h, so each (f-factor, h-factor) merge is met by many term
    # pairs; (1, 2) against (2,)-relabelled factors also meets zero merges
    M, d, e, n = 2, 2, 1, 3
    fac = [(1, 2), (1, 3), (2, 4), (3, 4)]
    rng = random.Random(5)
    f = Element(d, n, M, {tuple(rng.choice(fac) for _ in range(n)): Fraction(rng.choice([1, 3]), 2)
                          for _ in range(12)})
    h = Element(e, n, M, {tuple(rng.choice([(1,), (2,)]) for _ in range(n)):
                          Fraction(rng.choice([-1, 1]), rng.choice([1, 2, 3])) for _ in range(6)})
    for image in [(1, 2, 3, 4), (1, 2, 4, 5), (2, 3, 5, 6), (1, 3, 5, 6)]:
        g = IncFn(M * d, M * (d + e), image)
        assert_same(star_product(f, h, g), ref_star(f.terms, h.terms, n, g))
        x, w = SymElement(d, n, M, f.terms), SymElement(e, n, M, h.terms)
        assert_same(sym_star(x, w, g), ref_sym_star(x.terms, w.terms, n, g))
    # halves times twos come back as ints, beside the products that stay halves
    g = IncFn(4, 6, (1, 2, 3, 4))
    halves = Element(d, n, M, {((1, 2), (3, 4), (1, 2)): Fraction(1, 2),
                               ((1, 2), (3, 4), (1, 3)): Fraction(1, 2)})
    mixed = Element(e, n, M, {((1,), (2,), (1,)): 2, ((1,), (2,), (2,)): 1})
    got = star_product(halves, mixed, g)
    assert_same(got, ref_star(halves.terms, mixed.terms, n, g))
    assert {type(v) for v in got.terms.values()} == {int, Fraction}


def test_products_of_zero_and_cancelling_inputs():
    f = _cancelling(1, 2)
    zero = Element(1, 2, 2)
    g = IncFn(2, 4, (1, 3))
    h = Element(1, 2, 2, {((1,), (2,)): Fraction(1, 2), ((2,), (2,)): Fraction(5, 3)})
    assert star_product(zero, h, g).is_zero() and star_product(h, zero, g).is_zero()
    assert shuffle_product(zero, h, Split(4, (1, 2))).is_zero()
    assert invariant_shuffle(zero, pi(h)).is_zero()
    # f is nonzero but its projection cancels, so every invariant product does
    assert f and pi(f).is_zero()
    assert invariant_shuffle(pi(f), pi(h)).is_zero()
    assert star_product(pi(f), h, g).is_zero()
    assert sym_star(SymElement(1, 2, 2), SymElement(1, 2, 2, {((1,), (2,)): 2}), g).is_zero()


# ---------------------------------------------------------------------------
# symmetry maps and comultiplications
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_maps_match_reference(seed):
    for rng, M, d, _, n in _shapes(seed, 12):
        f = _tensor(rng, d, n, M)
        assert_same(pi(f), ref_pi(f.terms, n))
        assert_same(pi_prime(f), ref_pi_prime(f.terms, n))
        y = _sym(rng, d, n, M)
        ty = to_invariant(y)
        assert_same(ty, ref_pi(y.terms, n))
        assert_same(from_invariant(ty), ref_from_invariant(ty.terms))
        assert from_invariant(ty) == y


@pytest.mark.parametrize("seed", range(6))
def test_comultiplications_match_reference(seed):
    for rng, M, d, _, n in _shapes(seed, 10):
        y = _sym(rng, d, n, M)
        assert_same(delta_sym(y), ref_delta(y.terms, n, True))
        f = _tensor(rng, d, n, M)
        assert_same(delta_tensor(f), ref_delta(f.terms, n, False))
        inv = pi(f)
        assert_same(delta_invariant(inv), ref_delta_invariant(inv.terms, n))


def test_maps_of_zero_and_cancelling_inputs():
    zero = Element(2, 3, 2)
    for fn in (pi, pi_prime, from_invariant):
        assert fn(zero).is_zero()
    for fn in (delta_tensor, delta_invariant):
        assert fn(zero).terms == {}
    assert delta_sym(SymElement(2, 3, 2)).terms == {}
    f = _cancelling(2, 3)
    assert pi(f).is_zero() and pi_prime(f).is_zero()
    # halves that add up to integers come back as ints
    halves = Element(1, 2, 2, {((1,), (2,)): Fraction(1, 2), ((2,), (1,)): Fraction(1, 2)})
    assert_same(pi_prime(halves), {((1,), (2,)): 1, ((2,), (1,)): 1})
    assert_same(from_invariant(halves), {((1,), (2,)): 1})
    assert_same(delta_tensor(halves), ref_delta(halves.terms, 2, False))
    assert_same(delta_invariant(halves), ref_delta_invariant(halves.terms, 2))


# ---------------------------------------------------------------------------
# pair products and pair maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_pair_products_match_reference(seed):
    for rng, M, d, e, n in _shapes(seed, 6, max_n=3):
        n = max(n, 1)
        m = rng.randint(1, 2)
        g = _incfn(rng, M * d, M * (d + e))
        x, w = _sym(rng, d, n, M, 2), _sym(rng, e, n, M, 2)
        dx, dw = delta_sym(x), delta_sym(w)
        ref = ref_pair_product(dx.terms, dw.terms, lambda a, b: (
            ref_sym_star({a: 1}, {b: 1}, len(a), g) if len(a) == len(b) else None))
        assert_same(pair_star(dx, dw, g), ref)
        y, v = _sym(rng, d, n, M, 2), _sym(rng, d, m, M, 2)
        dy, dv = delta_sym(y), delta_sym(v)
        ref = ref_pair_product(dy.terms, dv.terms, lambda a, b: ref_sym_shuffle({a: 1}, {b: 1}))
        assert_same(pair_shuffle(dy, dv), ref)
        xi, wi = delta_invariant(pi(_tensor(rng, d, n, M, 2))), delta_invariant(
            pi(_tensor(rng, e, n, M, 2)))
        ref = ref_pair_product(xi.terms, wi.terms, lambda a, b: (
            ref_star({a: 1}, {b: 1}, len(a), g) if len(a) == len(b) else None))
        assert_same(pair_star_invariant(xi, wi, g), ref)
        yi, vi = delta_invariant(pi(_tensor(rng, d, n, M, 2))), delta_invariant(
            pi(_tensor(rng, d, m, M, 2)))
        ref = ref_pair_product(yi.terms, vi.terms, lambda a, b: ref_invariant_shuffle(
            {a: 1}, {b: 1}, len(a), len(b)))
        assert_same(pair_shuffle_invariant(yi, vi), ref)
        ref = ref_pair_map(dy.terms, lambda k: ref_pi({k: 1}, len(k)))
        assert_same(pair_map(dy, to_invariant, symmetric_out=False), ref)


def _repeating(cls, rng, d, n, M, terms=2):
    """An element whose keys draw their factors from two, so factors repeat."""
    factors = [tuple(sorted(rng.sample(range(1, M * d + 1), d))) for _ in range(2)]
    return cls(d, n, M, {tuple(rng.choice(factors) for _ in range(n)): _coeff(rng)
                         for _ in range(terms)})


@pytest.mark.parametrize("M, d, e", [(1, 2, 2), (2, 1, 2), (2, 2, 1), (3, 1, 1), (3, 2, 2)])
def test_pair_products_at_four_slots_with_repeated_factors_match_reference(M, d, e):
    # the algebra benchmark's largest shapes: x has 4 slots, and its
    # comultiplication meets the same sub-monomial in many components
    rng = random.Random(100 * M + 10 * d + e)
    n, m = 4, 2
    g = _incfn(rng, M * d, M * (d + e))
    dx = delta_sym(_repeating(SymElement, rng, d, n, M))
    dw = delta_sym(_repeating(SymElement, rng, e, n, M))
    assert_same(pair_star(dx, dw, g), ref_pair_product(dx.terms, dw.terms, lambda a, b: (
        ref_sym_star({a: 1}, {b: 1}, len(a), g) if len(a) == len(b) else None)))
    dy = delta_sym(_repeating(SymElement, rng, d, n, M))
    dv = delta_sym(_repeating(SymElement, rng, d, m, M))
    assert_same(pair_shuffle(dy, dv), ref_pair_product(
        dy.terms, dv.terms, lambda a, b: ref_sym_shuffle({a: 1}, {b: 1})))
    xi = delta_invariant(pi(_repeating(Element, rng, d, n, M)))
    wi = delta_invariant(pi(_repeating(Element, rng, e, n, M)))
    assert_same(pair_star_invariant(xi, wi, g), ref_pair_product(xi.terms, wi.terms, lambda a, b: (
        ref_star({a: 1}, {b: 1}, len(a), g) if len(a) == len(b) else None)))
    yi = delta_invariant(pi(_repeating(Element, rng, d, n, M)))
    vi = delta_invariant(pi(_repeating(Element, rng, d, m, M)))
    assert_same(pair_shuffle_invariant(yi, vi), ref_pair_product(
        yi.terms, vi.terms, lambda a, b: ref_invariant_shuffle({a: 1}, {b: 1}, len(a), len(b))))
    assert_same(pair_map(dy, to_invariant, symmetric_out=False),
                ref_pair_map(dy.terms, lambda k: ref_pi({k: 1}, len(k))))


def test_pair_star_multiplies_keys_without_an_element_per_sub_monomial(monkeypatch):
    # the work-count guard of the pair products: one complement per call,
    # and no one-term element built for a pair of sub-monomials
    rng = random.Random(7)
    M, d, e, n = 2, 2, 1, 4
    facs = [(1, 2), (1, 3), (2, 4), (3, 4)]
    x = SymElement(d, n, M, {tuple(rng.choice(facs) for _ in range(n)): 1 for _ in range(2)})
    w = SymElement(e, n, M, {tuple(rng.choice([(1,), (2,)]) for _ in range(n)): 1
                             for _ in range(2)})
    dx, dw = delta_sym(x), delta_sym(w)
    g = IncFn(M * d, M * (d + e), (1, 2, 4, 5))
    counts = {"SymElement": 0, "complement": 0}
    init, complement = SymElement.__init__, IncFn.complement

    def counting_init(self, *args, **kwargs):
        counts["SymElement"] += 1
        init(self, *args, **kwargs)

    def counting_complement(self):
        counts["complement"] += 1
        return complement(self)

    monkeypatch.setattr(SymElement, "__init__", counting_init)
    monkeypatch.setattr(IncFn, "complement", counting_complement)
    got = pair_star(dx, dw, g)
    assert counts == {"SymElement": 0, "complement": 1}
    monkeypatch.undo()
    assert_same(got, ref_pair_product(dx.terms, dw.terms, lambda a, b: (
        ref_sym_star({a: 1}, {b: 1}, len(a), g) if len(a) == len(b) else None)))


@pytest.mark.parametrize("symmetric", [True, False])
def test_pair_star_checks_its_injection_and_totals_before_any_term(symmetric):
    # x has two slots and w1 one, both of width 1 at M = 2: no slot-matched
    # components meet, so a late check would return an empty element
    if symmetric:
        mono, comult, product, element_product = sym_monomial, delta_sym, pair_star, sym_star
    else:
        mono, product, element_product = monomial, pair_star_invariant, star_product

        def comult(f):
            return delta_invariant(pi(f))
    two, one = mono(1, 2, 2, [(1,), (2,)]), mono(1, 1, 2, [(2,)])
    x, w1, w2 = comult(two), comult(one), comult(mono(1, 2, 2, [(2,), (2,)]))
    fits, too_wide = IncFn(2, 4, (1, 3)), IncFn(3, 7, (1, 2, 5))
    with pytest.raises(ValueError, match="shape mismatch"):
        element_product(two, one, fits)
    for w, g in [(w1, fits), (w1, too_wide), (w2, too_wide)]:
        with pytest.raises(ValueError):
            product(x, w, g)
        with pytest.raises(ValueError):
            product(x, PairElement(1, 2, w.total, symmetric), g)
    # the two totals alone, and the injection alone
    with pytest.raises(ValueError, match="shape mismatch"):
        product(x, w1, fits)
    with pytest.raises(ValueError, match="does not fit"):
        product(x, w2, too_wide)
    assert product(x, w2, fits).terms


def test_pair_star_of_components_with_no_matching_slot_counts_is_zero():
    # x's left sides hold 0 or 2 slots, y's hold 1: no component pair matches
    a, b = ((1,), (2,)), ((2,), (2,))
    xs = PairElement(1, 2, 2, True, {(a, ()): Fraction(1, 2), ((), b): 3})
    ys = PairElement(1, 2, 2, True, {(((1,),), ((2,),)): Fraction(2, 3)})
    xt = PairElement(1, 2, 2, False, {(b, ()): Fraction(1, 2), ((), a[::-1]): 3})
    yt = PairElement(1, 2, 2, False, {(((1,),), ((1,),)): Fraction(2, 3)})
    g = IncFn(2, 4, (1, 3))
    for got in (pair_star(xs, ys, g), pair_star(ys, xs, g)):
        assert got.terms == ref_pair_product(xs.terms, ys.terms, lambda a, b: (
            ref_sym_star({a: 1}, {b: 1}, len(a), g) if len(a) == len(b) else None)) == {}
        assert (got.d, got.M, got.total, got.symmetric) == (2, 2, 2, True)
    for got in (pair_star_invariant(xt, yt, g), pair_star_invariant(yt, xt, g)):
        assert got.terms == ref_pair_product(xt.terms, yt.terms, lambda a, b: (
            ref_star({a: 1}, {b: 1}, len(a), g) if len(a) == len(b) else None)) == {}
        assert (got.d, got.M, got.total, got.symmetric) == (2, 2, 2, False)
    # one matching component among the unmatched ones still multiplies
    xs.terms[(((2,),), ((1,),))] = 5
    assert_same(pair_star(xs, ys, g), ref_pair_product(xs.terms, ys.terms, lambda a, b: (
        ref_sym_star({a: 1}, {b: 1}, len(a), g) if len(a) == len(b) else None)))


def test_pair_products_of_zero():
    empty = PairElement(1, 2, 2, True)
    full = delta_sym(SymElement(1, 2, 2, {((1,), (2,)): Fraction(2, 3)}))
    g = IncFn(2, 4, (1, 2))
    assert pair_star(empty, full, g).terms == {} and pair_shuffle(full, empty).terms == {}
    assert pair_map(empty, to_invariant, symmetric_out=False).terms == {}


# ---------------------------------------------------------------------------
# slot invariance is a lookup, checked against the permute_slots definition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_is_sym_invariant_matches_permute_slots(seed):
    for rng, M, d, _, n in _shapes(seed, 10):
        n = max(n, 2)
        inv = pi(_tensor(rng, d, n, M))
        assert is_sym_invariant(inv) and ref_is_sym_invariant(inv)
        keys = [k for k in inv.terms if len(set(k)) > 1]
        if not keys:
            continue
        # one coefficient perturbed
        perturbed = dict(inv.terms)
        key = rng.choice(keys)
        perturbed[key] += Fraction(1, 7)
        bad = Element(d, n, M, perturbed)
        assert not is_sym_invariant(bad) and not ref_is_sym_invariant(bad)
        # one swapped key missing
        missing = dict(inv.terms)
        del missing[key]
        bad = Element(d, n, M, missing)
        assert not is_sym_invariant(bad) and not ref_is_sym_invariant(bad)


def test_invariance_compares_equal_values_held_by_distinct_objects():
    keys = list(permutations(((1,), (2,), (3,))))
    # equal coefficients, each its own Fraction object
    f = Element(1, 3, 3, {k: Fraction(2, 3) for k in keys})
    assert len({id(v) for v in f.terms.values()}) == len(keys)
    assert is_sym_invariant(f) and ref_is_sym_invariant(f)
    # one coefficient that differs by value only in its sign
    g = Element(1, 3, 3, {k: Fraction(2, 3) for k in keys})
    g.terms[keys[3]] = Fraction(-2, 3)
    assert not is_sym_invariant(g) and not ref_is_sym_invariant(g)
    # the library's own outputs share one object per distinct value
    inv = pi(Element(1, 3, 3, {keys[0]: Fraction(1, 5)}))
    assert len({id(v) for v in inv.terms.values()}) == 1 and is_sym_invariant(inv)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("odd_slot", ["first", "last"])
def test_invariance_checks_every_swap_position(n, odd_slot):
    # only the swap next to the odd slot moves the key, so each end
    # position of the adjacent swaps is the only one that sees it
    ones = ((1,),) * (n - 1)
    key = ((2,),) + ones if odd_slot == "first" else ones + ((2,),)
    f = Element(1, n, 2, {key: Fraction(2, 3)})
    assert not is_sym_invariant(f) and not ref_is_sym_invariant(f)


# ---------------------------------------------------------------------------
# constructors and the shared numerator helpers
# ---------------------------------------------------------------------------

def test_constructors_store_canonical_coefficients():
    key = ((1,), (2,))
    assert type(Element(1, 2, 2, {key: Fraction(2, 1)}).terms[key]) is int
    assert type(Element(1, 2, 2, {key: 2.0}).terms[key]) is int
    assert Element(1, 2, 2, {key: 0.5}).terms[key] == Fraction(1, 2)
    assert type(monomial(1, 2, 2, [(1,), (2,)]).terms[key]) is int
    assert type(sym_monomial(1, 2, 2, [(2,), (1,)], Fraction(4, 2)).terms[key]) is int
    halves = {"bidegree": [1, 2, 2], "terms": [
        {"coeff": "1/2", "monomial": [[1], [2]]}, {"coeff": "1/2", "monomial": [[1], [2]]}]}
    assert element_from_dict(halves).terms == {key: 1}
    assert type(element_from_dict(halves).terms[key]) is int
    # a sum that integralises inside the validating constructor
    sym = SymElement(1, 2, 2, {((1,), (2,)): Fraction(1, 2), ((2,), (1,)): Fraction(1, 2)})
    assert_same(sym, {key: 1})
    f = Element(1, 2, 2, {key: Fraction(1, 2), ((2,), (1,)): Fraction(3, 4)})
    assert_same(f.scale(2), {key: 1, ((2,), (1,)): Fraction(3, 2)})
    assert_same(f.scale(Fraction(4, 3)), {key: Fraction(2, 3), ((2,), (1,)): 1})
    assert_same(f + f, {key: 1, ((2,), (1,)): Fraction(3, 2)})
    assert_same(permute_slots(f, [1, 0]), {((2,), (1,)): Fraction(1, 2), key: Fraction(3, 4)})
    assert PairElement(1, 2, 2, True, {(key, ()): Fraction(6, 3)}).terms == {(key, ()): 2}
    assert type(PairElement(1, 2, 2, True, {(key, ()): Fraction(6, 3)}).terms[(key, ())]) is int


def test_numerator_round_trip():
    terms = {"a": Fraction(1, 6), "b": 2, "c": Fraction(-3, 4)}
    nums, den = to_numerators(terms)
    assert den == 12 and nums == {"a": 2, "b": 24, "c": -9}
    assert from_numerators(nums, den) == terms
    assert to_numerators({"a": 3}) == ({"a": 3}, 1)
    back = from_numerators({"a": 4, "b": 0, "c": 3}, 2)
    assert back == {"a": 2, "c": Fraction(3, 2)} and type(back["a"]) is int
    # each distinct numerator is divided once, and its quotient is shared
    shared = from_numerators({"a": 3, "b": 6, "c": 3, "d": 6, "e": -3}, 6)
    assert shared == {"a": Fraction(1, 2), "b": 1, "c": Fraction(1, 2), "d": 1,
                      "e": Fraction(-1, 2)}
    assert shared["a"] is shared["c"] and shared["b"] is shared["d"]
    assert_canonical(shared)

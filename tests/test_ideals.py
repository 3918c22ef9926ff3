import base64
import hashlib
import json
import random
import struct
from bisect import bisect_right
from math import gcd

import pytest
from fractions import Fraction

from shufflestar.core import (SymElement, element_to_dict, iter_factors, iter_sym_keys, sym_monomial,
                             to_numerators)
from shufflestar.ideals import (
    ComponentBasis,
    DiIdeal,
    _INDEX_ARRAYS,
    _pack,
    _unpack,
    component_span,
    initial_component,
    membership,
    monomial_space,
    quotient_basis,
)
from shufflestar.plucker import basic_plucker, plucker_ideal
from shufflestar.poset import leading_term
from shufflestar.products import star_incfns, sym_shuffle, sym_star


@pytest.fixture(scope="module")
def klein():
    return DiIdeal(2, [basic_plucker(1)])


def test_empty_component(klein):
    assert component_span(klein, (1, 1)) == []
    assert klein.component(2, 1).dim == 0


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
    assert len(initial_component(klein, (2, 3))) == klein.component(2, 3).dim
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
    _assert_same_basis(klein.component(2, 3), _raw_elimination(klein, 2, 3))


def _raw_elimination(I, d, n):
    """The (d, n) component by eliminating `raw_spanning_rows`, which build
    every row through `sym_star` and `sym_shuffle`, independently of the climb."""
    raw = ComponentBasis(d, n, I.M)
    for row in I.raw_spanning_rows(d, n):
        raw.add(row)
    return raw


def _assert_same_basis(comp, raw):
    assert comp.basis.pivot_columns() == raw.basis.pivot_columns()
    assert comp.basis.basis_rows() == raw.basis.basis_rows()


def _fraction_ideal(cache_dir=None):
    # a width-1 generator in tensor degree 3, whose stars enter the width-2
    # climb at (2, 3), and a width-2 one in tensor degree 2
    M = 2
    g1 = SymElement(1, 3, M, {((1,), (2,), (2,)): Fraction(1, 2),
                              ((1,), (1,), (2,)): Fraction(-2, 3)})
    g2 = SymElement(2, 2, M, {((1, 2), (3, 4)): Fraction(3, 5),
                              ((1, 3), (2, 4)): Fraction(-1, 7),
                              ((1, 4), (2, 3)): 1})
    return DiIdeal(M, [g1, g2], cache_dir=cache_dir)


@pytest.mark.parametrize("M,max_d,d,n", [(3, 2, 2, 3), (3, 2, 2, 4), (3, 2, 2, 5),
                                         (2, 3, 3, 3)],
                         ids=["gr26-2-3", "gr26-2-4", "gr26-2-5", "gr36-3-3"])
def test_plucker_climb_equals_raw_elimination(M, max_d, d, n):
    I = plucker_ideal(M, max_d)
    _assert_same_basis(I.component(d, n), _raw_elimination(I, d, n))


def test_fraction_climb_with_stars_equals_raw_elimination():
    I = _fraction_ideal()
    for n, dim in ((2, 1), (3, 27), (4, 108)):
        comp = I.component(2, n)
        assert comp.dim == dim
        _assert_same_basis(comp, _raw_elimination(I, 2, n))
    # the 6 variable multiples of the one (2, 2) row cannot span (2, 3):
    # the stars of the width-1 generator give the rest
    assert I.component(2, 3).dim > 6 * I.component(2, 2).dim
    assert any(type(v) is Fraction
               for row in I.component(2, 3).basis.basis_rows() for v in row.values())


@pytest.mark.parametrize("ideal,d,n", [
    (lambda: plucker_ideal(2, 3), 3, 2),
    (_fraction_ideal, 2, 3),
    # each star row of these generators has a common factor, 3 or 6, to divide out
    (lambda: DiIdeal(2, [g.scale(6) for g in plucker_ideal(2, 3).generators]), 3, 2),
], ids=["gr36-3-2", "fractions-2-3", "common-factor-3-2"])
def test_star_rows_are_primitive_integer_vectors(ideal, d, n):
    rows = list(ideal()._star_rows(d, n))
    assert rows
    for row in rows:
        assert all(type(v) is int for v in row.terms.values())
        assert gcd(*row.terms.values()) == 1


def _random_generators(seed, d, n, M, count):
    rng = random.Random(seed)
    keys = list(iter_sym_keys(d, n, M))
    return [SymElement(d, n, M, {k: Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))
                                 for k in rng.sample(keys, min(len(keys), rng.randint(1, 5)))})
            for _ in range(count)]


@pytest.mark.parametrize("gens,d,n", [
    (lambda: plucker_ideal(3, 2).generators, 2, 2),
    (lambda: [g for g in plucker_ideal(2, 3).generators if g.d == 3], 3, 2),
    (lambda: _random_generators(1, 1, 3, 3, 4), 1, 3),
    (lambda: _random_generators(2, 2, 2, 3, 6), 2, 2),
    (lambda: _random_generators(3, 2, 4, 2, 5), 2, 4),
    (lambda: _random_generators(4, 3, 3, 2, 3), 3, 3),
], ids=["gr26-2-2", "gr36-3-2", "random-1-3", "random-2-2", "random-2-4", "random-3-3"])
def test_a_generator_of_full_width_is_its_own_star_row(gens, d, n):
    # every generator has width d, so each star row is read off the
    # generator; it must be its one star product through `sym_star`, with
    # the width-0 unit along the identity, scaled to a primitive integer vector
    gens = gens()
    M = gens[0].M
    unit = SymElement(0, n, M, {((),) * n: 1})
    (identity,) = star_incfns(d, 0, M)
    want = []
    for f in gens:
        nums, _ = to_numerators(sym_star(f, unit, identity).terms)
        common = gcd(*nums.values())
        want.append(SymElement(d, n, M, {k: v // common for k, v in nums.items()}))
    assert list(DiIdeal(M, gens)._star_rows(d, n)) == want


def test_climb_from_a_cached_component_equals_raw_elimination(tmp_path):
    _fraction_ideal(cache_dir=tmp_path).component(2, 3)
    I = _fraction_ideal(cache_dir=tmp_path)
    comp = I.component(2, 4)
    # (2, 4) was climbed from the (2, 3) rows adopted from the other ideal's file
    assert I.cache_stats == {"hits": 1, "misses": 1, "rejects": {}}
    _assert_same_basis(comp, _raw_elimination(I, 2, 4))


@pytest.mark.parametrize("M,max_d,d,n", [(3, 2, 2, 5), (2, 3, 3, 3), (3, 2, 2, 2)],
                         ids=["gr26-2-5", "gr36-3-3", "gr26-2-2-stars"])
def test_weight_blocks_equal_the_full_component_at_every_weight(tmp_path, M, max_d, d, n):
    from shufflestar.weights import weight
    N = M * d
    full = plucker_ideal(M, max_d).component(d, n)
    by_weight = {}
    for row in full.basis.basis_rows():
        ws = {weight(full.monomials[c], N) for c in row}
        assert len(ws) == 1
        by_weight.setdefault(ws.pop(), []).append(row)
    weights = {weight(key, N) for key in full.monomials}
    climbed = plucker_ideal(M, max_d, cache_dir=tmp_path)
    assert climbed.permutation_stable(d, n)
    union = []
    for w in weights:
        # every weight, dominant or not: climbed alone, then grouped
        block = climbed.weight_block(d, n, w)
        assert block.basis.basis_rows() == by_weight.get(w, [])
        assert full.weight_rows().get(w, []) == by_weight.get(w, [])
        union.extend(block.basis.basis_rows())
    assert sorted(union, key=min) == full.basis.basis_rows()
    # the blocks never built the component, and never touched the disk for it
    assert (d, n) not in climbed._components
    assert not list(tmp_path.glob(f"component_M{M}_d{d}_n{n}_*.json"))


def test_weight_block_refuses_an_ideal_not_certified_below():
    # x12^2 is not S_4-stable, so C_(2,2) is not certified and its rows
    # cannot be grouped by pivot weight into the blocks of C_(2,3)
    square = DiIdeal(2, [sym_monomial(2, 2, 2, [(1, 2), (1, 2)])])
    assert not square.permutation_stable(2, 2)
    with pytest.raises(ValueError, match="not certified"):
        square.weight_block(2, 3, (2, 2, 1, 1))


def test_monomial_space_is_shared_and_sorted():
    keys, index = monomial_space(2, 3, 2)
    assert monomial_space(2, 3, 2) is monomial_space(2, 3, 2)
    assert type(keys) is tuple
    assert keys == tuple(sorted(iter_sym_keys(2, 3, 2), reverse=True))
    assert index == {key: i for i, key in enumerate(keys)}
    comp = ComponentBasis(2, 3, 2)
    assert comp.monomials is keys and comp.index is index


def test_components_sharing_a_space_stay_independent():
    a = DiIdeal(2, [basic_plucker(1)]).component(2, 3)
    b = DiIdeal(2, [basic_plucker(1)]).component(2, 3)
    assert a.monomials is b.monomials and a is not b
    rows = [dict(row) for row in b.basis.basis_rows()]
    square = sym_monomial(2, 3, 2, [(1, 2), (1, 2), (1, 2)])
    assert a.add(square) and a.dim == b.dim + 1
    assert b.basis.basis_rows() == rows and not b.contains(square)


def test_generator_validation():
    with pytest.raises(ValueError):
        DiIdeal(2, [sym_monomial(2, 2, 3, [(1, 2), (3, 4)])])
    with pytest.raises(ValueError):
        DiIdeal(2, [SymElement(2, 0, 2, {(): Fraction(1)})])


def test_disk_cache_round_trip(tmp_path):
    I1 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    dim = I1.component(2, 3).dim
    files = list(tmp_path.glob("component_*.json"))
    assert files
    # a second ideal object reuses the files
    I2 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    assert I2.component(2, 3).dim == dim
    # cache coherence: recomputing without the cache gives the same space
    I3 = DiIdeal(2, [basic_plucker(1)])
    a = I3.component(2, 3)
    b = I2.component(2, 3)
    assert a.dim == b.dim
    for el in a.basis_elements():
        assert b.contains(el)


def test_disk_cache_tamper_detection(tmp_path):
    I1 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    dim = I1.component(2, 2).dim
    path = I1._cache_path(2, 2)
    data = json.loads(path.read_text())
    data["dim"] = 99
    path.write_text(json.dumps(data))
    I2 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    assert I2.component(2, 2).dim == dim
    path.write_text("{not json")
    I3 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    assert I3.component(2, 2).dim == dim


def test_cache_distinguishes_generators(tmp_path):
    I1 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    I2 = DiIdeal(2, [basic_plucker(1).scale(2)], cache_dir=tmp_path)
    assert I1.gen_hash != I2.gen_hash
    assert I1.component(2, 2).dim == I2.component(2, 2).dim == 1


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


def test_cached_fraction_entries_round_trip(tmp_path):
    # two generators with different coefficient ratios give reduced rows
    # with non-integral entries
    x = lambda i: sym_monomial(1, 1, 3, [(i,)])
    gens = [x(2).scale(2) + x(1).scale(3), x(3).scale(3) + x(1).scale(5)]
    I1 = DiIdeal(3, gens, cache_dir=tmp_path)
    rows = I1.component(1, 2).basis.basis_rows()
    assert any(type(v) is Fraction for row in rows for v in row.values())
    # (1, 2), (1, 1) and (1, 0) were computed and stored
    assert I1.cache_stats == {"hits": 0, "misses": 3, "rejects": {}}
    I2 = DiIdeal(3, gens, cache_dir=tmp_path)
    loaded = I2.component(1, 2)
    assert I2.cache_stats == {"hits": 1, "misses": 0, "rejects": {}}
    assert loaded.basis.basis_rows() == rows
    assert loaded.basis.pivots == {c: i for i, c in enumerate(sorted(loaded.basis.pivots))}
    fresh = DiIdeal(3, gens).component(1, 2)
    for el in fresh.basis_elements():
        assert loaded.contains(el)
    for f in [sym_monomial(1, 2, 3, [(1,), (2,)]), sym_monomial(1, 2, 3, [(3,), (3,)])]:
        assert loaded.reduce(f) == fresh.reduce(f)


def test_cache_read_parses_each_distinct_coefficient_once(tmp_path, monkeypatch):
    import shufflestar.ideals as ideals
    x = lambda i: sym_monomial(1, 1, 3, [(i,)])
    gens = [x(2).scale(2) + x(1).scale(3), x(3).scale(3) + x(1).scale(5)]
    rows = DiIdeal(3, gens, cache_dir=tmp_path).component(1, 3).basis.basis_rows()
    path = DiIdeal(3, gens, cache_dir=tmp_path)._cache_path(1, 3)
    data = json.loads(path.read_text())
    stored = [data["coeffs"][v] for v in _unpack(data["vals"])]
    assert len(set(stored)) < len(stored) and sorted(set(stored)) == sorted(data["coeffs"])
    parsed = []
    real = ideals.coeff_from_str
    monkeypatch.setattr(ideals, "coeff_from_str", lambda s: parsed.append(s) or real(s))
    again = DiIdeal(3, gens, cache_dir=tmp_path)
    assert again.component(1, 3).basis.basis_rows() == rows
    assert again.cache_stats["hits"] == 1
    assert sorted(parsed) == sorted(set(stored))


def test_cache_write_formats_each_distinct_coefficient_once(tmp_path, monkeypatch):
    import shufflestar.ideals as ideals
    I = _fraction_ideal(cache_dir=tmp_path)
    comp = I.component(2, 3)
    values = [v for row in comp.basis.basis_rows() for v in row.values()]
    assert len(set(values)) < len(values)
    original = I._cache_path(2, 3).read_bytes()
    formatted = []
    real = ideals.coeff_to_str
    monkeypatch.setattr(ideals, "coeff_to_str", lambda v: formatted.append(v) or real(v))
    I._store_cached(comp)
    assert sorted(formatted) == sorted(set(values))
    assert I._cache_path(2, 3).read_bytes() == original


def _read_flat(path):
    """A cache file with its packed index arrays unpacked to lists."""
    data = json.loads(path.read_text())
    for key in _INDEX_ARRAYS:
        data[key] = _unpack(data[key]).tolist()
    return data


def _write_flat(path, data):
    """Pack the index lists of `_read_flat` again and write the file."""
    path.write_text(json.dumps({**data, **{key: _pack(data[key]) for key in _INDEX_ARRAYS}}))


def _unused_column(data, space_dim):
    used = set(data["cols"])
    return next(c for c in range(space_dim) if c not in used)


def _row(data, i):
    """The slice of the flat lists that holds row i."""
    ends = data["ends"]
    return slice(ends[i - 1] if i else 0, ends[i])


def _code(data, coeff):
    """The index of the coefficient string in the table, appended if new."""
    if coeff not in data["coeffs"]:
        data["coeffs"].append(coeff)
    return data["coeffs"].index(coeff)


def _set_row(data, i, cols, vals):
    at = _row(data, i)
    shift = len(cols) - (at.stop - at.start)
    data["cols"][at] = cols
    data["vals"][at] = vals
    data["ends"][i:] = [e + shift for e in data["ends"][i:]]


def _insert(data, i, col, coeff):
    """Put the entry (col, coeff) into row i, keeping its columns ascending."""
    at = _row(data, i)
    cols, vals = data["cols"][at], data["vals"][at]
    k = bisect_right(cols, col)
    _set_row(data, i, cols[:k] + [col] + cols[k:], vals[:k] + [_code(data, coeff)] + vals[k:])


def _swap(data, k):
    data["cols"][k:k + 2] = data["cols"][k + 1], data["cols"][k]


# each edit corrupts a stored (2, 3) component of the Klein quadric ideal,
# whose rows have three entries each
_CORRUPTIONS = {
    "non-unit pivot": lambda data, dim: data["vals"].__setitem__(0, _code(data, "2/1")),
    "repeated pivot": lambda data, dim: _set_row(
        data, 1, data["cols"][_row(data, 0)], data["vals"][_row(data, 0)]),
    "entry in pivot column": lambda data, dim: _insert(
        data, 0, data["cols"][_row(data, 1)][0], "1/1"),
    "zero entry": lambda data, dim: _insert(data, 0, _unused_column(data, dim), "0/1"),
    "dim mismatch": lambda data, dim: data.__setitem__("dim", data["dim"] + 1),
    "column out of range": lambda data, dim: _insert(data, 0, dim, "1/1"),
    "malformed": lambda data, dim: data["coeffs"].__setitem__(data["vals"][-1], "1/0"),
    "repeated column": lambda data, dim: _insert(data, 0, data["cols"][1], "1/1"),
    "zero row": lambda data, dim: data["ends"].insert(0, 0),
    # "2/2" reads as 1, but the writer writes "1/1"
    "non-canonical entry": lambda data, dim: data["vals"].__setitem__(1, _code(data, "2/2")),
    "unsorted columns": lambda data, dim: _swap(data, 1),
}


@pytest.mark.parametrize("reason", sorted(_CORRUPTIONS))
def test_corrupt_cache_file_is_recomputed(tmp_path, reason):
    I1 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    comp = I1.component(2, 3)
    path = I1._cache_path(2, 3)
    original = path.read_bytes()
    data = _read_flat(path)
    _CORRUPTIONS[reason](data, comp.space_dim)
    _write_flat(path, data)
    I2 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    again = I2.component(2, 3)
    assert I2.cache_stats == {"hits": 1, "misses": 0, "rejects": {reason: 1}}
    assert again.basis.basis_rows() == comp.basis.basis_rows()
    # the recomputed component replaces the corrupt file
    assert path.read_bytes() == original


@pytest.mark.parametrize("column", [-1, "space_dim"])
def test_cached_column_out_of_range_is_not_adopted(tmp_path, column):
    # a pivot column of -1 used to load as a wrong component: dim 1 with
    # pivot monomial x12^2 instead of x14*x23
    I1 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    comp = I1.component(2, 2)
    assert comp.pivot_monomials() == [((1, 4), (2, 3))]
    path = I1._cache_path(2, 2)
    data = _read_flat(path)
    # -1 as the file's unsigned 32-bit array reads it
    data["cols"][0] = comp.space_dim if column == "space_dim" else column % 2 ** 32
    _write_flat(path, data)
    I2 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    assert I2.component(2, 2).pivot_monomials() == [((1, 4), (2, 3))]
    assert I2.cache_stats["rejects"] == {"column out of range": 1}


def test_dimension_zero_components_round_trip(tmp_path):
    I1 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    assert I1.component(2, 1).dim == 0
    data = json.loads(I1._cache_path(2, 1).read_text())
    assert [data[key] for key in ("dim", "coeffs", "cols", "vals", "ends")] == \
        [0, [], ["B", ""], ["B", ""], ["B", ""]]
    I2 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    empty = I2.component(2, 1)
    assert I2.cache_stats == {"hits": 1, "misses": 0, "rejects": {}}
    assert empty.dim == 0 and len(empty.standard_monomials()) == empty.space_dim
    # the climb above it reads the adopted (empty) rows
    assert I2.component(2, 2).dim == 1


def _as_16_bit(field, extra=b""):
    """A packed index array as little-endian 16-bit items, then `extra` bytes."""
    values = _unpack(field)
    raw = struct.pack(f"<{len(values)}H", *values) + extra
    return ["H", base64.b64encode(raw).decode()]


# edits of the packed index data of a stored (2, 3) component, and the
# reject each gives: all but the control leave data that does not decode
_UNDECODABLE = {
    # a lenient decoder would skip the "!" and read the rest as it was
    "bad base64": (lambda data: data["cols"].__setitem__(1, "!" + data["cols"][1]),
                   "malformed"),
    "partial item": (lambda data: data.__setitem__("ends", _as_16_bit(data["ends"], b"\0")),
                     "malformed"),
    "signed typecode": (lambda data: data["vals"].__setitem__(0, "b"), "malformed"),
    # the control: a wider type than the writer picks still decodes
    "wider typecode": (lambda data: data.__setitem__("ends", _as_16_bit(data["ends"])), None),
}


@pytest.mark.parametrize("edit", sorted(_UNDECODABLE))
def test_index_data_that_does_not_decode_is_malformed(tmp_path, edit):
    I1 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    comp = I1.component(2, 3)
    path = I1._cache_path(2, 3)
    original = path.read_bytes()
    data = json.loads(original)
    assert [data[key][0] for key in _INDEX_ARRAYS] == ["B", "B", "B"]
    change, reason = _UNDECODABLE[edit]
    change(data)
    path.write_text(json.dumps(data))
    I2 = DiIdeal(2, [basic_plucker(1)], cache_dir=tmp_path)
    assert I2.component(2, 3).basis.basis_rows() == comp.basis.basis_rows()
    assert I2.cache_stats == {"hits": 1, "misses": 0,
                              "rejects": {reason: 1} if reason else {}}
    if reason:
        assert path.read_bytes() == original


def test_a_membership_query_builds_only_the_rows_it_reads(tmp_path):
    fresh = plucker_ideal(3, 2, cache_dir=tmp_path)
    rows = fresh.component(2, 5).basis.basis_rows()
    P = plucker_ideal(3, 2, cache_dir=tmp_path)
    comp = P.component(2, 5)
    assert P.cache_stats == {"hits": 1, "misses": 0, "rejects": {}}
    assert comp.dim == len(rows) == 6336 and comp.basis.rows == [None] * comp.dim
    # the quotient basis reads the pivots only
    assert quotient_basis(P, (2, 5)) == quotient_basis(fresh, (2, 5))
    assert comp.basis.rows == [None] * comp.dim
    x = lambda *facs: sym_monomial(2, 5, 3, list(facs))
    member = comp.element(rows[100]) + comp.element(rows[4000]).scale(Fraction(2, 3))
    outside = member + x(*[(5, 6)] * 5)
    assert P.membership(member) and not P.membership(outside)
    built = sum(row is not None for row in comp.basis.rows)
    assert 0 < built < comp.dim
    assert comp.basis.basis_rows() == rows


def test_old_layout_file_is_neither_read_nor_rejected(tmp_path):
    # files of the two layouts before this one, under the names they had
    # then: the hash of the generators and M, without a layout tag (the
    # nested-list layout) and with the tag of the flat-list layout
    gens = [basic_plucker(1)]
    dicts = [element_to_dict(g) for g in gens]
    old_hash, flat_hash = (
        hashlib.sha256(json.dumps(dicts + tail, sort_keys=True,
                                  separators=(",", ":")).encode()).hexdigest()[:16]
        for tail in ([2], [2, "flat-rows-1"]))
    old = tmp_path / f"component_M2_d2_n2_{old_hash}.json"
    old.write_text(json.dumps({"M": 2, "d": 2, "n": 2, "generator_hash": old_hash, "dim": 1,
                               "basis": [[[2, "1/1"], [5, "-1/1"], [9, "1/1"]]]}))
    flat = tmp_path / f"component_M2_d2_n2_{flat_hash}.json"
    flat.write_text(json.dumps({"M": 2, "d": 2, "n": 2, "generator_hash": flat_hash, "dim": 1,
                                "coeffs": ["1/1", "-1/1"], "cols": [2, 5, 9],
                                "vals": [0, 1, 0], "ends": [3]}))
    before = old.read_bytes(), flat.read_bytes()
    I = DiIdeal(2, gens, cache_dir=tmp_path)
    assert I.gen_hash not in (old_hash, flat_hash)
    assert I.component(2, 2).dim == 1
    assert I.cache_stats == {"hits": 0, "misses": 3, "rejects": {}}
    assert (old.read_bytes(), flat.read_bytes()) == before
    assert I._cache_path(2, 2).is_file() and I._cache_path(2, 2) not in (old, flat)

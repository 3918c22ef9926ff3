import base64
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from fractions import Fraction

from shufflestar.cli import main
from shufflestar.core import element_from_dict, element_to_dict, sym_monomial, monomial
from shufflestar.ideals import _pack, _unpack
from shufflestar.linalg import SparseRREF
from shufflestar.plucker import weyman_quadrics
from shufflestar.products import Split, invariant_shuffle, shuffle_product
from shufflestar.symmetry import from_invariant, to_invariant


@pytest.fixture()
def element_files(tmp_path):
    a = sym_monomial(2, 2, 2, [(1, 2), (3, 4)])
    b = sym_monomial(2, 2, 2, [(1, 2), (3, 4)])
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(json.dumps(element_to_dict(a)))
    pb.write_text(json.dumps(element_to_dict(b)))
    return pa, pb


def _run(args, out):
    code = main([*args, "--out", str(out)])
    return code, json.loads(out.read_text())


def test_star_command(element_files, tmp_path):
    pa, pb = element_files
    out = tmp_path / "r.json"
    code, rep = _run(["star", "--lhs", str(pa), "--rhs", str(pb), "--g", "1,2,3,4"], out)
    assert code == 0
    res = element_from_dict(rep["result"], symmetric=True)
    assert len(res.terms) == 2 and res.d == 4


def test_shuffle_and_pi_and_gi(element_files, tmp_path):
    pa, pb = element_files
    out = tmp_path / "r.json"
    code, rep = _run(["shuffle", "--lhs", str(pa), "--rhs", str(pb)], out)
    assert code == 0
    assert element_from_dict(rep["result"], symmetric=True).n == 4
    code, rep = _run(["gi", "--input", str(pa), "--direction", "to-tensor"], out)
    assert code == 0
    inv = element_from_dict(rep["result"])
    assert inv.terms[((1, 2), (3, 4))] == Fraction(1, 2)
    tens = tmp_path / "t.json"
    tens.write_text(json.dumps(element_to_dict(monomial(2, 2, 2, [(1, 2), (3, 4)]))))
    code, rep = _run(["pi", "--input", str(tens)], out)
    assert code == 0
    assert element_from_dict(rep["result"]).terms[((3, 4), (1, 2))] == Fraction(1, 2)


def test_delta_command(element_files, tmp_path):
    pa, _ = element_files
    out = tmp_path / "r.json"
    code, rep = _run(["delta", "--input", str(pa)], out)
    assert code == 0
    assert len(rep["result"]["terms"]) == 4


def test_divides_and_tree(tmp_path):
    s = monomial(2, 3, 2, [(1, 2), (2, 3), (1, 4)])
    t = monomial(3, 3, 2, [(1, 2, 3), (1, 3, 4), (2, 5, 6)])
    ps, pt = tmp_path / "s.json", tmp_path / "t.json"
    ps.write_text(json.dumps(element_to_dict(s)))
    pt.write_text(json.dumps(element_to_dict(t)))
    out = tmp_path / "r.json"
    code, rep = _run(["divides", "--lhs", str(ps), "--rhs", str(pt)], out)
    assert code == 0
    assert rep["result"] == {"comparable": True, "positions": [1, 2, 3],
                             "g_image": [2, 3, 4, 5]}
    code, rep = _run(["divides", "--lhs", str(pt), "--rhs", str(ps)], out)
    assert rep["result"] == {"comparable": False}
    code, rep = _run(["tree", str(ps)], out)
    assert code == 0
    assert rep["result"]["root"] == [0, 0, [4, 4, 4]]
    assert rep["result"]["vertices"][0][0] == [1, 1, [1, 0, 3]]


_INVARIANT = to_invariant(sym_monomial(2, 2, 2, [(1, 2), (3, 4)]))
_TWO_TERMS = monomial(2, 2, 2, [(1, 2), (3, 4)]) + monomial(2, 2, 2, [(1, 3), (2, 4)])
_WEYMAN_GR24 = {"d": 2, "N": 4, "M": 2,
                "weyman": [element_to_dict(q) for q in weyman_quadrics(2, 4)]}


@pytest.mark.parametrize("args, want", [
    (["shuffle", "--tensor", "--lhs", "{inv}", "--rhs", "{inv}"],
     lambda: element_to_dict(invariant_shuffle(_INVARIANT, _INVARIANT))),
    (["shuffle", "--tensor", "--split", "1,3", "--lhs", "{inv}", "--rhs", "{inv}"],
     lambda: element_to_dict(shuffle_product(_INVARIANT, _INVARIANT, Split(4, (1, 3))))),
    (["gi", "--direction", "to-sym", "--input", "{inv}"],
     lambda: element_to_dict(from_invariant(_INVARIANT))),
    (["plucker", "--d", "2", "--N", "4", "--weyman"], lambda: _WEYMAN_GR24),
    (["plucker", "--d", "2", "--N", "4"], lambda: _WEYMAN_GR24),
    # errors: (d, N) = (3, 6) has odd width; divides reads single monomials
    (["plucker", "--basic", "--d", "3"], "even width"),
    (["divides", "--lhs", "{two}", "--rhs", "{two}"], "exactly one monomial"),
])
def test_command_paths_report_what_the_library_returns(tmp_path, args, want):
    files = {"inv": tmp_path / "inv.json", "two": tmp_path / "two.json"}
    files["inv"].write_text(json.dumps(element_to_dict(_INVARIANT)))
    files["two"].write_text(json.dumps(element_to_dict(_TWO_TERMS)))
    code, rep = _run([a.format(**files) for a in args], tmp_path / "r.json")
    if isinstance(want, str):
        assert code == 2 and set(rep) == {"command", "config", "error"}
        assert want in rep["error"]
    else:
        assert code == 0 and rep["result"] == want()


@pytest.mark.parametrize("args", [
    ["plucker", "--d", "2", "--N", "4"],
    # the command fails too, and its error must not hide the first one
    ["secant", "--d", "2", "--N", "7", "--degree", "2", "--oracle"],
])
def test_unwritable_out_is_an_input_error_before_any_work(tmp_path, capsys, monkeypatch, args):
    from shufflestar import cli
    monkeypatch.setattr(cli, "weyman_quadrics", lambda *a: pytest.fail("the command ran"))
    out = tmp_path / "missing" / "x.json"
    assert main([*args, "--out", str(out)]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert set(rep) == {"command", "config", "error"}
    assert rep["command"] == args[0] and "x.json" in rep["error"]
    assert not out.parent.exists()


def test_plucker_and_join_commands(tmp_path):
    out = tmp_path / "r.json"
    code, rep = _run(["plucker", "--d", "2", "--N", "4", "--basic", "--oracle"], out)
    assert code == 0
    assert rep["result"]["oracle_dimension"] == 1
    assert len(rep["result"]["basic"]["terms"]) == 3
    code, rep = _run(["join", "--d", "2", "--N", "4", "--degree", "2"], out)
    assert code == 0
    assert rep["result"]["dimension"] == 0


def test_secant_command(tmp_path):
    out = tmp_path / "r.json"
    code, rep = _run(["secant", "--d", "2", "--N", "4", "--r", "0", "--degree", "2"], out)
    assert code == 0
    assert rep["result"]["dimension"] == 1
    code, rep = _run(["secant", "--d", "2", "--N", "4", "--r", "0",
                      "--degree", "2", "--oracle"], out)
    assert rep["result"]["dimension"] == 1


def test_probe_command_and_cache_env(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("PSA_CACHE_DIR", str(cache))
    out = tmp_path / "r.json"
    code, rep = _run(["probe", "--d", "2", "--r", "0", "--max-n", "2"], out)
    assert code == 0
    assert rep["result"]["largest_new_n"] == 2
    assert list(cache.glob("component_*.json"))


def test_verify_subset_and_determinism(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code1 = main(["verify", "--only", "gamma,census", "--out", str(out1)])
    code2 = main(["verify", "--only", "gamma,census", "--out", str(out2)])
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text())
    assert rep["result"]["passed"] is True
    assert [c["name"] for c in rep["result"]["checks"]] == ["census", "gamma"]


def test_verify_unknown_check(tmp_path):
    code, rep = _run(["verify", "--only", "nonsense"], tmp_path / "r.json")
    assert code == 2
    assert rep["command"] == "verify" and "nonsense" in rep["error"]
    assert "result" not in rep


def test_alphabet_not_a_multiple_of_the_width_is_an_input_error(tmp_path):
    code, rep = _run(["secant", "--d", "2", "--N", "7", "--degree", "2", "--oracle"],
                     tmp_path / "r.json")
    assert code == 2
    assert set(rep) == {"command", "config", "error"}
    assert rep["command"] == "secant" and rep["config"]["N"] == 7
    assert "N=7" in rep["error"]


def test_probe_input_errors_and_coefficient_abort_have_their_own_exit_codes(tmp_path):
    out = tmp_path / "r.json"
    code, rep = _run(["probe", "--d", "0", "--N", "4", "--max-n", "2"], out)
    assert code == 2
    assert set(rep) == {"command", "config", "error"} and "d=0" in rep["error"]
    # the probe aborts like every other command: no partial report
    code, rep = _run(["probe", "--d", "2", "--N", "6", "--r", "1", "--max-n", "4",
                      "--max-coeff-bits", "1"], out)
    assert code == 3 and rep["aborted"] == "coefficient-bits-exceeded"
    assert "result" not in rep
    # M is derived from d and N, never named
    with pytest.raises(SystemExit) as exc:
        main(["probe", "--d", "2", "--M", "3", "--max-n", "2", "--out", str(out)])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    ["secant", "--d", "2", "--degree", "-1"],
    ["join", "--d", "2", "--degree", "-1"],
    ["plucker", "--d", "2", "--oracle", "--degree", "-1"],
    ["probe", "--d", "2", "--max-n", "-1"],
    ["secant", "--d", "2", "--degree", "2", "--oracle", "--samples", "-3"],
    ["probe", "--d", "2", "--max-n", "2", "--max-coeff-bits", "-1"],
    # rejected before any work, so no worker process starts
    ["verify", "--only", "census", "--jobs", "0"],
])
def test_out_of_range_count_flag_is_an_input_error(tmp_path, args):
    flag, value = args[-2:]
    code, rep = _run(args, tmp_path / "r.json")
    assert code == 2
    assert set(rep) == {"command", "config", "error"}
    assert rep["error"].startswith(f"{flag} must be >= ") and rep["error"].endswith(value)


@pytest.mark.parametrize("text", [
    "{broken",
    '{"bidegree": [2, 2, 2], "terms": [{"coeff": "1", "monomial": [[1, 9], [2, 3]]}]}',
    '{"bidegree": [2, 2, 2], "terms": [{"coeff": "1/0", "monomial": [[1, 2], [3, 4]]}]}',
])
def test_malformed_element_file_is_an_input_error(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, rep = _run(["delta", "--input", str(bad)], tmp_path / "r.json")
    assert code == 2
    assert set(rep) == {"command", "config", "error"}
    assert rep["command"] == "delta" and rep["error"]


def test_missing_element_file_is_an_input_error(tmp_path):
    missing = tmp_path / "missing.json"
    code, rep = _run(["delta", "--input", str(missing)], tmp_path / "r.json")
    assert code == 2
    assert set(rep) == {"command", "config", "error"}
    assert rep["command"] == "delta" and "missing.json" in rep["error"]


def test_cache_tamper_recovery(tmp_path):
    out = tmp_path / "r.json"
    cache = tmp_path / "cache"
    code, rep = _run(["join", "--d", "2", "--N", "4", "--degree", "3",
                      "--cache-dir", str(cache)], out)
    assert code == 0
    dim = rep["result"]["dimension"]
    files = list(cache.glob("component_*.json"))
    assert files
    files[0].write_text("{broken")
    code, rep = _run(["join", "--d", "2", "--N", "4", "--degree", "3",
                      "--cache-dir", str(cache)], out)
    assert code == 0 and rep["result"]["dimension"] == dim


def test_timings_flag(tmp_path):
    out = tmp_path / "r.json"
    code, rep = _run(["--timings", "verify", "--only", "gamma"], out)
    assert code == 0
    assert "seconds" in rep


def test_max_coeff_bits_does_not_outlive_the_run(tmp_path):
    out = tmp_path / "r.json"
    code, rep = _run(["secant", "--d", "2", "--N", "4", "--r", "0", "--degree", "2",
                      "--max-coeff-bits", "2"], out)
    assert code == 0
    assert SparseRREF().max_bits is None
    code, rep = _run(["secant", "--d", "2", "--N", "6", "--r", "1", "--degree", "4",
                      "--max-coeff-bits", "1"], out)
    assert code == 3 and rep["aborted"] == "coefficient-bits-exceeded"
    assert SparseRREF().max_bits is None


def test_parallel_verify_equals_the_serial_run(tmp_path):
    from shufflestar.verify import run_checks
    only = ["gamma", "census", "tree", "fonesum"]
    assert run_checks(only=only, jobs=2)["checks"] == run_checks(only=only, jobs=1)["checks"]
    # the coefficient guard reaches the workers too
    out = tmp_path / "r.json"
    for jobs in ("1", "2"):
        code, rep = _run(["verify", "--only", "gamma,degree_probe", "--jobs", jobs,
                          "--max-coeff-bits", "1"], out)
        assert code == 3 and rep["aborted"] == "coefficient-bits-exceeded"


def test_shared_parser_leaks_no_option_between_calls(tmp_path):
    from shufflestar.cli import build_parser
    assert build_parser() is build_parser()
    out = tmp_path / "r.json"
    cache = tmp_path / "cache"
    args = ["secant", "--d", "2", "--N", "4", "--r", "0", "--degree", "2"]
    code, rep = _run([*args, "--oracle", "--seed", "7", "--samples", "3"], out)
    assert code == 0 and rep["config"]["seed"] == 7 and rep["config"]["samples"] == 3
    code, rep = _run([*args, "--oracle"], out)
    assert code == 0 and rep["config"]["seed"] == 0 and rep["config"]["samples"] == 0
    assert rep["config"]["oracle"] is True
    code, rep = _run(["--cache-dir", str(cache), *args], out)
    assert code == 0 and rep["config"]["cache_dir"] == str(cache)
    code, rep = _run(args, out)
    assert code == 0 and "cache_dir" not in rep["config"]
    code, rep = _run([*args, "--max-coeff-bits", "8", "--timings"], out)
    assert code == 0 and rep["config"]["max_coeff_bits"] == 8 and "seconds" in rep
    code, rep = _run(args, out)
    assert code == 0 and rep["config"]["oracle"] is False
    assert rep["config"]["max_coeff_bits"] == 0 and "seconds" not in rep


def test_failed_verify_check_exits_1(tmp_path, monkeypatch):
    from shufflestar import verify

    def check_gamma(seed=0):
        return {"name": "gamma", "passed": False, "details": {"forced": True}}

    monkeypatch.setattr(verify, "ALL_CHECKS", tuple(
        check_gamma if fn.__name__ == "check_gamma" else fn for fn in verify.ALL_CHECKS))
    code, rep = _run(["verify", "--only", "census,gamma"], tmp_path / "r.json")
    assert code == 1
    assert rep["result"]["passed"] is False
    failing = [c["name"] for c in rep["result"]["checks"] if not c["passed"]]
    assert failing == ["gamma"]


def test_cached_coefficient_over_the_bit_budget_exits_3(tmp_path):
    out = tmp_path / "r.json"
    cache = tmp_path / "cache"
    args = ["secant", "--d", "2", "--N", "4", "--r", "0", "--degree", "2",
            "--cache-dir", str(cache), "--max-coeff-bits", "2"]
    code, rep = _run(args, out)
    assert code == 0
    path, = cache.glob("component_M2_d2_n2_*.json")
    data = json.loads(path.read_text())
    data["coeffs"].append("1000/1")
    vals = _unpack(data["vals"]).tolist()
    vals[-1] = len(data["coeffs"]) - 1
    data["vals"] = _pack(vals)
    path.write_text(json.dumps(data))
    code, rep = _run(args, out)
    assert code == 3 and rep["aborted"] == "coefficient-bits-exceeded"


@pytest.mark.parametrize("command", [["secant", "--degree", "3"], ["probe", "--max-n", "3"],
                                     ["join", "--degree", "3"]])
def test_cache_reads_are_reported_beside_the_result(tmp_path, command):
    out = tmp_path / "r.json"
    cache = tmp_path / "cache"
    args = [*command, "--d", "2", "--N", "4"]
    code, plain = _run(args, out)
    assert code == 0 and "cache" not in plain
    code, cold = _run([*args, "--cache-dir", str(cache)], out)
    assert code == 0 and cold["result"] == plain["result"]
    assert cold["cache"]["hits"] == 0 and cold["cache"]["misses"] > 0
    code, warm = _run([*args, "--cache-dir", str(cache)], out)
    assert code == 0 and warm["result"] == plain["result"]
    assert warm["cache"]["hits"] > 0 and warm["cache"]["misses"] == 0
    assert warm["cache"]["rejects"] == {}
    # every file torn: each one the cold run wrote is read again and refused
    for path in cache.iterdir():
        path.write_text("{broken")
    code, torn = _run([*args, "--cache-dir", str(cache)], out)
    assert code == 0 and torn["result"] == plain["result"]
    assert torn["cache"] == {"hits": 0, "misses": 0,
                             "rejects": {"malformed": cold["cache"]["misses"]}}


def _index_list(field):
    """A packed index array of a cache file, [typecode, base64 text] of
    little-endian items, decoded with `struct`."""
    code, text = field
    raw = base64.b64decode(text)
    return list(struct.unpack(f"<{len(raw) // struct.calcsize(code)}{code}", raw))


def _rows_digest(path):
    """SHA-256 of a cache file's canonical rows, whatever the file layout:
    each row as its [column, "p/q"] pairs in ascending column order, the rows
    in pivot order, as compact JSON."""
    data = json.loads(path.read_text())
    coeffs = data["coeffs"]
    cols, vals, ends = (_index_list(data[key]) for key in ("cols", "vals", "ends"))
    rows = [[[c, coeffs[v]] for c, v in zip(cols[s:e], vals[s:e])]
            for s, e in zip([0, *ends], ends)]
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


# SHA-256 of the degree-5 `psa secant --d 2 --N 6 --r 1` report's result (as
# the report writes it: sorted keys, no spaces), recorded before the climb
# moved to column coordinates, and, per cache file, of its bytes and of its
# rows (`_rows_digest`).  The file names and bytes were recorded when the
# packed layout came in; the row digests and the result were recorded two
# layouts before it, so a change of the climb or the join fails them
# whatever the layout, and a change of the layout alone fails only the names
# and byte digests.  The run writes the Plucker components of degrees 0-4
# only: the certified join climbs the dominant weight blocks of degree 5 and
# never the whole component, whose file is pinned by the next test
_SECANT_GR26_RESULT = "7bbde8cc8df019c0c8c60332018dac9d1ce460984821a0fef810df2d71161fc7"
_SECANT_GR26_FILES = {
    "component_M3_d2_n0_fbfc83c6440fc0a4.json": (
        "4bb9b22f2e6a7d478f03b90feee2191660bf09558476b31062e5afaf5b5d46d5",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "component_M3_d2_n1_fbfc83c6440fc0a4.json": (
        "bc73fa616d9f76a5c62094cf4a8dc03cc01b7d21140facca1653731cff306bbd",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "component_M3_d2_n2_fbfc83c6440fc0a4.json": (
        "35309315871ff8054b728155278642642b85f6808071cbde32f4f38851939d0c",
        "df26a54b2280959dc2fd8dda6875dc0cb9743556d9a7e6f6f74a52ae435d05de"),
    "component_M3_d2_n3_fbfc83c6440fc0a4.json": (
        "e8fba735e891a05793669a2271c58bbb0f5c98e80b71029f2d00ef2a379cbca5",
        "ad7829a1228391ef715007d6cb2fd3a7042013194b1fe6880336003a1ae03499"),
    "component_M3_d2_n4_fbfc83c6440fc0a4.json": (
        "8feebc7d534600e2ce02e6215bc6c676f61c5165dc19b6dd0a70db59dd489772",
        "fe635e761c8d8dfb77c3e65c896e393677ae0cff0ed6d1d2360cf9a4c1412a71"),
}


def test_degree5_secant_report_and_cache_files_are_byte_identical(tmp_path):
    cache = tmp_path / "cache"
    code, rep = _run(["secant", "--d", "2", "--N", "6", "--r", "1", "--degree", "5",
                      "--cache-dir", str(cache)], tmp_path / "r.json")
    assert code == 0
    result = json.dumps(rep["result"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(result.encode()).hexdigest() == _SECANT_GR26_RESULT
    got = {path.name: (hashlib.sha256(path.read_bytes()).hexdigest(), _rows_digest(path))
           for path in cache.iterdir()}
    assert got == _SECANT_GR26_FILES


def test_full_degree5_plucker_climb_writes_the_pinned_cache_file(tmp_path):
    from shufflestar.plucker import plucker_ideal
    assert plucker_ideal(3, 2, cache_dir=tmp_path).component(2, 5).dim == 6336
    path, = tmp_path.glob("component_M3_d2_n5_*.json")
    assert path.name == "component_M3_d2_n5_fbfc83c6440fc0a4.json"
    # the name and bytes in the packed layout; the rows as two layouts before it
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "01e17177453bbc7b5c2f1568275e1446e16ca23c777fc2ca4706e686fbd322fd"
    assert _rows_digest(path) == \
        "afe82a7e4ebebe3d7a7523855649fd395218f290eb523a58685173978f85dbf2"


# SHA-256 of the `result` of `psa secant --d 2 --oracle` (as the report
# writes it: sorted keys, no spaces) at (N, r, degree, seed), recorded
# before the oracle solved only the dominant weight blocks; the N=8, r=1
# report, 721 vectors over many orbit-filled blocks, was recorded before
# the filled blocks went into one elimination
_ORACLE_RESULTS = {
    ("6", "1", "3", "7"): "438707978f6bddeb542935c7a175f537e490d9607536cca9623ea2a9a569775c",
    ("6", "1", "4", "5"): "c2807e4899fd167c621fa85d703da882e96d61ddafcea95eea2572a1982dd184",
    ("8", "1", "4", "3"): "ce92cf495664f22d448ad5b210a3e49dfe79cec5269eba03c046de3d889ee318",
    ("8", "2", "4", "0"): "86ee7545a70fa13c6a7e24182bf380a66f0ac8000af0294246e555dbe59ed8fa",
}


@pytest.mark.parametrize("N, r, degree, seed", sorted(_ORACLE_RESULTS))
def test_oracle_reports_are_byte_identical(tmp_path, N, r, degree, seed):
    code, rep = _run(["secant", "--d", "2", "--N", N, "--r", r, "--degree", degree,
                      "--oracle", "--seed", seed], tmp_path / "r.json")
    assert code == 0 and rep["result"]["engine"] == "evaluation-kernel"
    result = json.dumps(rep["result"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(result.encode()).hexdigest() == _ORACLE_RESULTS[(N, r, degree, seed)]


def test_degree5_second_secant_report_is_byte_identical(tmp_path):
    # an r = 2 join of Gr(2,8): the outer join reads the inner join's
    # degree-5 blocks; hashed as in _ORACLE_RESULTS
    code, rep = _run(["secant", "--d", "2", "--N", "8", "--r", "2", "--degree", "5"],
                     tmp_path / "r.json")
    assert code == 0 and rep["result"]["dimension"] == 28
    result = json.dumps(rep["result"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(result.encode()).hexdigest() == \
        "4ac7b685de9c5f30ccce86a1d99efb6a90b41f77ddd23560c9a371749ab75d16"


# SHA-256 of the `psa probe` report's result, hashed as in _ORACLE_RESULTS:
# an r = 2 join of Gr(2,8), all 28 vectors of degree 5 from below, and
# Gr(3,6), whose width-3 from-below span takes in the width-2 components
_PROBE_RESULTS = {
    ("2", "8", "2", "5"): "88bd4ef8ffed52544aace4bf6e2c5e94c056127ffec17fa79a2bf5b99f2d9ace",
    ("3", "6", "0", "3"): "fad5c2216d0bf3d423c9e5092c2b1c8094c1e1d4f7b0b78105357706d1ef6d63",
}


@pytest.mark.parametrize("d, N, r, max_n", sorted(_PROBE_RESULTS))
def test_probe_reports_are_byte_identical(tmp_path, d, N, r, max_n):
    code, rep = _run(["probe", "--d", d, "--N", N, "--r", r, "--max-n", max_n],
                     tmp_path / "r.json")
    assert code == 0
    result = json.dumps(rep["result"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(result.encode()).hexdigest() == _PROBE_RESULTS[(d, N, r, max_n)]


# Run in a fresh interpreter, since this one has loaded numpy by now.
_NUMPY_BOUNDARY = """
import json, sys
from pathlib import Path
from shufflestar.cli import main
from shufflestar.core import element_to_dict, sym_monomial

tmp = Path(sys.argv[1])
a = tmp / "a.json"
a.write_text(json.dumps(element_to_dict(sym_monomial(2, 2, 2, [(1, 2), (3, 4)]))))
out = ["--out", str(tmp / "r.json")]
cache_reads = []
cached = ["secant", "--d", "2", "--N", "4", "--r", "0", "--degree", "2",
          "--cache-dir", str(tmp / "cache")]
for args in (cached, cached,   # the second run reads the packed files back
             ["probe", "--d", "2", "--r", "0", "--max-n", "2"],
             ["join", "--d", "2", "--N", "4", "--degree", "2"],
             ["star", "--lhs", str(a), "--rhs", str(a), "--g", "1,2,3,4"]):
    assert main([*args, *out]) == 0, args
    assert "numpy" not in sys.modules, args[0]
    if args is cached:
        report = json.loads((tmp / "r.json").read_text())
        cache_reads.append((report["cache"]["hits"], report["cache"]["misses"]))
assert cache_reads[0][0] == 0 and cache_reads[1][0] > 0 == cache_reads[1][1], cache_reads
assert main(["secant", "--d", "2", "--N", "4", "--r", "0", "--degree", "2",
             "--oracle", *out]) == 0
assert "numpy" in sys.modules
"""


def test_only_the_oracle_loads_numpy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _NUMPY_BOUNDARY, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr

import argparse
import base64
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from fractions import Fraction

from shufflestar.cli import main
from shufflestar.core import SymElement, element_from_dict, element_to_dict, sym_monomial, monomial
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


# SHA-256 of the whole `psa delta` report file, as written, for
# (1/3) x12 x12 + x12 x34: its image has the integral coefficient 1 and the
# fractional ones 1/3 and 2/3.  Recorded when `delta` stopped taking --seed
# and --samples: the earlier pin's bytes (2c2b3405...) less the
# `"samples":0,"seed":0,` its config echoed
_DELTA_REPORT = "3dbfa550bba37c7f8af734d8d496920a3df8459e224d5898da0fa6ad76f5d4f2"


def test_delta_report_is_raw_byte_identical(tmp_path, monkeypatch):
    f = SymElement(2, 2, 2, {((1, 2), (1, 2)): Fraction(1, 3), ((1, 2), (3, 4)): 1})
    (tmp_path / "f.json").write_text(json.dumps(element_to_dict(f)))
    # relative paths, since the config echoes the input path
    monkeypatch.chdir(tmp_path)
    assert main(["delta", "--input", "f.json", "--out", "r.json"]) == 0
    coeffs = {t["coeff"] for t in json.loads((tmp_path / "r.json").read_text())["result"]["terms"]}
    assert coeffs == {"1/1", "1/3", "2/3"}
    assert hashlib.sha256((tmp_path / "r.json").read_bytes()).hexdigest() == _DELTA_REPORT


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


def test_plucker_command_writes_generators_only(tmp_path):
    out = tmp_path / "r.json"
    code, rep = _run(["plucker", "--d", "2", "--N", "4", "--basic"], out)
    assert code == 0
    assert set(rep["result"]) == {"d", "N", "M", "basic"}
    assert len(rep["result"]["basic"]["terms"]) == 3
    code, rep = _run(["plucker", "--d", "2", "--N", "4", "--basic", "--weyman"], out)
    assert code == 0 and set(rep["result"]) == {"d", "N", "M", "basic", "weyman"}


@pytest.mark.parametrize("args", [
    ["join", "--d", "2", "--N", "4", "--degree", "2"],
    ["plucker", "--d", "2", "--N", "4", "--oracle"],
    ["plucker", "--d", "2", "--N", "4", "--degree", "3"],
], ids=["join", "plucker-oracle", "plucker-degree"])
def test_the_join_and_plucker_oracle_spellings_are_usage_errors(tmp_path, capsys, args):
    # `psa secant --r 1` and `psa secant --r 0 --oracle` compute these
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert "usage: psa" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_the_readme_cli_block_lists_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    documented = set(re.findall(r"^psa (\w+)", block, re.M))
    from shufflestar.cli import build_parser
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert documented == set(sub.choices)


def test_secant_command(tmp_path):
    out = tmp_path / "r.json"
    code, rep = _run(["secant", "--d", "2", "--N", "4", "--r", "0", "--degree", "2"], out)
    assert code == 0
    assert rep["result"]["dimension"] == 1
    code, rep = _run(["secant", "--d", "2", "--N", "4", "--r", "0",
                      "--degree", "2", "--oracle"], out)
    assert rep["result"]["dimension"] == 1
    # the self-join of the Klein quadric's ideal vanishes in degree 2
    code, rep = _run(["secant", "--d", "2", "--N", "4", "--r", "1", "--degree", "2"], out)
    assert code == 0 and rep["result"]["dimension"] == 0


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
    ["secant", "--d", "2", "--r", "1", "--degree", "-1"],
    ["secant", "--d", "2", "--r", "0", "--oracle", "--degree", "-1"],
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
    '{"bidegree": [2, 2, 2], "terms": [{"coeff": "1"}]}',
    '{"bidegree": [2, 2, 2], "terms": [{"coeff": "1", "monomial": [[1, null]]}]}',
    '{"bidegree": [2, 2, 2], "terms": {"x": 1}}',
    # an index or bidegree entry that is not a JSON integer, which int()
    # would truncate or take
    '{"bidegree": [2, 1, 2], "terms": [{"coeff": "1", "monomial": [[1.5, 2.9]]}]}',
    '{"bidegree": [2, 1, 2], "terms": [{"coeff": "1", "monomial": [[1.0, 2.0]]}]}',
    '{"bidegree": [2, 1, 2], "terms": [{"coeff": "1", "monomial": [[true, 2]]}]}',
    '{"bidegree": [2, 1, 2], "terms": [{"coeff": "1", "monomial": [["1", "2"]]}]}',
    '{"bidegree": [2.9, 1, 2], "terms": [{"coeff": "1", "monomial": [[1, 2]]}]}',
    '{"bidegree": [2, true, 2], "terms": [{"coeff": "1", "monomial": [[1, 2]]}]}',
    '{"bidegree": [2, 1, "2"], "terms": [{"coeff": "1", "monomial": [[1, 2]]}]}',
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
    # r = 0 reads the Plucker components whole, through the cache
    out = tmp_path / "r.json"
    cache = tmp_path / "cache"
    args = ["secant", "--d", "2", "--N", "4", "--r", "0", "--degree", "3",
            "--cache-dir", str(cache)]
    code, rep = _run(args, out)
    assert code == 0
    dim = rep["result"]["dimension"]
    files = list(cache.glob("component_*.json"))
    assert files
    files[0].write_text("{broken")
    code, rep = _run(args, out)
    assert code == 0 and rep["result"]["dimension"] == dim


def test_certified_join_reads_and_writes_no_cache_file(tmp_path):
    # the join reads the Plucker ideal's weight blocks only, which are never
    # cached, so the cache directory is neither read nor written
    out = tmp_path / "r.json"
    cache = tmp_path / "cache"
    args = ["secant", "--d", "2", "--N", "4", "--r", "1", "--degree", "3",
            "--cache-dir", str(cache)]
    code, plain = _run(args[:-2], out)
    assert code == 0
    code, rep = _run(args, out)
    assert code == 0 and rep["result"] == plain["result"]
    assert rep["cache"] == {"hits": 0, "misses": 0, "rejects": {}}
    assert not cache.exists() or not list(cache.iterdir())


def test_timings_flag(tmp_path):
    out = tmp_path / "r.json"
    code, rep = _run(["verify", "--only", "gamma", "--timings"], out)
    assert code == 0
    assert "seconds" in rep and "stage_seconds" not in rep


def test_shared_options_before_the_subcommand_are_usage_errors(capsys):
    # each shared option has one spelling: after the subcommand's name
    with pytest.raises(SystemExit) as exc:
        main(["--timings", "verify", "--only", "gamma"])
    assert exc.value.code == 2
    assert "usage: psa" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["secant", "--d", "2", "--N", "6", "--r", "1", "--degree", "4"],
    ["probe", "--d", "2", "--N", "6", "--r", "1", "--max-n", "3"],
])
def test_timings_split_the_wall_time_by_stage(tmp_path, command):
    out = tmp_path / "r.json"
    code, plain = _run(command, out)
    assert code == 0 and "stage_seconds" not in plain
    code, rep = _run([*command, "--timings"], out)
    assert code == 0 and rep["result"] == plain["result"]
    stages = rep["stage_seconds"]
    assert set(stages) <= {"climbs", "join_kernels", "assembly", "report", "other"}
    assert {"climbs", "join_kernels"} <= set(stages)
    assert min(stages.values()) >= 0
    # the stages add up to the run, each rounded to a millisecond
    assert abs(sum(stages.values()) - rep["seconds"]) <= 0.001 * (len(stages) + 1)


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


# Spawned workers start from a fresh interpreter and copy no module global,
# so the guard must be handed to them.
_SPAWNED_VERIFY = """
import multiprocessing
import sys
from shufflestar.cli import main

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    sys.exit(main(["verify", "--only", "gamma,degree_probe", "--jobs", "2",
                   "--max-coeff-bits", "1", "--out", sys.argv[1]]))
"""


def test_the_coefficient_guard_reaches_spawned_verify_workers(tmp_path):
    script = tmp_path / "spawned_verify.py"
    script.write_text(_SPAWNED_VERIFY)
    out = tmp_path / "r.json"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, str(script), str(out)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(out.read_text())["aborted"] == "coefficient-bits-exceeded"


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
    code, rep = _run([*args, "--cache-dir", str(cache)], out)
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


def test_cold_climb_over_the_bit_budget_exits_3(tmp_path):
    # the Plucker components of Gr(2,6) keep 1-bit coefficients up to
    # degree 3; the cold climb to degree 4 meets a 2 and aborts
    out = tmp_path / "r.json"
    cache = tmp_path / "cache"
    code, rep = _run(["secant", "--d", "2", "--N", "6", "--r", "0", "--degree", "4",
                      "--cache-dir", str(cache), "--max-coeff-bits", "1"], out)
    assert code == 3 and rep["aborted"] == "coefficient-bits-exceeded"
    assert sorted(p.name.split("_")[3] for p in cache.glob("component_*.json")) == \
        ["n0", "n1", "n2", "n3"]


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


# commands that read the Plucker components whole: r = 0 (the default of
# `secant` and `probe`); a certified join, r >= 1, reads no cache file
@pytest.mark.parametrize("command", [["secant", "--degree", "3"], ["probe", "--max-n", "3"],
                                     ["secant", "--r", "0", "--degree", "4"]])
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
# and byte digests.  The secant run reads and writes no cache file: its
# certified join reads the Plucker ideal's weight blocks only, climbed from
# blocks.  The files are those of the Plucker components of degrees 0-4,
# built whole through `component`; the degree-5 file is pinned by the next
# test
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
    assert rep["cache"] == {"hits": 0, "misses": 0, "rejects": {}}
    assert not cache.exists() or not list(cache.iterdir())
    from shufflestar.plucker import plucker_ideal
    assert plucker_ideal(3, 2, cache_dir=cache).component(2, 4).dim == 1296
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


def test_the_join_path_writes_its_basis_from_the_rows(tmp_path, monkeypatch):
    # the component's rows go to the report as they are: the only elements
    # built are those of the dominant blocks the orbit fill moves
    from shufflestar.ideals import ComponentBasis
    built = []
    element = ComponentBasis.element
    monkeypatch.setattr(ComponentBasis, "element",
                        lambda self, vec: built.append(1) or element(self, vec))
    code, rep = _run(["secant", "--d", "2", "--N", "6", "--r", "1", "--degree", "5"],
                     tmp_path / "r.json")
    assert code == 0 and rep["result"]["dimension"] == 120
    assert len(built) < 120


@pytest.mark.parametrize("args", [
    ["secant", "--d", "2", "--N", "6", "--r", "1", "--degree", "4"],
    ["secant", "--d", "2", "--N", "6", "--r", "1", "--degree", "3", "--oracle"],
    ["plucker", "--d", "2", "--N", "6", "--weyman"],
    ["probe", "--d", "2", "--N", "4", "--r", "0", "--max-n", "3"],
], ids=lambda args: args[0] + ("-oracle" if "--oracle" in args else ""))
def test_reports_are_written_in_canonical_json(tmp_path, args):
    # a writer that skips a step (tuples for lists, a cached text) must
    # still write what one canonical dump of the parsed report writes
    out = tmp_path / "r.json"
    assert main([*args, "--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


# SHA-256 of the whole report file, the bytes as written, not re-serialized:
# the basis writers of the join path (721 vectors over many orbits at N = 8)
# and of the oracle, recorded before the join path wrote its bases from the
# component's canonical rows; the N = 6 pins were recorded when `psa join`
# and `psa plucker --oracle` still computed the same bases
_RAW_REPORTS = {
    ("secant", "--d", "2", "--N", "8", "--r", "1", "--degree", "4"):
        "dcf295c8ddbe4c6329050aa7cc596519de215ac1cff11d5acb7f12a1d926e53e",
    ("secant", "--d", "2", "--N", "8", "--r", "1", "--degree", "4", "--oracle", "--seed", "3"):
        "f236b1da4cdc074394b9891cd7ed78c372247744bfe6ef2c6a8e8acea9476b2d",
    ("secant", "--d", "2", "--N", "6", "--r", "1", "--degree", "4"):
        "63db93e8a636d081882e039861926beb17e062e8a531355b1924d27d05050e94",
    ("secant", "--d", "2", "--N", "6", "--r", "0", "--degree", "3", "--oracle"):
        "5ff8c23fe231f34b8bb8684e987581513741c5e6abf89ddf228b74ed4fe8b6cb",
}


@pytest.mark.parametrize("args", sorted(_RAW_REPORTS), ids=" ".join)
def test_basis_reports_are_raw_byte_identical(tmp_path, monkeypatch, args):
    # the config echoes a cache directory taken from the environment
    monkeypatch.delenv("PSA_CACHE_DIR", raising=False)
    out = tmp_path / "r.json"
    assert main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _RAW_REPORTS[args]


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


# Run in a fresh interpreter, so that no module another test loaded shows.
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
             ["secant", "--d", "2", "--N", "4", "--r", "1", "--degree", "2"],
             ["star", "--lhs", str(a), "--rhs", str(a), "--g", "1,2,3,4"],
             ["secant", "--d", "2", "--N", "4", "--r", "0", "--degree", "2", "--oracle"],
             ["verify", "--only", "secant_gr26"]):   # runs evaluation_kernel
    assert main([*args, *out]) == 0, args
    assert "numpy" not in sys.modules, args[0]
    if args is cached:
        report = json.loads((tmp / "r.json").read_text())
        cache_reads.append((report["cache"]["hits"], report["cache"]["misses"]))
assert cache_reads[0][0] == 0 and cache_reads[1][0] > 0 == cache_reads[1][1], cache_reads
assert "shufflestar.certified" in sys.modules
"""


def test_no_command_loads_numpy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _NUMPY_BOUNDARY, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("args", [
    ["plucker", "--d", "2", "--N", "6", "--seed", "5"],
    ["probe", "--d", "2", "--N", "4", "--r", "0", "--max-n", "2", "--seed", "5"],
    ["probe", "--d", "2", "--N", "4", "--r", "0", "--max-n", "2", "--samples", "9"],
    ["verify", "--only", "gamma", "--samples", "9"],
    ["delta", "--input", "f.json", "--seed", "1"],
], ids=lambda args: f"{args[0]}{args[-2]}")
def test_commands_that_do_not_sample_refuse_seed_and_samples(tmp_path, capsys, args):
    # only `secant` reads --samples, and only `secant` and `verify` read --seed
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {args[-2]}" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_only_the_commands_that_sample_echo_seed_and_samples(tmp_path):
    out = tmp_path / "r.json"
    code, rep = _run(["plucker", "--d", "2", "--N", "4"], out)
    assert code == 0 and not {"seed", "samples"} & set(rep["config"])
    code, rep = _run(["probe", "--d", "2", "--N", "4", "--r", "0", "--max-n", "2"], out)
    assert code == 0 and not {"seed", "samples"} & set(rep["config"])
    code, rep = _run(["verify", "--only", "gamma", "--seed", "3"], out)
    assert code == 0 and rep["config"]["seed"] == 3 and "samples" not in rep["config"]
    code, rep = _run(["secant", "--d", "2", "--N", "4", "--r", "0", "--degree", "2",
                      "--oracle", "--seed", "3", "--samples", "4"], out)
    assert code == 0 and (rep["config"]["seed"], rep["config"]["samples"]) == (3, 4)


@pytest.mark.parametrize("args", [
    ["secant", "--d", "4", "--N", "8", "--r", "0", "--degree", "2"],
    ["probe", "--d", "4", "--N", "8", "--r", "0", "--max-n", "2"],
], ids=lambda args: args[0])
def test_width_four_engine_paths_are_input_errors(tmp_path, args):
    # the Plucker ideal's star rows leave it from width 4 on
    # (tests/test_plucker.py::test_a_star_row_two_widths_up_leaves_the_plucker_ideal)
    code, rep = _run(args, tmp_path / "r.json")
    assert code == 2 and set(rep) == {"command", "config", "error"}
    assert "width 3, not 4" in rep["error"]


def test_width_four_oracle_still_answers(tmp_path):
    # dim Sym^2(L^4 k^8) - dim S_(2,2,2,2) k^8 = 2485 - 1764 quadrics vanish
    # on Gr(4,8); the oracle builds no Plucker ideal
    code, rep = _run(["secant", "--d", "4", "--N", "8", "--r", "0", "--degree", "2",
                      "--oracle"], tmp_path / "r.json")
    assert code == 0 and rep["result"]["dimension"] == 721

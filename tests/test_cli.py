import json
import os

import pytest
from fractions import Fraction

from shufflestar.cli import main
from shufflestar.core import element_from_dict, element_to_dict, sym_monomial, monomial
from shufflestar.linalg import SparseRREF


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
    code, rep = _run(["probe", "--d", "2", "--r", "0", "--M", "2", "--max-n", "2"], out)
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
    with pytest.raises(ValueError):
        main(["verify", "--only", "nonsense", "--out", str(tmp_path / "r.json")])


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

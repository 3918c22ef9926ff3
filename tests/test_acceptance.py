"""Acceptance suite: one test per headline criterion.

Each test runs the corresponding library check at its stated tolerance
(exact rational arithmetic throughout) and prints a pass/fail line.
"""

import pytest

from shufflestar import verify


def _run(fn, label):
    res = fn(seed=0)
    status = "PASS" if res["passed"] else "FAIL"
    print(f"{status} {label}: {res['details']}")
    assert res["passed"], res["details"]
    return res


def test_criterion_1_generation_identity():
    res = _run(verify.check_fonesum, "1 fonesum identity (signed sum equals 9*f2)")
    # the unsigned displayed form does not reproduce the identity; the
    # suite pins the signed convention
    assert res["details"]["signed_sum_equals_9_f2"]
    assert not res["details"]["unsigned_sum_equals_9_f2"]


def test_criterion_2_coefficient_census():
    res = _run(verify.check_census, "2 coefficient census (2+11+5 = 18)")
    assert res["details"]["total"] == 18


def test_criterion_3_gamma_formula():
    res = _run(verify.check_gamma, "3 count formula (gamma(1) = 18, even through 10)")
    assert res["details"]["values"][1] == 18


def test_criterion_4_tree_encoding():
    res = _run(verify.check_tree, "4 tree encoding and divisibility witness")
    assert res["details"]["witness_image"] == (2, 3, 4, 5)


def test_criterion_5_poset_oracle_equivalence():
    res = _run(verify.check_poset_oracle, "5 divisibility vs product enumeration")
    assert res["details"]["disagreements"] == []
    assert res["details"]["pairs_checked"] == 461_047
    # the containment-only reading of the per-position maps is strictly
    # coarser; the discrepancy count documents the resolved open question
    assert res["details"]["containment_only_variant_disagreements"] == 115_678


def test_criterion_6_hopf_identities():
    res = _run(verify.check_hopf, "6 projection/comultiplication/isomorphism identities")
    assert res["details"]["rounds"] >= 100


def test_criterion_7_plucker_degree2():
    res = _run(verify.check_plucker_degree2, "7 degree-2 spaces of the small Grassmannians")
    assert res["details"]["gr26"]["weyman_dim"] == 15
    assert res["details"]["gr36"]["weyman_dim"] == 35


def test_criterion_8_secant_gr26():
    res = _run(verify.check_secant_gr26, "8 first secant of Gr(2,6)")
    assert res["details"]["join_dim_2_3"] == 1


def test_criterion_9_diideal_closure():
    res = _run(verify.check_diideal_closure, "9 ideal products vanish on decomposables")
    assert res["details"]["nonzero"] == 0


def test_criterion_10_degree_probe():
    res = _run(verify.check_degree_probe, "10 new-generator degrees")
    assert res["details"]["plain_new_generator_degrees"] == [2]
    assert res["details"]["first_secant_new_generator_degrees"] == [3]

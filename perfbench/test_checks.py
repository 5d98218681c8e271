"""The benchmark's checks accept the program's reports and reject wrong ones.

Run from the repository root with `python3 -m pytest perfbench`. Each
negative test starts from a real report and plants one deliberate error.
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

import checks
from workloads import WORKLOADS, make_pass

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from cuspidal.cli import main  # noqa: E402


def report(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--json"]) == 0
    return json.loads(out.getvalue())


def rejected(argv, rep):
    with pytest.raises(checks.CheckError):
        checks.check_report(argv, rep, rep["inputs"])


CASES = [
    ["class-group", "--p", "5", "--n", "6"],
    ["class-group", "--p", "23", "--n", "1"],
    ["class-group", "--N", "481"],
    ["class-group", "--N", "360"],
    ["class-group", "--N", "1"],
    ["torsion", "--p", "7", "--n", "5"],
    ["delta", "--p", "5", "--n", "4"],
    ["leading-coeffs", "--p", "23", "--n", "2"],
    ["pq", "--p", "13", "--q", "37"],
    ["verify", "--suite", "delta"],
]


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_correct_reports_pass(argv):
    rep = report(*argv)
    checks.check_report(argv, rep, rep["inputs"])


def test_rational_cusp_coefficient_off_by_one_power():
    argv = ["leading-coeffs", "--p", "23", "--n", "2"]
    rep = report(*argv)
    assert rep["rows"][0]["symbolic"][0] == "23^(-6)"
    rep["rows"][0]["symbolic"][0] = "23^(-7)"
    rejected(argv, rep)


def test_oracle_tolerance_is_relative():
    # an absolute 1e-8 gate cannot tell 23^-6 from 23^-7; the relative one can
    exact, wrong = checks.exact_value(0, {23: -12}), checks.exact_value(0, {23: -14})
    assert abs(exact - wrong) < 1e-8
    f = checks.prime_power_generators(23, 2)[0]
    numeric = checks.numeric_leading_coefficient(f, checks.prime_power_uniformizer(23, 2, 0))
    checks.require_close(exact, numeric, "f at the rational cusp")
    with pytest.raises(checks.CheckError):
        checks.require_close(wrong, numeric, "f at the rational cusp")


def test_wrong_phase_is_rejected():
    argv = ["leading-coeffs", "--p", "23", "--n", "2"]
    rep = report(*argv)
    assert rep["rows"][1]["symbolic"][1] == "e(73/92)*23^(-1/2)"
    rep["rows"][1]["symbolic"][1] = "e(72/92)*23^(-1/2)"
    rejected(argv, rep)


def test_dropped_invariant_factor():
    argv = ["class-group", "--p", "5", "--n", "6"]
    rep = report(*argv)
    dropped = rep["invariant_factors"].pop(0)
    rep["order"] = str(int(rep["order"]) // dropped)
    rejected(argv, rep)


def test_dropped_factor_on_uncertified_level_fails_the_determinant():
    argv = ["class-group", "--N", "360"]
    rep = report(*argv)
    assert not rep["certified"] and rep["invariant_factors"]
    dropped = rep["invariant_factors"].pop(0)
    rep["order"] = str(int(rep["order"]) // dropped)
    rejected(argv, rep)


@pytest.mark.parametrize("argv", [["class-group", "--N", "481"], ["class-group", "--N", "360"]], ids=" ".join)
def test_flipped_certified_flag(argv):
    rep = report(*argv)
    rep["certified"] = not rep["certified"]
    rejected(argv, rep)


def test_broken_divisibility_chain():
    argv = ["class-group", "--N", "481"]
    rep = report(*argv)
    assert rep["invariant_factors"] == [6, 4788]
    rep["invariant_factors"] = [4, 7182]  # same order, 4 does not divide 7182
    rejected(argv, rep)


def test_mazur_order():
    argv = ["class-group", "--p", "23", "--n", "1"]
    rep = report(*argv)
    rep["invariant_factors"], rep["order"] = [22], "22"
    rejected(argv, rep)


def test_changed_generator_fails_the_determinant():
    argv = ["class-group", "--p", "5", "--n", "6"]
    rep = report(*argv)
    rep["generators"][1] = rep["generators"][2]
    rejected(argv, rep)


def test_torsion_wrong_factor():
    argv = ["torsion", "--p", "7", "--n", "5"]
    rep = report(*argv)
    rep["invariant_factors"][-1] *= 7
    rep["order"] = str(int(rep["order"]) * 7)
    rejected(argv, rep)


def test_delta_wrong_cokernel_and_matrix():
    argv = ["delta", "--p", "5", "--n", "4"]
    rep = report(*argv)
    bad = copy.deepcopy(rep)
    bad["cokernel"] = {"invariant_factors": [6], "order": "6"}
    rejected(argv, bad)
    rep["matrix"][2][1] = 1
    rejected(argv, rep)


def test_pq_wrong_order_and_magnitude():
    argv = ["pq", "--p", "13", "--q", "37"]
    rep = report(*argv)
    bad = copy.deepcopy(rep)
    bad["class_group"] = {"invariant_factors": [4788], "order": "4788"}
    rejected(argv, bad)
    rep["leading_coefficient_magnitudes"]["f2"][0] = "1"
    rejected(argv, rep)


def test_failed_verify_suite():
    argv = ["verify", "--suite", "delta"]
    rep = report(*argv)
    rep["results"][0]["passed"] = False
    rep["all_passed"] = False
    rejected(argv, rep)


def test_inputs_must_match():
    argv = ["class-group", "--p", "5", "--n", "6"]
    rep = report(*argv)
    with pytest.raises(checks.CheckError):
        checks.check_report(argv, rep, {"p": 5, "n": 7})


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_only_orders_the_pass(workload):
    one, two = make_pass(workload, 1), make_pass(workload, 2)
    assert one == make_pass(workload, 1)
    assert one != two
    assert sorted(one, key=str) == sorted(two, key=str)

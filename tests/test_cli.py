import json
import time
from pathlib import Path

import mpmath as mp
import pytest

from cuspidal import transform
from cuspidal.classgroup import class_group, order_matrices
from cuspidal.errors import InputError, ScopeError
from cuspidal.eta import prime_power_generators
from cuspidal.jacobian import delta_kernel_on_cuspidal, delta_matrix, generalized_torsion
from cuspidal.verify import ling_structure
from cuspidal.cli import COMMANDS, _decimal, main


# `--json` reports recorded before the text output was derived from them;
# each must still be reproduced byte for byte
GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cusps_table(capsys):
    code, out, err = run_cli(capsys, "cusps", "1")
    assert code == 0
    # the report's keys in sorted order, one line per cusp record
    assert out == (
        "command: cusps\n"
        "cusps:\n"
        "  conductor: 1  degree: 1  level: 1  width: 1\n"
        "inputs:\n"
        "  N: 1\n"
    )


def test_cusps_json(capsys):
    code, out, _ = run_cli(capsys, "cusps", "25", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "cusps"
    assert report["inputs"] == {"N": 25}
    assert [c["level"] for c in report["cusps"]] == [1, 5, 25]
    assert [c["degree"] for c in report["cusps"]] == [1, 4, 1]


def test_class_group_json_example(capsys):
    code, out, _ = run_cli(capsys, "class-group", "--p", "11", "--n", "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["invariant_factors"] == [5]
    assert report["order"] == "5"
    assert report["certified"] is True


def test_class_group_by_level(capsys):
    code, out, _ = run_cli(capsys, "class-group", "--N", "8", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["certified"] is False


def test_torsion_prime_unconditional(capsys):
    code, out, _ = run_cli(capsys, "torsion", "--p", "5", "--n", "1")
    assert code == 0
    lines = out.splitlines()
    assert "invariant_factors: [2]" in lines
    assert "conditional: false" in lines


def test_torsion_json(capsys):
    code, out, _ = run_cli(capsys, "torsion", "--p", "5", "--n", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["invariant_factors"] == [2, 10]
    assert report["conditional"] is True
    assert report["kernel"]["invariant_factors"] == []


def test_torsion_pq(capsys):
    code, out, _ = run_cli(capsys, "torsion", "--pq", "13", "37", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["kernel"]["invariant_factors"] == [18]
    assert report["group"] is None
    assert report["up_to_2_torsion"]["invariant_factors"] == [144]


def test_matrices_claims_pass(capsys):
    code, out, _ = run_cli(capsys, "matrices", "--p", "7", "--n", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert all(claim["ok"] for claim in report["claims"].values())


def test_delta_output(capsys):
    code, out, _ = run_cli(capsys, "delta", "--p", "5", "--n", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["matrix"] == [[3, 0, 0], [1, 1, 0], [1, 2, 1]]
    assert report["cokernel"]["invariant_factors"] == [3]
    assert "uniformizers" in report


def test_eta_check_failure_reported(capsys):
    code, out, _ = run_cli(capsys, "eta-check", "eta(1)^1 * eta(2)^-1", "--level", "2", "--json")
    assert code == 0  # the check itself succeeds; the function is just not modular
    report = json.loads(out)
    assert report["modular"] is False
    assert report["conditions"]["sum_delta_mod_24"] is False
    assert report["conditions"]["weight_zero"] is True


def test_divisor_command(capsys):
    code, out, _ = run_cli(capsys, "divisor", "eta(5)^6 * eta(1)^-6", "--level", "5", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["coefficients"] == {"1": "-1", "5": "1"}
    assert report["degree"] == "0"


def test_divisor_rejects_non_modular(capsys):
    code, out, err = run_cli(capsys, "divisor", "eta(1)^1 * eta(2)^-1", "--level", "2")
    assert code == 2
    assert "error" in err


def test_scope_error_exit_code(capsys):
    for p in ("2", "3"):
        code, out, err = run_cli(capsys, "class-group", "--p", p, "--n", "1")
        assert code == 2
        assert err == f"error: p = {p} is not a prime >= 5\n"


@pytest.mark.parametrize(
    "func, command",
    [
        (class_group, "class-group"),
        (order_matrices, "matrices"),
        (prime_power_generators, "leading-coeffs"),
        (delta_matrix, "delta"),
        (delta_kernel_on_cuspidal, None),
        (generalized_torsion, "torsion"),
        (ling_structure, None),
    ],
)
def test_every_prime_power_entry_point_has_the_one_scope(capsys, func, command):
    for p in (2, 3, 4, 15, 1, 0, -5):
        with pytest.raises(ScopeError) as err:
            func(p, 2)
        assert str(err.value) == f"p = {p} is not a prime >= 5"
    for n in (0, -1):
        with pytest.raises(InputError, match="^n must be positive$"):
            func(5, n)
    # 5^70000 has 70001 cusp levels: refused before p^n is formed
    with pytest.raises(ScopeError, match="^N = 5\\^70000 has 70001 cusp levels"):
        func(5, 70000)
    if command is None:
        return
    code, out, err = run_cli(capsys, command, "--p", "3", "--n", "2")
    assert (code, out, err) == (2, "", "error: p = 3 is not a prime >= 5\n")
    start = time.process_time()
    code, out, err = run_cli(capsys, command, "--p", "5", "--n", "70000", "--json")
    assert code == 2 and out == "" and "70001 cusp levels" in err
    assert time.process_time() - start < 1


def test_class_group_refuses_a_level_with_too_many_cusps_at_once(capsys):
    # 735134400 has 1344 cusp levels; the generic path would run for hours
    start = time.process_time()
    code, out, err = run_cli(capsys, "class-group", "--N", "735134400", "--json")
    assert code == 2 and out == "" and "1344 cusp levels" in err
    assert time.process_time() - start < 1
    # 2^200 has 201 cusp levels, but m(2^200) = 3 2^199 has 201 bits
    code, out, err = run_cli(capsys, "class-group", "--N", str(2**200), "--json")
    assert code == 2 and out == "" and "201 bits" in err


def test_malformed_expression_exit_code(capsys):
    code, _, err = run_cli(capsys, "eta-check", "zeta(3)", "--level", "3")
    assert code == 2
    assert "error" in err


def test_input_errors_exit_code(capsys):
    for argv in (
        ("cusps", "0"),
        ("class-group", "--N", "0"),
        ("class-group", "--p", "5", "--n", "0"),
        ("matrices", "--p", "5", "--n", "0"),
        ("divisor", "eta(7)", "--level", "5"),
        ("eta-check", "eta(2)^", "--level", "4"),
        ("cusps", str(2**89 - 1)),  # a prime beyond the certified range
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: "), argv


def test_internal_value_error_exit_code(capsys, monkeypatch):
    def failing_cokernel(rows, k, modulus=None):
        raise ValueError("sub lattice has smaller rank; quotient is infinite")

    monkeypatch.setattr("cuspidal.classgroup.cokernel", failing_cokernel)
    code, out, err = run_cli(capsys, "class-group", "--N", "12")
    assert code == 1
    assert out == ""
    assert err == "internal error: sub lattice has smaller rank; quotient is infinite\n"


def test_decimal_matches_str_below_the_digit_limit():
    for n in [0, 7, -7, 10**616, 10**617 - 1, -(2**2048), 2**4000 + 1, 3**8000, -(7**5000)]:
        assert _decimal(n) == str(n), n


def test_order_past_4300_digits():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import cuspidal

    env = dict(os.environ, PYTHONPATH=str(Path(cuspidal.__file__).parent.parent))
    argv = [sys.executable, "-m", "cuspidal.cli", "class-group", "--p", "5", "--n", "92"]
    done = subprocess.run(argv + ["--json"], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    order = 1
    for f in report["invariant_factors"]:
        order *= f
    assert order == ling_structure(5, 92).order
    digits = report["order"]
    # rendered here without str(order): digit count, leading and trailing digits
    assert 10 ** (len(digits) - 1) <= order < 10 ** len(digits)
    assert len(digits) > 4300
    assert digits[:50] == str(order // 10 ** (len(digits) - 50))
    assert digits[-50:] == str(order % 10**50).zfill(50)
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert f"\norder: {digits}\n" in done.stdout


def from_digits(digits):
    """int(digits) in chunks below any int-from-str digit limit."""
    sign, digits = (-1, digits[1:]) if digits.startswith("-") else (1, digits)
    value = 0
    for i in range(0, len(digits), 600):
        chunk = digits[i : i + 600]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def test_matrices_past_4300_digits(capsys, monkeypatch):
    big, other = 7**6000, -(3**10000)  # 5071 and 4772 digits
    claims = {"det_m_times_24": (big, big), "det_u": (other, big)}
    monkeypatch.setattr("cuspidal.verify.determinant_claims", lambda mats: claims)
    code, out, err = run_cli(capsys, "matrices", "--p", "5", "--n", "2", "--json")
    assert code == 0, err
    report = json.loads(out)["claims"]
    assert from_digits(report["det_m_times_24"]["value"]) == big
    assert from_digits(report["det_u"]["value"]) == other
    assert from_digits(report["det_u"]["expected"]) == big
    assert [report[name]["ok"] for name in sorted(claims)] == [True, False]
    code, text, err = run_cli(capsys, "matrices", "--p", "5", "--n", "2")
    assert code == 0, err
    assert f"    value: {report['det_u']['value']}\n" in text
    assert text.count(f": {report['det_m_times_24']['value']}\n") == 3


def scalar_leaves(value):
    """Every string, number, boolean and null in a JSON value."""
    if isinstance(value, dict):
        return [leaf for v in value.values() for leaf in scalar_leaves(v)]
    if isinstance(value, list):
        return [leaf for v in value for leaf in scalar_leaves(v)]
    return [value]


def test_text_shows_every_scalar_of_the_json_report(capsys):
    commands = [
        ("cusps", "30"),
        ("eta-check", "eta(1)^1 * eta(2)^-1", "--level", "2"),
        ("divisor", "eta(25) * eta(1)^-1", "--level", "25"),
        ("class-group", "--N", "36"),
        ("matrices", "--p", "7", "--n", "3"),
        ("leading-coeffs", "--p", "5", "--n", "2"),
        ("delta", "--p", "7", "--n", "4"),
        ("torsion", "--p", "5", "--n", "4"),
        ("torsion", "--pq", "13", "37"),
        ("pq", "--p", "13", "--q", "37"),
        ("verify", "--suite", "determinants"),
    ]
    assert len({argv[0] for argv in commands}) == 10  # every subcommand
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0, argv
        report = json.loads(out)
        code, text, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        for leaf in scalar_leaves(report):
            shown = leaf if isinstance(leaf, str) else json.dumps(leaf)
            assert shown in text, (argv, leaf)


def test_text_golden_delta(capsys):
    code, out, _ = run_cli(capsys, "delta", "--p", "5", "--n", "3")
    assert code == 0
    assert out == (
        "cokernel:\n"
        "  invariant_factors: [3]\n"
        "  order: 3\n"
        "command: delta\n"
        "inputs:\n"
        "  n: 3\n"
        "  p: 5\n"
        "matrix:\n"
        "  3  0  0\n"
        "  1  1  0\n"
        "  1  2  1\n"
        "uniformizers: evaluation-lattice entries depend on the cusp uniformizers; this tool "
        "fixes the standard matrices (1 0; p^m 1) for m >= n/2 and (-p^(n-m) -1; p^n 0) for m < n/2\n"
    )


def test_timing_in_text_mode(capsys):
    code, out, _ = run_cli(capsys, "cusps", "10", "--timing")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("timing_seconds: ")
    assert float(lines[-1].removeprefix("timing_seconds: ")) >= 0


def test_large_prime_level_is_quick():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import cuspidal

    env = dict(os.environ, PYTHONPATH=str(Path(cuspidal.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-m", "cuspidal.cli", "cusps", "1000000000000000009", "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=20,
    )
    assert done.returncode == 0, done.stderr
    levels = [c["level"] for c in json.loads(done.stdout)["cusps"]]
    assert levels == [1, 1000000000000000009]


def run_subprocess(*argv):
    """The CLI's JSON report in a fresh interpreter, with a 60 s timeout."""
    import os
    import subprocess
    import sys

    import cuspidal

    env = dict(os.environ, PYTHONPATH=str(Path(cuspidal.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-m", "cuspidal.cli", *argv, "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_pq_with_a_large_prime_is_quick():
    p, q = 13, 1000000009
    report = run_subprocess("torsion", "--pq", str(p), str(q))
    assert report["kernel"]["invariant_factors"] == [(p - 1) * (q - 1) // 24]


def test_pq_with_two_large_primes_is_quick():
    """N = pq is factored from its inputs: Pollard rho on it would take
    seconds for two 13-digit primes."""
    p, q = 1000000000177, 1000000000189
    report = run_subprocess("pq", "--p", str(p), "--q", str(q))
    assert report["kernel"]["invariant_factors"] == [(p - 1) * (q - 1) // 24]
    assert report["class_group"]["order"] == report["order_formula_4abc"]
    torsion = run_subprocess("torsion", "--pq", str(p), str(q))
    assert torsion["kernel"]["invariant_factors"] == [(p - 1) * (q - 1) // 24]


def test_pq_with_an_uncertifiable_prime_in_det_sigma_answers():
    """det(sigma) at the cusp of level q is p (2 d p - 1), and 2 d p - 1 =
    7535916099720210252795473 is a prime past the 3.3e24 bound of
    `factorize`; that part cancels, so it is never factored."""
    p, q = 2000000000137, 2000000010049
    report = run_subprocess("pq", "--p", str(p), "--q", str(q))
    assert report["kernel"]["invariant_factors"] == [166666667515333333390272]
    assert report["torsion_order"] == "1333333340122666667122176"
    torsion = run_subprocess("torsion", "--pq", str(p), str(q))
    assert torsion["kernel"]["invariant_factors"] == [166666667515333333390272]
    assert torsion["order"] == "1333333340122666667122176"


def test_unknown_subcommand_exit_code(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_missing_arguments_exit_code(capsys):
    code, _, err = run_cli(capsys, "class-group")
    assert code == 2


def test_json_round_trip_and_determinism(capsys):
    commands = [
        ("cusps", "30", "--json"),
        ("class-group", "--p", "13", "--n", "2", "--json"),
        ("delta", "--p", "7", "--n", "2", "--json"),
        ("torsion", "--pq", "13", "37", "--json"),
        ("pq", "--p", "13", "--q", "37", "--json"),
    ]
    for argv in commands:
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0
        code, second, _ = run_cli(capsys, *argv)
        assert first == second, argv  # byte-identical output
        report = json.loads(first)
        assert json.dumps(report, indent=2, sort_keys=True) + "\n" == first


def test_json_reports_match_the_golden_file(capsys):
    assert len(GOLDEN) == 14
    for case in GOLDEN:
        code, out, _ = run_cli(capsys, *case["argv"], "--json")
        assert code == 0, case["argv"]
        assert out == json.dumps(case["report"], indent=2, sort_keys=True) + "\n", case["argv"]


# every form of every command, with the `inputs` its report echoes
INPUT_ECHOES = [
    (("cusps", "12"), {"N": 12}),
    (("eta-check", "eta(5)^6 * eta(1)^-6", "--level", "5"), {"expression": "eta(5)^6 * eta(1)^-6", "level": 5}),
    (("divisor", "eta(25) * eta(1)^-1", "--level", "25"), {"expression": "eta(25) * eta(1)^-1", "level": 25}),
    (("class-group", "--N", "30"), {"N": 30}),
    (("class-group", "--n", "2", "--p", "5"), {"p": 5, "n": 2}),
    (("matrices", "--p", "5", "--n", "2"), {"p": 5, "n": 2}),
    (("leading-coeffs", "--p", "5", "--n", "2"), {"p": 5, "n": 2}),
    (("delta", "--p", "5", "--n", "3"), {"p": 5, "n": 3}),
    (("torsion", "--p", "5", "--n", "2"), {"p": 5, "n": 2}),
    (("torsion", "--pq", "13", "37"), {"pq": [13, 37]}),
    (("pq", "--p", "13", "--q", "37"), {"p": 13, "q": 37}),
    (("verify", "--suite", "mazur"), {"suite": "mazur"}),
    (("verify",), {"suite": "all"}),
]


@pytest.mark.parametrize("argv, inputs", INPUT_ECHOES, ids=[" ".join(argv) for argv, _ in INPUT_ECHOES])
def test_inputs_are_the_arguments_given(capsys, argv, inputs):
    assert {argv[0] for argv, _ in INPUT_ECHOES} == set(COMMANDS)
    code, out, err = run_cli(capsys, *argv, "--json", "--timing")
    assert code == 0, err
    assert json.loads(out)["inputs"] == inputs


def test_pq_command(capsys):
    code, out, _ = run_cli(capsys, "pq", "--p", "13", "--q", "61", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["a"] == "31" and report["b"] == "35" and report["c"] == "30"
    assert report["order_formula_4abc"] == "130200"
    assert report["class_group"]["order"] == "130200"
    assert report["kernel"]["invariant_factors"] == [30]
    assert report["leading_coefficient_magnitudes"]["f1"] == ["13", "1", "13", "1"]
    assert report["leading_coefficient_magnitudes"]["f3"] == ["1", "1", "1", "1"]


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "mazur")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "all_passed: true"
    assert lines[lines.index("results:") + 1] == "  criterion: mazur-orders  detail: 44 primes match exactly  passed: true"


def test_verify_failure_exits_nonzero(capsys, monkeypatch):
    import cuspidal.verify as verify_module
    from cuspidal.verify import CheckResult

    def failing():
        return CheckResult("mazur-orders", False, "forced failure for the exit-code test")

    monkeypatch.setattr(
        verify_module, "CRITERIA", (("mazur", failing),)
    )
    monkeypatch.setattr("cuspidal.verify.run_suite", lambda name: [failing()])
    code, out, _ = run_cli(capsys, "verify", "--suite", "mazur")
    assert code == 1
    assert out.splitlines()[0] == "all_passed: false"
    assert "  criterion: mazur-orders  detail: forced failure for the exit-code test  passed: false\n" in out


def test_run_suite_unknown_name():
    import pytest

    from cuspidal.verify import run_suite

    with pytest.raises(ValueError):
        run_suite("bogus")


def test_verify_unknown_suite_exits_2(capsys):
    from cuspidal.verify import CRITERIA

    code, out, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert out == ""
    prefix = "error: unknown suite 'bogus'; choose from "
    assert err.startswith(prefix)
    assert err.removeprefix(prefix).strip().split(", ") == [name for name, _ in CRITERIA] + ["all"]
    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == 0
    assert "verify.CRITERIA" in " ".join(out.split())


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "determinants", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    assert report["results"][0]["criterion"] == "determinant-claims"


def test_timing_flag_adds_field(capsys):
    code, out, _ = run_cli(capsys, "cusps", "10", "--json", "--timing")
    assert code == 0
    assert "timing_seconds" in json.loads(out)
    code, out, _ = run_cli(capsys, "cusps", "10", "--json")
    assert "timing_seconds" not in json.loads(out)


def test_leading_coeffs_command(capsys):
    code, out, _ = run_cli(capsys, "leading-coeffs", "--p", "5", "--n", "2", "--json")
    assert code == 0
    report = json.loads(out)
    rows = {row["function"]: row for row in report["rows"]}
    assert rows["f"]["symbolic"][0] == "5^(-3)"
    assert rows["f"]["symbolic"][1] == "1"
    assert rows["g0"]["symbolic"][1] == "e(3/10)*5^(-1/2)"
    for row in report["rows"]:
        for residual in row["numeric_residual"]:
            assert float(residual) < 1e-8


def test_main_repeated_calls_match_fresh_processes(capsys):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import cuspidal
    from cuspidal.cli import build_parser

    assert build_parser() is build_parser()  # built once per process
    commands = [
        ("cusps", "12", "--json"),
        ("class-group", "--p", "7", "--n", "2"),
        ("class-group", "--p", "7"),  # scope error, exit 2
        ("frobnicate",),  # usage error, exit 2
        ("delta", "--p", "5", "--n", "3", "--json"),
        ("cusps", "12", "--json"),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(cuspidal.__file__).parent.parent))
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "cuspidal.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert [run_cli(capsys, *argv)[0] for argv in commands] == [0, 0, 2, 2, 0, 0]


def counted_eta_points(monkeypatch):
    """The list that records the point and working precision of every eta
    value the oracle computes."""
    eta_exact = transform._eta_exact
    calls = []

    def counted(X, Y, S):
        calls.append(((X, Y, S), mp.mp.prec))
        return eta_exact(X, Y, S)

    monkeypatch.setattr(transform, "_eta_exact", counted)
    return calls


def test_each_eta_point_is_evaluated_once_per_command(capsys, monkeypatch):
    calls = counted_eta_points(monkeypatch)
    # 11 cusps times the 11 divisors of 5^10; 3 pairs times 4 cusps times 4
    # divisors of pq; 88 (p, n, sigma, delta) in the leading-coefficient
    # suite, where 12 points of n = 3 are points of n = 2
    for argv, points in (
        (["leading-coeffs", "--p", "5", "--n", "10"], 121),
        (["verify", "--suite", "pq"], 48),
        (["verify", "--suite", "leading-coeffs"], 76),
    ):
        # the second run evaluates every point again: nothing outlives a command
        for _ in range(2):
            calls.clear()
            assert main(argv + ["--json"]) == 0
            capsys.readouterr()
            assert len(calls) == len({point for point, _ in calls}) == points, argv
    # p delta * sigma_1(z) at n = 3 is delta * sigma_0(z) at n = 2
    for p in (5, 13, 23, 47):
        for delta in (1, p, p * p):
            shared = transform._oracle_point(delta, transform.sigma_matrix(p, 2, 0), 8)
            assert transform._oracle_point(p * delta, transform.sigma_matrix(p, 3, 1), 8) == shared


def test_every_oracle_eta_value_runs_at_50_digits(capsys, monkeypatch):
    # the points come from exact integers, so no point needs a finer precision
    calls = counted_eta_points(monkeypatch)
    assert main(["leading-coeffs", "--p", "5", "--n", "40", "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == 41 * 41
    assert {prec for _, prec in calls} == {169}


def fresh_modules(*argv):
    """The `cuspidal`, mpmath, `dataclasses` and `inspect` modules that one
    command (or, with no arguments, `import cuspidal`) loads in a fresh
    interpreter, which must exit 0."""
    import os
    import subprocess
    import sys

    import cuspidal

    script = (
        "import contextlib, io, json, sys\n"
        "import cuspidal\n"
        "code = 0\n"
        "if sys.argv[1:]:\n"
        "    from cuspidal.cli import main\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(sys.argv[1:])\n"
        "top = ('cuspidal', 'mpmath', 'dataclasses', 'inspect')\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.partition('.')[0] in top)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cuspidal.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout)
    assert code == 0, (argv, done.stderr)
    return set(modules)


def test_package_root_loads_no_submodule():
    assert fresh_modules() == {"cuspidal"}


def test_cusps_loads_only_curve_and_linalg():
    modules = fresh_modules("cusps", "12")
    assert modules == {"cuspidal", "cuspidal.cli", "cuspidal.curve", "cuspidal.errors", "cuspidal.linalg"}


ORACLE_MODULES = {"mpmath", "cuspidal.transform", "cuspidal.jacobian", "cuspidal.verify"}


def test_divisor_level_commands_leave_the_oracle_unloaded():
    for argv in (
        ("class-group", "--N", "30"),
        ("divisor", "eta(25) * eta(1)^-1", "--level", "25"),
        ("eta-check", "eta(5)^6 * eta(1)^-6", "--level", "5"),
    ):
        modules = fresh_modules(*argv)
        assert not modules & ORACLE_MODULES, (argv, sorted(modules & ORACLE_MODULES))


def test_every_subcommand_runs_from_a_fresh_process():
    """Each handler imports what it calls: in a fresh interpreter nothing
    else has loaded its modules. No command loads `dataclasses` or the
    `inspect` it pulls in."""
    commands = {
        "cusps": ("12",),
        "eta-check": ("eta(5)^6 * eta(1)^-6", "--level", "5"),
        "divisor": ("eta(25) * eta(1)^-1", "--level", "25"),
        "class-group": ("--p", "5", "--n", "3"),
        "matrices": ("--p", "5", "--n", "2"),
        "leading-coeffs": ("--p", "5", "--n", "2"),
        "delta": ("--p", "5", "--n", "2"),
        "torsion": ("--pq", "13", "37"),
        "pq": ("--p", "13", "--q", "37"),
        "verify": ("--suite", "mazur"),
    }
    assert set(commands) == set(COMMANDS)
    for name, args in commands.items():
        modules = fresh_modules(name, *args)
        assert "cuspidal.cli" in modules, name
        assert not modules & {"dataclasses", "inspect"}, (name, sorted(modules))

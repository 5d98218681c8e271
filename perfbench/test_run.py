"""The run loop counts every failed operation and marks the run incorrect.

Run from the repository root with `python3 -m pytest perfbench`. Each test
runs `run.run` for 10 ms on passes of a single `verify --suite delta` operation,
with `cuspidal.cli.main` replaced by a stand-in and the set-up probe stubbed.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import cuspidal.cli  # noqa: E402

ARGV = ["verify", "--suite", "delta"]
REAL_MAIN = cuspidal.cli.main


def delta_report(passed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert REAL_MAIN([*ARGV, "--json"]) == 0
    report = json.loads(out.getvalue())
    report["results"][0]["passed"] = passed
    report["all_passed"] = passed
    return report


def suite_passes(argv):
    print(json.dumps(delta_report(True)))
    return 0


def suite_fails(argv):
    # what `main` does when a suite fails: print the report, return 1
    print(json.dumps(delta_report(False)))
    return 1


def scope_error(argv):
    print("error: out of scope", file=sys.stderr)
    return 2


def crashes(argv):
    raise RuntimeError("boom")


def short_run(monkeypatch, tmp_path, fake_main):
    monkeypatch.setattr(cuspidal.cli, "main", fake_main)
    monkeypatch.setattr(run, "make_pass", lambda workload, seed: [(ARGV, {"suite": "delta"})])
    split = {"exit_code": 0, "mpmath_import_s": 0.1, "cuspidal_import_s": 0.05, "command_s": 0.0}
    monkeypatch.setattr(run, "probe_setup", lambda: (0.2, split))
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    correct, result = run.run("oracle-certify", 1, 0.01, False)
    detail = json.loads((tmp_path / "oracle-certify-seed1-trace0.json").read_text())
    assert result["attempted"] == len(detail["pass_cpu_s"]) >= 1
    return correct, result, detail


def test_passing_operation(monkeypatch, tmp_path):
    correct, result, detail = short_run(monkeypatch, tmp_path, suite_passes)
    assert correct and result["correct"]
    assert result["failed"] == 0 and not detail["check_errors"]


@pytest.mark.parametrize("fake_main", [suite_fails, scope_error, crashes], ids=lambda f: f.__name__)
def test_failed_operation_makes_the_run_incorrect(monkeypatch, tmp_path, fake_main):
    correct, result, detail = short_run(monkeypatch, tmp_path, fake_main)
    assert not correct and not result["correct"]
    assert result["failed"] == result["attempted"] == len(detail["failures"])


def test_failed_suite_report_is_still_checked(monkeypatch, tmp_path):
    _, _, detail = short_run(monkeypatch, tmp_path, suite_fails)
    assert len(detail["check_errors"]) == len(detail["failures"])
    assert all("suite delta failed" in error for error in detail["check_errors"])

"""CPU-time benchmark of the `cuspidal` CLI.

    python3 perfbench/run.py --workload deep-prime-power --seed 1 --seconds 30 --trace 0

Run from the repository root. Each operation is one in-process call of
`cuspidal.cli.main([..., "--json"])` with stdout captured; one client,
one thread, each call starting when the previous one returns. A pass runs
the workload's seeded list of operations once, and the run repeats passes
until `--seconds` of wall time have gone by. Reports are parsed and checked
against independent closed forms (see checks.py) outside the timed region.
`pass_cpu_s` is the mean CPU time of a pass scaled to a reference machine
speed, which calibrate.py measures in child processes spread over the run.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. Details (every pass,
every set-up probe, the span aggregates) go to perfbench/results/. Exits 1
when an operation fails or an output fails its check, and 2 when the
source tree is missing.
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import DEFAULT_SEED, WORKLOADS, make_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 15
# a typical CPU time of one calibrate.py sample on the reference machine
# (2-vCPU Xeon VM, Python 3.11.7, mpmath 1.3.0); `pass_cpu_s` is scaled to it
REFERENCE_CALIBRATION_S = 0.017
# wall seconds between two calibration samples during the passes
SAMPLE_EVERY_S = 0.25


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def probe_setup():
    """CPU seconds of one fresh interpreter answering a trivial command,
    and the import split it reports."""
    before = children_cpu()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    cpu = children_cpu() - before
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    *report, split = proc.stdout.strip().splitlines()
    split = json.loads(split)
    checks.check_report(["cusps"], json.loads("\n".join(report)), {"N": 1})
    if split["exit_code"] != 0:
        raise RuntimeError("set-up probe command failed")
    return cpu, split


class SpeedGauge:
    """calibrate.py in a child process, sampled between operations.

    A shared machine can switch between faster and slower states (about
    1.6x apart on the reference machine, from fractions of a second to
    minutes at a time), and CPU time follows. The samples, taken every
    SAMPLE_EVERY_S during the passes, measure the state the passes ran in;
    the child is idle in between, and its CPU time is not the passes'."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.samples = []
        self.wall = 0.0

    def sample(self):
        start = time.perf_counter()
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration process ended")
        self.samples.append(float(line))
        self.wall += time.perf_counter() - start

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--json"])
        except Exception as exc:  # an operation that crashes counts as failed
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def settle(ops, outputs, failures, errors):
    """Count the failed operations of one pass and check every report.

    An operation fails when `main` returns non-zero or raises. A report on
    stdout is checked whatever the exit code, so a failed `verify` suite,
    which still prints its report and returns 1, also shows as a check
    error. Returns the number of failed operations."""
    failed = 0
    for (argv, inputs), (code, text, err) in zip(ops, outputs):
        if code != 0:
            failed += 1
            failures.append(f"{' '.join(argv)}: exit {code}: {err.strip()[-300:]}")
        if code == 0 or text.strip():
            try:
                checks.check_report(argv, json.loads(text), inputs)
            except Exception as exc:  # a malformed report fails its check
                errors.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
    return failed


def per_layer_values(setups, tracer, tracer_passes):
    """Per pass: counts (identical in every pass) and median self CPU times."""
    values = {}
    for name, row in tracer_passes[0].items():
        for key in row.keys() - {"module"}:
            samples = [p[name][key] for p in tracer_passes]
            middle = statistics.median if key == "self_s" else statistics.median_low
            values[f"{name}.{key}"] = middle(samples)
    for module in {row["module"] for row in tracer_passes[0].values()}:
        values[f"{module}.self_s"] = statistics.median(
            [sum(r["self_s"] for r in p.values() if r["module"] == module) for p in tracer_passes]
        )
    values["linalg.smith_normal_form.max_dim"] = tracer.smith_max_dim
    values["linalg.smith_normal_form.max_bits"] = tracer.smith_max_bits
    values["setup.mpmath_import_s"] = statistics.median([s["mpmath_import_s"] for s in setups])
    values["setup.cuspidal_import_s"] = statistics.median([s["cuspidal_import_s"] for s in setups])
    return values


def run(workload, seed, seconds, trace):
    sys.path.insert(0, str(SRC))
    import cuspidal.cli

    if not Path(cuspidal.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported {cuspidal.cli.__file__}, not the source tree {SRC}")
    tracer = None
    if trace:
        from tracing import Tracer, per_pass

        tracer = Tracer()
        tracer.install()
    main = cuspidal.cli.main
    ops = make_pass(workload, seed)
    attempted = failed = 0
    failures, errors = [], []
    pass_cpu, pass_wall, setup_cpu, setups, tracer_passes = [], [], [], [], []
    peak_rss_mb = None

    def probe_until(count):
        while len(setups) < count:
            cpu, split = probe_setup()
            setup_cpu.append(cpu)
            setups.append(split)

    gauge = SpeedGauge()
    try:
        start = time.perf_counter()
        deadline = start + seconds
        next_sample = start
        while True:
            # spread the set-up probes over the run so they sample the same load
            probe_until(min(SETUP_PROBES, int(SETUP_PROBES * (time.perf_counter() - start) / seconds)))
            before = tracer.snapshot() if tracer else None
            outputs = []
            gauge_wall0 = gauge.wall
            cpu0, children0, wall0 = time.process_time(), children_cpu(), time.perf_counter()
            for argv, _ in ops:
                if tracer:
                    tracer.new_call()
                outputs.append(call(main, argv))
                if time.perf_counter() >= next_sample:
                    gauge.sample()
                    next_sample = time.perf_counter() + SAMPLE_EVERY_S
            wall1, cpu1, children1 = time.perf_counter(), time.process_time(), children_cpu()
            pass_cpu.append(cpu1 - cpu0 + children1 - children0)
            pass_wall.append(wall1 - wall0 - (gauge.wall - gauge_wall0))
            if peak_rss_mb is None:
                # after one pass, before any check: independent of how many
                # passes fit in the run
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer:
                tracer_passes.append(per_pass(before, tracer.snapshot()))
            attempted += len(ops)
            failed += settle(ops, outputs, failures, errors)
            if time.perf_counter() >= deadline:
                break
        probe_until(SETUP_PROBES)
    finally:
        gauge.close()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        values = per_layer_values(setups, tracer, tracer_passes)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_cpu),
            "pass_cpu_s": statistics.mean(pass_cpu) * REFERENCE_CALIBRATION_S / statistics.mean(gauge.samples),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            raise SystemExit(f"metric {metric['name']} is not measured")
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}

    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(pass_cpu),
        "operations_per_pass": len(ops),
        "pass_cpu_s": pass_cpu,
        "pass_wall_s": pass_wall,
        "pass_wall_median_s": statistics.median(pass_wall),
        "pass_cpu_median_s": statistics.median(pass_cpu),
        "calibration_cpu_s": gauge.samples,
        "setup_cpu_s": setup_cpu,
        "setup_split": setups,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
        "check_errors": errors,
        "metrics": metrics,
    }
    if trace:
        detail["spans_per_pass"] = tracer_passes
    RESULTS.mkdir(exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (RESULTS / name).write_text(json.dumps(detail, indent=1, sort_keys=True))
    for line in failures + errors:
        print(line, file=sys.stderr)
    correct = failed == 0 and not errors
    return correct, {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cuspidal" / "cli.py").is_file():
        print(f"error: no cuspidal source tree at {SRC}", file=sys.stderr)
        return 2
    correct, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""robustspec benchmark: one workload per process, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc_full --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

`--trace 0` measures the end-to-end metrics with no instrumentation.
`--trace 1` runs each op untraced, then twice traced, and reports the
per-layer metrics (per op); it also checks that both traced runs give the
same counters and that all three give byte-identical payloads.  `all` runs
every workload, each in its own process, and prints one table.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Fresh interpreters started, one after another, to time set-up; the
#: reported `setup_s` is their median.
SETUP_PROBES = 9

WORKLOAD_NAMES = ("mc_full", "certify_large_n", "minimax_interior")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

# per-layer metric -> (unit, how it is read off one traced op)
PER_LAYER = {
    "spectral.autocovariance.calls": ("count", ("calls", "spectral.autocovariance")),
    "spectral.autocovariance.self_s": ("s", ("self", "spectral.autocovariance")),
    "spectral.autocovariance.flops": ("flop", ("count", "spectral.autocovariance.flops")),
    "dominance.find_dominated.self_s": ("s", ("self", "dominance.find_dominated")),
    "dominance.margin_evals": ("count", ("count", "dominance.margin_evals")),
    "exponent.kl_rate.calls": ("count", ("calls", "exponent.kl_rate")),
    "exponent.kl_rate.s": ("s", ("total", "exponent.kl_rate")),
    "gaussian_model.rng.self_s": ("s", ("self", "gaussian_model.rng")),
    "gaussian_model.normals_drawn": ("count", ("count", "gaussian_model.normals_drawn")),
    "gaussian_model.normals_unique_ratio": (
        "ratio", ("ratio", "gaussian_model.normals_unique", "gaussian_model.normals_drawn")),
    "gaussian_model.sample.self_s": ("s", ("self", "gaussian_model.sample")),
    "gaussian_model.sample.rows": ("count", ("count", "gaussian_model.sample.rows")),
    "gaussian_model.sample.flops": ("flop", ("count", "gaussian_model.sample.flops")),
    "gaussian_model.quad_forms.self_s": ("s", ("self", "gaussian_model.quad_forms")),
    "gaussian_model.quad_forms.rows": ("count", ("count", "gaussian_model.quad_forms.rows")),
    "gaussian_model.quad_forms.flops": ("flop", ("count", "gaussian_model.quad_forms.flops")),
    "gaussian_model.white_models_built": (
        "count", ("count", "gaussian_model.white_models_built")),
    "gaussian_model.white_build.self_s": ("s", ("self", "gaussian_model.white_build")),
    "gaussian_model.models_built": ("count", ("count", "gaussian_model.models_built")),
    "gaussian_model.model_build.self_s": ("s", ("self", "gaussian_model.model_build")),
    "gaussian_model.gaussian_kl.self_s": ("s", ("self", "gaussian_model.gaussian_kl")),
    "gaussian_model.ratio_expectation.calls": (
        "count", ("calls", "gaussian_model.ratio_expectation")),
    "gaussian_model.ratio_expectation.self_s": (
        "s", ("self", "gaussian_model.ratio_expectation")),
    "detection.llr.self_s": ("s", ("self", "detection.llr")),
    "detection.llr.rows": ("count", ("count", "detection.llr.rows")),
    "detection.calibrate.self_s": ("s", ("self", "detection.calibrate")),
    "detection.calibrations": ("count", ("count", "detection.calibrations")),
    "detection.mc.self_s": ("s", ("self", "detection.mc")),
    "detection.ladder_entries": ("count", ("count", "detection.ladder_entries")),
    "detection.censored_ratio": (
        "ratio", ("ratio", "detection.censored_entries", "detection.ladder_entries")),
    "minimax.fw.self_s": ("s", ("self", "minimax.fw")),
    "minimax.fw.iterations": ("count", ("count", "minimax.fw.iterations")),
    "minimax.fw.s_per_iteration": ("s", ("per", "minimax.fw", "minimax.fw.iterations")),
    "minimax.kkt.self_s": ("s", ("self", "minimax.kkt")),
    "harness.run_experiment.self_s": ("s", ("self", "harness.run_experiment")),
    "harness.frozen_null_bytes": ("B", ("count", "harness.frozen_null_bytes")),
    "harness.write_report.s": ("s", ("total", "harness.write_report")),
    "harness.report_bytes": ("B", ("count", "harness.report_bytes")),
    "cli.main.self_s": ("s", ("self", "cli.main")),
    "bench.trace_overhead_ratio": ("ratio", ("overhead",)),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --------------------------------------------------------------------------
# set-up


def setup(workload_name, seed):
    """Imports, BLAS load and the first op's inputs: everything before op 0."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np
    from workloads import WORKLOADS  # imports robustspec and its CLI

    # the first LAPACK call starts the BLAS library's thread pool
    np.linalg.cholesky(np.eye(64) + np.ones((64, 64)))
    workload = WORKLOADS[workload_name]
    return workload, workload.make_op(seed, 0)


def probe_setup_times(args):
    """Set-up seconds of fresh interpreters, from spawn to first op ready."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip()) - start)
    return times


def environment():
    import numpy as np
    import scipy

    nproc = os.cpu_count()
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = next(
        (f"{os.environ[v]} ({v})" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
         if os.environ.get(v)),
        f"{nproc} (library default: nproc)",
    )
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


# --------------------------------------------------------------------------
# ops


def run_op(workload, op, workdir):
    """Run one op. Returns (seconds, payload bytes or None, problems)."""
    start = time.perf_counter()
    try:
        payload, code = workload.run(op, workdir)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - start, None, [f"raised {type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - start
    if code != 0:
        return seconds, None, [f"exit code {code}"]
    return seconds, payload, []


def check(workload, op, payload, problems):
    if payload is not None and not problems:
        try:
            problems = workload.check(op, payload)
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed output: {type(exc).__name__}: {exc}"]
    return problems


def run_untraced(workload, first_op, args, workdir):
    times, failures = [], []
    timed = 0.0
    op = first_op
    while timed < args.seconds:
        gen_start = time.perf_counter()
        if op is None:
            op = workload.make_op(args.seed, len(times))
        timed += time.perf_counter() - gen_start
        seconds, payload, problems = run_op(workload, op, workdir)
        timed += seconds
        times.append(seconds)
        problems = check(workload, op, payload, problems)
        if problems:
            failures.append((op.index, problems))
        op = None
    completed = len(times) - len(failures)
    metrics = {
        "op_s_p50": statistics.median(times),
        "ops_per_s": completed / timed,
    }
    notes = [
        f"op_s_p50 from {len(times)} ops: "
        + " ".join(f"{t:.3f}" for t in times),
        f"ops_per_s = {completed} completed ops / {timed:.3f} s timed wall",
    ]
    return len(times), failures, metrics, notes


def run_traced(workload, first_op, args, workdir):
    from tracing import INEXACT_COUNTS, Tracer, self_times

    tracer = Tracer()
    untraced_times, traced_times, failures = [], [], []
    per_op = []  # (self-time table, counts) per traced execution
    digests = []
    op = first_op
    start = time.perf_counter()
    while not untraced_times or time.perf_counter() - start < args.seconds:
        if op is None:
            op = workload.make_op(args.seed, len(untraced_times))
        seconds, payload, problems = run_op(workload, op, workdir)
        untraced_times.append(seconds)
        problems = check(workload, op, payload, problems)
        runs = []
        missing = tracer.install()
        try:
            for rep in range(2):
                tracer.begin_op((op.index, rep))
                with tracer.span("bench.op"):
                    seconds, traced_payload, traced_problems = run_op(workload, op, workdir)
                traced_times.append(seconds)
                runs.append((traced_payload, dict(tracer.counts)))
                problems += traced_problems
        finally:
            tracer.uninstall()
        for rep, (traced_payload, counts) in enumerate(runs):
            per_op.append((self_times(tracer.spans, (op.index, rep)), counts))
            if traced_payload != payload:
                problems.append(f"traced run {rep} payload differs from the untraced one")
        exact = [{k: v for k, v in c.items() if k not in INEXACT_COUNTS} for _, c in runs]
        if exact[0] != exact[1]:
            problems.append("the two traced runs gave different counters")
        digests.append(hashlib.sha256(
            json.dumps(exact[0], sort_keys=True).encode()).hexdigest()[:16])
        if problems:
            failures.append((op.index, problems))
        op = None

    overhead = statistics.median(traced_times) / statistics.median(untraced_times)
    metrics = {name: layer_value(spec, per_op, overhead) for name, (_, spec) in PER_LAYER.items()}
    notes = [f"traced ops: {len(untraced_times)} (each run untraced once, traced twice)",
             f"traced functions missing from the package: {', '.join(missing) or 'none'}",
             f"counter digest per op (repeats for the same seed): {' '.join(digests)}"]
    notes += span_table(per_op)
    notes += [f"count {k} = {v}" for k, v in sorted(per_op[0][1].items())]
    spans_path = write_spans(tracer.spans, args)
    notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
    return len(untraced_times), failures, metrics, notes


def layer_value(spec, per_op, overhead):
    """Mean over traced executions of one per-layer quantity."""
    kind = spec[0]
    if kind == "overhead":
        return overhead
    values = []
    for table, counts in per_op:
        if kind in ("calls", "total", "self"):
            row = table.get(spec[1], (0, 0.0, 0.0))
            values.append(row[("calls", "total", "self").index(kind)])
        elif kind == "count":
            values.append(counts.get(spec[1], 0))
        elif kind == "ratio":
            base = counts.get(spec[2], 0)
            values.append(counts.get(spec[1], 0) / base if base else 0.0)
        else:  # per: self seconds per counted unit
            base = counts.get(spec[2], 0)
            values.append(table.get(spec[1], (0, 0.0, 0.0))[2] / base if base else 0.0)
    return statistics.fmean(values)


def span_table(per_op):
    names = sorted({name for table, _ in per_op for name in table})
    rows = []
    for name in names:
        calls, total, self_s = (
            statistics.fmean(table.get(name, (0, 0.0, 0.0))[i] for table, _ in per_op)
            for i in range(3)
        )
        rows.append((self_s, f"  {name:40s} calls {calls:9.1f}  total {total:9.4f} s  self {self_s:9.4f} s"))
    rows.sort(reverse=True)
    return ["spans per op, by self time:"] + [line for _, line in rows]


def write_spans(spans, args):
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        for i, (name, start, end, parent, op) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                 "parent": parent, "op": list(op)}) + "\n")
    return path


# --------------------------------------------------------------------------
# entry points


def run_workload(args):
    setup_times = [] if args.trace else probe_setup_times(args)
    workload, first_op = setup(args.workload, args.seed)
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_traced if args.trace else run_untraced
        attempted, failures, metrics, notes = runner(workload, first_op, args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload.name} seed {args.seed}: {workload.size}")
    print(f"why: {workload.why}")
    print("environment: " + json.dumps(environment()))
    if args.trace:
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
        notes.insert(0, "setup_s from set-ups of " + " ".join(f"{t:.3f}" for t in setup_times))
    for line in notes:
        print(line)
    for index, problems in failures:
        print(f"FAILED op {index}: " + "; ".join(problems))
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(f"ops_failed_ratio {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted})")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, one after another, then one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    metric_names = list(results[WORKLOAD_NAMES[0]]["metrics"])
    print()
    print(f"{'metric':40s}" + "".join(f"{name:>20s}" for name in WORKLOAD_NAMES))
    for metric in metric_names:
        unit = results[WORKLOAD_NAMES[0]]["metrics"][metric]["unit"]
        print(f"{metric + ' [' + unit + ']':40s}" + "".join(
            f"{results[name]['metrics'][metric]['value']:20.6g}" for name in WORKLOAD_NAMES))
    print(f"{'ops_failed_ratio [ratio]':40s}" + "".join(
        f"{results[n]['failed'] / results[n]['attempted']:20.6g}" for n in WORKLOAD_NAMES))
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items() for metric, value in r["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "robustspec" / "__init__.py").is_file():
        print(f"error: robustspec sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(args.workload, args.seed)
        print(time.monotonic())
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

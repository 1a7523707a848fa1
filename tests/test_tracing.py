"""The bench tracer (`perfbench/tracing.py`) installs on the package and
restores every binding it patched, so `--trace 1` runs on the current names.

This guards the names, not the layers they stand for: the Monte Carlo engine
and the frozen null score through `detection._Scorer.log_ratios`, which no
traced name covers, so a traced run books that time as the caller's self
time and `detection.llr` and `gaussian_model.quad_forms` read 0 there.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import robustspec.cli  # noqa: F401  (loads every traced module)
from robustspec.gaussian_model import ToeplitzGaussian
from robustspec.harness import parse_config, run_experiment

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
RUN = TRACING.parent / "run.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "robustspec"
        for attr, value in vars(module).items()
    }


def test_install_then_uninstall_restores_every_binding():
    tracer = load_tracing().Tracer()
    before = bindings()
    quad_forms = ToeplitzGaussian.__dict__["quad_forms"]
    missing = tracer.install()
    try:
        patched = [key for key, value in bindings().items() if value is not before[key]]
        assert ("robustspec.detection", "log_likelihood_ratios") in patched
        assert ("robustspec.gaussian_model", "standard_normal_block") in patched
        assert ToeplitzGaussian.__dict__["quad_forms"] is not quad_forms
        # an unresolved name is a renamed or deleted traced function
        assert missing == [], missing
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert ToeplitzGaussian.__dict__["quad_forms"] is quad_forms


def test_traced_minimax_run_counts_the_optimizer_iterations():
    # the run's game solve goes through the traced solver
    config = parse_config(json.dumps({
        "mode": "minimax", "grid_size": 256, "n_values": [8], "trials": 1000,
        "psds": [
            {"label": "weak", "family": "flat", "params": {"level": 1.0}},
            {"label": "strong", "family": "flat", "params": {"level": 2.0}},
        ],
    }))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        run_experiment(config)
    finally:
        tracer.uninstall()
    assert tracer.counts["minimax.fw.iterations"] > 0


def test_bench_runs_one_traced_op_of_every_workload(tmp_path):
    # `--seconds 0` runs one op per workload: untraced, then twice traced,
    # checking its payload, the three runs' payload bytes and the counters.
    # The bench runs from a copy beside a link to the sources, so its span
    # files and work directories land under tmp_path, not in the checkout.
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for script in RUN.parent.glob("*.py"):
        shutil.copy(script, bench)
    (tmp_path / "src").symlink_to(RUN.parents[1] / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, str(bench / RUN.name), "--workload", "all", "--seconds", "0",
         "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 3, 0), result
    missing = [line for line in lines if line.startswith("traced functions missing")]
    # one line per workload
    assert missing == ["traced functions missing from the package: none"] * 3, missing

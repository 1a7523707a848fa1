"""Experiment orchestration: config parsing, mode dispatch, report emission.

Configs are flat JSON documents with nested PSD blocks; a single master seed
drives every Monte Carlo stage through labeled substreams, so one (config,
seed) pair reproduces an entire run byte-for-byte (wall time aside).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, fields
from typing import List, Optional, Sequence

from . import __version__
from .detection import MIN_MC_TRIALS, MixtureWeights, derive_seed
from .detection import operating_characteristics, ratio_rows
from .dominance import find_dominated
from .errors import ConfigError, ParameterError, RobustSpecError
from .errors import EstimationInfeasibleError
from .exponent import error_exponent, genie_bound
from .gaussian_model import ToeplitzGaussian, build_model_sets, white_blocks
from .minimax import kkt_certificate, minimize_mixture_kl
from .spectral import DEFAULT_GRID_SIZE, MIN_GRID_SIZE, UncertaintySet, make_psd

MODES = ("exponent", "dominance", "simulate", "minimax", "full")

#: Frozen CSV column order; downstream plotting depends on this.
CSV_COLUMNS = (
    "mode",
    "label",
    "n",
    "value",
    "fa_hat",
    "miss_hat",
    "miss_count",
    "miss_log",
    "censored",
)

_PSD_BLOCK_KEYS = {"label", "family", "params"}

#: Upper bounds that keep a config from asking for more memory than a desk
#: machine has: one PSD grid of MAX_GRID_SIZE doubles is 32 MiB, and at MAX_N
#: a sampled model's Cholesky factor or a KKT middle matrix is 512 MiB.
MAX_GRID_SIZE = 2**22
MAX_N = 8192

#: A run's models, one list of K per n: built once per run, read by every stage.
ModelSets = List[List[ToeplitzGaussian]]


@dataclass
class ExperimentConfig:
    """The resolved config: its fields are the accepted top-level keys, and
    asdict(config), in field order, is the config a report records."""

    mode: str
    grid_size: int
    sigma2: float
    alpha: float
    seed: int
    trials: int
    n_values: List[int]
    candidate_label: Optional[str]
    psds: List[dict]
    output_path: Optional[str]

    def build_psds(self) -> UncertaintySet:
        members = []
        for i, block in enumerate(self.psds):
            try:
                psd = make_psd(
                    block["family"],
                    grid_size=self.grid_size,
                    label=block["label"],
                    **block.get("params", {}),
                )
            except (ParameterError, TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"psds[{i}] ({block['label']!r}): {exc}") from exc
            members.append(psd)
        candidate_index = None
        if self.candidate_label is not None:
            labels = [p.label for p in members]
            candidate_index = labels.index(self.candidate_label)
        return UncertaintySet(members=tuple(members), candidate_index=candidate_index)


@dataclass
class ReportRecord:
    mode: str
    config: dict
    payload: dict
    seed: int
    wall_time_ms: float
    toolkit_version: str = __version__

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(doc: dict) -> "ReportRecord":
        return ReportRecord(**doc)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment document, resolving defaults."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    mode = doc.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    grid_size = _as_int(doc.get("grid_size", DEFAULT_GRID_SIZE), "grid_size")
    _check_grid(grid_size)

    sigma2 = _as_float(doc.get("sigma2", 1.0), "sigma2")
    if sigma2 <= 0:
        raise ConfigError(f"sigma2 must be > 0, got {sigma2}")

    alpha = _as_float(doc.get("alpha", 0.1), "alpha")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0,1), got {alpha}")

    seed = _as_int(doc.get("seed", 0), "seed")
    trials = _as_int(doc.get("trials", 10000), "trials")
    _check_trials(mode, trials)

    n_values = doc.get("n_values", [64, 256])
    if not isinstance(n_values, list):
        raise ConfigError(f"n_values must be a list of integers, got {n_values!r}")
    n_values = [_as_int(v, "n_values entry") for v in n_values]
    increasing = all(b > a for a, b in zip(n_values, n_values[1:]))
    if not (n_values and n_values[0] >= 1 and increasing):
        raise ConfigError("n_values must be nonempty, strictly increasing and >= 1")
    if n_values[-1] > MAX_N:
        raise ConfigError(f"n_values entries must be <= {MAX_N}, got {n_values[-1]}")

    raw_psds = doc.get("psds")
    if not isinstance(raw_psds, list) or not raw_psds:
        raise ConfigError("psds must be a nonempty list of PSD blocks")
    psds = []
    labels = set()
    for i, block in enumerate(raw_psds):
        if not isinstance(block, dict):
            raise ConfigError(f"psds[{i}] must be an object")
        extra = set(block) - _PSD_BLOCK_KEYS
        if extra:
            raise ConfigError(f"psds[{i}] has unknown keys: {sorted(extra)}")
        label = block.get("label")
        family = block.get("family")
        if not isinstance(label, str) or not label:
            raise ConfigError(f"psds[{i}].label must be a nonempty string")
        if label in labels:
            raise ConfigError(f"duplicate PSD label {label!r}")
        labels.add(label)
        if not isinstance(family, str):
            raise ConfigError(f"psds[{i}].family must be a string")
        params = block.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"psds[{i}].params must be an object")
        psds.append({"label": label, "family": family, "params": params})

    candidate_label = doc.get("candidate_label")
    if candidate_label is not None and (
        not isinstance(candidate_label, str) or candidate_label not in labels
    ):
        raise ConfigError(f"candidate_label {candidate_label!r} matches no PSD")

    output_path = doc.get("output_path")
    if output_path is not None and not (isinstance(output_path, str) and output_path):
        raise ConfigError(f"output_path must be a nonempty string, got {output_path!r}")

    return ExperimentConfig(
        mode=mode,
        grid_size=grid_size,
        sigma2=sigma2,
        alpha=alpha,
        seed=seed,
        trials=trials,
        n_values=n_values,
        candidate_label=candidate_label,
        psds=psds,
        output_path=output_path,
    )


def _check_grid(grid_size: int) -> None:
    if not MIN_GRID_SIZE <= grid_size <= MAX_GRID_SIZE:
        raise ConfigError(
            f"grid_size must be in [{MIN_GRID_SIZE}, {MAX_GRID_SIZE}], got {grid_size}"
        )


def _check_trials(mode: str, trials: int) -> None:
    floor = MIN_MC_TRIALS if mode in ("simulate", "minimax", "full") else 1
    if trials < floor:
        raise ConfigError(f"trials must be >= {floor} for mode {mode!r}, got {trials}")


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _as_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the double range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return number


def run_experiment(config: ExperimentConfig) -> ReportRecord:
    """Execute the configured mode and wrap the result in a report record."""
    start = time.perf_counter()
    # the CLI may have changed the mode and the grid size
    _check_trials(config.mode, config.trials)
    _check_grid(config.grid_size)
    uset = config.build_psds()
    try:
        if config.mode == "exponent":
            payload = _run_exponent(config, uset)
        elif config.mode == "dominance":
            payload = _run_dominance(config, uset)
        elif config.mode == "simulate":
            payload = _run_simulate(config, uset)
        elif config.mode == "minimax":
            model_sets = build_model_sets(uset.members, config.sigma2, config.n_values)
            payload = _run_minimax(config, uset.candidate_index or 0, model_sets)
        else:
            payload = _run_full(config, uset)
    except RobustSpecError as exc:
        raise type(exc)(f"[stage {config.mode}] {exc}") from exc
    wall = (time.perf_counter() - start) * 1000.0
    return ReportRecord(
        mode=config.mode,
        config=asdict(config),
        payload=payload,
        seed=config.seed,
        wall_time_ms=wall,
    )


def _run_exponent(config: ExperimentConfig, uset: UncertaintySet) -> dict:
    exponents = [
        {"label": psd.label, "value": error_exponent(psd, config.sigma2)}
        for psd in uset.members
    ]
    value, idx = genie_bound(uset, config.sigma2)
    return {
        "exponents": exponents,
        "genie": {"value": value, "index": idx, "label": uset.members[idx].label},
    }


def _run_dominance(config: ExperimentConfig, uset: UncertaintySet) -> dict:
    idx, report = find_dominated(uset, config.sigma2)
    if idx is None:
        return {"dominated": False, "candidate_index": None, "report": None}
    return {
        "dominated": True,
        "candidate_index": idx,
        "candidate_label": uset.members[idx].label,
        "report": report.to_json(),
    }


def _ladders(
    config: ExperimentConfig,
    model_sets: ModelSets,
    detectors: Sequence[int],
    stage: str,
):
    """Ladders of each singleton detector against every member, seeded by stage.

    A ladder censored at every n has no slope; a detector with no slope
    against any truth raises EstimationInfeasibleError.
    """
    k = len(model_sets[0])
    ladders = operating_characteristics(
        model_sets,
        [MixtureWeights.singleton(det, k) for det in detectors],
        range(k),
        config.trials,
        config.alpha,
        derive_seed(config.seed, stage),
    )
    if any(all(est.slope is None for est in row) for row in ladders):
        raise EstimationInfeasibleError(
            "all miss estimates censored against every truth; use smaller n or more trials"
        )
    return ladders


def _run_simulate(config: ExperimentConfig, uset: UncertaintySet) -> dict:
    cand = uset.candidate_index or 0
    model_sets = build_model_sets(uset.members, config.sigma2, config.n_values)
    (ladders,) = _ladders(config, model_sets, [cand], "simulate")
    estimates = [
        {
            "truth_label": uset.members[truth].label,
            "rows": est.to_rows(),
            "slope": est.slope,
            "ci_half_width": est.ci_half_width,
        }
        for truth, est in enumerate(ladders)
    ]
    return {"detector_label": uset.members[cand].label, "estimates": estimates}


def _run_minimax(config: ExperimentConfig, cand: int, model_sets: ModelSets) -> dict:
    certificates = [
        {"n": n, "certificate": kkt_certificate(cand, models, config.sigma2).to_json()}
        for n, models in zip(config.n_values, model_sets)
    ]
    n_opt, models = config.n_values[0], model_sets[0]
    # The frozen null enters the optimizer only through its log-ratio rows, so
    # it is streamed block by block into a trials x K matrix.
    seed = derive_seed(config.seed, "frozen-h0")
    null = white_blocks(config.sigma2, n_opt, config.trials, seed)
    ratios = ratio_rows(null, models, config.sigma2)
    weights, value, trace = minimize_mixture_kl(
        ratios, n_opt, MixtureWeights.uniform(len(models))
    )
    return {
        "kkt": certificates,
        "optimizer": {
            "n": n_opt,
            "weights": [float(w) for w in weights.w],
            "value": value,
            "trace": trace,
        },
    }


def _run_full(config: ExperimentConfig, uset: UncertaintySet) -> dict:
    dominance = _run_dominance(config, uset)
    exponents = _run_exponent(config, uset)
    if not dominance["dominated"]:
        return {
            "dominance": dominance,
            "exponents": exponents,
            "kkt": None,
            "simulation": None,
            "ordering_consistent": None,
        }
    cand = dominance["candidate_index"]
    model_sets = build_model_sets(uset.members, config.sigma2, config.n_values)
    minimax = _run_minimax(config, cand, model_sets)

    k = len(uset)
    ladders = _ladders(config, model_sets, range(k), "full")
    detectors = {}
    for det, row in enumerate(ladders):
        resolved = [t for t in range(k) if row[t].slope is not None]
        truth = min(resolved, key=lambda t: row[t].slope)
        worst = row[truth]
        detectors[uset.members[det].label] = {
            "worst_case_slope": worst.slope,
            "worst_case": {
                "truth_label": uset.members[truth].label,
                "slope": worst.slope,
                "ci_half_width": worst.ci_half_width,
                "rows": worst.to_rows(),
            },
        }
    robust = detectors[uset.members[cand].label]
    ordering = all(
        robust["worst_case_slope"]
        >= entry["worst_case_slope"] - 2.0 * entry["worst_case"]["ci_half_width"]
        for entry in detectors.values()
    )
    return {
        "dominance": dominance,
        "exponents": exponents,
        "kkt": minimax["kkt"],
        "optimizer": minimax["optimizer"],
        "simulation": detectors,
        "ordering_consistent": bool(ordering),
    }


def payload_rows(mode: str, payload: dict) -> List[dict]:
    """Flatten a payload into CSV rows under the frozen column order."""
    rows: List[dict] = []

    def row(**kw):
        base = {c: "" for c in CSV_COLUMNS}
        base["mode"] = mode
        base.update(kw)
        rows.append(base)

    if mode == "exponent":
        for entry in payload["exponents"]:
            row(label=entry["label"], value=entry["value"])
        row(label=f"genie:{payload['genie']['label']}", value=payload["genie"]["value"])
    elif mode == "dominance":
        if payload["dominated"]:
            report = payload["report"]
            for i, margin in enumerate(report["margins"]):
                row(label=f"{report['candidate_label']}:member{i}", value=margin)
    elif mode == "simulate":
        for est in payload["estimates"]:
            for r in est["rows"]:
                row(label=est["truth_label"], **r)
    elif mode == "minimax":
        for cert in payload["kkt"]:
            row(
                label=f"kkt:{cert['certificate']['candidate_index']}",
                n=cert["n"],
                value=cert["certificate"]["max_violation"],
            )
        row(label="optimizer", n=payload["optimizer"]["n"], value=payload["optimizer"]["value"])
    else:  # full
        if payload.get("simulation"):
            for det_label, entry in payload["simulation"].items():
                for r in entry["worst_case"]["rows"]:
                    row(label=f"{det_label}|{entry['worst_case']['truth_label']}", **r)
    return rows


def write_report(record: ReportRecord, path: str, format: str = "json") -> None:
    """Serialize a report record to JSON (full record) or CSV (flat series)."""
    if format not in ("json", "csv"):
        raise ConfigError(f"format must be 'json' or 'csv', got {format!r}")
    try:
        if format == "json":
            with open(path, "w") as fh:
                json.dump(record.to_json(), fh, indent=2, allow_nan=False)
                fh.write("\n")
        else:
            import csv as _csv

            with open(path, "w", newline="") as fh:
                writer = _csv.DictWriter(fh, fieldnames=list(CSV_COLUMNS))
                writer.writeheader()
                for r in payload_rows(record.mode, record.payload):
                    writer.writerow(
                        {
                            k: (f"{v:.17g}" if isinstance(v, float) else v)
                            for k, v in r.items()
                        }
                    )
    except OSError as exc:
        raise OSError(f"failed writing report to {path}: {exc}") from exc


def read_report(path: str) -> ReportRecord:
    with open(path) as fh:
        return ReportRecord.from_json(json.load(fh))

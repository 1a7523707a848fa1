"""Experiment orchestration: config parsing, mode dispatch, report emission.

Configs are flat JSON documents with nested PSD blocks; a single master seed
drives every Monte Carlo stage through labeled substreams, so one (config,
seed) pair reproduces an entire run byte-for-byte (wall time aside).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .detection import MIN_MC_TRIALS, MixtureWeights, _operating_characteristics, derive_seed
from .detection import min_calibration_trials, ratio_rows
from .dominance import find_dominated
from .errors import ConfigError, ParameterError, RobustSpecError
from .errors import EstimationInfeasibleError
from .exponent import error_exponent, genie_bound
from .gaussian_model import ToeplitzGaussian, build_model_sets, white_blocks
from .minimax import kkt_certificate, minimize_mixture_kl
from .spectral import DEFAULT_GRID_SIZE, MIN_GRID_SIZE, UncertaintySet, make_psd

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
#: each n x n matrix is 512 MiB: a sampled model's Cholesky factor, or a
#: scored model's whitener while a scorer copies it.  The scorer keeps only
#: the triangle of each scored model's whitener, about n^2/2 doubles (no
#: model caches one).  A Monte Carlo stream holds one tile of TILE_ROWS rows
#: at a time, 32 MiB at MAX_N, however many trials it draws.  The KKT
#: temporaries are ceil(n/2)-row: at n = 1024 a three-member
#: `kkt_certificate` peaks at 16.0 MiB under tracemalloc.
MAX_GRID_SIZE = 2**22
MAX_N = 8192

#: A run's models, one list of K per n: built once per run, read by every stage.
ModelSets = List[List[ToeplitzGaussian]]


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """The resolved config: its fields are the accepted top-level keys, and
    asdict(config), in field order, is the config a report records.

    Construction checks and normalises every field, raising ConfigError
    naming it, so a config built from JSON, changed by `dataclasses.replace`
    or built by a library caller is valid once it exists.
    """

    mode: str
    grid_size: int = DEFAULT_GRID_SIZE
    sigma2: float = 1.0
    alpha: float = 0.1
    seed: int = 0
    trials: int = 10000
    n_values: List[int] = field(default_factory=lambda: [64, 256])
    candidate_label: Optional[str] = None
    psds: List[dict]
    output_path: Optional[str] = None

    def __post_init__(self):
        def normalise(name, value):
            object.__setattr__(self, name, value)

        if not isinstance(self.mode, str) or self.mode not in MODES:
            raise ConfigError(f"mode must be one of {tuple(MODES)}, got {self.mode!r}")

        normalise("grid_size", _as_int(self.grid_size, "grid_size"))
        if not MIN_GRID_SIZE <= self.grid_size <= MAX_GRID_SIZE:
            raise ConfigError(
                f"grid_size must be in [{MIN_GRID_SIZE}, {MAX_GRID_SIZE}], got {self.grid_size}"
            )

        normalise("sigma2", _as_float(self.sigma2, "sigma2"))
        if self.sigma2 <= 0:
            raise ConfigError(f"sigma2 must be > 0, got {self.sigma2}")

        normalise("alpha", _as_float(self.alpha, "alpha"))
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0,1), got {self.alpha}")

        normalise("seed", _as_int(self.seed, "seed"))
        normalise("trials", _as_int(self.trials, "trials"))
        floor = MIN_MC_TRIALS if self.mode in ("simulate", "minimax", "full") else 1
        at = ""
        # simulate and full estimate false-alarm rates at alpha: with exact
        # thresholds that still needs about 100 expected exceedances
        if self.mode in ("simulate", "full"):
            floor, at = max(floor, min_calibration_trials(self.alpha)), f" at alpha={self.alpha}"
        if self.trials < floor:
            raise ConfigError(
                f"trials must be >= {floor} for mode {self.mode!r}{at}, got {self.trials}"
            )

        if not isinstance(self.n_values, list):
            raise ConfigError(f"n_values must be a list of integers, got {self.n_values!r}")
        n_values = [_as_int(v, "n_values entry") for v in self.n_values]
        increasing = all(b > a for a, b in zip(n_values, n_values[1:]))
        if not (n_values and n_values[0] >= 1 and increasing):
            raise ConfigError("n_values must be nonempty, strictly increasing and >= 1")
        if n_values[-1] > MAX_N:
            raise ConfigError(f"n_values entries must be <= {MAX_N}, got {n_values[-1]}")
        normalise("n_values", n_values)

        if not isinstance(self.psds, list) or not self.psds:
            raise ConfigError("psds must be a nonempty list of PSD blocks")
        psds = []
        labels = set()
        for i, block in enumerate(self.psds):
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
        normalise("psds", psds)

        label = self.candidate_label
        if label is not None and not (isinstance(label, str) and label in labels):
            raise ConfigError(f"candidate_label {label!r} matches no PSD")

        path = self.output_path
        if path is not None and not (isinstance(path, str) and path):
            raise ConfigError(f"output_path must be a nonempty string, got {path!r}")

    def build_psds(self) -> UncertaintySet:
        members = []
        for i, block in enumerate(self.psds):
            try:
                psd = make_psd(
                    block["family"],
                    grid_size=self.grid_size,
                    label=block["label"],
                    **block["params"],
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
    """Parse a JSON experiment document; ExperimentConfig checks its fields
    and resolves the defaults."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [key for key in ("mode", "psds") if key not in doc]
    if missing:
        raise ConfigError(f"config is missing required keys: {missing}")
    return ExperimentConfig(**doc)


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
    uset = config.build_psds()
    try:
        payload = MODES[config.mode](config, uset)
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
    first_rows: bool = False,
):
    """(ladders, null): ladders of each singleton detector against every
    member, seeded by stage, and with `first_rows` the engine's null
    log-ratio rows at the first n (see `_operating_characteristics`).

    A ladder censored at every n has no slope; a detector with no slope
    against any truth raises EstimationInfeasibleError.
    """
    k = len(model_sets[0])
    ladders, null = _operating_characteristics(
        model_sets,
        [MixtureWeights.singleton(det, k) for det in detectors],
        range(k),
        config.trials,
        config.alpha,
        derive_seed(config.seed, stage),
        first_rows,
    )
    if any(all(est.slope is None for est in row) for row in ladders):
        raise EstimationInfeasibleError(
            "all miss estimates censored against every truth; use smaller n or more trials"
        )
    return ladders, null


def _run_simulate(config: ExperimentConfig, uset: UncertaintySet) -> dict:
    cand = uset.candidate_index or 0
    model_sets = build_model_sets(uset.members, config.sigma2, config.n_values)
    (ladders,), _ = _ladders(config, model_sets, [cand], "simulate")
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


def _run_minimax(config: ExperimentConfig, uset: UncertaintySet) -> dict:
    model_sets = build_model_sets(uset.members, config.sigma2, config.n_values)
    # The frozen null is its own stage at the first n.  It enters the
    # optimizer only through its log-ratio rows, so it is streamed tile by
    # tile into a trials x K matrix.
    seed = derive_seed(config.seed, "frozen-h0")
    null = white_blocks(config.sigma2, config.n_values[0], config.trials, seed)
    ratios = ratio_rows(null, model_sets[0], config.sigma2)
    return _minimax(config, uset.candidate_index or 0, model_sets, ratios)


def _minimax(
    config: ExperimentConfig, cand: int, model_sets: ModelSets, ratios: np.ndarray
) -> dict:
    """KKT certificates at every n, and the game optimizer over `ratios`,
    the (trials, K) log-ratio rows of a frozen white null at the first n."""
    certificates = [
        {"n": n, "certificate": kkt_certificate(cand, models, config.sigma2).to_json()}
        for n, models in zip(config.n_values, model_sets)
    ]
    n_opt = config.n_values[0]
    weights, value, trace = minimize_mixture_kl(
        ratios, n_opt, MixtureWeights.uniform(len(model_sets[0]))
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
    k = len(uset)
    # every member has a singleton detector, so the engine's null rows at the
    # first n hold all K log-ratios: the optimizer's frozen null
    ladders, null = _ladders(config, model_sets, range(k), "full", first_rows=True)
    minimax = _minimax(config, cand, model_sets, null)

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


#: Each mode's runner: (config, uncertainty set) -> payload.
MODES = {
    "exponent": _run_exponent,
    "dominance": _run_dominance,
    "simulate": _run_simulate,
    "minimax": _run_minimax,
    "full": _run_full,
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

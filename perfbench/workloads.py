"""Workload definitions: per-op input generation, the op itself, and its output check.

Every op draws fresh PSD parameters and a fresh master seed from
(workload seed, op index), so no model, autocovariance or draw is shared
between ops while the op's shape (K, grid, n ladder, trials) stays fixed.
Ops run through the user's entry points: `robustspec.cli.main` for the CLI
workloads and the public library API for `certify_large_n`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

import robustspec as rs
from robustspec import cli

SIGMA2 = 1.0


@dataclass(frozen=True)
class Op:
    """One generated op: its index and its inputs."""

    index: int
    config: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: str
    make_op: Callable[[int, int], Op]
    # run(op, workdir) -> (payload bytes, exit code); check(op, payload) -> problems
    run: Callable[[Op, str], tuple]
    check: Callable[[Op, bytes], List[str]]


def _op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _master_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _shuffled(rng: np.random.Generator, blocks: List[dict]) -> List[dict]:
    return [blocks[i] for i in rng.permutation(len(blocks))]


def _run_cli(mode: str, op: Op, workdir: str) -> tuple:
    config_path = os.path.join(workdir, f"op{op.index}.config.json")
    out_path = os.path.join(workdir, f"op{op.index}.report.json")
    with open(config_path, "w") as fh:
        json.dump(op.config, fh)
    code = cli.main([mode, "--config", config_path, "--out", out_path])
    if code != 0:
        return b"", code
    with open(out_path) as fh:
        doc = json.load(fh)
    return json.dumps(doc["payload"], sort_keys=True).encode(), code


# --------------------------------------------------------------------------
# mc_full: `robustspec full`, Monte Carlo dominated


MC_ALPHA = 0.05
MC_TRIALS = 20_000


def make_mc_full(seed: int, index: int) -> Op:
    rng = _op_rng(seed, index)
    rho = float(rng.uniform(0.2, 0.5))
    pole = float(rng.uniform(0.3, 0.7))
    # AR(1) minimum is variance*(1-pole)/(1+pole) at omega=pi: keep it above rho
    variance = rho * (1.0 + pole) / (1.0 - pole) * float(rng.uniform(1.2, 1.6))
    strong = rho * float(rng.uniform(1.5, 2.5))
    # The weak flat stays at index 0: `full` mode certifies KKT for member 0
    # whatever `find_dominated` returns (the candidate label it sets is not
    # read back), so another order fails the KKT check below.
    psds = [{"label": "weak", "family": "flat", "params": {"level": rho}}] + _shuffled(
        rng,
        [
            {"label": "ar1", "family": "rational_ar1",
             "params": {"variance": variance, "pole": pole}},
            {"label": "strong", "family": "flat", "params": {"level": strong}},
        ],
    )
    config = {
        "mode": "full",
        "grid_size": 1024,
        "sigma2": SIGMA2,
        "alpha": MC_ALPHA,
        "seed": _master_seed(rng),
        "trials": MC_TRIALS,
        "n_values": [16, 32, 64],
        "psds": psds,
    }
    return Op(index, config)


def check_mc_full(op: Op, payload: bytes) -> List[str]:
    doc = json.loads(payload)
    problems = []
    label = doc["dominance"].get("candidate_label")
    if label != "weak":
        problems.append(f"dominated member {label!r}, expected 'weak'")
    for cert in doc["kkt"] or []:
        if cert["certificate"]["candidate_index"] != doc["dominance"].get("candidate_index"):
            problems.append(f"kkt certifies member {cert['certificate']['candidate_index']}")
        if not cert["certificate"]["singleton_verified"]:
            problems.append(f"kkt singleton not verified at n={cert['n']}")
    if doc["ordering_consistent"] is not True:
        problems.append("ordering_consistent is not true")
    # fa_hat counts exceedances of a threshold that was itself estimated from
    # an independent null sample of the same size, so its variance is twice
    # the binomial one: allow four of those standard deviations.
    tol = 4.0 * math.sqrt(2.0 * MC_ALPHA * (1.0 - MC_ALPHA) / MC_TRIALS)
    for det, entry in (doc["simulation"] or {}).items():
        for row in entry["worst_case"]["rows"]:
            if abs(row["fa_hat"] - MC_ALPHA) > tol:
                problems.append(f"{det} n={row['n']} fa_hat {row['fa_hat']} off alpha")
    if not doc["simulation"]:
        problems.append("no simulation section")
    return problems


# --------------------------------------------------------------------------
# certify_large_n: closed-form certification session, no RNG


CERT_GRID = 4096
CERT_KL_N = (256, 1024)
CERT_KKT_N = (256, 512)


def make_certify_large_n(seed: int, index: int) -> Op:
    rng = _op_rng(seed, index)
    rho = float(rng.uniform(0.2, 0.6))
    psds = _shuffled(
        rng,
        [
            {"label": "flat", "family": "flat", "params": {"level": rho}},
            {"label": "ar1", "family": "rational_ar1",
             "params": {"variance": float(rng.uniform(0.3, 1.0)),
                        "pole": float(rng.uniform(-0.6, 0.6))}},
            {"label": "bump", "family": "raised_cosine",
             "params": {"peak": float(rng.uniform(0.5, 2.0)),
                        "center": float(rng.uniform(0.5, 2.6)),
                        "width": float(rng.uniform(0.3, 1.0))}},
        ],
    )
    return Op(index, {"grid_size": CERT_GRID, "sigma2": SIGMA2, "psds": psds})


def run_certify_large_n(op: Op, workdir: str) -> tuple:
    cfg = op.config
    members = tuple(
        rs.make_psd(b["family"], grid_size=cfg["grid_size"], label=b["label"], **b["params"])
        for b in cfg["psds"]
    )
    uset = rs.UncertaintySet(members=members)
    sigma2 = cfg["sigma2"]
    dominated, report = rs.find_dominated(uset, sigma2)
    genie_value, genie_index = rs.genie_bound(uset, sigma2)
    kl = {
        str(n): [rs.kl_rate(psd, sigma2, n) for psd in members] for n in CERT_KL_N
    }
    cand = dominated if dominated is not None else genie_index
    kkt = []
    for n in CERT_KKT_N:
        models = [rs.build_model(psd, sigma2, n) for psd in members]
        kkt.append({"n": n, "certificate": rs.kkt_certificate(cand, models, sigma2).to_json()})
    payload = {
        "labels": [p.label for p in members],
        "levels": [b["params"].get("level") for b in cfg["psds"]],
        "dominated": dominated,
        "dominance": report.to_json() if report is not None else None,
        "genie": {"value": genie_value, "index": genie_index},
        "kl_rate": kl,
        "kkt": kkt,
    }
    return json.dumps(payload, sort_keys=True).encode(), 0


def check_certify_large_n(op: Op, payload: bytes) -> List[str]:
    doc = json.loads(payload)
    problems = []
    for n, rates in doc["kl_rate"].items():
        for label, level, rate in zip(doc["labels"], doc["levels"], rates):
            if not rate >= 0.0:
                problems.append(f"kl_rate {label} n={n} is {rate} < 0")
            if level is not None:
                rho = level / SIGMA2
                exact = 0.5 * (math.log1p(rho) - rho / (1.0 + rho))
                if abs(rate - exact) > 1e-12:
                    problems.append(f"flat kl_rate n={n} off closed form by {rate - exact:g}")
    if doc["dominated"] is not None and doc["dominated"] != doc["genie"]["index"]:
        problems.append(
            f"find_dominated index {doc['dominated']} != genie index {doc['genie']['index']}"
        )
    return problems


# --------------------------------------------------------------------------
# minimax_interior: `robustspec minimax` with an interior saddle


MINIMAX_CENTERS = (math.pi / 6, math.pi / 2, 5 * math.pi / 6)


def make_minimax_interior(seed: int, index: int) -> Op:
    rng = _op_rng(seed, index)
    bumps = [
        {"label": f"bump{i}", "family": "raised_cosine",
         "params": {"peak": float(rng.uniform(1.8, 2.2)),
                    "center": c + float(rng.uniform(-0.15, 0.15)),
                    "width": float(rng.uniform(0.5, 0.55))}}
        for i, c in enumerate(MINIMAX_CENTERS)
    ]
    ar1 = {"label": "ar1neg", "family": "rational_ar1",
           "params": {"variance": float(rng.uniform(0.5, 1.0)),
                      "pole": float(rng.uniform(-0.7, -0.4))}}
    config = {
        "mode": "minimax",
        "grid_size": 1024,
        "sigma2": SIGMA2,
        "seed": _master_seed(rng),
        "trials": 20_000,
        "n_values": [256, 512],
        "psds": _shuffled(rng, bumps + [ar1]),
    }
    return Op(index, config)


def check_minimax_interior(op: Op, payload: bytes) -> List[str]:
    doc = json.loads(payload)
    problems = []
    objectives = doc["optimizer"]["trace"]["objectives"]
    # the optimizer accepts a step when it raises the objective by at most 1e-15
    if any(b > a + 1e-15 for a, b in zip(objectives, objectives[1:])):
        problems.append("objective trace increases")
    w = doc["optimizer"]["weights"]
    if min(w) < 0.0 or abs(sum(w) - 1.0) > 1e-12:
        problems.append(f"weights {w} off the simplex")
    for cert in doc["kkt"]:
        if cert["certificate"]["singleton_verified"]:
            problems.append(f"singleton verified at n={cert['n']} on an interior set")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_full",
            "Monte Carlo engine dominates: RNG blocks, sampling matmul, quad forms, calibration",
            "robustspec full, K=3, grid 1024, n_values [16,32,64], trials 20000, alpha 0.05",
            make_mc_full,
            lambda op, workdir: _run_cli("full", op, workdir),
            check_mc_full,
        ),
        Workload(
            "certify_large_n",
            "closed-form algebra only: autocovariance, dense Cholesky, KL, ratio expectation",
            "library session, K=3, grid 4096, kl_rate at n 256 and 1024, kkt at n 256 and 512",
            make_certify_large_n,
            run_certify_large_n,
            check_certify_large_n,
        ),
        Workload(
            "minimax_interior",
            "interior saddle: Frank-Wolfe runs to its cap over one materialized frozen null",
            "robustspec minimax, K=4, grid 1024, n_values [256,512], trials 20000",
            make_minimax_interior,
            lambda op, workdir: _run_cli("minimax", op, workdir),
            check_minimax_interior,
        ),
    )
}

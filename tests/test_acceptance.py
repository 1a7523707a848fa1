"""Acceptance gate: ten end-to-end criteria, one test (and one printed
pass/fail line) each.  Every Monte Carlo stage is pinned to MASTER_SEED, so
the whole suite is bit-reproducible.
"""

import time

import numpy as np
import pytest

import prop_suites
from conftest import MASTER_SEED, flat_set
from robustspec.detection import (
    DEFAULT_TILT_GRID,
    MixtureWeights,
    calibrate_threshold,
    derive_seed,
    empirical_exponent,
    h0_statistics,
    operating_characteristics,
    threshold_order_index,
)
from robustspec.dominance import discrete_dominance_integral, sigma2_dominance_margin
from robustspec.exponent import error_exponent, kl_rate
from robustspec.gaussian_model import (
    build_model,
    build_model_sets,
    ratio_expectation,
    sample_gaussian,
    white_model,
)
from robustspec.minimax import kkt_certificate, minimize_mixture_weights, regularity_probe
from robustspec.spectral import UncertaintySet, make_psd


def report(number, label, started):
    print(f"ACCEPTANCE {number:>2} {label}: PASS ({time.perf_counter() - started:.1f}s)")


def flat_exponent(rho):
    return 0.5 * (np.log1p(rho) - rho / (1.0 + rho))


def test_criterion_01_flat_psd_exactness():
    started = time.perf_counter()
    for rho in (0.5, 1.0, 3.0):
        psd = make_psd("flat", grid_size=4096, level=rho)
        closed = flat_exponent(rho)
        assert abs(error_exponent(psd, 1.0) - closed) <= 1e-10
        for n in (1, 7, 64):
            assert abs(kl_rate(psd, 1.0, n) - closed) <= 1e-12
    assert time.perf_counter() - started < 1.0
    report(1, "flat-spectrum closed forms exact", started)


def test_criterion_02_toeplitz_limit_convergence():
    started = time.perf_counter()
    psd = make_psd("rational_ar1", grid_size=4096, variance=1.0, pole=0.5)
    limit = error_exponent(psd, 1.0)
    errs = [abs(kl_rate(psd, 1.0, n) - limit) for n in (64, 256, 1024)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.02 * limit
    assert time.perf_counter() - started < 120.0
    report(2, "normalized KL converges to the exponent", started)


#: Ten (phi_star, phi) constructors with comfortably positive margin at
#: sigma2=1; the reversed orderings provide the negative-margin suite.
PAIR_SUITE = (
    lambda m: (make_psd("flat", grid_size=m, level=1.0),
               make_psd("flat", grid_size=m, level=2.0)),
    lambda m: (make_psd("flat", grid_size=m, level=0.5),
               make_psd("flat", grid_size=m, level=3.0)),
    lambda m: (make_psd("flat", grid_size=m, level=2.0),
               make_psd("flat", grid_size=m, level=3.0)),
    lambda m: (make_psd("rational_ar1", grid_size=m, variance=1.0, pole=0.5),
               make_psd("rational_ar1", grid_size=m, variance=2.0, pole=0.5)),
    lambda m: (make_psd("rational_ar1", grid_size=m, variance=1.0, pole=0.3),
               make_psd("rational_ar1", grid_size=m, variance=1.5, pole=0.6)),
    lambda m: (make_psd("flat", grid_size=m, level=1.0),
               make_psd("rational_ar1", grid_size=m, variance=2.0, pole=0.4)),
    lambda m: (make_psd("rational_ar1", grid_size=m, variance=0.8, pole=0.2),
               make_psd("flat", grid_size=m, level=2.5)),
    lambda m: (make_psd("raised_cosine", grid_size=m, peak=1.0, center=0.8, width=2.0),
               make_psd("raised_cosine", grid_size=m, peak=2.5, center=0.8, width=2.5)),
    lambda m: (make_psd("flat", grid_size=m, level=0.7),
               make_psd("raised_cosine", grid_size=m, peak=4.0, center=1.2, width=2.8)),
    lambda m: (make_psd("rational_ar1", grid_size=m, variance=1.2, pole=0.45),
               make_psd("rational_ar1", grid_size=m, variance=2.4, pole=0.45)),
)


def test_criterion_03_margin_vs_finite_n_consistency():
    started = time.perf_counter()
    grid = 1024
    for build in PAIR_SUITE:
        star, phi = build(grid)
        margin, bmin = sigma2_dominance_margin(star, phi, 1.0)
        assert margin >= 0.01 and bmin >= 0.1, (margin, bmin)
        for n in (16, 64, 256):
            ratio = ratio_expectation(
                1.0, build_model(star, 1.0, n), build_model(phi, 1.0, n)
            )
            assert ratio <= 1.0 + 1e-10, (margin, n, ratio)
        rev_margin, _ = sigma2_dominance_margin(phi, star, 1.0)
        assert rev_margin <= -0.01, rev_margin
        rev_ratio = ratio_expectation(
            1.0, build_model(phi, 1.0, 256), build_model(star, 1.0, 256)
        )
        assert rev_ratio > 1.0, (rev_margin, rev_ratio)
    assert time.perf_counter() - started < 300.0
    report(3, "spectral margin predicts finite-n dominance on 10+10 pairs", started)


def test_criterion_04_two_point_counterexample():
    started = time.perf_counter()
    p0 = np.array([0.5, 0.5])
    p1 = np.array([0.9, 0.1])
    p2 = np.array([0.1, 0.9])
    assert abs(discrete_dominance_integral(p0, p1, p2) - 41.0 / 9.0) <= 1e-12
    assert abs(discrete_dominance_integral(p0, p2, p1) - 41.0 / 9.0) <= 1e-12
    report(4, "two-point counterexample reproduces 41/9 both ways", started)


def test_criterion_05_kkt_singleton_and_optimizer():
    started = time.perf_counter()
    psds = flat_set([1.0, 2.0, 3.0], grid_size=1024)
    for n in (64, 256):
        models = [build_model(p, 1.0, n) for p in psds]
        cert = kkt_certificate(0, models, 1.0)
        assert cert.singleton_verified and cert.max_violation <= 1e-10
    n = 32
    models = [build_model(p, 1.0, n) for p in psds]
    frozen = sample_gaussian(
        white_model(1.0, n), 100000, derive_seed(MASTER_SEED, "crit5")
    )
    weights, _, trace = minimize_mixture_weights(
        models, 1.0, frozen, MixtureWeights.uniform(3)
    )
    assert weights.w[0] >= 0.99, weights.w
    assert np.all(np.diff(trace["objectives"]) <= 1e-12)
    assert time.perf_counter() - started < 300.0
    report(5, "KKT certificate and optimizer agree on the singleton", started)


def test_criterion_06_neyman_pearson_calibration():
    started = time.perf_counter()
    psds = flat_set([1.0, 2.0, 3.0], grid_size=1024)
    n, trials = 32, 100000
    models = [build_model(p, 1.0, n) for p in psds]
    q = MixtureWeights.uniform(3)
    for alpha in (0.1, 0.5):
        cal_seed = derive_seed(MASTER_SEED, f"crit6:{alpha}")
        tau = calibrate_threshold(q, models, 1.0, alpha, trials, cal_seed)
        g = h0_statistics(q, models, 1.0, trials, cal_seed)
        exceed = int(np.sum(g > tau))
        target = int(np.ceil(alpha * trials))
        assert exceed in (target - 1, target), (alpha, exceed, target)
        fresh = h0_statistics(
            q, models, 1.0, trials, derive_seed(MASTER_SEED, f"crit6-fresh:{alpha}")
        )
        fa_hat = float(np.mean(fresh > tau))
        assert abs(fa_hat - alpha) <= 3.0 * np.sqrt(alpha * (1 - alpha) / trials)
    report(6, "threshold calibration hits the target false-alarm level", started)


def test_criterion_07_threshold_and_mean_trends():
    started = time.perf_counter()
    psds = flat_set([1.0, 2.0, 3.0], grid_size=1024)
    psi = error_exponent(psds[0], 1.0)
    trials = 100000
    detectors = {
        "singleton": MixtureWeights(np.array([1.0, 0.0, 0.0])),
        "uniform": MixtureWeights.uniform(3),
    }
    for name, q in detectors.items():
        mean_err = []
        tau_err = {0.1: [], 0.5: []}
        for n in (32, 128, 512):
            models = [build_model(p, 1.0, n) for p in psds]
            g = h0_statistics(
                q, models, 1.0, trials, derive_seed(MASTER_SEED, f"crit7:{n}")
            )
            mean_err.append(abs(float(np.mean(g)) + psi))
            gs = np.sort(g)
            for alpha in (0.1, 0.5):
                tau_err[alpha].append(
                    abs(float(gs[threshold_order_index(alpha, trials)]) + psi)
                )
        assert np.all(np.diff(mean_err) < 0.0), (name, mean_err)
        for alpha in (0.1, 0.5):
            assert np.all(np.diff(tau_err[alpha]) < 0.0), (name, alpha, tau_err)
    assert time.perf_counter() - started < 600.0
    report(7, "H0 mean and threshold both drift to minus the exponent", started)


def test_criterion_08_desk_scale_minimax_ordering():
    # The limit ordering is not reachable at finite n; this checks the
    # shared-seed surrogate: the candidate detector's worst case is no worse
    # than the mismatched detector's (within CI), and its own miss exponent
    # climbs toward the limit.  alpha = 0.02 keeps the ladder monotone at
    # desk-scale n.
    started = time.perf_counter()
    psds = flat_set([1.0, 2.0, 3.0], grid_size=1024)
    uset = UncertaintySet(members=psds, candidate_index=0)
    gamma = error_exponent(psds[0], 1.0)
    trials, alpha = 1000000, 0.02
    seed = derive_seed(MASTER_SEED, "crit8")

    ladder = empirical_exponent(
        uset, 1.0, MixtureWeights.singleton(0, 3), 0, [16, 48, 64, 96],
        trials, alpha, seed,
    )
    uncensored = ladder.miss_log[~ladder.censored]
    assert uncensored.size == 4, ladder.censored
    assert np.all(np.diff(uncensored) > 0.0), uncensored
    assert 0.5 * gamma <= uncensored[-1] <= 1.3 * gamma, uncensored[-1]

    # Both detectors against every truth, scored on one draw of the h0 and h1
    # streams at n = 64; singleton thresholds are exact, so no cal stream.
    ladders = operating_characteristics(
        build_model_sets(psds, 1.0, [64]),
        [MixtureWeights.singleton(det, 3) for det in (0, 2)],
        range(3), trials, alpha, seed,
    )

    def worst_case(row):
        worst, ci = np.inf, 0.0
        for est in row:
            if est.slope is None:
                continue  # censored everywhere: miss probability below resolution
            if est.slope < worst:
                worst, ci = est.slope, est.ci_half_width
        return worst, ci

    robust, _ = worst_case(ladders[0])
    mismatched, ci = worst_case(ladders[1])
    assert robust >= mismatched - 2.0 * ci, (robust, mismatched, ci)
    assert time.perf_counter() - started < 1200.0
    report(8, "candidate detector wins the desk-scale worst case", started)


def test_criterion_09_regularity_gap_trend():
    started = time.perf_counter()
    psds = flat_set([0.2, 5.0], grid_size=512)
    n = 4
    models = [build_model(p, 1.0, n) for p in psds]
    frozen = sample_gaussian(
        white_model(1.0, n), 100000, derive_seed(MASTER_SEED, "frozen")
    )
    records = regularity_probe(
        MixtureWeights(np.array([1.0, 0.0])), MixtureWeights.uniform(2),
        [0.2, 0.1, 0.05, 0.025], models, 1.0, frozen,
        derive_seed(MASTER_SEED, "h1"), DEFAULT_TILT_GRID, 100000,
    )
    ratios = [rec["gap"] / rec["beta"] for rec in records]
    assert np.all(np.diff(ratios) < 0.0), ratios
    assert all(rec["gap"] >= -3.0 * rec["se"] for rec in records)
    report(9, "perturbation gap is o(beta) down the ladder", started)


def test_criterion_10_invariant_suites():
    started = time.perf_counter()
    for suite in prop_suites.ALL_SUITES:
        suite(MASTER_SEED, 200)
    assert time.perf_counter() - started < 600.0
    report(10, "all randomized invariant suites pass at 200 cases", started)

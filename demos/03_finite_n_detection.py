"""Walkthrough: calibrated mixture detectors at finite dimension.

We calibrate a Neyman-Pearson threshold by Monte Carlo, measure false-alarm
and miss rates, and track the empirical miss exponent across a ladder of
dimensions.  Seeds are explicit everywhere: rerunning this script reproduces
every number bit for bit.
"""

import numpy as np

from robustspec import (
    DetectorSpec,
    MixtureWeights,
    UncertaintySet,
    build_model,
    calibrate_threshold,
    chernoff_exponent,
    empirical_exponent,
    error_exponent,
    estimate_error_probs,
    make_psd,
)
from robustspec.detection import DEFAULT_TILT_GRID

GRID = 1024
SIGMA2 = 1.0
SEED = 7
ALPHA = 0.1
TRIALS = 50000

flats = tuple(
    make_psd("flat", grid_size=GRID, level=l, label=f"flat-{l:g}") for l in (1, 2, 3)
)
uset = UncertaintySet(members=flats, candidate_index=0)

print("=" * 70)
print("1. Calibrating a mixture detector at n = 64")
print("=" * 70)

n = 64
models = [build_model(p, SIGMA2, n) for p in flats]
weights = MixtureWeights.uniform(3)
tau = calibrate_threshold(weights, models, SIGMA2, ALPHA, TRIALS, SEED)
print(f"  threshold tau = {tau:.6f} at false-alarm level {ALPHA}")
print(f"  (compare -exponent(flat-1) = {-error_exponent(flats[0], SIGMA2):.6f})")

spec = DetectorSpec(weights=weights, models=models, threshold=tau)
for truth in range(3):
    fa, miss, count = estimate_error_probs(spec, truth, TRIALS, SEED + 1)
    print(f"  truth={flats[truth].label:8s} fa={fa:.4f} miss={miss:.2e} ({count} events)")

print()
print("=" * 70)
print("2. Miss exponent ladder for the matched detector under flat-1")
print("=" * 70)

est = empirical_exponent(
    uset, SIGMA2, MixtureWeights.singleton(0, 3), 0, [16, 32, 64],
    TRIALS, ALPHA, SEED,
)
print(f"  {'n':>4s} {'miss_hat':>10s} {'miss_log':>10s} {'censored':>9s}")
for row in est.to_rows():
    print(
        f"  {row['n']:4d} {row['miss_hat']:10.5f} {row['miss_log']:10.5f}"
        f" {str(row['censored']):>9s}"
    )
print(f"  slope = {est.slope:.5f} +- {est.ci_half_width:.5f}")
print(f"  limit exponent = {error_exponent(flats[0], SIGMA2):.5f}")

print()
print("=" * 70)
print("3. Chernoff lower bound on the miss exponent")
print("=" * 70)

bound = chernoff_exponent(
    spec, MixtureWeights.singleton(0, 3), DEFAULT_TILT_GRID, TRIALS, SEED + 2
)
print(f"  chernoff bound at n={n}: {bound:.5f}")
print(f"  observed miss_log at n=64: {est.miss_log[-1]:.5f}")

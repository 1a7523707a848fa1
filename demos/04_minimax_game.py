"""Walkthrough: the robustness game between detector and operating point.

Nature picks a mixture of the candidate models; the engineer picks detector
weights.  We minimize the sample-average KL over the simplex with Newton
steps on the active face, which stop on the sample KKT condition, certify
the optimum with a closed-form KKT check, and probe the regularity of the
saddle point under small perturbations.
"""

import numpy as np

from robustspec import (
    MixtureWeights,
    build_model,
    kkt_certificate,
    make_psd,
    minimize_mixture_weights,
    sample_gaussian,
    utility,
    white_model,
)
from robustspec.detection import log_likelihood_ratios
from robustspec.minimax import DEFAULT_TILT_GRID, regularity_probe, sample_average_kl

GRID = 1024
SIGMA2 = 1.0
N = 32
SEED = 42

flats = tuple(
    make_psd("flat", grid_size=GRID, level=l, label=f"flat-{l:g}") for l in (1, 2, 3)
)
models = [build_model(p, SIGMA2, N) for p in flats]
frozen = sample_gaussian(white_model(SIGMA2, N), 50000, SEED)
null = log_likelihood_ratios(frozen, models)

print("=" * 70)
print("1. Newton minimization of the mixture KL on the active face of the simplex")
print("=" * 70)

weights, value, trace = minimize_mixture_weights(null, N, MixtureWeights.uniform(3))
print(f"  least favorable operating point: {np.round(weights.w, 4)}")
print(f"  objective value: {value:.6f} after {trace['iterations']} iterations")
print(f"  objective trace: {np.round(trace['objectives'], 6)}")
print(f"  last KKT gap (residual / n): {trace['gaps'][-1]:.2e}, converged: {trace['converged']}")

print()
print("=" * 70)
print("2. Closed-form KKT certificate at the singleton")
print("=" * 70)

for n in (32, 128):
    cert = kkt_certificate(0, [build_model(p, SIGMA2, n) for p in flats], SIGMA2)
    print(
        f"  n={n:4d} verified={cert.singleton_verified} "
        f"max_violation={cert.max_violation:.2e} mu={np.round(cert.mu, 4)}"
    )
cert = kkt_certificate(2, models, SIGMA2)
print(f"  wrong candidate (flat-3): verified={cert.singleton_verified}")

print()
print("=" * 70)
print("3. Game utility at and around the saddle")
print("=" * 70)

e1 = MixtureWeights.singleton(0, 3)
uniform = MixtureWeights.uniform(3)
for q, r, tag in ((e1, e1, "saddle"), (uniform, e1, "mismatched q"), (e1, uniform, "nature deviates")):
    val, se = utility(q, r, models, null, SEED + 1, DEFAULT_TILT_GRID)
    print(f"  U({tag:15s}) = {val:.6f} (se {se:.6f})")
print(f"  sample-average KL at the singleton: {sample_average_kl(e1, null, N):.6f}")

print()
print("=" * 70)
print("4. Regularity probe: the perturbation gap vanishes faster than beta")
print("=" * 70)

records = regularity_probe(
    e1, uniform, [0.2, 0.1, 0.05], models, null, SEED + 2,
    DEFAULT_TILT_GRID, 50000,
)
for rec in records:
    print(
        f"  beta={rec['beta']:5.3f} gap={rec['gap']: .6f} "
        f"gap/beta={rec['gap'] / rec['beta']: .6f} (se {rec['se']:.6f})"
    )

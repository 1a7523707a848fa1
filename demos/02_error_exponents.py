"""Walkthrough: error exponents and how fast finite dimensions reach them.

The exponent of a signal spectrum is the large-n limit of the normalized KL
divergence between the noise-only model and the signal-plus-noise model.  We
compute it in closed quadrature form, compare against the finite-n KL rate,
and show that the dominated member of a set is also the genie's worst case.
"""

import numpy as np

from robustspec import (
    UncertaintySet,
    error_exponent,
    find_dominated,
    genie_bound,
    kl_rate,
    make_psd,
)

GRID = 2048
SIGMA2 = 1.0

print("=" * 70)
print("1. Exponents of a few spectra (nats per sample)")
print("=" * 70)

psds = (
    make_psd("flat", grid_size=GRID, level=1.0, label="flat-1"),
    make_psd("flat", grid_size=GRID, level=3.0, label="flat-3"),
    make_psd("rational_ar1", grid_size=GRID, variance=1.0, pole=0.5, label="ar1"),
)
for psd in psds:
    value = error_exponent(psd, SIGMA2)
    print(f"  {psd.label:8s} exponent = {value:.6f}")

closed = 0.5 * (np.log(2.0) - 0.5)
print(f"  closed form for flat-1: 0.5*(ln 2 - 1/2) = {closed:.6f}")

print()
print("=" * 70)
print("2. Finite-n KL rate marching toward the limit")
print("=" * 70)

ar1 = psds[2]
limit = error_exponent(ar1, SIGMA2)
print(f"  {'n':>6s} {'kl_rate':>12s} {'error':>12s}")
for n in (16, 64, 256, 1024):
    rate = kl_rate(ar1, SIGMA2, n)
    print(f"  {n:6d} {rate:12.8f} {abs(rate - limit):12.2e}")
print(f"  limit {limit:.8f} (flat spectra hit it exactly at every n)")

print()
print("=" * 70)
print("3. The genie bound lands on the dominated member")
print("=" * 70)

flats = tuple(
    make_psd("flat", grid_size=GRID, level=l, label=f"flat-{l:g}") for l in (1, 2, 3)
)
uset = UncertaintySet(members=flats)
value, argmin = genie_bound(uset, SIGMA2)
dom_idx, _ = find_dominated(uset, SIGMA2)
print(f"  genie bound: {value:.6f} at {flats[argmin].label}")
print(f"  dominated member: {flats[dom_idx].label}  (same index: {argmin == dom_idx})")

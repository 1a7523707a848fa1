"""Power spectral densities on a uniform half-grid over [0, pi].

A PSD here is a nonnegative even function of frequency; only the half-grid
samples on [0, pi] (both endpoints included) are stored, and the even
extension to [-pi, pi] is implicit.  All spectral integrals use composite
trapezoid quadrature with the endpoint nodes half-weighted.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, ParameterError, require_positive, warn_fallback

MIN_GRID_SIZE = 8
DEFAULT_GRID_SIZE = 4096

_FAMILY_PARAMS = {
    "flat": {"level"},
    "raised_cosine": {"peak", "center", "width"},
    "rational_ar1": {"variance", "pole"},
    "tabulated": {"values"},
}

PSD_FAMILIES = tuple(_FAMILY_PARAMS)


def half_grid(grid_size: int) -> np.ndarray:
    """Uniform frequency nodes on [0, pi], endpoints included."""
    return np.linspace(0.0, np.pi, grid_size)


def trapezoid_weights(grid_size: int) -> np.ndarray:
    """Composite trapezoid weights on the half-grid (endpoints halved)."""
    w = np.full(grid_size, np.pi / (grid_size - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def circle_mean(values: np.ndarray) -> float:
    """(1/2pi) * integral over [-pi, pi] of the even extension of `values`."""
    values = np.asarray(values, dtype=float)
    return float(trapezoid_weights(values.size) @ values) / np.pi


@dataclass(frozen=True)
class PsdGrid:
    """Sampled nonnegative PSD on the half-grid [0, pi]."""

    grid_size: int
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if self.grid_size < MIN_GRID_SIZE:
            raise ParameterError(
                f"grid_size must be >= {MIN_GRID_SIZE}, got {self.grid_size}"
            )
        if values.shape != (self.grid_size,):
            raise ParameterError(
                f"values must have shape ({self.grid_size},), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ParameterError("values must be finite")
        if np.any(values < 0.0):
            raise ParameterError("values must be nonnegative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def omegas(self) -> np.ndarray:
        return half_grid(self.grid_size)


@dataclass(frozen=True)
class UncertaintySet:
    """Finite family of candidate signal PSDs sharing one grid."""

    members: tuple
    candidate_index: Optional[int] = None

    def __post_init__(self):
        members = tuple(self.members)
        if len(members) < 1:
            raise ParameterError("UncertaintySet needs at least one member")
        if any(psd.grid_size != members[0].grid_size for psd in members):
            raise ParameterError("all members must share grid_size")
        index = self.candidate_index
        if index is not None and not 0 <= index < len(members):
            raise ParameterError(f"candidate_index {index} outside [0, {len(members)})")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def grid_size(self) -> int:
        return self.members[0].grid_size


def make_psd(
    family: str,
    grid_size: int = DEFAULT_GRID_SIZE,
    label: str = "",
    **params,
) -> PsdGrid:
    """Construct a PSD from a named parametric family.

    Families:
      flat(level)                      constant spectrum
      raised_cosine(peak, center, width)  cosine bump supported on
                                       |omega - center| < width
      rational_ar1(variance, pole)     AR(1) spectrum
                                       v*(1-a^2)/(1 - 2a*cos(w) + a^2)
      tabulated(values)                explicit half-grid samples
    """
    if family not in PSD_FAMILIES:
        raise ParameterError(f"unknown PSD family {family!r}; use one of {PSD_FAMILIES}")
    omegas = half_grid(grid_size)
    if family == "flat":
        level = _require_param(params, "level", family)
        if level < 0:
            raise ParameterError(f"flat level must be >= 0, got {level}")
        values = np.full(grid_size, float(level))
    elif family == "raised_cosine":
        peak = _require_param(params, "peak", family)
        center = _require_param(params, "center", family)
        width = _require_param(params, "width", family)
        if peak < 0:
            raise ParameterError(f"raised_cosine peak must be >= 0, got {peak}")
        if not 0.0 <= center <= np.pi:
            raise ParameterError(f"raised_cosine center must be in [0, pi], got {center}")
        require_positive("raised_cosine width", width)
        dist = np.abs(omegas - center)
        values = np.where(
            dist < width, 0.5 * peak * (1.0 + np.cos(np.pi * dist / width)), 0.0
        )
    elif family == "rational_ar1":
        variance = _require_param(params, "variance", family)
        pole = _require_param(params, "pole", family)
        require_positive("rational_ar1 variance", variance)
        if not abs(pole) < 1.0:
            raise ParameterError(f"rational_ar1 pole magnitude must be < 1, got {pole}")
        values = variance * (1.0 - pole**2) / (1.0 - 2.0 * pole * np.cos(omegas) + pole**2)
    else:  # tabulated
        values = np.asarray(_require_param(params, "values", family), dtype=float)
        if values.shape != (grid_size,):
            raise ParameterError(
                f"tabulated values must have length {grid_size}, got {values.shape}"
            )
    extra = set(params) - _FAMILY_PARAMS[family]
    if extra:
        raise ParameterError(f"unexpected parameters for family {family!r}: {sorted(extra)}")
    return PsdGrid(grid_size=grid_size, values=values, label=label or family)


def _require_param(params: dict, name: str, family: str):
    """The named parameter; all but tabulated `values` are real scalars."""
    if name not in params:
        raise ParameterError(f"family {family!r} requires parameter {name!r}")
    value = params[name]
    if name != "values" and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ParameterError(f"family {family!r} parameter {name!r} must be real, got {value!r}")
    return value


def eval_psd(psd: PsdGrid, omega: float) -> float:
    """Evaluate the even-extended PSD by linear interpolation between nodes."""
    if not -np.pi <= omega <= np.pi:
        raise DomainError(f"omega must be in [-pi, pi], got {omega}")
    return float(np.interp(abs(omega), psd.omegas, psd.values))


def lower_envelope(uset: UncertaintySet) -> PsdGrid:
    """Pointwise minimum across the set members at every grid node."""
    stacked = np.vstack([psd.values for psd in uset.members])
    return PsdGrid(uset.grid_size, stacked.min(axis=0), "envelope")


def autocovariance(psd: PsdGrid, max_lag: int) -> np.ndarray:
    """Autocovariance c[m] = (1/2pi) * int phi(w) cos(m w) dw for m = 0..max_lag.

    The trapezoid sum over the M half-grid nodes w_j = j*pi/(M-1) is a DCT-I,
    evaluated for every lag at once by one real FFT of the even extension.
    On this grid cos(m w_j) has period 2(M-1) in m and is even about
    m = M-1, so lags above M-1 alias: c[m] = c[m'] with
    m' = min(m mod 2(M-1), 2(M-1) - m mod 2(M-1)).  A Toeplitz matrix of
    dimension n > M therefore repeats reflected lags of the grid (at n = M
    the largest lag is M-1, which is exact); such a request logs a warning.
    """
    if max_lag < 0:
        raise ParameterError(f"max_lag must be >= 0, got {max_lag}")
    if max_lag >= psd.grid_size:
        warn_fallback(
            "PSD %r: lags %d..%d are at or beyond grid_size %d and repeat reflected "
            "lags (a Toeplitz dimension n > grid_size aliases)",
            psd.label, psd.grid_size, max_lag, psd.grid_size,
        )
    values = psd.values
    period = 2 * (psd.grid_size - 1)
    base = np.fft.rfft(np.concatenate((values, values[-2:0:-1]))).real / period
    lags = np.arange(max_lag + 1) % period
    return base[np.minimum(lags, period - lags)]

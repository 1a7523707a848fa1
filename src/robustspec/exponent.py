"""Error exponents of the stationary-Gaussian-in-white-noise detection problem.

The matched-detector exponent of a signal PSD phi at noise floor sigma^2 is

    (1/4pi) * int [log(1 + phi/sigma^2) - (phi/sigma^2)/(1 + phi/sigma^2)] dw,

the large-n limit of the normalized KL divergence between the null and the
signal-plus-noise model.  `kl_rate` gives the finite-n counterpart.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import ParameterError, require_positive
from .gaussian_model import _durbin_with_jitter
from .spectral import PsdGrid, UncertaintySet, autocovariance, circle_mean


def error_exponent(psd: PsdGrid, sigma2: float) -> float:
    """Matched-LRT error exponent of the PSD in nats per sample (trapezoid rule)."""
    require_positive("sigma2", sigma2)
    snr = psd.values / sigma2
    integrand = np.log1p(snr) - snr / (1.0 + snr)
    return 0.5 * circle_mean(integrand)


def genie_bound(uset: UncertaintySet, sigma2: float) -> Tuple[float, int]:
    """Smallest matched exponent over the set and its member index.

    Upper-bounds any robust exponent; ties go to the first member.
    """
    values = [error_exponent(psd, sigma2) for psd in uset.members]
    idx = int(np.argmin(values))
    return values[idx], idx


def kl_rate(psd: PsdGrid, sigma2: float, n: int) -> float:
    """Normalized finite-n KL divergence (1/n) D(white || signal model).

    With C the signal-model covariance, D = (tr(sigma2 C^{-1}) - n
    + log|C / sigma2|) / 2.  One Levinson-Durbin pass on C's first column gives
    both terms: log|C / sigma2| = sum_k log(eps_k / sigma2) over the prediction
    errors, and tr(C^{-1}) = sum_k (n - 2k) a_k^2 / eps_{n-1} over the
    predictor (the Gohberg-Semencul formula).  It is the pass a model runs at
    construction, jitter ladder included; no model or dense matrix is formed.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    require_positive("sigma2", sigma2)
    a, errors, _ = _durbin_with_jitter(autocovariance(psd, n - 1), sigma2, psd.label)
    trace = float(np.sum((n - 2.0 * np.arange(n)) * a * a)) * (sigma2 / errors[-1])
    logdet = float(np.sum(np.log(errors / sigma2)))
    return 0.5 * (trace - n + logdet) / n

"""Every library entry point that takes a noise floor rejects a bad one."""

import numpy as np
import pytest

from conftest import flat_set
from robustspec.dominance import find_dominated, flat_psd_criterion, sigma2_dominance_margin
from robustspec.errors import ParameterError
from robustspec.exponent import error_exponent, genie_bound, kl_rate
from robustspec.gaussian_model import build_model, finite_n_dominates, ratio_expectation
from robustspec.minimax import kkt_certificate
from robustspec.spectral import UncertaintySet

PSDS = flat_set([1.0, 2.0])
MODELS = [build_model(p, 1.0, 8) for p in PSDS]

CALLS = {
    "error_exponent": lambda s: error_exponent(PSDS[0], s),
    "genie_bound": lambda s: genie_bound(UncertaintySet(PSDS), s),
    "kl_rate": lambda s: kl_rate(PSDS[0], s, 8),
    "find_dominated": lambda s: find_dominated(UncertaintySet(PSDS), s),
    "find_dominated_k1": lambda s: find_dominated(UncertaintySet(PSDS[:1]), s),
    "sigma2_dominance_margin": lambda s: sigma2_dominance_margin(*PSDS, s),
    "flat_psd_criterion_sigma2": lambda s: flat_psd_criterion(PSDS[1], 1.0, s),
    "flat_psd_criterion_rho": lambda s: flat_psd_criterion(PSDS[1], s, 1.0),
    "ratio_expectation": lambda s: ratio_expectation(s, *MODELS),
    "finite_n_dominates": lambda s: finite_n_dominates(s, *MODELS),
    "kkt_certificate": lambda s: kkt_certificate(0, MODELS, s),
    "kkt_certificate_k1": lambda s: kkt_certificate(0, MODELS[:1], s),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_bad_noise_floor_raises_parameter_error(call, value):
    with pytest.raises(ParameterError, match="must be finite and > 0"):
        call(value)

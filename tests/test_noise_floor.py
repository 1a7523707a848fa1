"""Every library entry point that takes a noise floor rejects a bad one."""

import numpy as np
import pytest

from conftest import flat_set
from robustspec.detection import (
    MixtureWeights,
    calibrate_threshold,
    estimate_error_probs,
    h0_statistics,
    log_likelihood_ratios,
    mixture_statistics,
)
from robustspec.dominance import find_dominated, flat_psd_criterion, sigma2_dominance_margin
from robustspec.errors import ParameterError
from robustspec.exponent import error_exponent, genie_bound, kl_rate
from robustspec.gaussian_model import (
    build_model,
    finite_n_dominates,
    ratio_expectation,
    ratio_expectations,
)
from robustspec.minimax import (
    kkt_certificate,
    minimize_mixture_weights,
    sample_average_kl,
    utility,
)
from robustspec.spectral import UncertaintySet

PSDS = flat_set([1.0, 2.0])
MODELS = [build_model(p, 1.0, 8) for p in PSDS]
UNIFORM = MixtureWeights.uniform(2)
ROWS = np.ones((4, 8))

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
    "ratio_expectations_empty": lambda s: ratio_expectations(s, MODELS[0], []),
    "finite_n_dominates": lambda s: finite_n_dominates(s, *MODELS),
    "kkt_certificate": lambda s: kkt_certificate(0, MODELS, s),
    "kkt_certificate_k1": lambda s: kkt_certificate(0, MODELS[:1], s),
    "log_likelihood_ratios": lambda s: log_likelihood_ratios(ROWS, MODELS, s),
    "mixture_statistics": lambda s: mixture_statistics(ROWS, UNIFORM, MODELS, s),
    "h0_statistics": lambda s: h0_statistics(UNIFORM, MODELS, s, 1000, 1),
    "calibrate_threshold": lambda s: calibrate_threshold(UNIFORM, MODELS, s, 0.1, 1000, 1),
    "estimate_error_probs": lambda s: estimate_error_probs(UNIFORM, MODELS, s, 0.0, 0, 1000, 1),
    "sample_average_kl": lambda s: sample_average_kl(UNIFORM, MODELS, s, ROWS),
    "minimize_mixture_weights": lambda s: minimize_mixture_weights(MODELS, s, ROWS, UNIFORM),
    "utility": lambda s: utility(UNIFORM, UNIFORM, MODELS, s, ROWS, 1),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_bad_noise_floor_raises_parameter_error(call, value):
    with pytest.raises(ParameterError, match="must be finite and > 0"):
        call(value)

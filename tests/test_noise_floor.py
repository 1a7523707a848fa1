"""Every library entry point that takes a noise floor rejects a bad one, and
every one that is given models reads the noise floor from them."""

import inspect

import numpy as np
import pytest

import robustspec.detection
import robustspec.minimax
from conftest import flat_set
from robustspec.detection import (
    MixtureWeights,
    calibrate_threshold,
    empirical_exponent,
    estimate_error_probs,
    h0_statistics,
    log_likelihood_ratios,
    mixture_statistics,
    operating_characteristics,
    ratio_rows,
)
from robustspec.dominance import find_dominated, flat_psd_criterion, sigma2_dominance_margin
from robustspec.errors import ParameterError
from robustspec.exponent import error_exponent, genie_bound, kl_rate
from robustspec.gaussian_model import (
    build_model,
    finite_n_dominates,
    ratio_expectation,
    ratio_expectations,
    white_blocks,
    white_model,
)
from robustspec.minimax import kkt_certificate, regularity_probe, utility
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
    "build_model": lambda s: build_model(PSDS[0], s, 8),
    "white_model": lambda s: white_model(s, 8),
    "white_blocks": lambda s: white_blocks(s, 8, 10, 1),
    "empirical_exponent": lambda s: empirical_exponent(
        UncertaintySet(PSDS), s, UNIFORM, 0, [8], 1000, 0.1, 1
    ),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_bad_noise_floor_raises_parameter_error(call, value):
    with pytest.raises(ParameterError, match="must be finite and > 0"):
        call(value)


# flat 1 over two noise floors: each model is valid, the set is not
MIXED = [build_model(PSDS[0], 1.0, 16), build_model(PSDS[0], 2.0, 16)]
MIXED_ROWS = np.ones((4, 16))
# the null's log-ratio rows against MIXED, as the game functions take them
MIXED_RATIOS = np.zeros((4, 2))

MIXED_CALLS = {
    "log_likelihood_ratios": lambda: log_likelihood_ratios(MIXED_ROWS, MIXED),
    "ratio_rows": lambda: ratio_rows([MIXED_ROWS], MIXED),
    "mixture_statistics": lambda: mixture_statistics(MIXED_ROWS, UNIFORM, MIXED),
    "h0_statistics": lambda: h0_statistics(UNIFORM, MIXED, 1000, 1),
    "calibrate_threshold": lambda: calibrate_threshold(UNIFORM, MIXED, 0.1, 1000, 1),
    "estimate_error_probs": lambda: estimate_error_probs(UNIFORM, MIXED, 0.0, 0, 1000, 1),
    "operating_characteristics": lambda: operating_characteristics(
        [MIXED], [MixtureWeights.singleton(k, 2) for k in range(2)], [0, 1], 20000, 0.05, 3
    ),
    "utility": lambda: utility(UNIFORM, UNIFORM, MIXED, MIXED_RATIOS, 1),
    "regularity_probe": lambda: regularity_probe(UNIFORM, UNIFORM, [0.1], MIXED, MIXED_RATIOS, 1),
}


@pytest.mark.parametrize("call", MIXED_CALLS.values(), ids=MIXED_CALLS.keys())
def test_models_of_two_noise_floors_are_refused(call):
    # the white null has one noise floor: scoring against member 0's would
    # put every other member's detector at the wrong false-alarm rate
    with pytest.raises(ParameterError, match="sigma2"):
        call()


def test_model_taking_functions_have_no_noise_floor_parameter():
    # a function given built models reads the noise floor off them; only
    # kkt_certificate takes the closed-form reference measure's own
    checked = []
    for module in (robustspec.detection, robustspec.minimax):
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__ or name == "kkt_certificate":
                continue
            params = inspect.signature(fn).parameters
            if any(p.startswith("models") for p in params):
                checked.append(name)
                assert not [p for p in params if "sigma2" in p], name
    assert {
        "log_likelihood_ratios", "ratio_rows", "mixture_statistics", "h0_statistics",
        "calibrate_threshold", "estimate_error_probs", "utility", "regularity_probe",
    } <= set(checked)

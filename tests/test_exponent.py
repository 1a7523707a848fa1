import logging

import numpy as np
import pytest
import scipy.linalg

import prop_suites
from conftest import MASTER_SEED, flat_set, patch_everywhere
from robustspec.errors import ParameterError
from robustspec.exponent import error_exponent, genie_bound, kl_rate
from robustspec.gaussian_model import build_model, gaussian_kl, white_model
from robustspec.spectral import UncertaintySet, half_grid, make_psd


def flat_exponent(rho):
    return 0.5 * (np.log1p(rho) - rho / (1.0 + rho))


class TestErrorExponent:
    def test_zero_psd(self):
        zero = make_psd("tabulated", grid_size=64, values=np.zeros(64))
        assert error_exponent(zero, 1.0) == 0.0

    @pytest.mark.parametrize(
        "rho,expected",
        [(1.0, 0.5 * (np.log(2.0) - 0.5)), (3.0, 0.5 * (np.log(4.0) - 0.75))],
    )
    def test_flat_closed_form(self, rho, expected):
        psd = make_psd("flat", grid_size=4096, level=rho)
        assert error_exponent(psd, 1.0) == pytest.approx(expected, abs=1e-10)

    def test_nonnegative(self, rng):
        for _ in range(30):
            psd = prop_suites.random_psd(rng)
            assert error_exponent(psd, rng.uniform(0.5, 2.0)) >= 0.0

    def test_sigma2_validated(self):
        with pytest.raises(ParameterError):
            error_exponent(make_psd("flat", grid_size=8, level=1.0), 0.0)


class TestGenieBound:
    def test_two_flats(self):
        uset = UncertaintySet(members=flat_set([1.0, 3.0]))
        value, idx = genie_bound(uset, 1.0)
        assert idx == 0
        assert value == pytest.approx(flat_exponent(1.0), abs=1e-10)

    def test_singleton(self):
        uset = UncertaintySet(members=flat_set([2.0]))
        value, idx = genie_bound(uset, 1.0)
        assert idx == 0
        assert value == pytest.approx(flat_exponent(2.0), abs=1e-10)

    def test_ties_go_first(self):
        uset = UncertaintySet(members=flat_set([1.0]) + flat_set([1.0]))
        _, idx = genie_bound(uset, 1.0)
        assert idx == 0


class TestKlRate:
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_flat_exact_at_every_n(self, n):
        psd = make_psd("flat", grid_size=4096, level=1.0)
        assert kl_rate(psd, 1.0, n) == pytest.approx(flat_exponent(1.0), abs=1e-12)

    def test_zero_psd_every_n(self):
        zero = make_psd("tabulated", grid_size=64, values=np.zeros(64))
        for n in (1, 5, 32):
            assert kl_rate(zero, 1.0, n) == 0.0

    def test_ar1_converges_to_exponent(self):
        psd = make_psd("rational_ar1", grid_size=4096, variance=1.0, pole=0.5)
        limit = error_exponent(psd, 1.0)
        assert abs(kl_rate(psd, 1.0, 1024) - limit) <= 0.02 * limit

    def test_n_validated(self):
        with pytest.raises(ParameterError):
            kl_rate(make_psd("flat", grid_size=8, level=1.0), 1.0, 0)

    @pytest.mark.parametrize(
        "n", [4.0, True, np.float64(4.0)], ids=["float", "bool", "numpy-float"]
    )
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(ParameterError, match="n must be an integer"):
            kl_rate(make_psd("flat", grid_size=64, level=1.0), 1.0, n)

    def test_jitter_rung_is_logged_as_a_model_logs_it(self, caplog):
        # at sigma2 = 1e-12 this covariance fails Levinson-Durbin at rung 0
        # and passes at rung 1; grid 64 < n also logs aliasing, at every call
        psd = make_psd("raised_cosine", grid_size=64, peak=1.0, center=1.0, width=0.3)
        runs = (lambda: kl_rate(psd, 1e-12, 128), lambda: build_model(psd, 1e-12, 128).whitener())
        logged = []
        with caplog.at_level(logging.WARNING, logger="robustspec"):
            for run in runs:
                caplog.clear()
                run()
                messages = [record.getMessage() for record in caplog.records]
                logged.append([m for m in messages if "jitter" in m])
        (line,), model_lines = logged
        assert "n=128" in line and "jitter 1e-12" in line
        # a model logs its rung once, at construction, and its whitener not again
        assert model_lines == [line]


KL_REFERENCE_PSDS = (
    make_psd("rational_ar1", grid_size=2048, variance=1.3, pole=0.7),
    make_psd("raised_cosine", grid_size=2048, peak=3.0, center=2.0, width=0.8),
    make_psd(
        "tabulated", grid_size=2048,
        values=np.maximum(0.5 + np.cos(2.0 * half_grid(2048)), 0.0),
    ),
)


class TestKlRateAgainstDenseAlgebra:
    @pytest.mark.parametrize("n", [1, 2, 17, 256, 1024])
    @pytest.mark.parametrize("sigma2", [0.37, 1.0, 2.5])
    @pytest.mark.parametrize("psd", KL_REFERENCE_PSDS, ids=lambda p: p.label)
    def test_matches_gaussian_kl(self, psd, sigma2, n):
        dense = gaussian_kl(white_model(sigma2, n), build_model(psd, sigma2, n)) / n
        assert kl_rate(psd, sigma2, n) == pytest.approx(dense, rel=1e-12, abs=0.0)

    def test_builds_no_model_and_no_cholesky(self, monkeypatch):
        expected = [kl_rate(psd, 1.0, 64) for psd in KL_REFERENCE_PSDS]

        def refuse(*args, **kwargs):
            raise AssertionError("dense path called")

        for original in (build_model, white_model, scipy.linalg.cholesky):
            patch_everywhere(monkeypatch, original, refuse)
        monkeypatch.setattr(scipy.linalg, "cholesky", refuse)
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        assert [kl_rate(psd, 1.0, 64) for psd in KL_REFERENCE_PSDS] == expected

    @pytest.mark.parametrize("sigma2", [0.37, 2.5])
    def test_zero_psd_is_exactly_zero_at_any_sigma2(self, sigma2):
        zero = make_psd("tabulated", grid_size=64, values=np.zeros(64))
        assert [kl_rate(zero, sigma2, n) for n in (1, 5, 200)] == [0.0] * 3

    def test_sigma2_validated(self):
        with pytest.raises(ParameterError):
            kl_rate(make_psd("flat", grid_size=8, level=1.0), 0.0, 4)


class TestInvariantSuites:
    def test_snr_monotonicity_property(self):
        prop_suites.check_snr_monotonicity(MASTER_SEED, 60)

    def test_convergence_property(self):
        prop_suites.check_kl_rate_convergence(MASTER_SEED, 12)

    def test_genie_matches_dominated_property(self):
        prop_suites.check_genie_matches_dominated(MASTER_SEED, 60)

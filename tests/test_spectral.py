import logging

import numpy as np
import pytest

import prop_suites
from conftest import MASTER_SEED, MODULE_CASES
from robustspec.errors import DomainError, ParameterError
from robustspec.spectral import (
    PsdGrid,
    UncertaintySet,
    autocovariance,
    circle_mean,
    eval_psd,
    half_grid,
    lower_envelope,
    make_psd,
    trapezoid_weights,
)


class TestMakePsd:
    def test_flat_is_constant(self):
        psd = make_psd("flat", grid_size=64, level=1.0)
        assert psd.values.shape == (64,)
        assert np.all(psd.values == 1.0)

    def test_zero_pole_degenerates_to_white(self):
        psd = make_psd("rational_ar1", grid_size=64, variance=1.0, pole=0.0)
        assert np.allclose(psd.values, 1.0, atol=1e-15)

    def test_ar1_mean_power_equals_variance(self):
        # circle mean of the spectrum is the process variance
        psd = make_psd("rational_ar1", grid_size=1024, variance=1.0, pole=0.5)
        oracle = make_psd("rational_ar1", grid_size=2**20, variance=1.0, pole=0.5)
        assert abs(circle_mean(psd.values) - 1.0) < 1e-5
        assert abs(circle_mean(oracle.values) - 1.0) < 1e-10

    @pytest.mark.parametrize(
        "family,params,field",
        [
            ("flat", {"level": -0.1}, "level"),
            ("raised_cosine", {"peak": -1.0, "center": 0.0, "width": 1.0}, "peak"),
            ("raised_cosine", {"peak": 1.0, "center": 4.0, "width": 1.0}, "center"),
            ("raised_cosine", {"peak": 1.0, "center": 0.0, "width": 0.0}, "width"),
            ("rational_ar1", {"variance": 0.0, "pole": 0.5}, "variance"),
            ("rational_ar1", {"variance": 1.0, "pole": 1.0}, "pole"),
        ],
    )
    def test_parameter_errors_name_the_field(self, family, params, field):
        with pytest.raises(ParameterError, match=field):
            make_psd(family, grid_size=64, **params)

    @pytest.mark.parametrize(
        "family,params,field",
        [
            ("flat", {"level": True}, "level"),
            ("raised_cosine", {"peak": 1.0, "center": 0.0, "width": [1]}, "width"),
            ("rational_ar1", {"variance": 1.0, "pole": "0.5"}, "pole"),
        ],
        ids=["bool", "list", "string"],
    )
    def test_non_real_scalar_named(self, family, params, field):
        with pytest.raises(ParameterError, match=f"{family!r} parameter {field!r}"):
            make_psd(family, grid_size=64, **params)

    def test_numpy_scalars_accepted(self):
        psd = make_psd("rational_ar1", grid_size=64, variance=np.float32(1.0), pole=np.int64(0))
        assert np.allclose(psd.values, 1.0, atol=1e-15)

    def test_unknown_family_and_extra_params_rejected(self):
        with pytest.raises(ParameterError):
            make_psd("lorentzian", grid_size=64)
        with pytest.raises(ParameterError, match="unexpected"):
            make_psd("flat", grid_size=64, level=1.0, pole=0.5)

    def test_grid_size_floor(self):
        with pytest.raises(ParameterError):
            make_psd("flat", grid_size=7, level=1.0)


class TestPsdGrid:
    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ParameterError):
            PsdGrid(grid_size=8, values=-np.ones(8))
        with pytest.raises(ParameterError):
            PsdGrid(grid_size=8, values=np.full(8, np.inf))

    def test_values_read_only(self):
        psd = make_psd("flat", grid_size=8, level=1.0)
        with pytest.raises(ValueError):
            psd.values[0] = 2.0

    def test_uncertainty_set_shares_grid(self):
        a = make_psd("flat", grid_size=8, level=1.0)
        b = make_psd("flat", grid_size=16, level=1.0)
        with pytest.raises(ParameterError):
            UncertaintySet(members=(a, b))
        with pytest.raises(ParameterError):
            UncertaintySet(members=(a,), candidate_index=3)


class TestEvalPsd:
    def test_flat_anywhere(self):
        psd = make_psd("flat", grid_size=64, level=2.0)
        assert eval_psd(psd, 1.3) == 2.0

    def test_even_symmetry_exact(self):
        psd = make_psd("raised_cosine", grid_size=64, peak=1.0, center=1.0, width=1.0)
        for omega in (0.1, 0.5, 2.0, np.pi):
            assert eval_psd(psd, -omega) == eval_psd(psd, omega)

    def test_ar1_closed_form_at_zero(self):
        psd = make_psd("rational_ar1", grid_size=64, variance=1.0, pole=0.5)
        assert abs(eval_psd(psd, 0.0) - 3.0) < 1e-12

    def test_domain_error(self):
        psd = make_psd("flat", grid_size=8, level=1.0)
        with pytest.raises(DomainError):
            eval_psd(psd, 3.5)


class TestLowerEnvelope:
    def test_two_flats(self):
        uset = UncertaintySet(
            members=(
                make_psd("flat", grid_size=16, level=1.0),
                make_psd("flat", grid_size=16, level=2.0),
            )
        )
        env = lower_envelope(uset)
        assert np.all(env.values == 1.0)
        assert env.label == "envelope"

    def test_singleton_identity(self):
        psd = make_psd("rational_ar1", grid_size=16, variance=1.0, pole=0.3)
        env = lower_envelope(UncertaintySet(members=(psd,)))
        assert np.array_equal(env.values, psd.values)

    def test_nodewise_min_of_mirror_bumps(self):
        a = make_psd("raised_cosine", grid_size=128, peak=2.0, center=0.0, width=1.5)
        b = make_psd(
            "raised_cosine", grid_size=128, peak=2.0, center=np.pi, width=1.5
        )
        env = lower_envelope(UncertaintySet(members=(a, b)))
        assert np.array_equal(env.values, np.minimum(a.values, b.values))


class TestAutocovariance:
    def test_flat_is_white(self):
        c = autocovariance(make_psd("flat", grid_size=4096, level=2.5), 6)
        assert abs(c[0] - 2.5) < 1e-10
        assert np.all(np.abs(c[1:]) < 1e-10)

    def test_ar1_geometric_decay(self):
        c = autocovariance(
            make_psd("rational_ar1", grid_size=2**16, variance=1.0, pole=0.5), 8
        )
        assert np.allclose(c, 0.5 ** np.arange(9), atol=1e-8)

    def test_lag_bound(self, rng):
        for _ in range(20):
            psd = prop_suites.random_psd(rng)
            c = autocovariance(psd, 5)
            assert abs(c[5]) <= c[0] + 1e-12

    @pytest.mark.parametrize("grid_size", [8, 64])
    def test_matches_direct_cosine_sum_past_the_grid(self, rng, grid_size):
        # lags past grid_size - 1 alias with period 2(grid_size - 1) and a
        # reflection, exactly as the cosine sum on the half-grid does
        max_lag = 3 * grid_size + 5
        lags = np.arange(max_lag + 1)
        for _ in range(10):
            psd = prop_suites.random_psd(rng, grid_size)
            weighted = psd.values * trapezoid_weights(grid_size)
            direct = np.cos(np.outer(lags, psd.omegas)) @ weighted / np.pi
            c = autocovariance(psd, max_lag)
            assert np.max(np.abs(c - direct)) <= 1e-13 * np.max(psd.values)
            period = 2 * (grid_size - 1)
            assert c[period - 3] == c[3] and c[period + 3] == c[3]

    def test_aliasing_is_logged(self, caplog):
        # at n = grid_size the largest lag is grid_size - 1, still exact
        psd = make_psd("flat", grid_size=64, level=1.0, label="f")
        with caplog.at_level(logging.WARNING, logger="robustspec"):
            autocovariance(psd, 63)
            assert caplog.records == []
            autocovariance(psd, 99)
        (record,) = caplog.records
        assert record.name.startswith("robustspec") and record.levelno == logging.WARNING
        assert "'f'" in record.getMessage() and "grid_size 64" in record.getMessage()

    def test_negative_lag_rejected(self):
        with pytest.raises(ParameterError):
            autocovariance(make_psd("flat", grid_size=8, level=1.0), -1)


class TestQuadrature:
    def test_weights_sum_to_pi(self):
        assert abs(trapezoid_weights(64).sum() - np.pi) < 1e-14

    def test_circle_mean_of_constant(self):
        assert abs(circle_mean(np.full(97, 3.0)) - 3.0) < 1e-14

    def test_half_grid_endpoints(self):
        grid = half_grid(33)
        assert grid[0] == 0.0 and grid[-1] == np.pi


class TestInvariantSuites:
    def test_even_symmetry_property(self):
        prop_suites.check_even_symmetry(MASTER_SEED, MODULE_CASES)

    def test_quadrature_consistency_property(self):
        prop_suites.check_quadrature_consistency(MASTER_SEED, 20)

    def test_envelope_lower_bound_property(self):
        prop_suites.check_envelope_lower_bound(MASTER_SEED, MODULE_CASES)

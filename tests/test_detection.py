import numpy as np
import pytest
from scipy.special import logsumexp

import prop_suites
from conftest import MASTER_SEED, MODULE_CASES, flat_set
from robustspec.detection import (
    DEFAULT_TILT_GRID,
    DetectorSpec,
    MixtureWeights,
    _log_sum_exp,
    _mixture_log_ratios,
    calibrate_threshold,
    chernoff_exponent,
    derive_seed,
    empirical_exponent,
    estimate_error_probs,
    h0_statistics,
    log_likelihood_ratios,
    mixture_statistic,
    mixture_statistics,
    sample_mixture_blocks,
    threshold_order_index,
)
from robustspec.errors import EstimationInfeasibleError, ParameterError
from robustspec.exponent import error_exponent, kl_rate
from robustspec.gaussian_model import build_model, sample_gaussian, white_model
from robustspec.spectral import UncertaintySet, make_psd

E1 = MixtureWeights(np.array([1.0]))


class TestMixtureWeights:
    def test_validation(self):
        with pytest.raises(ParameterError):
            MixtureWeights(np.array([0.5, 0.6]))
        with pytest.raises(ParameterError):
            MixtureWeights(np.array([-0.1, 1.1]))
        with pytest.raises(ParameterError):
            MixtureWeights(np.array([]))
        for w in ([np.nan, 1.0], [1.0, np.nan], [np.nan], [0.5, 0.5, np.nan]):
            with pytest.raises(ParameterError):
                MixtureWeights(np.array(w))

    def test_constructors(self):
        assert np.array_equal(MixtureWeights.singleton(1, 3).w, [0.0, 1.0, 0.0])
        assert np.allclose(MixtureWeights.uniform(4).w, 0.25)


class TestMixtureStatistic:
    def test_zero_observation_closed_form(self):
        rho = 2.0
        model = build_model(make_psd("flat", grid_size=4096, level=rho), 1.0, 8)
        g = mixture_statistic(np.zeros(8), E1, [model], 1.0)
        assert g == pytest.approx(-0.5 * np.log(1.0 + rho), abs=1e-9)

    def test_singleton_equals_scaled_llr(self, rng):
        models = [
            build_model(prop_suites.random_psd(rng, 64), 1.0, 8) for _ in range(3)
        ]
        y = sample_gaussian(white_model(1.0, 8), 16, 3)
        g = mixture_statistics(y, MixtureWeights.singleton(1, 3), models, 1.0)
        ell = log_likelihood_ratios(y, models, 1.0)
        assert np.allclose(g, ell[:, 1] / 8, atol=1e-12)

    def test_duplicate_components_collapse(self, rng):
        model = build_model(prop_suites.random_psd(rng, 64), 1.0, 8)
        y = sample_gaussian(white_model(1.0, 8), 16, 4)
        pair = mixture_statistics(y, MixtureWeights.uniform(2), [model, model], 1.0)
        single = mixture_statistics(y, E1, [model], 1.0)
        assert np.allclose(pair, single, atol=1e-12)

    def test_dimension_mismatch(self):
        model = build_model(make_psd("flat", grid_size=64, level=1.0), 1.0, 8)
        with pytest.raises(ParameterError):
            mixture_statistic(np.zeros(9), E1, [model], 1.0)


class TestLogSumExp:
    def test_matches_scipy(self, rng):
        ratios = rng.normal(scale=40.0, size=(4096, 4)) + rng.normal(scale=300.0, size=(4096, 1))
        for w in ([0.25, 0.25, 0.25, 0.25], [0.7, 0.0, 0.3, 0.0], [1e-9, 0.5, 0.5 - 1e-9, 0.0]):
            w = np.array(w)
            with np.errstate(divide="ignore"):
                expected = logsumexp(ratios + np.log(w), axis=1)
            got = _mixture_log_ratios(ratios, w)
            assert np.allclose(got, expected, rtol=1e-13, atol=0.0)
        vector = ratios[:, 0]
        assert float(_log_sum_exp(vector)) == pytest.approx(logsumexp(vector), rel=1e-13)

    def test_singleton_returns_its_column(self, rng):
        ratios = rng.normal(scale=50.0, size=(1000, 3))
        for k in range(3):
            w = MixtureWeights.singleton(k, 3).w
            assert np.array_equal(_mixture_log_ratios(ratios, w), ratios[:, k])

    def test_all_minus_infinity_row(self):
        x = np.array([[-np.inf, -np.inf], [0.0, -np.inf]])
        assert np.array_equal(_log_sum_exp(x), [-np.inf, 0.0])


class TestCalibration:
    def setup_method(self):
        self.models = [build_model(make_psd("flat", grid_size=64, level=1.0), 1.0, 8)]

    def test_median_at_alpha_half(self):
        trials = 2000
        tau = calibrate_threshold(E1, self.models, 1.0, 0.5, trials, 17)
        g = np.sort(h0_statistics(E1, self.models, 1.0, trials, 17))
        assert tau == g[trials // 2]

    def test_deterministic(self):
        a = calibrate_threshold(E1, self.models, 1.0, 0.1, 2000, 21)
        b = calibrate_threshold(E1, self.models, 1.0, 0.1, 2000, 21)
        assert a == b

    def test_insufficient_trials(self):
        with pytest.raises(ParameterError):
            calibrate_threshold(E1, self.models, 1.0, 0.01, 500, 1)

    @pytest.mark.parametrize("alpha,trials,expected", [(0.1, 1000, 900), (0.5, 999, 499)])
    def test_order_index(self, alpha, trials, expected):
        assert threshold_order_index(alpha, trials) == expected

    def test_threshold_shrinks_toward_negative_exponent(self):
        # the calibrated threshold approaches -exponent as dimension grows
        flats = flat_set([1.0, 2.0, 3.0])
        psi = error_exponent(flats[0], 1.0)
        errs = []
        for n in (32, 128):
            models = [build_model(p, 1.0, n) for p in flats]
            tau = calibrate_threshold(
                MixtureWeights.uniform(3), models, 1.0, 0.1, 20000,
                derive_seed(MASTER_SEED, f"trend:{n}"),
            )
            errs.append(abs(tau + psi))
        assert errs[1] < errs[0]


class TestErrorProbs:
    def make_spec(self, threshold, n=8):
        model = build_model(make_psd("flat", grid_size=64, level=1.0), 1.0, n)
        return DetectorSpec(weights=E1, models=[model], threshold=threshold)

    def test_degenerate_thresholds(self):
        fa, miss, count = estimate_error_probs(self.make_spec(np.inf), 0, 1000, 0)
        assert (fa, miss, count) == (0.0, 1.0, 1000)
        fa, miss, count = estimate_error_probs(self.make_spec(-np.inf), 0, 1000, 0)
        assert (fa, miss, count) == (1.0, 0.0, 0)

    def test_n_and_noise_floor_read_from_models(self):
        spec = self.make_spec(0.0)
        assert (spec.n, spec.null_sigma2) == (8, 1.0)
        for n, sigma2 in ((8, 2.0), (9, 1.0)):
            other = build_model(make_psd("flat", grid_size=64, level=1.0), sigma2, n)
            with pytest.raises(ParameterError):
                DetectorSpec(
                    weights=MixtureWeights.uniform(2), models=[spec.models[0], other],
                    threshold=0.0,
                )

    def test_nan_threshold_rejected(self):
        with pytest.raises(ParameterError):
            self.make_spec(np.nan)

    def test_matched_flat_detector_self_consistency(self):
        # false alarms near alpha; misses within 3-sigma of a 10x oracle run
        model = build_model(make_psd("flat", grid_size=256, level=3.0), 1.0, 32)
        tau = calibrate_threshold(E1, [model], 1.0, 0.1, 100000, derive_seed(5, "cal"))
        spec = DetectorSpec(weights=E1, models=[model], threshold=tau)
        fa, miss, _ = estimate_error_probs(spec, 0, 100000, 5)
        assert abs(fa - 0.1) <= 3.0 * np.sqrt(0.1 * 0.9 / 100000)
        _, miss_oracle, _ = estimate_error_probs(spec, 0, 1000000, 6)
        band = 3.0 * np.sqrt(miss_oracle * (1.0 - miss_oracle) / 100000)
        assert abs(miss - miss_oracle) <= band


class TestEmpiricalExponent:
    def test_degenerate_truth_mirrors_null(self):
        flat1 = make_psd("flat", grid_size=256, level=1.0, label="f1")
        zero = make_psd("tabulated", grid_size=256, values=np.zeros(256), label="zero")
        uset = UncertaintySet(members=(flat1, zero))
        est = empirical_exponent(
            uset, 1.0, MixtureWeights.uniform(2), 1, [16, 32], 5000, 0.1, 7
        )
        assert np.allclose(est.miss_hat, 0.9, atol=0.03)
        assert np.all(np.abs(est.miss_log) < 0.01)

    def test_matched_flat_ladder_approaches_exponent(self):
        flat1 = make_psd("flat", grid_size=256, level=1.0, label="f1")
        uset = UncertaintySet(members=(flat1,))
        limit = error_exponent(flat1, 1.0)
        est = empirical_exponent(uset, 1.0, E1, 0, [16, 32], 20000, 0.5, MASTER_SEED)
        assert not np.any(est.censored)
        errs = np.abs(est.miss_log - limit)
        assert errs[1] < errs[0]
        assert limit <= est.slope <= 3.0 * limit

    def test_all_censored_is_infeasible(self):
        flat5 = make_psd("flat", grid_size=256, level=5.0, label="f5")
        uset = UncertaintySet(members=(flat5,))
        with pytest.raises(EstimationInfeasibleError):
            empirical_exponent(uset, 1.0, E1, 0, [64], 2000, 0.1, 3)

    def test_n_values_must_increase(self):
        flat1 = make_psd("flat", grid_size=256, level=1.0)
        uset = UncertaintySet(members=(flat1,))
        with pytest.raises(ParameterError):
            empirical_exponent(uset, 1.0, E1, 0, [32, 32], 2000, 0.1, 3)


class TestMixtureSampling:
    def test_singleton_weights_match_model_draws(self):
        model = build_model(make_psd("flat", grid_size=64, level=2.0), 1.0, 6)
        via_mixture = np.concatenate(
            list(sample_mixture_blocks([model], E1, 5000, 11))
        )
        direct = sample_gaussian(model, 5000, 11)
        assert np.array_equal(via_mixture, direct)

    def test_coupled_across_operating_points(self):
        # the underlying white draws must not depend on the weights
        models = [
            build_model(make_psd("flat", grid_size=64, level=l), 1.0, 4)
            for l in (1.0, 2.0)
        ]
        a = np.concatenate(
            list(sample_mixture_blocks(models, MixtureWeights.uniform(2), 3000, 13))
        )
        b = np.concatenate(
            list(
                sample_mixture_blocks(
                    models, MixtureWeights(np.array([0.9, 0.1])), 3000, 13
                )
            )
        )
        # wherever both runs picked component 0 the rows coincide exactly
        same = np.all(a == b, axis=1)
        assert np.count_nonzero(same) > 1000

    def test_short_run_is_prefix_of_full_block(self):
        # normals and component-selection uniforms of a short final block are
        # the first entries of a full block's draws
        models = [
            build_model(make_psd("flat", grid_size=64, level=l), 1.0, 3)
            for l in (1.0, 2.0, 4.0)
        ]
        weights = MixtureWeights(np.array([0.2, 0.5, 0.3]))
        full = np.concatenate(list(sample_mixture_blocks(models, weights, 4096, 17)))
        short = np.concatenate(list(sample_mixture_blocks(models, weights, 3616, 17)))
        assert np.array_equal(short, full[:3616])


class TestChernoffExponent:
    def make_spec(self, n=16):
        flat1 = make_psd("flat", grid_size=256, level=1.0, label="f1")
        model = build_model(flat1, 1.0, n)
        return DetectorSpec(weights=E1, models=[model], threshold=-kl_rate(flat1, 1.0, n))

    def test_zero_tilt_only(self):
        spec = self.make_spec()
        assert chernoff_exponent(spec, E1, [0.0], 2000, 1) == 0.0

    def test_change_of_measure_identity(self):
        # at tilt -1 with the matched detector the bound recovers the KL rate
        spec = self.make_spec()
        val = chernoff_exponent(spec, E1, DEFAULT_TILT_GRID, 20000, 1)
        assert val == pytest.approx(-spec.threshold, abs=0.005)

    @pytest.mark.parametrize("k", [2, 3])
    def test_operating_point_must_weight_each_model(self, k):
        with pytest.raises(ParameterError):
            chernoff_exponent(self.make_spec(), MixtureWeights.uniform(k), [0.0], 2000, 1)

    def test_grid_enlargement_monotone(self):
        spec = self.make_spec()
        small = chernoff_exponent(spec, E1, [-1.0, 0.0], 5000, 2)
        large = chernoff_exponent(spec, E1, [-1.5, -1.0, -0.5, 0.0], 5000, 2)
        assert large >= small

    def test_grid_validation(self):
        spec = self.make_spec()
        with pytest.raises(ParameterError):
            chernoff_exponent(spec, E1, [], 2000, 1)
        with pytest.raises(ParameterError):
            chernoff_exponent(spec, E1, [0.5], 2000, 1)


class TestSeedDerivation:
    def test_stable_and_label_sensitive(self):
        assert derive_seed(0, "h0") == derive_seed(0, "h0")
        assert derive_seed(0, "h0") != derive_seed(0, "h1")
        assert derive_seed(0, "h0") != derive_seed(1, "h0")


class TestInvariantSuites:
    def test_calibration_exceedances_property(self):
        prop_suites.check_calibration_exceedances(MASTER_SEED, MODULE_CASES)

    def test_statistic_lower_bound_property(self):
        prop_suites.check_statistic_lower_bound(MASTER_SEED, MODULE_CASES)

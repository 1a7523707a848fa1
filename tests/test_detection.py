import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import logsumexp

import prop_suites
import robustspec.detection
import robustspec.gaussian_model
from conftest import MASTER_SEED, MODULE_CASES, SCORED_PSDS, flat_set, patch_everywhere
from robustspec.detection import (
    DEFAULT_TILT_GRID,
    DetectorSpec,
    MixtureWeights,
    _log_sum_exp,
    _mixture_log_ratios,
    _operating_characteristics,
    _scorer,
    _singleton_thresholds,
    calibrate_threshold,
    chernoff_exponent,
    derive_seed,
    empirical_exponent,
    estimate_error_probs,
    h0_statistics,
    log_likelihood_ratios,
    mixture_statistic,
    mixture_statistics,
    operating_characteristics,
    ratio_rows,
    sample_mixture_blocks,
    threshold_order_index,
    weighted_chi2_isf,
)
from robustspec.dominance import find_dominated
from robustspec.errors import EstimationInfeasibleError, ParameterError
from robustspec.exponent import error_exponent, kl_rate
from robustspec.gaussian_model import (
    SAMPLE_BLOCK,
    build_model,
    build_model_sets,
    normal_blocks,
    sample_gaussian,
    standard_normal_block,
    white_blocks,
    white_model,
)
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


class TestRatioForms:
    @pytest.mark.parametrize("n", [1, 2, 17, 64])
    @pytest.mark.parametrize("sigma2", [0.37, 1.0, 2.5])
    def test_matches_dense_reference(self, n, sigma2):
        # every stream: each truth's signal rows z L^T, and the null's
        # samples sqrt(sigma2) z; then samples a caller passes
        models = [build_model(psd, sigma2, n) for psd in SCORED_PSDS.values()]
        assert all(model.jitter == 0 for model in models)
        z = standard_normal_block(3, 0, 200, n)
        scorer = _scorer(models, [MixtureWeights.uniform(3)], sigma2)
        cases = [(z @ m.factor.T, scorer.log_ratios(z @ m.factor.T)) for m in models]
        null = np.sqrt(sigma2) * z
        cases.append((null, scorer.log_ratios(null)))
        y = z @ models[1].factor.T
        cases.append((y, log_likelihood_ratios(y, models, sigma2)))
        for y, got in cases:
            yy = np.einsum("ij,ij->i", y, y) / sigma2
            for k, model in enumerate(models):
                cov = model.covariance()
                offset = -0.5 * (np.linalg.slogdet(cov)[1] - n * np.log(sigma2))
                quad = np.einsum("ij,ji->i", y, np.linalg.solve(cov, y.T))
                expected = offset + 0.5 * (yy - quad)
                # relative to the largest term of the reference's sum
                bound = 1e-12 * (abs(offset) + 0.5 * yy)
                assert np.all(np.abs(got[:, k] - expected) <= bound)

    def test_singleton_detector_reads_its_column(self):
        models = [build_model(psd, 1.0, 17) for psd in SCORED_PSDS.values()]
        detectors = [MixtureWeights.singleton(1, 3), MixtureWeights.uniform(3)]
        z = standard_normal_block(5, 0, 300, 17)
        ratios = _scorer(models, [MixtureWeights.uniform(3)], 1.0).log_ratios(z)
        g = _scorer(models, detectors, 1.0)(z)
        assert np.array_equal(g[0], ratios[:, 1] / 17)
        assert np.array_equal(g[1], _mixture_log_ratios(ratios, detectors[1].w) / 17)

    @pytest.mark.parametrize("ends", [[1], [5, 9, 40], [16, 32, 64], [100, 300]])
    def test_ladder_matches_dense_reference_per_n(self, ends):
        # every prefix y[:, :n] of one draw at the largest n, scored by the
        # one scorer of the largest models, against slogdet and solve of each
        # n x n leading block; the ends cross the segment edges at 64 and 256
        sigma2 = 0.8
        models = [build_model(psd, sigma2, ends[-1]) for psd in SCORED_PSDS.values()]
        assert all(model.jitter == 0 for model in models)
        y = standard_normal_block(4, 0, 100, ends[-1]) @ models[0].factor.T
        scorer = _scorer(models, [MixtureWeights.uniform(3)], sigma2, ends)
        ratios = scorer.log_ratios(y)
        assert ratios.shape == (100, len(ends) * 3)
        for j, n in enumerate(ends):
            got = ratios[:, 3 * j : 3 * j + 3]
            prefix = y[:, :n]
            yy = np.einsum("ij,ij->i", prefix, prefix) / sigma2
            for k, model in enumerate(models):
                cov = model.covariance()[:n, :n]
                offset = -0.5 * (np.linalg.slogdet(cov)[1] - n * np.log(sigma2))
                quad = np.einsum("ij,ji->i", prefix, np.linalg.solve(cov, prefix.T))
                expected = offset + 0.5 * (yy - quad)
                bound = 1e-12 * (abs(offset) + 0.5 * yy)
                assert np.all(np.abs(got[:, k] - expected) <= bound), (n, k)

    def test_singleton_detectors_skip_the_log_sum_exp(self, monkeypatch):
        models = [build_model(psd, 1.0, 17) for psd in SCORED_PSDS.values()]
        z = standard_normal_block(6, 0, 300, 17)
        ratios = _scorer(models, [MixtureWeights.uniform(3)], 1.0, [5, 17]).log_ratios(z)

        def refuse(x):
            raise AssertionError("a singleton detector called the log-sum-exp")

        monkeypatch.setattr(robustspec.detection, "_log_sum_exp", refuse)
        detectors = [MixtureWeights.singleton(k, 3) for k in (2, 0, 1)]
        g = _scorer(models, detectors, 1.0, [5, 17])(z)
        for j, n in enumerate([5, 17]):
            for d, k in enumerate((2, 0, 1)):
                assert np.array_equal(g[3 * j + d], ratios[:, 3 * j + k] / n)

    def test_no_models_to_score(self):
        with pytest.raises(ParameterError, match="no models to score"):
            log_likelihood_ratios(np.zeros((2, 8)), [], 1.0)

    def test_forms_built_once_per_n(self, monkeypatch):
        original = robustspec.detection._scorer
        models_by_n = build_model_sets(flat_set([1.0, 2.0, 3.0]), 1.0, [8, 16])
        builds = []

        def counting(models, detectors, null_sigma2, ends=None):
            scorer = original(models, detectors, null_sigma2, ends)
            builds.append((scorer.ends, [block.shape for block in scorer.blocks]))
            return scorer

        monkeypatch.setattr(robustspec.detection, "_scorer", counting)
        detectors = [MixtureWeights.singleton(0, 3), MixtureWeights.uniform(3)]
        # three blocks per stream, two truths: one scorer for the ladder, with
        # one e x (3 (e - s)) block per segment [s, e) = [0, 8) and [8, 16)
        operating_characteristics(
            models_by_n, detectors, [0, 2], 2 * SAMPLE_BLOCK + 100, 0.1, 7
        )
        assert builds == [((8, 16), [(8, 24), (16, 24)])]

    def test_engine_memory_is_linear_in_models(self):
        # Beside the models' cached factors, the engine holds one n x n form
        # per scored model and a few blocks of rows, however many truths it
        # scores: 8 (K n^2 + 6 trials n) bytes here is 29 MiB, and forms for
        # every (truth, model) pair would take 36 MiB.
        n, trials = 512, 1000
        models_by_n = build_model_sets(list(SCORED_PSDS.values()), 1.0, [n])
        for model in models_by_n[0]:
            model.factor
        detectors = [MixtureWeights.singleton(k, 3) for k in range(3)]
        tracemalloc.start()
        try:
            operating_characteristics(models_by_n, detectors, range(3), trials, 0.1, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (3 * n * n + 6 * trials * n), peak


def traced_peak(run) -> int:
    """tracemalloc's peak in bytes while `run()` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingMemory:
    # Every stream holds one tile of normals at a time, not a whole block.
    PSDS = [
        make_psd("flat", grid_size=4096, level=0.3),
        make_psd("rational_ar1", grid_size=4096, variance=1.0, pole=0.5),
        make_psd("raised_cosine", grid_size=4096, peak=1.5, center=1.0, width=2.0),
        make_psd("flat", grid_size=4096, level=0.8),
    ]

    def test_frozen_null_peaks_below_one_block(self):
        # the optimizer's frozen null: 20,000 rows at n = 256 against K = 4
        # models, streamed into a trials x K matrix of log-ratios
        n = 256
        models = [build_model(psd, 1.0, n) for psd in self.PSDS]
        peak = traced_peak(lambda: ratio_rows(white_blocks(1.0, n, 20000, 5), models, 1.0))
        assert peak < 8 * SAMPLE_BLOCK * n, peak

    def test_engine_peak_at_n_1024(self):
        # one detector against one truth on the ladder 256/1024: a whole
        # 4,096 x 1024 block of normals alone would be 32 MiB
        models_by_n = build_model_sets(self.PSDS[:3], 1.0, [256, 1024])
        detectors = [MixtureWeights.singleton(0, 3)]
        peak = traced_peak(
            lambda: operating_characteristics(models_by_n, detectors, [1], 4096, 0.1, 3)
        )
        assert peak < 40 * 2**20, peak


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

    def test_negative_seed_names_seed(self):
        with pytest.raises(ParameterError, match="seed"):
            calibrate_threshold(E1, self.models, 1.0, 0.1, 2000, -1)

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

    def test_truths_must_index_the_models(self):
        spec = self.make_spec(0.0)
        with pytest.raises(ParameterError, match="truth"):
            estimate_error_probs(spec, 1, 1000, 0)
        with pytest.raises(ParameterError, match="truth"):
            operating_characteristics([spec.models], [E1], [], 1000, 0.1, 0)

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

    def test_empty_ladder_rejected(self):
        uset = UncertaintySet(members=(make_psd("flat", grid_size=256, level=1.0),))
        with pytest.raises(ParameterError, match="n_values"):
            operating_characteristics([], [E1], [0], 2000, 0.1, 3)
        with pytest.raises(ParameterError, match="n_values"):
            empirical_exponent(uset, 1.0, E1, 0, [], 2000, 0.1, 3)

    def test_n_values_must_increase(self):
        flat1 = make_psd("flat", grid_size=256, level=1.0)
        uset = UncertaintySet(members=(flat1,))
        with pytest.raises(ParameterError):
            empirical_exponent(uset, 1.0, E1, 0, [32, 32], 2000, 0.1, 3)

    def test_every_draw_missed_gives_positive_zero(self):
        # a zero-PSD detector never rejects, so miss_hat = 1 and -log(1)/n
        # would be -0.0 in the ladder, its slope and the JSON payload
        zero = make_psd("flat", grid_size=256, level=0.0, label="zero")
        uset = UncertaintySet(members=(zero,))
        est = empirical_exponent(uset, 1.0, E1, 0, [4], 2000, 0.1, 3)
        assert est.miss_count[0] == 2000
        assert math.copysign(1.0, est.miss_log[0]) == 1.0
        assert math.copysign(1.0, est.slope) == 1.0
        assert json.dumps(est.to_rows()[0]["miss_log"]) == "0.0"


class TestLadderPrefixes:
    @pytest.mark.parametrize("change", ["sigma2", "members", "autocov"])
    def test_each_smaller_set_is_a_prefix_of_the_largest(self, change):
        psds = flat_set([1.0, 2.0, 3.0])
        small, large = build_model_sets(psds, 1.0, [8, 16])
        if change == "sigma2":
            (small,) = build_model_sets(psds, 1.5, [8])
        elif change == "members":
            small = small[:2]
        else:
            small = [build_model(make_psd("flat", grid_size=256, level=1.5), 1.0, 8)] + small[1:]
        with pytest.raises(ParameterError, match="n=8 are not the first"):
            operating_characteristics(
                [small, large], [MixtureWeights.uniform(3)], [0], 2000, 0.1, 1
            )


def imhof_sf(lam, x):
    """P(sum lam chi2_1 > x) by scipy's quad of Imhof's (1961) integrand:
    rho is taken as exp(-log rho), which cannot overflow at large u."""

    def integrand(u):
        theta = 0.5 * np.sum(np.arctan(lam * u)) - 0.5 * x * u
        return np.sin(theta) * np.exp(-0.25 * np.sum(np.log1p((lam * u) ** 2))) / u

    value, error = quad(integrand, 0.0, np.inf, limit=1000, epsabs=1e-13, epsrel=1e-13)
    assert error < 1e-11
    return 0.5 + value / np.pi


class TestExactThresholds:
    # The singleton thresholds are quantiles of sum lam chi2_1 with lam the
    # model's null_weights; every test runs under the error::RuntimeWarning
    # filter, so an overflow or a division by zero fails it.
    ALPHAS = (1e-3, 0.05, 0.9)

    @pytest.mark.parametrize("sigma2", [1.0, 0.7])
    def test_flat_members_match_chi2(self, sigma2):
        # a flat member's weights all equal level/(sigma2 + level): a scaled
        # chi2_n, checked against scipy with every (level, n) in one call
        cases = [(level, n) for level in (0.5, 3.0) for n in (1, 16, 64)]
        weights = [build_model(flat_set([lv])[0], sigma2, n).null_weights() for lv, n in cases]
        for (level, n), lam in zip(cases, weights):
            assert lam.shape == (n,)
            assert np.allclose(lam, level / (sigma2 + level), rtol=1e-12, atol=0.0)
        for a in self.ALPHAS:
            for (level, n), lam, q in zip(cases, weights, weighted_chi2_isf(weights, a)):
                assert abs(stats.chi2.sf(q / lam[0], n) - a) <= 1e-10, (level, n, a)

    @pytest.mark.parametrize("name", ["ar1", "raised_cosine"])
    @pytest.mark.parametrize("n", [16, 64])
    def test_scored_members_match_imhof(self, name, n):
        lam = build_model(SCORED_PSDS[name], 1.0, n).null_weights()
        assert np.ptp(lam) > 0.1  # distinct weights: no chi2 shortcut
        for a in self.ALPHAS:
            q = weighted_chi2_isf([lam], a)[0]
            assert abs(imhof_sf(lam, q) - a) <= 1e-10, a

    def test_two_weights_match_a_convolution(self):
        # at n = 2 Imhof's integrand decays like u^-2, where the contour must
        # still hold: P(a X + b Y > q) = E_Y P(X > (q - b Y)/a), Y = v^2
        lam = build_model(SCORED_PSDS["ar1"], 1.0, 2).null_weights()
        a, b = lam
        for alpha in self.ALPHAS:
            q = weighted_chi2_isf([lam], alpha)[0]
            inner = quad(
                lambda v: stats.chi2.sf((q - b * v * v) / a, 1) * 2.0 * stats.norm.pdf(v),
                0.0, np.sqrt(q / b), epsabs=1e-14, epsrel=1e-13, limit=200,
            )[0]
            assert abs(inner + stats.chi2.sf(q / b, 1) - alpha) <= 1e-10, alpha

    def test_roundoff_weights_are_clipped(self):
        # this bump is zero on most of the band: 13 eigenvalues of C_64 round
        # below sigma2, to lam of about -2e-15 before the clip
        psd = make_psd("raised_cosine", grid_size=4096, peak=2.0, center=0.8, width=0.5)
        model = build_model(psd, 1.0, 64)
        raw = 1.0 - 1.0 / np.linalg.eigvalsh(model.covariance())
        assert raw.min() < -1e-15
        lam = model.null_weights()
        assert lam.min() == 0.0 and np.array_equal(lam[raw > 0.0], raw[raw > 0.0])
        for a in self.ALPHAS:
            q = weighted_chi2_isf([lam], a)[0]
            assert abs(imhof_sf(lam, q) - a) <= 1e-10, a

    def test_prefix_weights_are_the_leading_block(self):
        largest = build_model(SCORED_PSDS["ar1"], 1.0, 64)
        for n in (1, 16, 63):
            own = build_model(SCORED_PSDS["ar1"], 1.0, n).null_weights()
            assert np.allclose(largest.null_weights(n), own, rtol=0.0, atol=1e-14)

    def test_zero_psd_member_threshold_is_its_offset(self):
        # every lam is 0: g is c/n on every draw, the threshold is c/n bit
        # for bit, and no draw exceeds it
        psds = (make_psd("flat", grid_size=256, level=0.0, label="zero"),) + flat_set([1.0])
        models_by_n = build_model_sets(psds, 1.0, [4, 8])
        assert not np.any(models_by_n[-1][0].null_weights())
        assert weighted_chi2_isf([np.zeros(8), np.zeros(1)], 0.05).tolist() == [0.0, 0.0]
        detectors = [MixtureWeights.singleton(0, 2), MixtureWeights.singleton(1, 2)]
        score = _scorer(models_by_n[-1], detectors, 1.0, [4, 8])
        thresholds = _singleton_thresholds(score, models_by_n[-1], detectors, 0.05)
        offsets = score.offsets.reshape(2, 2)
        assert thresholds[0] == offsets[0, 0] / 4 and thresholds[2] == offsets[1, 0] / 8
        ladders = operating_characteristics(models_by_n, detectors, [0, 1], 2000, 0.05, 3)
        assert not np.any(ladders[0][0].fa_hat)
        assert np.all(ladders[0][0].miss_hat == 1.0)

    def test_alpha_validated(self):
        for alpha in (0.0, 1.0, -0.1):
            with pytest.raises(ParameterError, match="alpha"):
                weighted_chi2_isf([np.ones(3)], alpha)


def seeded_streams(monkeypatch):
    """List that gains the seed of every block generator the engine makes."""
    original = robustspec.gaussian_model.block_generator
    seeds = []

    def recording(seed, block_index):
        seeds.append(seed)
        return original(seed, block_index)

    patch_everywhere(monkeypatch, original, recording)
    return seeds


class TestCalibrationStream:
    # Singleton thresholds are exact, so only a mixture detector draws the
    # "cal" stream, and a singleton's ladder does not depend on whether one
    # is present.
    def setup_method(self):
        self.models_by_n = build_model_sets(
            (flat_set([1.0])[0], SCORED_PSDS["ar1"], SCORED_PSDS["raised_cosine"]), 1.0, [8, 16]
        )
        self.singletons = [MixtureWeights.singleton(k, 3) for k in range(3)]

    def test_singletons_draw_no_calibration_stream(self, monkeypatch):
        seeds = seeded_streams(monkeypatch)
        operating_characteristics(self.models_by_n, self.singletons, [0, 1], 2000, 0.1, 7)
        mc = derive_seed(7, "mc")
        assert derive_seed(7, "cal") not in seeds
        assert set(seeds) == {derive_seed(mc, "h0")}

    def test_mixture_draws_the_calibration_stream(self, monkeypatch):
        alone = operating_characteristics(self.models_by_n, self.singletons, [0, 1], 2000, 0.1, 7)
        seeds = seeded_streams(monkeypatch)
        detectors = self.singletons + [MixtureWeights.uniform(3)]
        ladders = operating_characteristics(self.models_by_n, detectors, [0, 1], 2000, 0.1, 7)
        assert seeds.count(derive_seed(7, "cal")) == 1
        for row, expected in zip(ladders, alone):
            for est, other in zip(row, expected):
                assert np.array_equal(est.fa_hat, other.fa_hat)
                assert np.array_equal(est.miss_count, other.miss_count)
        # the mixture's order-statistic threshold leaves ceil(alpha N) - 1
        # exceedances of its own stream; on the h0 stream it is near alpha
        assert abs(ladders[3][0].fa_hat[-1] - 0.1) < 0.03


class TestOneWhiteStream:
    # The engine draws one white stream: each tile z is every truth's signal
    # z L_j^T and, scaled, the false-alarm null; its null log-ratios at the
    # first n are those of the first n coordinates of the null rows.
    SIGMA2, TRIALS, SEED = 0.7, 5000, 7

    def setup_method(self):
        psds = (flat_set([1.0])[0], SCORED_PSDS["ar1"], SCORED_PSDS["raised_cosine"])
        self.models_by_n = build_model_sets(psds, self.SIGMA2, [8, 16])
        self.singletons = [MixtureWeights.singleton(k, 3) for k in range(3)]

    def white_tiles(self):
        seed = derive_seed(derive_seed(self.SEED, "mc"), "h0")
        return list(normal_blocks(16, self.TRIALS, seed))

    def test_signal_tiles_are_the_null_tiles_mapped(self, monkeypatch):
        scored = []
        original = robustspec.detection._Scorer.log_ratios

        def recording(score, y):
            scored.append(y.copy())
            return original(score, y)

        monkeypatch.setattr(robustspec.detection._Scorer, "log_ratios", recording)
        truths = [2, 0, 1]
        operating_characteristics(
            self.models_by_n, self.singletons, truths, self.TRIALS, 0.1, self.SEED
        )
        tiles = self.white_tiles()
        assert len(scored) == len(tiles) * (len(truths) + 1)
        largest = self.models_by_n[-1]
        for i, z in enumerate(tiles):
            *signals, null = scored[i * (len(truths) + 1) : (i + 1) * (len(truths) + 1)]
            for truth, y in zip(truths, signals):
                assert np.array_equal(y, z @ largest[truth].factor.T)
            assert np.array_equal(null, z * np.sqrt(self.SIGMA2))

    def test_first_rows_are_the_null_log_ratios_at_the_first_n(self):
        ladders, null = _operating_characteristics(
            self.models_by_n, self.singletons, [0, 1], self.TRIALS, 0.1, self.SEED,
            first_rows=True,
        )
        white = np.concatenate(self.white_tiles())[:, :8] * np.sqrt(self.SIGMA2)
        expected = log_likelihood_ratios(white, self.models_by_n[0], self.SIGMA2)
        assert null.shape == (self.TRIALS, 3)
        assert np.allclose(null, expected, rtol=0.0, atol=1e-11)
        alone = operating_characteristics(
            self.models_by_n, self.singletons, [0, 1], self.TRIALS, 0.1, self.SEED
        )
        for row, expected_row in zip(ladders, alone):
            for est, other in zip(row, expected_row):
                assert np.array_equal(est.fa_hat, other.fa_hat)
                assert np.array_equal(est.miss_count, other.miss_count)

    def test_first_rows_need_every_model_scored(self):
        with pytest.raises(ParameterError, match="every model"):
            _operating_characteristics(
                self.models_by_n, self.singletons[:2], [0], self.TRIALS, 0.1, self.SEED,
                first_rows=True,
            )


class TestFalseAlarmLaw:
    # With exact thresholds each false-alarm count is Binomial(N, alpha):
    # across seeds the counts of each detector pool to N alpha per seed, and
    # their spread is the binomial one.  A threshold at level alpha + 0.005
    # shifts every count by 20 (1.45 sd) and fails the same check.
    SEEDS, N, ALPHA = 20, 4000, 0.05

    def counts(self):
        psds = (flat_set([1.0], grid_size=4096)[0], SCORED_PSDS["ar1"], SCORED_PSDS["raised_cosine"])
        models_by_n = build_model_sets(psds, 1.0, [16])
        detectors = [MixtureWeights.singleton(k, 3) for k in range(3)]
        return np.array([
            [
                round(row[0].fa_hat[0] * self.N)
                for row in operating_characteristics(
                    models_by_n, detectors, [0], self.N, self.ALPHA, MASTER_SEED + s
                )
            ]
            for s in range(self.SEEDS)
        ])

    def binomial(self, counts) -> bool:
        mean, var = self.N * self.ALPHA, self.N * self.ALPHA * (1.0 - self.ALPHA)
        pooled = np.abs(counts.sum(axis=0) - self.SEEDS * mean) <= 4.0 * np.sqrt(self.SEEDS * var)
        spread = ((counts - mean) ** 2).sum(axis=0) / var
        low, high = stats.chi2.ppf(1e-4, self.SEEDS), stats.chi2.isf(1e-4, self.SEEDS)
        return bool(np.all(pooled) and np.all((low <= spread) & (spread <= high)))

    def test_counts_follow_the_binomial_law(self):
        assert self.binomial(self.counts())

    def test_check_fails_a_threshold_off_by_half_a_percent(self, monkeypatch):
        original = robustspec.detection.weighted_chi2_isf
        monkeypatch.setattr(
            robustspec.detection, "weighted_chi2_isf", lambda w, a: original(w, a + 0.005)
        )
        assert not self.binomial(self.counts())


class TestWorstCaseOrdering:
    def test_robust_detector_wins_the_worst_case(self):
        # Three AR(1) members with three different decision rules, so the
        # worst-case comparison is between distinct tests (on flat members
        # every singleton thresholds y^T y and the comparison is with itself).
        psds = tuple(
            make_psd("rational_ar1", grid_size=4096, variance=v, pole=a, label=f"ar{i}")
            for i, (v, a) in enumerate([(1.0, 0.3), (1.5, 0.6), (2.0, -0.2)])
        )
        assert find_dominated(UncertaintySet(members=psds), 1.0)[0] == 0
        ladders = operating_characteristics(
            build_model_sets(psds, 1.0, [64]),
            [MixtureWeights.singleton(det, 3) for det in range(3)],
            range(3), 200000, 0.02, derive_seed(MASTER_SEED, "ordering"),
        )
        assert all(est.slope is not None for row in ladders for est in row)
        worst = [min(row, key=lambda est: est.slope) for row in ladders]
        for other in worst[1:]:
            assert worst[0].slope - other.slope > other.ci_half_width, (worst[0], other)


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


    def test_draws_match_the_block_sampler(self):
        # digest of the draws as they were when each block drew its normals
        # and selection uniforms in one piece; the tiles leave them unchanged
        # (rounded to 10 decimals, so a BLAS that rounds the last bit of a
        # product differently still agrees)
        models = [
            build_model(make_psd("flat", grid_size=64, level=1.0), 1.0, 5),
            build_model(make_psd("rational_ar1", grid_size=64, variance=2.0, pole=0.5), 1.0, 5),
            build_model(
                make_psd("raised_cosine", grid_size=64, peak=3.0, center=1.0, width=2.0), 1.0, 5
            ),
        ]
        weights = MixtureWeights(np.array([0.2, 0.5, 0.3]))
        draws = np.concatenate(list(sample_mixture_blocks(models, weights, 9000, 23)))
        assert draws.shape == (9000, 5)
        assert hashlib.sha256(np.round(draws, 10).tobytes()).hexdigest() == (
            "eebc5d3d19e737c169cc87e9f4b1c4a15b5db1ad6cce617a9942d13c7398df19"
        )


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

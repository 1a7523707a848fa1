import ast
import logging
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky, toeplitz

import prop_suites
import robustspec
from conftest import MASTER_SEED, MODULE_CASES, SCORED_PSDS
from robustspec.errors import NotPositiveDefiniteError, ParameterError
from robustspec.gaussian_model import (
    SAMPLE_BLOCK,
    TILE_ROWS,
    ToeplitzGaussian,
    block_generator,
    build_model,
    finite_n_dominates,
    gaussian_kl,
    levinson_durbin,
    ratio_expectation,
    ratio_expectations,
    sample_blocks,
    normal_blocks,
    sample_gaussian,
    standard_normal_block,
    white_blocks,
    white_model,
)
from robustspec.spectral import make_psd


def scalar_model(var, sigma2_share):
    """1-d Gaussian with total variance `var` (signal part var - sigma2)."""
    return ToeplitzGaussian(n=1, sigma2=sigma2_share, autocov=np.array([var - sigma2_share]))


class TestBuildModel:
    def test_flat_signal_is_scaled_identity(self):
        model = build_model(make_psd("flat", grid_size=4096, level=2.0), 1.0, 5)
        assert np.allclose(model.covariance(), 3.0 * np.eye(5), atol=1e-9)
        assert model.logdet == pytest.approx(5 * np.log(3.0), abs=1e-9)

    def test_zero_psd_is_pure_noise(self):
        zero = make_psd("tabulated", grid_size=64, values=np.zeros(64))
        model = build_model(zero, 1.0, 4)
        assert np.array_equal(model.covariance(), np.eye(4))
        assert model.logdet == 0.0

    def test_ar1_covariance_entries_and_logdet(self):
        psd = make_psd("rational_ar1", grid_size=2**16, variance=1.0, pole=0.5)
        model = build_model(psd, 1.0, 3)
        cov = model.covariance()
        expected = np.array([[2.0, 0.5, 0.25], [0.5, 2.0, 0.5], [0.25, 0.5, 2.0]])
        assert np.allclose(cov, expected, atol=1e-8)
        dense = float(np.log(np.linalg.det(cov)))
        assert model.logdet == pytest.approx(dense, abs=1e-10)

    def test_jitter_rung_is_recorded(self):
        assert build_model(make_psd("flat", grid_size=64, level=2.0), 1.0, 4).jitter == 0
        # the signal cancels the noise floor down to about -1e-11 * I, so the
        # rungs 0.0 and 1e-12 fail and 1e-10 succeeds
        model = ToeplitzGaussian(n=3, sigma2=1.0, autocov=np.array([-1.0 - 1e-11, 0.0, 0.0]))
        assert model.jitter == 2
        assert np.all(np.diag(model.factor) > 0.0)
        # the Durbin log-determinant and the lazily built factor describe one matrix
        assert model.logdet == pytest.approx(
            2.0 * np.sum(np.log(np.diag(model.factor))), rel=0.0, abs=1e-12
        )

    def test_jitter_rung_is_logged(self, caplog):
        with caplog.at_level(logging.WARNING, logger="robustspec"):
            build_model(make_psd("flat", grid_size=64, level=2.0), 1.0, 4)
            assert caplog.records == []
            ToeplitzGaussian(n=3, sigma2=1.0, autocov=np.array([-1.0 - 1e-11, 0.0, 0.0]),
                             label="cancel")
        (record,) = caplog.records
        assert record.name.startswith("robustspec") and record.levelno == logging.WARNING
        assert "'cancel'" in record.getMessage() and "1e-10" in record.getMessage()

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            ToeplitzGaussian(n=0, sigma2=1.0, autocov=np.array([]))
        with pytest.raises(ParameterError):
            ToeplitzGaussian(n=2, sigma2=0.0, autocov=np.zeros(2))
        with pytest.raises(ParameterError):
            ToeplitzGaussian(n=2, sigma2=1.0, autocov=np.zeros(3))

    @pytest.mark.parametrize("n", [4.0, np.float64(4.0)], ids=["float", "numpy-float"])
    def test_non_integer_n_named(self, n):
        # a float n matches the shape of a length-4 autocov, and the model's
        # arrays cannot be indexed by it
        with pytest.raises(ParameterError, match="n must be an integer >= 1"):
            ToeplitzGaussian(n=n, sigma2=1.0, autocov=np.zeros(4))

    @pytest.mark.parametrize(
        "sigma2,autocov",
        [(float("nan"), [0.0, 0.0]), (1.0, [float("inf"), 0.0])],
        ids=["nan-sigma2", "inf-autocov"],
    )
    def test_non_finite_inputs_named(self, sigma2, autocov):
        # named as bad input, not reported as a covariance that is not PD
        with pytest.raises(ParameterError, match="must be finite"):
            ToeplitzGaussian(n=2, sigma2=sigma2, autocov=np.array(autocov))

    @pytest.mark.parametrize("method", ["covariance", "null_weights"])
    def test_leading_block_size_validated(self, method):
        model = build_model(make_psd("rational_ar1", grid_size=256, variance=1.0, pole=0.5), 1.0, 8)
        block = getattr(model, method)
        for n in (0, -1, 9, 4.0, True):
            with pytest.raises(ParameterError, match=r"n must be an integer in \[1, 8\]"):
                block(n)
        assert np.array_equal(model.covariance(np.int64(3)), model.covariance()[:3, :3])
        assert block(1).shape[0] == 1 and block(8).shape[0] == 8

    def test_logdet_at_least_noise_floor(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 40))
            sigma2 = rng.uniform(0.5, 2.0)
            model = build_model(prop_suites.random_psd(rng), sigma2, n)
            assert model.logdet >= n * np.log(sigma2) - 1e-9


def reference_psds(grid_size):
    """AR(1), raised-cosine and tabulated members for the dense references."""
    omegas = np.linspace(0.0, np.pi, grid_size)
    return (
        make_psd("rational_ar1", grid_size=grid_size, variance=0.8, pole=-0.6, label="ar1"),
        make_psd(
            "raised_cosine", grid_size=grid_size, peak=2.0, center=1.2, width=0.7,
            label="bump",
        ),
        make_psd(
            "tabulated", grid_size=grid_size,
            values=0.6 + 0.4 * np.cos(omegas) - 0.2 * np.cos(3.0 * omegas), label="tab",
        ),
    )


def dense_ratio_expectation(s2, p1, p2):
    """The ratio expectation through explicit inverses of the covariances."""
    eye = np.eye(p1.n)
    middle = eye + s2 * (np.linalg.inv(p2.covariance()) - np.linalg.inv(p1.covariance()))
    try:
        factor = cholesky(0.5 * (middle + middle.T), lower=True)
    except np.linalg.LinAlgError:
        return float("inf")
    logdet_middle = 2.0 * np.sum(np.log(np.diag(factor)))
    return float(np.exp(0.5 * (p1.logdet - p2.logdet - logdet_middle)))


class TestLevinsonDurbin:
    @pytest.mark.parametrize("n", [1, 2, 17, 256])
    def test_predictor_and_errors_match_dense(self, n):
        for psd in reference_psds(1024):
            r = build_model(psd, 0.37, n).covariance()[:, 0]
            a, errors = levinson_durbin(r)
            assert a[0] == 1.0 and errors.shape == (n,)
            rhs = np.zeros(n)
            rhs[0] = errors[-1]
            assert np.allclose(toeplitz(r) @ a, rhs, rtol=0.0, atol=1e-12)
            dense = np.linalg.slogdet(toeplitz(r))[1]
            assert np.sum(np.log(errors)) == pytest.approx(dense, rel=1e-12, abs=1e-12)

    def test_not_positive_definite_is_named(self):
        with pytest.raises(NotPositiveDefiniteError, match="'bad'"):
            levinson_durbin(np.array([1.0, 2.0]), "bad")

    @pytest.mark.parametrize("r", [np.eye(2), np.array([])], ids=["matrix", "empty"])
    def test_r_must_be_a_nonempty_vector(self, r):
        with pytest.raises(ParameterError, match="r must be a nonempty 1-D"):
            levinson_durbin(r)

    @pytest.mark.parametrize("r0", [0.0, -1.0, float("nan")])
    def test_first_error_checked(self, r0):
        with pytest.raises(NotPositiveDefiniteError):
            levinson_durbin(np.array([r0, 0.0, 0.0]))


def reference_durbin(r, label="", rows=None):
    """The Durbin loop as it stood before its step was made allocation-free,
    kept to pin `levinson_durbin` bit for bit."""
    n = r.size
    a = np.zeros(n)
    a[0] = 1.0
    errors = np.empty(n)
    errors[0] = r[0]
    for k in range(n):
        if k:
            reflection = -(a[:k] @ r[k:0:-1]) / errors[k - 1]
            a[1 : k + 1] += reflection * a[k - 1 :: -1]
            errors[k] = errors[k - 1] * (1.0 - reflection * reflection)
        if not 0.0 < errors[k] < np.inf:
            raise NotPositiveDefiniteError(
                f"covariance for PSD {label!r} is not positive definite "
                f"(Levinson-Durbin prediction error {errors[k]:g} at order {k})"
            )
        if rows is not None:
            rows[k, : k + 1] = a[k::-1]
    return a, errors


def pinned_psds(grid_size=512):
    """AR(1), raised-cosine and coarse tabulated PSDs on a grid past n = 300."""
    omegas = np.linspace(0.0, np.pi, grid_size)
    ar1 = st.builds(
        lambda v, a: make_psd("rational_ar1", grid_size=grid_size, variance=v, pole=a),
        st.floats(0.05, 3.0), st.floats(-0.95, 0.95),
    )
    bump = st.builds(
        lambda p, c, w: make_psd(
            "raised_cosine", grid_size=grid_size, peak=p, center=c, width=w
        ),
        st.floats(0.0, 3.0), st.floats(0.0, np.pi), st.floats(0.05, 3.0),
    )
    tabulated = st.lists(st.floats(0.0, 3.0), min_size=8, max_size=8).map(
        lambda knots: make_psd(
            "tabulated", grid_size=grid_size,
            values=np.interp(omegas, np.linspace(0.0, np.pi, 8), knots),
        )
    )
    return st.one_of(ar1, bump, tabulated)


def assert_same_durbin(r, label=""):
    n = r.size
    expected_rows, rows = np.zeros((n, n)), np.zeros((n, n))
    for got, expected in (
        (levinson_durbin(r, label), reference_durbin(r, label)),
        (levinson_durbin(r, label, rows), reference_durbin(r, label, expected_rows)),
    ):
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()
    assert rows.tobytes() == expected_rows.tobytes()


class TestDurbinPinned:
    # the allocation-free step changes no bit of the predictor, the errors
    # or the rows, nor the message of a failed order

    @pytest.mark.parametrize("n", [1, 2, 17, 300])
    @settings(max_examples=40, deadline=None)
    @seed(MASTER_SEED)
    @given(psd=pinned_psds(), sigma2=st.floats(0.01, 2.0))
    def test_matches_the_reference_loop(self, n, psd, sigma2):
        r = build_model(psd, sigma2, n).covariance()[:, 0]
        assert_same_durbin(r)

    def test_jitter_rung_one(self):
        # an AR(1) covariance shifted until its smallest eigenvalue is
        # -5e-13: rung 0 fails at the same order, and rung 1 (1e-12) passes
        autocov = build_model(SCORED_PSDS["ar1"], 1.0, 17).autocov.copy()
        r = autocov.copy()
        r[0] += 1.0
        autocov[0] -= np.linalg.eigvalsh(toeplitz(r))[0] + 5e-13
        model = ToeplitzGaussian(n=17, sigma2=1.0, autocov=autocov)
        assert model.jitter == 1
        r[0] = autocov[0] + 1.0
        with pytest.raises(NotPositiveDefiniteError) as expected:
            reference_durbin(r)
        with pytest.raises(NotPositiveDefiniteError) as got:
            levinson_durbin(r)
        assert str(got.value) == str(expected.value)
        r[0] = autocov[0] + 1.0 + 1e-12
        assert_same_durbin(r)

    def test_not_positive_definite_names_the_order(self):
        # order 1 leaves error 0.19, and the order-2 reflection is 3.2
        r = np.array([1.0, 0.9, 0.2])
        with pytest.raises(NotPositiveDefiniteError, match="at order 2") as got:
            levinson_durbin(r, "bad")
        with pytest.raises(NotPositiveDefiniteError) as expected:
            reference_durbin(r, "bad")
        assert str(got.value) == str(expected.value)


class TestGaussianKl:
    def test_jittered_model_against_itself(self):
        # rung 1: an AR(1) covariance shifted to smallest eigenvalue -5e-13;
        # rung 2: a signal that cancels the noise floor down to -1e-11 I
        autocov = build_model(SCORED_PSDS["ar1"], 1.0, 17).autocov.copy()
        r = autocov.copy()
        r[0] += 1.0
        autocov[0] -= np.linalg.eigvalsh(toeplitz(r))[0] + 5e-13
        models = [
            ToeplitzGaussian(n=17, sigma2=1.0, autocov=autocov),
            ToeplitzGaussian(n=3, sigma2=1.0, autocov=np.array([-1.0 - 1e-11, 0.0, 0.0])),
        ]
        assert [model.jitter for model in models] == [1, 2]
        for model in models:
            assert abs(gaussian_kl(model, model)) <= 1e-3

    def test_identical_models(self):
        m = build_model(make_psd("flat", grid_size=64, level=1.0), 1.0, 8)
        assert gaussian_kl(m, m) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_closed_form(self):
        p = scalar_model(1.0, 1.0)
        q = scalar_model(2.0, 1.0)
        assert gaussian_kl(p, q) == pytest.approx(
            0.5 * (0.5 - 1.0 + np.log(2.0)), abs=1e-14
        )

    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_flat_signal_rate_is_dimension_free(self, n):
        white = white_model(1.0, n)
        signal = build_model(make_psd("flat", grid_size=4096, level=1.0), 1.0, n)
        assert gaussian_kl(white, signal) / n == pytest.approx(
            0.5 * (np.log(2.0) - 0.5), abs=1e-10
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            gaussian_kl(white_model(1.0, 2), white_model(1.0, 3))


class TestRatioExpectation:
    def test_self_ratio_is_one(self):
        for n in (5, 6):  # both fold parities
            m = build_model(make_psd("flat", grid_size=64, level=2.0), 1.0, n)
            assert ratio_expectation(1.0, m, m) == 1.0

    def test_scalar_forward(self):
        val = ratio_expectation(1.0, scalar_model(2.0, 1.0), scalar_model(3.0, 1.0))
        assert val == pytest.approx(np.sqrt(0.8), abs=1e-12)
        assert finite_n_dominates(1.0, scalar_model(2.0, 1.0), scalar_model(3.0, 1.0))

    def test_scalar_forward_numeric_integration_oracle(self):
        # brute-force the defining 1-d integral E_{N(0,1)}[p2/p1]
        from scipy.integrate import quad

        def integrand(y):
            p0 = np.exp(-0.5 * y * y) / np.sqrt(2 * np.pi)
            p1 = np.exp(-0.5 * y * y / 2.0) / np.sqrt(2 * np.pi * 2.0)
            p2 = np.exp(-0.5 * y * y / 3.0) / np.sqrt(2 * np.pi * 3.0)
            return p0 * p2 / p1

        oracle, _ = quad(integrand, -40, 40)
        val = ratio_expectation(1.0, scalar_model(2.0, 1.0), scalar_model(3.0, 1.0))
        assert val == pytest.approx(oracle, abs=1e-9)

    def test_scalar_reversed(self):
        val = ratio_expectation(1.0, scalar_model(3.0, 1.0), scalar_model(2.0, 1.0))
        assert val == pytest.approx(np.sqrt(9.0 / 7.0), abs=1e-12)
        assert not finite_n_dominates(1.0, scalar_model(3.0, 1.0), scalar_model(2.0, 1.0))

    def test_divergent_integral_gives_infinity(self):
        # light-tailed p1 against heavy-tailed p2 makes the integral blow up:
        # 1 + sigma0^2 (1/C2 - 1/C1) = 1 + 2*(0.25 - 2) < 0
        val = ratio_expectation(2.0, scalar_model(0.5, 1.0), scalar_model(4.0, 1.0))
        assert val == float("inf")
        assert not finite_n_dominates(2.0, scalar_model(0.5, 1.0), scalar_model(4.0, 1.0))

    @pytest.mark.parametrize("sigma2", [0.37, 1.0, 2.5])
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 128, 255, 256])
    def test_matches_dense_inverses(self, sigma2, n):
        # odd and even n fold the middle matrix differently
        psds = reference_psds(512) + (make_psd("flat", grid_size=512, level=1.5),)
        models = [build_model(psd, sigma2, n) for psd in psds]
        for p1 in models:
            for p2 in models:
                expected = dense_ratio_expectation(sigma2, p1, p2)
                assert np.isfinite(expected)
                got = ratio_expectation(sigma2, p1, p2)
                assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_divergent_integral_gives_infinity_at_n(self):
        # a heavy-tailed p2 against a light-tailed p1: the middle matrix has
        # a negative eigenvalue at every n, odd or even
        for n in (15, 16):
            light = build_model(reference_psds(256)[0], 0.5, n)
            heavy = build_model(make_psd("flat", grid_size=256, level=6.0), 0.5, n)
            assert dense_ratio_expectation(2.0, light, heavy) == float("inf")
            assert ratio_expectation(2.0, light, heavy) == float("inf")

    @pytest.mark.parametrize("n", [1, 16, 17])
    def test_batch_equals_single_calls(self, n):
        # AR(1), raised-cosine and flat members against each candidate, and a
        # heavy flat member that diverges against the light AR(1)
        psds = reference_psds(256)[:2] + (
            make_psd("flat", grid_size=256, level=1.5),
            make_psd("flat", grid_size=256, level=6.0),
        )
        models = [build_model(psd, 0.5, n) for psd in psds]
        for p1 in models:
            got = ratio_expectations(2.0, p1, models)
            assert got.tolist() == [ratio_expectation(2.0, p1, p2) for p2 in models]
        assert ratio_expectations(2.0, models[0], models)[3] == float("inf")

    def test_members_must_share_n(self):
        psd = reference_psds(256)[0]
        p1, p2 = build_model(psd, 1.0, 8), build_model(psd, 1.0, 9)
        with pytest.raises(ParameterError, match="dimension mismatch"):
            ratio_expectations(1.0, p1, [p1, p2])

    def test_no_members_gives_empty_vector(self):
        model = build_model(reference_psds(256)[0], 1.0, 8)
        got = ratio_expectations(1.0, model, [])
        assert got.shape == (0,) and got.dtype == float

    def test_forms_no_dense_solve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense solve called")

        models = [build_model(psd, 1.0, 32) for psd in reference_psds(256)]
        expected = [dense_ratio_expectation(1.0, models[0], m) for m in models]
        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        got = [ratio_expectation(1.0, models[0], m) for m in models]
        assert got == pytest.approx(expected, rel=1e-10, abs=0.0)


class TestSampling:
    def test_same_seed_is_bit_identical(self):
        model = build_model(make_psd("flat", grid_size=64, level=1.0), 1.0, 6)
        a = sample_gaussian(model, 5000, 123)
        b = sample_gaussian(model, 5000, 123)
        assert np.array_equal(a, b)

    def test_white_blocks_equal_white_samples(self):
        # two blocks streamed as tiles, each scaled in place
        blocks = list(white_blocks(2.5, 3, 5000, 11))
        assert [len(b) for b in blocks] == [TILE_ROWS] * 8 + [TILE_ROWS, 392]
        samples = sample_gaussian(white_model(2.5, 3), 5000, 11)
        assert np.array_equal(np.concatenate(blocks), samples)

    def test_prefix_stable_under_trial_count(self):
        # adding trials must not disturb earlier draws (block contract)
        model = white_model(1.0, 4)
        short = sample_gaussian(model, 6000, 7)
        long = sample_gaussian(model, 10000, 7)
        assert np.array_equal(long[:6000], short)

    def test_white_moments(self):
        draws = sample_gaussian(white_model(1.0, 1), 100000, 99)
        assert abs(draws.mean()) < 4.0 / np.sqrt(100000)
        assert abs(draws.var() - 1.0) < 0.02

    def test_flat_signal_variance(self):
        model = build_model(make_psd("flat", grid_size=4096, level=3.0), 1.0, 2)
        draws = sample_gaussian(model, 100000, 5)
        assert np.allclose(draws.var(axis=0), 4.0, atol=0.1)

    def test_trials_validated(self):
        with pytest.raises(ParameterError):
            sample_gaussian(white_model(1.0, 2), 0, 1)

    @pytest.mark.parametrize(
        "n,trials,name", [(8, 0, "trials"), (8, 2.5, "trials"), (-1, 10, "n"), (4.0, 10, "n")]
    )
    def test_normal_blocks_validated_at_the_call(self, n, trials, name):
        # before the first tile is drawn, as white_blocks checks sigma2
        with pytest.raises(ParameterError, match=f"{name} must be an integer >= 1"):
            normal_blocks(n, trials, 1)

    def test_seed_validated(self):
        for seed in (-1, 1.5, "3", True, None):
            with pytest.raises(ParameterError, match="seed"):
                sample_gaussian(white_model(1.0, 2), 10, seed)
        assert sample_gaussian(white_model(1.0, 2), 10, 2**70 + 3).shape == (10, 2)

    def test_numpy_integer_seed_accepted(self):
        assert np.array_equal(
            sample_gaussian(white_model(1.0, 2), 10, np.int64(5)),
            sample_gaussian(white_model(1.0, 2), 10, 5),
        )

    @pytest.mark.parametrize("block_index", [-1, 0.5])
    def test_block_index_validated(self, block_index):
        with pytest.raises(ParameterError, match="block_index"):
            block_generator(3, block_index)
        with pytest.raises(ParameterError, match="block_index"):
            standard_normal_block(3, block_index, 10, 2)

    @pytest.mark.parametrize("n", [1, 17, 300])
    def test_tiles_concatenate_to_the_block(self, n):
        # a full block, then a short one: tiles of at most TILE_ROWS rows
        # drawn in turn from the block's generator are its rows bit for bit
        tiles = list(normal_blocks(n, SAMPLE_BLOCK + 700, 21))
        first = SAMPLE_BLOCK // TILE_ROWS
        assert [len(t) for t in tiles] == [TILE_ROWS] * first + [TILE_ROWS, 700 - TILE_ROWS]
        assert np.array_equal(
            np.concatenate(tiles[:first]), standard_normal_block(21, 0, SAMPLE_BLOCK, n)
        )
        assert np.array_equal(np.concatenate(tiles[first:]), standard_normal_block(21, 1, 700, n))

    def test_short_block_is_prefix_of_full_block(self):
        full = standard_normal_block(7, 3, 4096, 5)
        assert np.array_equal(standard_normal_block(7, 3, 3616, 5), full[:3616])
        assert np.array_equal(standard_normal_block(7, 3, 1, 5), full[:1])
        with pytest.raises(ParameterError):
            standard_normal_block(7, 3, 4097, 5)

    @pytest.mark.parametrize("family", sorted(SCORED_PSDS))
    def test_prefix_of_a_draw_is_a_draw_at_that_n(self, family):
        # the leading n x n block of the largest model's factor is the factor
        # of the model at n, so the first n columns of a draw are a draw at n
        psd = SCORED_PSDS[family]
        (y,) = sample_blocks([build_model(psd, 0.6, 300)], 50, 9)
        z = standard_normal_block(9, 0, 50, 300)
        for n in (1, 16, 64, 299):
            expected = z[:, :n] @ build_model(psd, 0.6, n).factor.T
            assert np.allclose(y[:, :n], expected, rtol=0.0, atol=1e-12), n

    def test_factor_built_once_on_first_draw(self, monkeypatch):
        model = build_model(make_psd("flat", grid_size=64, level=1.0), 1.0, 6)
        original = np.linalg.cholesky
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        first = sample_gaussian(model, 100, 1)
        assert np.array_equal(sample_gaussian(model, 100, 1), first)
        assert len(calls) == 1


class TestQuadForms:
    @pytest.mark.parametrize("family", sorted(SCORED_PSDS))
    @pytest.mark.parametrize("n", [1, 2, 17, 256])
    @pytest.mark.parametrize("sigma2", [0.37, 1.0, 2.5])
    def test_matches_dense_solve(self, family, n, sigma2):
        model = build_model(SCORED_PSDS[family], sigma2, n)
        identity = model.inverse() @ model.covariance()
        assert np.allclose(identity, np.eye(n), rtol=0.0, atol=1e-12)
        samples = sample_gaussian(model, 50, 3)
        solved = np.linalg.solve(model.covariance(), samples.T)
        expected = np.einsum("ij,ji->i", samples, solved)
        assert np.allclose(model.quad_forms(samples), expected, rtol=1e-12, atol=0.0)


class TestInvariantSuites:
    def test_finite_n_bridge_property(self):
        prop_suites.check_finite_n_bridge(MASTER_SEED, MODULE_CASES)

    def test_kl_nonnegativity_property(self):
        prop_suites.check_kl_nonnegativity(MASTER_SEED, MODULE_CASES)

    def test_ratio_self_unity_property(self):
        prop_suites.check_ratio_self_unity(MASTER_SEED, MODULE_CASES)

    def test_logdet_consistency_property(self):
        prop_suites.check_logdet_consistency(MASTER_SEED, MODULE_CASES)


def test_inverse_algebra_is_named_only_in_gaussian_model():
    # the Gohberg-Semencul generator, its diagonal sums and the fold stay
    # behind `ToeplitzGaussian.inverse` and `ratio_expectations`
    private = {"_inverse_generator", "_diagonal_sums", "_fold"}
    named = []
    for path in sorted(Path(robustspec.__file__).parent.glob("*.py")):
        if path.name == "gaussian_model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            for name in (getattr(node, "id", None), getattr(node, "attr", None),
                         node.name if isinstance(node, ast.alias) else None):
                if name in private:
                    named.append((path.name, name))
    assert named == []

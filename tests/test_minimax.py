import json

import numpy as np
import pytest

import prop_suites
from conftest import MASTER_SEED, MODULE_CASES, flat_set, patch_everywhere
from robustspec.detection import (
    DEFAULT_TILT_GRID,
    MixtureWeights,
    derive_seed,
    log_likelihood_ratios,
)
from robustspec.errors import ParameterError
from robustspec.exponent import kl_rate
import robustspec.gaussian_model
from robustspec.gaussian_model import (
    build_model,
    build_model_sets,
    levinson_durbin,
    sample_gaussian,
    white_model,
)
from robustspec.minimax import (
    kkt_certificate,
    minimize_mixture_weights,
    regularity_probe,
    sample_average_kl,
    utility,
)
from robustspec.spectral import make_psd


@pytest.fixture(scope="module")
def flat_setup():
    psds = flat_set([1.0, 2.0, 3.0])
    n = 16
    models = [build_model(p, 1.0, n) for p in psds]
    frozen = sample_gaussian(white_model(1.0, n), 20000, derive_seed(MASTER_SEED, "frozen"))
    return psds, models, frozen, n


@pytest.fixture(scope="module")
def interior_setup():
    # three raised-cosine bumps and an AR(1) with a negative pole, drawn from
    # the ranges of the minimax_interior benchmark: no member is dominated
    rng = np.random.default_rng(MASTER_SEED)
    psds = [
        make_psd(
            "raised_cosine", grid_size=256, label=f"bump{i}",
            peak=rng.uniform(1.8, 2.2), center=c + rng.uniform(-0.15, 0.15),
            width=rng.uniform(0.5, 0.55),
        )
        for i, c in enumerate((np.pi / 6, np.pi / 2, 5 * np.pi / 6))
    ]
    psds.append(
        make_psd(
            "rational_ar1", grid_size=256, label="ar1neg",
            variance=rng.uniform(0.5, 1.0), pole=rng.uniform(-0.7, -0.4),
        )
    )
    n = 64
    models = [build_model(p, 1.0, n) for p in psds]
    frozen = sample_gaussian(white_model(1.0, n), 5000, derive_seed(MASTER_SEED, "interior"))
    return models, frozen, n


def multiplicative_reference(ratios, n, steps=5000):
    """(weights, value) after `steps` plain multiplicative updates from uniform."""
    shift = ratios.max(axis=1)
    p = np.exp(ratios - shift[:, np.newaxis])
    x = np.full(ratios.shape[1], 1.0 / ratios.shape[1])
    for _ in range(steps):
        m = np.mean(p / (p @ x)[:, np.newaxis], axis=0)
        x = x * m / np.sum(x * m)
    return x, float(-np.mean(np.log(p @ x) + shift)) / n


E1 = MixtureWeights(np.array([1.0, 0.0, 0.0]))


class TestSampleAverageKl:
    def test_singleton_matches_exact_kl(self, flat_setup):
        psds, models, frozen, n = flat_setup
        value = sample_average_kl(E1, models, 1.0, frozen)
        exact = kl_rate(psds[0], 1.0, n)
        # crude SE bound for the averaged log-ratio
        assert abs(value - exact) <= 3.0 * 0.5 / np.sqrt(len(frozen))

    def test_identical_models_ignore_weights(self, flat_setup):
        _, models, frozen, _ = flat_setup
        trio = [models[0]] * 3
        vals = [
            sample_average_kl(r, trio, 1.0, frozen)
            for r in (E1, MixtureWeights.uniform(3), MixtureWeights(np.array([0.2, 0.3, 0.5])))
        ]
        assert max(vals) - min(vals) <= 1e-12

    def test_convexity_on_frozen_samples(self, flat_setup):
        _, models, frozen, _ = flat_setup
        ra = np.array([0.6, 0.3, 0.1])
        rb = np.array([0.1, 0.2, 0.7])
        mid = sample_average_kl(
            MixtureWeights(0.5 * ra + 0.5 * rb), models, 1.0, frozen
        )
        ends = 0.5 * sample_average_kl(MixtureWeights(ra), models, 1.0, frozen)
        ends += 0.5 * sample_average_kl(MixtureWeights(rb), models, 1.0, frozen)
        assert mid <= ends + 1e-12


class TestMinimizeMixtureWeights:
    def test_single_model(self, flat_setup):
        _, models, frozen, _ = flat_setup
        w, value, trace = minimize_mixture_weights(
            [models[0]], 1.0, frozen, MixtureWeights(np.array([1.0]))
        )
        assert np.array_equal(w.w, [1.0])
        assert value == sample_average_kl(MixtureWeights(np.array([1.0])), [models[0]], 1.0, frozen)

    def test_dominated_set_concentrates_on_weakest(self, flat_setup):
        _, models, frozen, _ = flat_setup
        w, value, trace = minimize_mixture_weights(
            models, 1.0, frozen, MixtureWeights.uniform(3)
        )
        assert w.w[0] >= 0.99
        assert np.all(np.diff(trace["objectives"]) <= 1e-12)

    def test_identical_models_value(self, flat_setup):
        _, models, frozen, _ = flat_setup
        pair = [models[0], models[0]]
        _, value, _ = minimize_mixture_weights(
            pair, 1.0, frozen, MixtureWeights.uniform(2)
        )
        e1 = sample_average_kl(MixtureWeights(np.array([1.0, 0.0])), pair, 1.0, frozen)
        assert abs(value - e1) <= 1e-12

    def test_dominated_set_ends_on_the_exact_vertex(self, flat_setup):
        _, models, frozen, _ = flat_setup
        w, _, trace = minimize_mixture_weights(
            models, 1.0, frozen, MixtureWeights.uniform(3)
        )
        assert np.array_equal(w.w, [1.0, 0.0, 0.0])
        assert trace["gaps"][-1] == 0.0
        assert trace["iterations"] == 2

    def test_interior_set_stops_on_the_kkt_condition(self, interior_setup):
        models, frozen, n = interior_setup
        w, value, trace = minimize_mixture_weights(
            models, 1.0, frozen, MixtureWeights.uniform(4)
        )
        assert trace["gaps"][-1] <= 1e-8
        assert trace["iterations"] < 60
        ratios = log_likelihood_ratios(frozen, models, 1.0)
        ref_w, ref_value = multiplicative_reference(ratios, n)
        assert abs(value - ref_value) <= 1e-9
        assert np.any(ref_w < 1e-12)  # the optimum lies on a face
        assert np.all(w.w[ref_w < 1e-12] < 1e-4)

    def test_init_must_be_interior(self, flat_setup):
        _, models, frozen, _ = flat_setup
        with pytest.raises(ParameterError):
            minimize_mixture_weights(
                models, 1.0, frozen, MixtureWeights(np.array([0.99, 0.01, 0.0]))
            )


class TestKktCertificate:
    def test_single_model(self, flat_setup):
        _, models, _, n = flat_setup
        cert = kkt_certificate(0, [models[0]], 1.0)
        assert cert.singleton_verified
        assert cert.lam == pytest.approx(1.0 / n)
        assert cert.max_violation == 0.0

    @pytest.mark.parametrize("n", [64, 256])
    def test_dominated_flat_set_verifies(self, n):
        models = [build_model(p, 1.0, n) for p in flat_set([1.0, 2.0, 3.0])]
        cert = kkt_certificate(0, models, 1.0)
        assert cert.singleton_verified
        assert cert.max_violation <= 1e-10
        assert cert.mu[0] == 0.0 and np.all(cert.mu[1:] >= 0.0)

    def test_reversed_candidate_fails(self):
        models = [build_model(p, 1.0, 64) for p in flat_set([1.0, 2.0, 3.0])]
        cert = kkt_certificate(2, models, 1.0)
        assert not cert.singleton_verified
        assert cert.max_violation > 1e-10 or cert.diverged_indices

    def test_serialization(self, flat_setup):
        _, models, _, _ = flat_setup
        doc = kkt_certificate(0, models, 1.0).to_json()
        assert set(doc) == {
            "lambda", "mu", "max_violation", "singleton_verified",
            "candidate_index", "diverged_indices",
        }

    def test_diverged_entries_serialize_as_null(self):
        # a null twice as loud as the models' noise floor makes E[p_1/p_0] diverge
        models = [build_model(p, 1.0, 8) for p in flat_set([0.01, 5.0])]
        cert = kkt_certificate(0, models, 4.0)
        assert cert.diverged_indices == (1,)
        doc = json.loads(json.dumps(cert.to_json(), allow_nan=False))
        assert doc["mu"] == [0.0, None]
        assert doc["max_violation"] is None

    def test_index_validated(self, flat_setup):
        _, models, _, _ = flat_setup
        with pytest.raises(ParameterError):
            kkt_certificate(5, models, 1.0)

    def test_one_durbin_pass_per_model_and_no_factor(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return levinson_durbin(*args, **kwargs)

        patch_everywhere(monkeypatch, levinson_durbin, counting)
        (models,) = build_model_sets(flat_set([1.0, 2.0, 3.0]), 1.0, [64])
        assert kkt_certificate(0, models, 1.0).singleton_verified
        assert len(calls) == 3
        assert not any("factor" in vars(model) for model in models)

    def test_one_inverse_generator_per_model(self, monkeypatch):
        original = robustspec.gaussian_model._inverse_generator
        built = []

        def counting(model):
            built.append(model.label)
            return original(model)

        patch_everywhere(monkeypatch, original, counting)
        (models,) = build_model_sets(flat_set([1.0, 2.0, 3.0, 4.0]), 1.0, [32])
        assert kkt_certificate(0, models, 1.0).singleton_verified
        assert sorted(built) == sorted(model.label for model in models)

    def test_models_must_share_n(self):
        psds = flat_set([1.0, 2.0])
        models = [build_model(psds[0], 1.0, 8), build_model(psds[1], 1.0, 9)]
        with pytest.raises(ParameterError):
            kkt_certificate(0, models, 1.0)


class TestUtility:
    def test_zero_tilt_grid(self, flat_setup):
        _, models, frozen, _ = flat_setup
        assert utility(E1, E1, models, 1.0, frozen, 1, [0.0]) == 0.0

    def test_singleton_matches_kl(self, flat_setup):
        psds, models, frozen, n = flat_setup
        val, se = utility(
            E1, E1, models, 1.0, frozen, derive_seed(MASTER_SEED, "h1"),
            DEFAULT_TILT_GRID, with_se=True,
        )
        assert abs(val - kl_rate(psds[0], 1.0, n)) <= max(3.0 * se, 0.003)

    @pytest.mark.parametrize("k_models,k_weights", [(2, 3), (3, 2)])
    def test_operating_point_must_weight_each_model(self, flat_setup, k_models, k_weights):
        _, models, frozen, _ = flat_setup
        with pytest.raises(ParameterError):
            utility(
                MixtureWeights.uniform(k_models), MixtureWeights.uniform(k_weights),
                models[:k_models], 1.0, frozen, 1, h1_trials=2000,
            )

    def test_grid_enlargement_monotone(self, flat_setup):
        _, models, frozen, _ = flat_setup
        small = utility(E1, E1, models, 1.0, frozen, 2, [-1.0, 0.0])
        large = utility(E1, E1, models, 1.0, frozen, 2, [-2.0, -1.0, -0.5, 0.0])
        assert large >= small

    def test_positive_tilt_rejected(self, flat_setup):
        _, models, frozen, _ = flat_setup
        with pytest.raises(ParameterError):
            utility(E1, E1, models, 1.0, frozen, 1, [0.5])


class TestRegularityProbe:
    def test_no_perturbation_gives_zero_gaps(self, flat_setup):
        _, models, frozen, _ = flat_setup
        recs = regularity_probe(
            E1, E1, [0.2, 0.1, 0.0], models, 1.0, frozen, 3, DEFAULT_TILT_GRID
        )
        assert all(r["gap"] == 0.0 for r in recs)

    def test_saddle_candidate_gap_shrinks(self):
        # well-separated two-member set where the o(beta) trend resolves
        psds = flat_set([0.2, 5.0], grid_size=512)
        models = [build_model(p, 1.0, 4) for p in psds]
        frozen = sample_gaussian(white_model(1.0, 4), 50000, derive_seed(MASTER_SEED, "frozen"))
        recs = regularity_probe(
            MixtureWeights(np.array([1.0, 0.0])), MixtureWeights.uniform(2),
            [0.2, 0.025], models, 1.0, frozen,
            derive_seed(MASTER_SEED, "h1"), DEFAULT_TILT_GRID, 50000,
        )
        ratios = [r["gap"] / r["beta"] for r in recs]
        assert ratios[1] < ratios[0]
        assert all(r["gap"] >= -3.0 * r["se"] for r in recs)

    def test_matches_two_utilities_per_beta(self, flat_setup):
        _, models, frozen, _ = flat_setup
        r_star, r_dir = E1, MixtureWeights.uniform(3)
        betas = [0.3, 0.1, 0.0]
        grid = [-1.0, -0.5, 0.0]
        recs = regularity_probe(
            r_star, r_dir, betas, models, 1.0, frozen[:6000], 5, grid, 5000
        )
        expected = []
        for beta in betas:
            blend = MixtureWeights((1.0 - beta) * r_star.w + beta * r_dir.w)
            best, se_a = utility(
                blend, blend, models, 1.0, frozen[:6000], 5, grid, 5000, with_se=True
            )
            cand, se_b = utility(
                r_star, blend, models, 1.0, frozen[:6000], 5, grid, 5000, with_se=True
            )
            expected.append(
                {"beta": beta, "gap": best - cand, "se": float(np.hypot(se_a, se_b))}
            )
        assert recs == expected

    def test_one_shot_tilt_grid(self, flat_setup):
        _, models, frozen, _ = flat_setup
        args = (E1, MixtureWeights.uniform(3), [0.3, 0.1], models, 1.0, frozen[:6000], 5)
        recs = regularity_probe(*args, (t for t in [-1.0, 0.0]), 5000)
        assert recs == regularity_probe(*args, [-1.0, 0.0], 5000)

    def test_negative_beta_rejected(self, flat_setup):
        _, models, frozen, _ = flat_setup
        with pytest.raises(ParameterError):
            regularity_probe(E1, E1, [-0.1], models, 1.0, frozen, 1)


class TestSaddleSandwich:
    def test_utility_and_optimizer_bracket_the_kl(self, flat_setup):
        _, models, frozen, _ = flat_setup
        sa = sample_average_kl(E1, models, 1.0, frozen)
        val, se = utility(
            E1, E1, models, 1.0, frozen, derive_seed(MASTER_SEED, "sandwich"),
            DEFAULT_TILT_GRID, with_se=True,
        )
        assert val <= sa + 3.0 * se
        _, fw_value, _ = minimize_mixture_weights(
            models, 1.0, frozen, MixtureWeights.uniform(3)
        )
        assert fw_value <= sa + 1e-8


class TestInvariantSuites:
    def test_kkt_dominance_bridge_property(self):
        prop_suites.check_kkt_dominance_bridge(MASTER_SEED, MODULE_CASES)

    def test_frank_wolfe_monotone_property(self):
        prop_suites.check_frank_wolfe_monotone(MASTER_SEED, MODULE_CASES)

    def test_objective_convexity_property(self):
        prop_suites.check_objective_convexity(MASTER_SEED, MODULE_CASES)

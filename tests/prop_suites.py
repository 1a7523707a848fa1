"""Randomized invariant suites shared by the module tests and the acceptance gate.

Each check_* function draws `cases` random instances from a seeded generator
and raises AssertionError on the first violation.  The module tests run them
with a reduced case count for fast feedback; the acceptance suite runs every
one of them at 200 cases under a single master seed.
"""

import numpy as np

from robustspec.detection import (
    MixtureWeights,
    calibrate_threshold,
    h0_statistics,
    log_likelihood_ratios,
    mixture_statistics,
)
from robustspec.dominance import (
    discrete_dominance_integral,
    find_dominated,
    sigma2_dominance_margin,
)
from robustspec.exponent import error_exponent, genie_bound, kl_rate
from robustspec.gaussian_model import (
    ToeplitzGaussian,
    build_model,
    finite_n_dominates,
    gaussian_kl,
    ratio_expectation,
    sample_gaussian,
    white_model,
)
from robustspec.minimax import kkt_certificate, minimize_mixture_weights, sample_average_kl
from robustspec.spectral import (
    PsdGrid,
    UncertaintySet,
    autocovariance,
    eval_psd,
    half_grid,
    lower_envelope,
    make_psd,
)

PROP_GRID = 256


def random_smooth_psd(rng, grid_size=PROP_GRID):
    """A random member of one of the smooth parametric families."""
    kind = rng.integers(0, 3)
    if kind == 0:
        return make_psd("flat", grid_size=grid_size, level=rng.uniform(0.1, 3.0))
    if kind == 1:
        return make_psd(
            "rational_ar1",
            grid_size=grid_size,
            variance=rng.uniform(0.3, 3.0),
            pole=rng.uniform(0.05, 0.8),
        )
    return make_psd(
        "raised_cosine",
        grid_size=grid_size,
        peak=rng.uniform(0.3, 4.0),
        center=rng.uniform(0.0, np.pi),
        width=rng.uniform(0.5, 3.0),
    )


def random_tabulated_psd(rng, grid_size=PROP_GRID):
    """A random bounded PSD with no parametric structure (low-order cosine mix)."""
    omegas = half_grid(grid_size)
    values = np.full(grid_size, rng.uniform(0.2, 1.5))
    for m in range(1, 4):
        values += rng.uniform(-0.3, 0.3) * np.cos(m * omegas)
    values = np.maximum(values, 0.0)
    return make_psd("tabulated", grid_size=grid_size, values=values)


def random_psd(rng, grid_size=PROP_GRID):
    if rng.random() < 0.25:
        return random_tabulated_psd(rng, grid_size)
    return random_smooth_psd(rng, grid_size)


def dominated_pair(rng, sigma2, grid_size=PROP_GRID, min_margin=0.012):
    """(phi_star, phi) with phi >= phi_star pointwise and a comfortable margin."""
    while True:
        star = random_psd(rng, grid_size)
        bump = rng.uniform(0.05, 1.0) + random_smooth_psd(rng, grid_size).values
        phi = PsdGrid(grid_size=grid_size, values=star.values + bump, label="upper")
        margin, bmin = sigma2_dominance_margin(star, phi, sigma2)
        if margin >= min_margin and bmin >= 0.5:
            return star, phi


def random_pmf(rng, size):
    p = rng.dirichlet(np.full(size, rng.uniform(0.4, 3.0)))
    return np.maximum(p, 1e-12) / np.maximum(p, 1e-12).sum()


# ---------------------------------------------------------------- spectral

def check_even_symmetry(seed, cases):
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        psd = random_psd(rng)
        omega = rng.uniform(0.0, np.pi)
        assert eval_psd(psd, -omega) == eval_psd(psd, omega)


def check_quadrature_consistency(seed, cases):
    # successive grid doublings must shrink autocovariance error geometrically
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        v = rng.uniform(0.5, 2.0)
        a = rng.uniform(0.75, 0.95)
        ref = autocovariance(
            make_psd("rational_ar1", grid_size=8192, variance=v, pole=a), 5
        )
        errs = []
        for m in (8, 16, 32, 64):
            c = autocovariance(
                make_psd("rational_ar1", grid_size=m, variance=v, pole=a), 5
            )
            errs.append(float(np.max(np.abs(c - ref))))
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert hi > 0.0 and lo / hi <= 0.35, (v, a, errs)


def check_envelope_lower_bound(seed, cases):
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        members = tuple(random_psd(rng) for _ in range(rng.integers(1, 6)))
        env = lower_envelope(UncertaintySet(members=members))
        for psd in members:
            assert np.all(env.values <= psd.values + 1e-15)


# ---------------------------------------------------------------- dominance

def check_pmf_antisymmetry(seed, cases):
    # both orderings <= 1 forces the two PMFs to coincide on the support
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        size = int(rng.integers(2, 17))
        p0, p1, p2 = (random_pmf(rng, size) for _ in range(3))
        fwd = discrete_dominance_integral(p0, p1, p2)
        rev = discrete_dominance_integral(p0, p2, p1)
        if fwd <= 1.0 and rev <= 1.0:
            assert np.allclose(p1, p2, atol=1e-9), (p1, p2, fwd, rev)


def check_pmf_am_bound(seed, cases):
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        size = int(rng.integers(2, 17))
        p0, p1, p2 = (random_pmf(rng, size) for _ in range(3))
        total = discrete_dominance_integral(p0, p1, p2) + discrete_dominance_integral(
            p0, p2, p1
        )
        assert total >= 2.0 - 1e-12, total


def check_margin_antisymmetry(seed, cases):
    rng = np.random.default_rng(seed)
    done = 0
    while done < cases:
        sigma2 = rng.uniform(0.5, 2.0)
        if rng.random() < 0.5:
            a, b = dominated_pair(rng, sigma2)
        else:
            a, b = random_psd(rng), random_psd(rng)
        fwd, _ = sigma2_dominance_margin(a, b, sigma2)
        if fwd <= 1e-9 or np.max(np.abs(a.values - b.values)) <= 1e-9:
            continue
        rev, _ = sigma2_dominance_margin(b, a, sigma2)
        assert rev < 0.0, (fwd, rev)
        done += 1


def check_envelope_sufficiency(seed, cases):
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        members = [random_psd(rng) for _ in range(rng.integers(2, 5))]
        env = lower_envelope(UncertaintySet(members=tuple(members)))
        pos = int(rng.integers(0, len(members) + 1))
        members.insert(pos, env)
        idx, report = find_dominated(
            UncertaintySet(members=tuple(members)), rng.uniform(0.5, 2.0)
        )
        assert idx is not None and np.array_equal(
            members[idx].values, env.values
        ), (idx, pos)
        assert report.dominated


# ------------------------------------------------------------ gaussian_model

def check_finite_n_bridge(seed, cases):
    # positive spectral margin must imply finite-n dominance at moderate n
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        sigma2 = rng.uniform(0.5, 2.0)
        star, phi = dominated_pair(rng, sigma2)
        for n in (16, 64, 256):
            p1 = build_model(star, sigma2, n)
            p2 = build_model(phi, sigma2, n)
            assert finite_n_dominates(sigma2, p1, p2), (star.label, phi.label, n)


def check_kl_nonnegativity(seed, cases):
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        sigma2 = rng.uniform(0.5, 2.0)
        n = int(rng.integers(2, 33))
        p = build_model(random_psd(rng), sigma2, n)
        if rng.random() < 0.2:
            q = ToeplitzGaussian(n=n, sigma2=sigma2, autocov=p.autocov)
        else:
            q = build_model(random_psd(rng), sigma2, n)
        kl = gaussian_kl(p, q)
        if np.max(np.abs(p.autocov - q.autocov)) <= 1e-12:
            assert abs(kl) <= 1e-9, kl
        else:
            assert kl > 0.0, kl


def check_ratio_self_unity(seed, cases):
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        sigma2 = rng.uniform(0.5, 2.0)
        model = build_model(random_psd(rng), sigma2, int(rng.integers(1, 65)))
        assert ratio_expectation(sigma2, model, model) == 1.0


def check_logdet_consistency(seed, cases, sizes=(2, PROP_GRID)):
    # n is drawn in sizes (inclusive): the default stays within the grid, so
    # each case tests the PSD it names; n > PROP_GRID aliases
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(rng.integers(sizes[0], sizes[1] + 1))
        model = build_model(random_psd(rng), rng.uniform(0.5, 2.0), n)
        dense = float(np.sum(np.log(np.linalg.eigvalsh(model.covariance()))))
        assert abs(model.logdet - dense) <= 1e-8 * n, (n, model.logdet, dense)


# ---------------------------------------------------------------- exponent

def check_snr_monotonicity(seed, cases):
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        psd = random_psd(rng)
        if np.max(psd.values) == 0.0:
            continue
        sigma2 = rng.uniform(0.5, 2.0)
        gamma = rng.uniform(1.01, 5.0)
        scaled = PsdGrid(grid_size=psd.grid_size, values=gamma * psd.values)
        assert (
            error_exponent(scaled, sigma2) > error_exponent(psd, sigma2)
        )


def check_kl_rate_convergence(seed, cases):
    # normalized KL approaches the exponent monotonically for smooth colored
    # spectra (flat spectra are exact at every n and carry no trend)
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        if rng.random() < 0.5:
            psd = make_psd(
                "rational_ar1",
                grid_size=1024,
                variance=rng.uniform(0.3, 3.0),
                pole=rng.uniform(0.1, 0.8),
            )
        else:
            psd = make_psd(
                "raised_cosine",
                grid_size=1024,
                peak=rng.uniform(0.5, 4.0),
                center=rng.uniform(0.0, np.pi),
                width=rng.uniform(0.5, 3.0),
            )
        sigma2 = rng.uniform(0.5, 2.0)
        limit = error_exponent(psd, sigma2)
        errs = [abs(kl_rate(psd, sigma2, n) - limit) for n in (64, 256, 1024)]
        assert errs[0] > errs[1] > errs[2], errs


def check_genie_matches_dominated(seed, cases):
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        members = [random_psd(rng) for _ in range(rng.integers(2, 6))]
        env = lower_envelope(UncertaintySet(members=tuple(members)))
        pos = int(rng.integers(0, len(members) + 1))
        members.insert(pos, env)
        uset = UncertaintySet(members=tuple(members))
        sigma2 = rng.uniform(0.5, 2.0)
        idx, _ = find_dominated(uset, sigma2)
        if idx is None:
            continue
        _, argmin = genie_bound(uset, sigma2)
        assert argmin == idx or np.array_equal(
            uset.members[argmin].values, uset.members[idx].values
        )


# ---------------------------------------------------------------- detection

def check_calibration_exceedances(seed, cases):
    # regenerating the calibration trials reproduces the quantile exactly
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        alpha = rng.uniform(0.05, 0.9)
        trials = int(np.ceil(100.0 / min(alpha, 1.0 - alpha))) + int(
            rng.integers(0, 500)
        )
        trials = max(trials, 1000)
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, 4))
        models = [
            build_model(
                make_psd("flat", grid_size=64, level=rng.uniform(0.3, 3.0)), 1.0, n
            )
            for _ in range(k)
        ]
        q = MixtureWeights(random_pmf(rng, k))
        cal_seed = int(rng.integers(0, 2**32))
        tau = calibrate_threshold(q, models, 1.0, alpha, trials, cal_seed)
        g = h0_statistics(q, models, 1.0, trials, cal_seed)
        exceed = int(np.sum(g > tau))
        target = int(np.ceil(alpha * trials))
        assert exceed in (target - 1, target), (exceed, target, alpha, trials)


def check_statistic_lower_bound(seed, cases):
    # the mixture statistic dominates every weighted component log-ratio
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(rng.integers(4, 17))
        k = int(rng.integers(1, 5))
        sigma2 = rng.uniform(0.5, 2.0)
        models = [build_model(random_psd(rng, 64), sigma2, n) for _ in range(k)]
        w = random_pmf(rng, k)
        if k > 1 and rng.random() < 0.5:
            w[rng.integers(0, k)] = 0.0
            w /= w.sum()
        q = MixtureWeights(w)
        samples = sample_gaussian(white_model(sigma2, n), 32, int(rng.integers(0, 2**32)))
        g = mixture_statistics(samples, q, models, sigma2)
        ell = log_likelihood_ratios(samples, models, sigma2)
        for j in range(k):
            if q.w[j] > 0.0:
                bound = (ell[:, j] + np.log(q.w[j])) / n
                assert np.all(g >= bound - 1e-12)


# ----------------------------------------------------------------- minimax

def check_kkt_dominance_bridge(seed, cases):
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        sigma2 = rng.uniform(0.5, 2.0)
        star, phi = dominated_pair(rng, sigma2)
        for n in (64, 256):
            models = [build_model(star, sigma2, n), build_model(phi, sigma2, n)]
            cert = kkt_certificate(0, models, sigma2)
            assert cert.singleton_verified and cert.max_violation <= 1e-10


def check_frank_wolfe_monotone(seed, cases):
    rng = np.random.default_rng(seed)
    n = 8
    for _ in range(cases):
        k = int(rng.integers(2, 5))
        models = [build_model(random_psd(rng, 64), 1.0, n) for _ in range(k)]
        frozen = sample_gaussian(white_model(1.0, n), 2048, int(rng.integers(0, 2**32)))
        init = MixtureWeights((rng.dirichlet(np.ones(k)) + 0.5) / (1.0 + 0.5 * k))
        _, _, trace = minimize_mixture_weights(
            models, 1.0, frozen, init, max_iters=60
        )
        objectives = np.asarray(trace["objectives"])
        assert np.all(np.diff(objectives) <= 1e-12)


def check_objective_convexity(seed, cases):
    rng = np.random.default_rng(seed)
    n, k = 8, 3
    models = [build_model(random_psd(rng, 64), 1.0, n) for _ in range(k)]
    frozen = sample_gaussian(white_model(1.0, n), 2048, 11)
    for _ in range(cases):
        ra, rb = random_pmf(rng, k), random_pmf(rng, k)
        theta = float(rng.choice([0.25, 0.5, 0.75]))
        mid = sample_average_kl(
            MixtureWeights(theta * ra + (1.0 - theta) * rb), models, 1.0, frozen
        )
        ends = theta * sample_average_kl(MixtureWeights(ra), models, 1.0, frozen) + (
            1.0 - theta
        ) * sample_average_kl(MixtureWeights(rb), models, 1.0, frozen)
        assert mid <= ends + 1e-12


ALL_SUITES = (
    check_even_symmetry,
    check_quadrature_consistency,
    check_envelope_lower_bound,
    check_pmf_antisymmetry,
    check_pmf_am_bound,
    check_margin_antisymmetry,
    check_envelope_sufficiency,
    check_finite_n_bridge,
    check_kl_nonnegativity,
    check_ratio_self_unity,
    check_logdet_consistency,
    check_snr_monotonicity,
    check_kl_rate_convergence,
    check_genie_matches_dominated,
    check_calibration_exceedances,
    check_statistic_lower_bound,
    check_kkt_dominance_bridge,
    check_frank_wolfe_monotone,
    check_objective_convexity,
)

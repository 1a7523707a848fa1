"""Finite-n detectors: mixture statistics, thresholding, and Monte Carlo rates.

The decision statistic for weights q over candidate models p_1..p_K is

    g(y; q) = (1/n) * log sum_k q_k p_k(y) / p_0(y),

evaluated in the log domain.  The test decides the null when g <= tau, with
tau calibrated as an empirical quantile under the null at false-alarm
level alpha.

Every log-likelihood ratio is one quadratic form,

    log p_k(y)/p_0(y) = c_k + y^T B_k y / 2,  B_k = I/sigma2 - C_k^{-1},

with c_k = -(log|C_k| - n log sigma2)/2, and B_k positive semidefinite since
C_k >= sigma2 I.  One `_Scorer` per model set writes the B_k of every scored
model side by side into one stack, each from the model's `inverse` and held
nowhere else, so a block is scored by one matrix product.  A white null is
scored as its samples sqrt(sigma2) z.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import EstimationInfeasibleError, ParameterError, require_positive
from .gaussian_model import ToeplitzGaussian, build_model_sets, normal_blocks
from .gaussian_model import sample_blocks, white_blocks
from .spectral import UncertaintySet

#: Default normalized tilt grid for Chernoff-type bounds: 41 points on [-2, 0].
DEFAULT_TILT_GRID = tuple(np.linspace(-2.0, 0.0, 41))

#: Miss estimates backed by fewer recorded miss events than this are censored.
MIN_MISS_EVENTS = 10

#: Fewest trials a Monte Carlo error-rate estimate runs on.
MIN_MC_TRIALS = 1000


def derive_seed(seed: int, label: str) -> int:
    """Stable 64-bit substream seed for (master seed, stage label)."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class MixtureWeights:
    """Point on the K-simplex, used both as detector weights and operating point."""

    w: np.ndarray

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ParameterError("weights must be a nonempty vector")
        if not np.all(np.isfinite(w)):
            raise ParameterError(f"weights must be finite, got {w}")
        if np.any(w < 0.0) or np.any(w > 1.0):
            raise ParameterError("weights must lie in [0, 1]")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ParameterError(f"weights must sum to 1, got {w.sum()!r}")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    def __len__(self) -> int:
        return self.w.size

    @staticmethod
    def singleton(index: int, size: int) -> "MixtureWeights":
        w = np.zeros(size)
        w[index] = 1.0
        return MixtureWeights(w)

    @staticmethod
    def uniform(size: int) -> "MixtureWeights":
        return MixtureWeights(np.full(size, 1.0 / size))


@dataclass
class DetectorSpec:
    """A calibrated mixture detector; `n` and `null_sigma2` are read from its models."""

    weights: MixtureWeights
    models: List[ToeplitzGaussian]
    threshold: float

    def __post_init__(self):
        if self.threshold != self.threshold:  # +-inf allowed for degenerate rules
            raise ParameterError("threshold must not be NaN")
        if len(self.models) != len(self.weights):
            raise ParameterError("weights and models must have equal length")
        for m in self.models:
            if m.n != self.n or m.sigma2 != self.null_sigma2:
                raise ParameterError("models must share n and sigma2")

    @property
    def n(self) -> int:
        return self.models[0].n

    @property
    def null_sigma2(self) -> float:
        return self.models[0].sigma2


def log_likelihood_ratios(
    samples: np.ndarray, models: Sequence[ToeplitzGaussian], null_sigma2: float
) -> np.ndarray:
    """Per-model log density ratios log(p_k(y)/p_0(y)) for each sample row."""
    return ratio_rows([np.atleast_2d(samples)], models, null_sigma2)


def ratio_rows(
    blocks: Iterable[np.ndarray], models: Sequence[ToeplitzGaussian], null_sigma2: float
) -> np.ndarray:
    """log_likelihood_ratios of a stream of sample blocks, stacked in one
    matrix; one scorer weighting every model scores the whole stream."""
    scorer = _ratio_scorer(models, null_sigma2)
    return np.concatenate([scorer.log_ratios(np.asarray(y, dtype=float)) for y in blocks])


def _log_sum_exp(x: np.ndarray) -> np.ndarray:
    """log sum exp(x) along the last axis, in the max-shift form
    top + log(sum(exp(x - top))).

    An entry that is the only finite one of its row comes back bit for bit,
    since its shifted term is exp(0) = 1; a row of -inf gives -inf.
    """
    top = np.max(x, axis=-1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(x - top), axis=-1)) + top[..., 0]


def _mixture_log_ratios(ratios: np.ndarray, w: np.ndarray) -> np.ndarray:
    """log sum_k w_k p_k/p_0 per row of the log-ratio matrix: n * g(y; w).

    The one form of the mixture statistic; detectors, the game objective, its
    gradient and the utility all read it.  A zero weight contributes log 0 =
    -inf, and a singleton weight returns its column exactly.  Raises
    ParameterError unless there is one weight per column.
    """
    if len(w) != ratios.shape[-1]:
        raise ParameterError(
            f"{len(w)} mixture weights for {ratios.shape[-1]} log-ratio columns"
        )
    with np.errstate(divide="ignore"):
        return _log_sum_exp(ratios + np.log(w))


@dataclass(frozen=True)
class _Scorer:
    """The mixture statistics of a set of detectors over m scored models.

    `stack` is the n x (m n) matrix [B_1 | ... | B_m], B_k = I/sigma2 -
    C_k^{-1}, `offsets` holds the c_k, and `picks` holds each detector's
    (columns, weights) of its positively weighted models.
    """

    stack: np.ndarray
    offsets: np.ndarray
    picks: Tuple[Tuple[np.ndarray, np.ndarray], ...]

    def log_ratios(self, y: np.ndarray) -> np.ndarray:
        """(rows, m) log(p_k(y)/p_0(y)) of the sample rows, one column per model.

        The rows are scored in chunks of the largest power of two rows that
        is at most rows // m, so that no product is larger than the block
        itself, and each is freed before the next.  (With OpenBLAS, chunks
        of rows // m = 1365 rows at n = 16 crossed the size at which a
        product runs threaded, and scored 3-5x slower than 1024-row ones.)
        """
        n, m = self.stack.shape[0], self.offsets.size
        rows = y.shape[0]
        if y.shape[1] != n:
            raise ParameterError(f"models have n={n}, samples have n={y.shape[1]}")
        quad = np.empty((rows, m))
        step = 1 << max(0, (rows // m).bit_length() - 1)
        for start in range(0, rows, step):
            chunk = y[start : start + step]
            quad[start : start + step] = np.einsum(
                "ikj,ij->ik", (chunk @ self.stack).reshape(len(chunk), m, n), chunk
            )
        return self.offsets + 0.5 * quad

    def __call__(self, y: np.ndarray) -> np.ndarray:
        """(detector, row) g values of the sample rows, every detector's
        statistic read from one log-ratio matrix."""
        ratios = self.log_ratios(y)
        stats = [_mixture_log_ratios(ratios[:, cols], w) for cols, w in self.picks]
        return np.array(stats) / self.stack.shape[0]


def _scorer(
    models: Sequence[ToeplitzGaussian],
    detectors: Sequence[MixtureWeights],
    null_sigma2: float,
) -> _Scorer:
    """The _Scorer of the detectors over the models that some detector
    weights positively, each form written into the stack from the model's
    `inverse`, which is not kept.  Every Monte Carlo statistic passes here,
    so this is where a bad noise floor is refused."""
    require_positive("null_sigma2", null_sigma2)
    if any(len(q) != len(models) for q in detectors):
        raise ParameterError("detector weights must match the number of models")
    active = [q.w > 0.0 for q in detectors]
    scored = np.flatnonzero(np.any(active, axis=0))
    if not scored.size:
        raise ParameterError("no models to score")
    n = models[0].n
    if any(model.n != n for model in models):
        raise ParameterError("models must share n")
    stack = np.empty((n, scored.size * n))
    for k, index in enumerate(scored):
        form = stack[:, k * n : (k + 1) * n]
        np.negative(models[index].inverse(), out=form)
        form[np.diag_indices(n)] += 1.0 / null_sigma2
    offsets = [-0.5 * (models[k].logdet - n * np.log(null_sigma2)) for k in scored]
    picks = tuple(
        (np.searchsorted(scored, np.flatnonzero(a)), q.w[a])
        for q, a in zip(detectors, active)
    )
    return _Scorer(stack, np.array(offsets), picks)


def _ratio_scorer(models: Sequence[ToeplitzGaussian], null_sigma2: float) -> _Scorer:
    """The _Scorer of one detector that weights every model, so that its
    `log_ratios` has one column per model."""
    if not models:
        raise ParameterError("no models to score")
    return _scorer(models, [MixtureWeights.uniform(len(models))], null_sigma2)


def _null_statistics(score, sigma2: float, n: int, trials: int, seed: int) -> np.ndarray:
    """(detector, trial) g values of a scorer on the white null substream `seed`."""
    blocks = white_blocks(sigma2, n, trials, seed)
    return np.concatenate([score(y) for y in blocks], axis=1)


def mixture_statistics(
    samples: np.ndarray,
    weights: MixtureWeights,
    models: Sequence[ToeplitzGaussian],
    null_sigma2: float,
) -> np.ndarray:
    """Vector of g(y; q) over the sample rows (log-sum-exp combination)."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    return _scorer(models, [weights], null_sigma2)(samples)[0]


def mixture_statistic(
    y: np.ndarray,
    weights: MixtureWeights,
    models: Sequence[ToeplitzGaussian],
    null_sigma2: float,
) -> float:
    """g(y; q) for a single observation vector."""
    return float(mixture_statistics(np.atleast_2d(y), weights, models, null_sigma2)[0])


def h0_statistics(
    weights: MixtureWeights,
    models: Sequence[ToeplitzGaussian],
    null_sigma2: float,
    trials: int,
    seed: int,
) -> np.ndarray:
    """g values on `trials` fresh null draws (block-streamed, reproducible)."""
    score = _scorer(models, [weights], null_sigma2)
    return _null_statistics(score, null_sigma2, models[0].n, trials, seed)[0]


def min_calibration_trials(alpha: float) -> int:
    """Fewest trials with 100 expected exceedances on either side of the
    (1-alpha)-quantile: ceil(100 / min(alpha, 1 - alpha))."""
    return int(np.ceil(100.0 / min(alpha, 1.0 - alpha)))


def threshold_order_index(alpha: float, trials: int) -> int:
    """0-based order-statistic index of the calibration threshold.

    Rejects alpha outside (0, 1) and fewer than 100 expected exceedances on
    either side of the threshold.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0,1), got {alpha}")
    needed = min_calibration_trials(alpha)
    if trials < needed:
        raise ParameterError(
            f"calibration needs >= {needed} trials at alpha={alpha}, got {trials}"
        )
    return trials - int(np.ceil(alpha * trials))


def calibrate_threshold(
    weights: MixtureWeights,
    models: Sequence[ToeplitzGaussian],
    null_sigma2: float,
    alpha: float,
    trials: int,
    seed: int,
) -> float:
    """Empirical (1-alpha)-quantile of g under the null (lower order statistic).

    With the returned threshold, regenerating the same trials yields exactly
    ceil(alpha*trials) - 1 strict exceedances (continuous statistics).
    """
    order = threshold_order_index(alpha, trials)
    g = np.sort(h0_statistics(weights, models, null_sigma2, trials, seed))
    return float(g[order])


def _error_counts(
    score,
    models: Sequence[ToeplitzGaussian],
    thresholds: Sequence[float],
    truths: Sequence[int],
    null_sigma2: float,
    trials: int,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """False-alarm counts per detector and miss counts per (detector, truth).

    Null draws use substream (seed, "h0").  Signal draws use (seed, "h1"):
    each block of white normals is drawn once and mapped through every
    truth's factor, so all detectors and truths score coupled sample sets.
    """
    if trials < MIN_MC_TRIALS:
        raise ParameterError(f"trials must be >= {MIN_MC_TRIALS}, got {trials}")
    if not truths or any(not 0 <= t < len(models) for t in truths):
        raise ParameterError(f"truth indices {list(truths)} empty or out of range")
    tau = np.asarray(thresholds, dtype=float)[:, np.newaxis]
    n = models[0].n
    g0 = _null_statistics(score, null_sigma2, n, trials, derive_seed(seed, "h0"))
    fa = np.sum(g0 > tau, axis=1)
    miss = np.zeros((tau.shape[0], len(truths)), dtype=int)
    signals = sample_blocks([models[t] for t in truths], trials, derive_seed(seed, "h1"))
    for i, y in enumerate(signals):
        miss[:, i % len(truths)] += np.sum(score(y) <= tau, axis=1)
    return fa, miss


def estimate_error_probs(
    spec: DetectorSpec, true_psd_index: int, trials: int, seed: int
) -> Tuple[float, float, int]:
    """Monte Carlo false-alarm and miss rates of a calibrated detector.

    Null draws use substream (seed, "h0"); signal draws use (seed, "h1") with
    white-noise draws shared across truth models, so detectors and truths
    under comparison score coupled sample sets.
    """
    score = _scorer(spec.models, [spec.weights], spec.null_sigma2)
    fa, miss = _error_counts(
        score, spec.models, [spec.threshold], [true_psd_index], spec.null_sigma2,
        trials, seed,
    )
    return int(fa[0]) / trials, int(miss[0, 0]) / trials, int(miss[0, 0])


@dataclass
class ExponentEstimate:
    """Empirical miss-exponent ladder for one detector/truth pairing; `slope`
    and `ci_half_width` are None when every entry is censored."""

    n_values: np.ndarray
    miss_log: np.ndarray
    fa_hat: np.ndarray
    miss_hat: np.ndarray
    miss_count: np.ndarray
    censored: np.ndarray
    slope: Optional[float]
    ci_half_width: Optional[float]

    def to_rows(self) -> List[dict]:
        """JSON rows; a censored entry's miss_log (NaN) is written as null."""
        return [
            {
                "n": int(self.n_values[i]),
                "fa_hat": float(self.fa_hat[i]),
                "miss_hat": float(self.miss_hat[i]),
                "miss_count": int(self.miss_count[i]),
                "miss_log": _json_float(self.miss_log[i]),
                "censored": bool(self.censored[i]),
            }
            for i in range(len(self.n_values))
        ]


def _json_float(value) -> Optional[float]:
    """float(value), or None (JSON null) when it is not finite."""
    return float(value) if np.isfinite(value) else None


def _ladder(
    n_values: np.ndarray, fa_count: np.ndarray, miss_count: np.ndarray, trials: int
) -> ExponentEstimate:
    """Exponent ladder from counts; entries with fewer than MIN_MISS_EVENTS
    misses are censored and never contribute to the slope."""
    miss_hat = miss_count / trials
    censored = miss_count < MIN_MISS_EVENTS
    with np.errstate(divide="ignore"):
        miss_log = np.where(censored, np.nan, -np.log(miss_hat) / n_values)
    slope = ci = None
    uncensored = np.flatnonzero(~censored)
    if uncensored.size:
        last = uncensored[-1]
        p_hat = miss_hat[last]
        slope = float(miss_log[last])
        # 3-sigma binomial CI on miss_hat mapped through -(1/n)log by delta method
        ci = float(3.0 * np.sqrt((1.0 - p_hat) / (p_hat * trials)) / n_values[last])
    return ExponentEstimate(
        n_values=n_values,
        miss_log=miss_log,
        fa_hat=fa_count / trials,
        miss_hat=miss_hat,
        miss_count=miss_count,
        censored=censored,
        slope=slope,
        ci_half_width=ci,
    )


def operating_characteristics(
    models_by_n: Sequence[Sequence[ToeplitzGaussian]],
    detectors: Sequence[MixtureWeights],
    truths: Sequence[int],
    trials: int,
    alpha: float,
    seed: int,
) -> List[List[ExponentEstimate]]:
    """Calibrated miss-exponent ladders of every detector against every truth.

    models_by_n holds the K models of each n, n strictly increasing.  Per n
    three streams of normals are drawn once each: the calibration null (seed
    label "cal:{n}"), which sets one threshold per detector, then the
    false-alarm null and the signal stream (labels "h0" and "h1" under
    "mc:{n}"), whose white draws every truth shares.  All three streams are
    scored with one `_scorer` per n.  Returns estimates[detector][truth];
    a ladder censored at every n has no slope.
    """
    n_values = np.array([models[0].n for models in models_by_n], dtype=int)
    if np.any(np.diff(n_values) <= 0):
        raise ParameterError("n_values must be strictly increasing")
    order = threshold_order_index(alpha, trials)
    fa = np.empty((len(detectors), len(n_values)), dtype=int)
    miss = np.empty((len(detectors), len(truths), len(n_values)), dtype=int)
    for i, models in enumerate(models_by_n):
        n, sigma2 = models[0].n, models[0].sigma2
        score = _scorer(models, detectors, sigma2)
        g = _null_statistics(score, sigma2, n, trials, derive_seed(seed, f"cal:{n}"))
        g.sort(axis=1)
        thresholds = g[:, order].copy()
        del g  # the error counts read only the thresholds
        fa[:, i], miss[:, :, i] = _error_counts(
            score, models, thresholds, truths, sigma2, trials,
            derive_seed(seed, f"mc:{n}"),
        )
    return [
        [_ladder(n_values, fa[d], miss[d, t], trials) for t in range(len(truths))]
        for d in range(len(detectors))
    ]


def empirical_exponent(
    psd_set: UncertaintySet,
    sigma2: float,
    detector_weights: MixtureWeights,
    true_psd_index: int,
    n_values: Sequence[int],
    trials: int,
    alpha: float,
    seed: int,
) -> ExponentEstimate:
    """Estimate -(1/n) log(miss probability) across a ladder of dimensions.

    The one-detector, one-truth view of operating_characteristics: each
    dimension calibrates its own threshold from the same master seed.
    Raises EstimationInfeasibleError when every entry is censored.
    """
    models_by_n = build_model_sets(psd_set.members, sigma2, [int(n) for n in n_values])
    est = operating_characteristics(
        models_by_n, [detector_weights], [true_psd_index], trials, alpha, seed
    )[0][0]
    if est.slope is None:
        raise EstimationInfeasibleError(
            "all miss estimates censored; use smaller n or more trials"
        )
    return est


def sample_mixture_blocks(
    models: Sequence[ToeplitzGaussian],
    weights: MixtureWeights,
    trials: int,
    seed: int,
):
    """Blocks of draws from the Gaussian mixture sum_k w_k p_k, one weight per
    model, blocked as `normal_blocks`.

    The white-noise draws and component-selection uniforms are generated from
    substreams of `seed` that do not depend on `weights`, so runs with
    different operating points are coupled sample-by-sample.
    """
    if len(weights) != len(models):
        raise ParameterError(
            f"mixture has {len(weights)} weights for {len(models)} models"
        )
    cdf = np.cumsum(weights.w)
    for b, z in enumerate(normal_blocks(models[0].n, trials, seed)):
        ss = np.random.SeedSequence(entropy=derive_seed(seed, "mixsel"), spawn_key=(b,))
        u = np.random.default_rng(ss).random(len(z))
        comp = np.minimum(np.searchsorted(cdf, u, side="right"), len(models) - 1)
        out = np.empty_like(z)
        for k, model in enumerate(models):
            rows = comp == k
            if np.any(rows):
                out[rows] = z[rows] @ model.factor.T
        yield out


def _chernoff_bound(tau: float, g: np.ndarray, n: int, tilt_grid: Sequence[float]):
    """(max, first argmax) over tilts t <= 0 of t*tau - (1/n) log mean(exp(t*n*g))."""
    tilts = np.asarray(list(tilt_grid), dtype=float)
    if tilts.size == 0 or np.any(tilts > 0.0):
        raise ParameterError("tilt grid must be nonempty with all tilts <= 0")
    best, best_t = -np.inf, 0.0
    for t in tilts:
        bracket = t * tau - (float(_log_sum_exp(t * n * g)) - np.log(len(g))) / n
        if bracket > best:
            best, best_t = float(bracket), float(t)
    return best, best_t


def chernoff_exponent(
    spec: DetectorSpec,
    true_model_weights: MixtureWeights,
    tilt_grid: Sequence[float],
    trials: int,
    seed: int,
) -> float:
    """Monte Carlo Chernoff lower bound on the miss exponent of the detector.

    Maximizes t*tau - (1/n) log E_{mixture}[exp(t*n*g)] over normalized
    tilts t <= 0, with the expectation under the mixture of the true models.
    """
    score = _scorer(spec.models, [spec.weights], spec.null_sigma2)
    g_chunks = [
        score(block)[0]
        for block in sample_mixture_blocks(spec.models, true_model_weights, trials, seed)
    ]
    return _chernoff_bound(spec.threshold, np.concatenate(g_chunks), spec.n, tilt_grid)[0]

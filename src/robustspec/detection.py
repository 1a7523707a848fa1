"""Finite-n detectors: mixture statistics, thresholding, and Monte Carlo rates.

The decision statistic for weights q over candidate models p_1..p_K is

    g(y; q) = (1/n) * log sum_k q_k p_k(y) / p_0(y),

evaluated in the log domain.  The test decides the null when g <= tau, with
tau the (1-alpha)-quantile of g under the white null: exact for a singleton
detector, whose statistic is a weighted sum of chi-square variables there
(`weighted_chi2_isf`), and an empirical quantile for a mixture.

Every log-likelihood ratio is a running sum of innovations (W_k y)_i, with
W_k the model's lower-triangular `whitener` (W_k C_k W_k^T = I) and eps_{k,i}
its prediction errors:

    log p_k/p_0 (y_{<n}) = c_k(n) + sum_{i<n} (y_i^2/sigma2 - (W_k y)_i^2) / 2,

with c_k(n) = -(sum_{i<n} log eps_{k,i} - n log sigma2)/2.  So one `_Scorer`
of the largest models scores every n of a ladder from the prefixes of one
draw.  A white null is scored as its samples sqrt(sigma2) z, and the Monte
Carlo error counts draw one white stream: each tile z is every truth's
signal z L^T and, scaled in place, the null.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import EstimationInfeasibleError, ParameterError, require_positive
from .gaussian_model import TILE_ROWS, ToeplitzGaussian, build_model_sets, normal_blocks
from .gaussian_model import seeded_tiles, white_blocks
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
    """The mixture statistics of detectors over m scored models at each n in
    `ends`, from the prefixes y[:, :n].  Per segment [s, e), `blocks` holds
    [V_1 | ... | V_m], V_k the e x (e-s) transpose of rows s..e-1 of
    I/sigma - W_k for the model's `whitener` W_k; `offsets` holds c_k(n) by
    (end, model), `scale` 1/sigma, `picks` each detector's (columns, weights),
    and `product` room for one chunk's product with the widest block.

    `product` is a scorer's only mutable state, so one scorer must not be
    shared across threads: two threads scoring through one scorer write
    into the same buffer, and their counts differ from a sequential run."""

    ends: Tuple[int, ...]
    blocks: Tuple[np.ndarray, ...]
    offsets: np.ndarray
    scale: float
    picks: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    product: np.ndarray

    def log_ratios(self, y: np.ndarray) -> np.ndarray:
        """(rows, ends x m) log(p_k/p_0) of each row's prefixes, column j m + k
        for the j-th end and model k: with d = y/sigma - W_k y, one product per
        segment, c_k(n) + sum_{i<n} d_i (2 y_i/sigma - d_i) / 2, which never
        subtracts y^T y / sigma2 and y^T C_k^{-1} y.  Rows go in chunks of
        TILE_ROWS: at n = 256 and m = 4, 1024-row chunks scored 16% slower and
        kept 2.5 MiB more resident (OpenBLAS, 2 cores).  Every segment's
        product goes into the scorer's one `product` buffer, made once: with
        a fresh product per segment, glibc trimmed and re-faulted its heap
        and a `minimax_interior` bench op ran 13% slower; with a fresh
        buffer per call, an `mc_full` op with no calibration stream took
        12,008 minor page faults where it takes 1,060."""
        (rows, n), m = y.shape, self.offsets.size // len(self.ends)
        if n != self.ends[-1]:
            raise ParameterError(f"models have n={self.ends[-1]}, samples have n={n}")
        quad = np.empty((rows, len(self.ends), m))
        step, product = TILE_ROWS, self.product
        for start in range(0, rows, step):
            chunk = y[start : start + step]
            total = np.zeros((len(chunk), m))
            for block in self.blocks:
                e, width = block.shape
                s = e - width // m
                d = product[: len(chunk) * width].reshape(len(chunk), width)
                np.matmul(chunk[:, :e], block, out=d)
                d = d.reshape(len(chunk), m, e - s)
                total += (2.0 * self.scale) * np.einsum("ikj,ij->ik", d, chunk[:, s:e])
                total -= np.einsum("ikj,ikj->ik", d, d)
                if e in self.ends:
                    quad[start : start + step, self.ends.index(e)] = total
        return self.offsets + 0.5 * quad.reshape(rows, -1)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        """(ends x detectors, row) g values of each row's prefixes, row j d + i
        for the j-th end and detector i; a singleton detector reads its column."""
        return self.statistics(self.log_ratios(y))

    def statistics(self, ratios: np.ndarray) -> np.ndarray:
        """The g values of `__call__` from the rows of `log_ratios`."""
        rows = len(ratios)
        ratios = ratios.reshape(rows, len(self.ends), -1)
        stats = [
            ratios[..., c[0]] if c.size == 1 else _mixture_log_ratios(ratios[..., c], w)
            for c, w in self.picks
        ]
        ends = np.array(self.ends)[:, np.newaxis, np.newaxis]
        return (np.stack(stats).transpose(2, 0, 1) / ends).reshape(-1, rows)


def _scorer(
    models: Sequence[ToeplitzGaussian],
    detectors: Sequence[MixtureWeights],
    null_sigma2: float,
    ends: Optional[Sequence[int]] = None,
) -> _Scorer:
    """The _Scorer of the detectors over the models that some detector
    weights positively, at the increasing `ends` (default and last: the
    models' n).  Every Monte Carlo statistic passes here, so this is where a
    bad noise floor is refused."""
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
    ends = np.array([n] if ends is None else ends, dtype=int)
    # a segment [s, e) reads only the first e coordinates: 64 keeps it near triangular
    cuts = np.union1d(ends, np.arange(0, n, 64))
    scale = 1.0 / np.sqrt(null_sigma2)
    blocks = [np.empty((e, scored.size * (e - s))) for s, e in zip(cuts, cuts[1:])]
    offsets = np.empty((ends.size, scored.size))
    for k, index in enumerate(scored):
        w, errors = models[index].whitener()
        np.negative(w, out=w)
        w[np.diag_indices(n)] += scale
        for block, s, e in zip(blocks, cuts, cuts[1:]):
            block[:, k * (e - s) : (k + 1) * (e - s)] = w[s:e, :e].T
        logdets = np.cumsum(np.log(errors))[ends - 1]
        offsets[:, k] = -0.5 * (logdets - ends * np.log(null_sigma2))
    picks = tuple(
        (np.searchsorted(scored, np.flatnonzero(a)), q.w[a])
        for q, a in zip(detectors, active)
    )
    # a segment is at most 64 wide, so the buffer is at most TILE_ROWS x 64 m
    product = np.empty(TILE_ROWS * max(block.shape[1] for block in blocks))
    return _Scorer(tuple(ends.tolist()), tuple(blocks), offsets.ravel(), scale, picks, product)


def _ratio_scorer(models: Sequence[ToeplitzGaussian], null_sigma2: float) -> _Scorer:
    """The _Scorer of one detector that weights every model, so that its
    `log_ratios` has one column per model."""
    if not models:
        raise ParameterError("no models to score")
    return _scorer(models, [MixtureWeights.uniform(len(models))], null_sigma2)


def _null_statistics(score: _Scorer, sigma2: float, trials: int, seed: int) -> np.ndarray:
    """(statistic, trial) g values of a scorer on the white null substream `seed`."""
    g = np.empty((len(score.ends) * len(score.picks), trials))
    start = 0
    for y in white_blocks(sigma2, score.ends[-1], trials, seed):
        g[:, start : start + len(y)] = score(y)
        start += len(y)
    return g


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
    return _null_statistics(score, null_sigma2, trials, seed)[0]


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


#: Trapezoid nodes on each half of the contour of `_saddle_tail`: the step is
#: at most a fifth of the integrand's narrowest scale, and 64 steps span at
#: least nine widths of its peak, past which it has fallen by e^-36.
_CONTOUR_NODES = np.arange(64) + 0.5


def _saddle_tail(
    lam: np.ndarray, group: np.ndarray, starts: np.ndarray, shat: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, P(Q > x), dP/dshat) for each group of Q = sum lam chi2_1, at the x
    whose saddle point is shat: lam > 0 with largest 1 in every group, so
    that the branch points -1/(2 lam) lie left of -1/2 < shat.

    With M(s) = prod (1 + 2 lam s)^(-1/2) the Laplace transform of Q and
    K = log M, the saddle point of s x + K(s) solves x = -K'(shat) = sum
    lam/(1 + 2 lam shat).  P(Q > x) is [c > 0] - (1/2 pi i) int e^{sx} M(s)
    ds/s along any upward path crossing the real axis once, at c in (-1/2,
    0) or (0, inf): Gil-Pelaez's inversion, which Imhof (1961) takes along the
    imaginary axis.  There the integrand decays like |s|^(-1-m/2) for m
    weights, too slowly for m <= 2, so the path here is the parabola
    s = c + i t - t^2/(2d), d = c + 1/2, through c = shat.  It puts every
    branch point at |Im t| = d, its integrand falls like a Gaussian in t for
    one weight or thousands, and the trapezoid rule in t converges
    geometrically.  c moves off the pole at 0 when shat lies within
    w/sqrt(2) of it, w = K''(shat)^(-1/2) the width of the peak, and the
    step is a fifth of the nearest of w, d and the pole.
    """
    u = lam / (1.0 + 2.0 * lam * shat[group])
    x = np.add.reduceat(u, starts)
    curvature = 2.0 * np.add.reduceat(u * u, starts)  # K''(shat) = -dx/dshat
    width = 1.0 / np.sqrt(curvature)
    c = np.where(np.abs(shat) < width / np.sqrt(2.0), width / np.sqrt(2.0), shat)
    d = c + 0.5
    pole = np.abs(d - np.sqrt(np.maximum(d * d - 2.0 * d * c, 0.0)))  # |Im t| of s = 0
    step = np.minimum(width, np.minimum(d, pole)) / 5.0
    t = _CONTOUR_NODES[:, np.newaxis] * step
    s = c + 1j * t - t * t / (2.0 * d)
    # log M from the real and imaginary parts of 1 + 2 lam s: about 4x
    # faster than complex logs
    re = 1.0 + 2.0 * lam * s.real[:, group]
    im = 2.0 * lam * s.imag[:, group]
    log_m = -0.25 * np.add.reduceat(np.log(re * re + im * im), starts, axis=1)
    log_m = log_m - 0.5j * np.add.reduceat(np.arctan2(im, re), starts, axis=1)
    # the trapezoid sum over t > 0; the t < 0 half is its conjugate
    terms = np.exp(s * x + log_m) * (1j - t / d) * (step / np.pi)
    inner = np.sum((terms / s).imag, axis=0)
    tail = np.where(c > 0.0, 1.0 - inner, -inner)
    return x, tail, curvature * np.sum(terms.imag, axis=0)


def weighted_chi2_isf(weights: Sequence[np.ndarray], alpha: float) -> np.ndarray:
    """The (1-alpha)-quantile of Q = sum_i lam_i chi2_1 (independent) for each
    vector lam >= 0 in `weights`, by numerical inversion with no sampling
    error; 0 for a vector of zeros, whose Q is 0.

    Each vector is scaled to largest weight 1 (zeros dropped) and solved in
    the saddle point shat of `_saddle_tail`, whose x is explicit: safeguarded
    Newton on log P(Q > x)/alpha (on log P(Q <= x)/(1 - alpha) when
    alpha > 1/2) in r = log(shat + 1/2), bisecting when a step leaves the
    bracket, until the log ratio is within 1e-12.  Every vector is solved
    at once.  Raises ParameterError unless 0 < alpha < 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0,1), got {alpha}")
    lams = [np.asarray(w, dtype=float) for w in weights]
    top = np.array([w.max(initial=0.0) for w in lams])
    quantiles = np.zeros(len(lams))
    live = np.flatnonzero(top > 0.0)
    if not live.size:
        return quantiles
    scaled = [lams[i][lams[i] > 0.0] / top[i] for i in live]
    sizes = np.array([w.size for w in scaled])
    lam = np.concatenate(scaled)
    group = np.repeat(np.arange(live.size), sizes)
    starts = np.cumsum(sizes) - sizes
    upper = alpha <= 0.5
    r = np.full(live.size, np.log(0.5))  # shat = 0: x is the mean of Q
    lo = np.full(live.size, -np.inf)
    hi = np.full(live.size, np.inf)
    for _ in range(100):
        x, sf, slope = _saddle_tail(lam, group, starts, np.exp(r) - 0.5)
        tail = np.maximum(sf if upper else 1.0 - sf, np.finfo(float).tiny)
        # increasing in r: the tail above x grows as shat does and x falls
        res = np.log(tail / alpha) if upper else np.log((1.0 - alpha) / tail)
        done = (np.abs(res) <= 1e-12) | (hi - lo <= 1e-14 * (1.0 + np.abs(r)))
        if done.all():
            break
        lo = np.where(res < 0.0, r, lo)
        hi = np.where(res > 0.0, r, hi)
        gain = slope * np.exp(r) / tail  # d res / dr
        newton = r - np.divide(res, gain, out=np.full_like(r, np.inf), where=gain > 0.0)
        middle = np.where(np.isinf(lo), hi - 2.0, np.where(np.isinf(hi), lo + 2.0, (lo + hi) / 2))
        r = np.where(done, r, np.where((lo < newton) & (newton < hi), newton, middle))
    quantiles[live] = x * top[live]
    return quantiles


def _singleton_thresholds(
    score: _Scorer,
    models: Sequence[ToeplitzGaussian],
    detectors: Sequence[MixtureWeights],
    alpha: float,
) -> np.ndarray:
    """Thresholds of the scorer's statistics, row j d + i for the j-th end
    and detector i: NaN for a mixture, and for a singleton detector of model
    k the exact (1-alpha)-quantile of g under the white null at n,
    (c_k(n) + q/2)/n, with c_k(n) the scorer's offset and q that of
    `weighted_chi2_isf` for the model's `null_weights(n)`.  One eigvalsh per
    (singleton, n), one at a time."""
    offsets = score.offsets.reshape(len(score.ends), -1)
    cells, weights = [], []
    for i, ((columns, _), q) in enumerate(zip(score.picks, detectors)):
        if columns.size == 1:
            model = models[int(np.flatnonzero(q.w)[0])]
            for j, n in enumerate(score.ends):
                cells.append((j * len(detectors) + i, offsets[j, columns[0]], n))
                weights.append(model.null_weights(n))
    thresholds = np.full(len(score.ends) * len(detectors), np.nan)
    for (row, offset, n), q in zip(cells, weighted_chi2_isf(weights, alpha)):
        thresholds[row] = (offset + 0.5 * q) / n
    return thresholds


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
    g = h0_statistics(weights, models, null_sigma2, trials, seed)
    return float(np.partition(g, order)[order])


def _error_counts(
    score: _Scorer,
    models: Sequence[ToeplitzGaussian],
    thresholds: Sequence[float],
    truths: Sequence[int],
    null_sigma2: float,
    trials: int,
    seed: int,
    first_rows: bool = False,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """(fa, miss, null): false-alarm counts per scorer statistic and miss
    counts per (statistic, truth), against one threshold per statistic (row
    j d + i for the j-th end and detector i, as the scorer's rows).

    One stream of white normals, substream (seed, "h0"), feeds every count.
    Each tile z is first mapped through each truth's factor, z L_j^T, for
    the miss counts, then scaled in place to the null sample sqrt(sigma2) z
    for the false alarms.  So every detector, truth and the null score
    coupled sample sets.  With `first_rows`, `null` is the (trials, m) null
    log-ratios of the m scored models at the scorer's first end (None
    otherwise).
    """
    if trials < MIN_MC_TRIALS:
        raise ParameterError(f"trials must be >= {MIN_MC_TRIALS}, got {trials}")
    if not truths or any(not 0 <= t < len(models) for t in truths):
        raise ParameterError(f"truth indices {list(truths)} empty or out of range")
    tau = np.asarray(thresholds, dtype=float)[:, np.newaxis]
    fa = np.zeros(tau.shape[0], dtype=int)
    miss = np.zeros((tau.shape[0], len(truths)), dtype=int)
    m = score.offsets.size // len(score.ends)
    null = np.empty((trials, m)) if first_rows else None
    factors = [models[t].factor.T for t in truths]
    scale, start = np.sqrt(null_sigma2), 0
    for z in normal_blocks(score.ends[-1], trials, derive_seed(seed, "h0")):
        for i, factor in enumerate(factors):
            miss[:, i] += np.sum(score(z @ factor) <= tau, axis=1)
        z *= scale
        ratios = score.log_ratios(z)
        fa += np.sum(score.statistics(ratios) > tau, axis=1)
        if first_rows:
            null[start : start + len(z)] = ratios[:, :m]
        start += len(z)
    return fa, miss, null


def estimate_error_probs(
    spec: DetectorSpec, true_psd_index: int, trials: int, seed: int
) -> Tuple[float, float, int]:
    """Monte Carlo false-alarm and miss rates of a calibrated detector.

    One white stream, substream (seed, "h0"), gives the null draws and,
    through the truth's factor, the signal draws (see `_error_counts`).
    """
    score = _scorer(spec.models, [spec.weights], spec.null_sigma2)
    fa, miss, _ = _error_counts(
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
        # + 0.0 turns -log(1) = -0.0, every signal draw missed, into 0.0
        miss_log = np.where(censored, np.nan, -np.log(miss_hat) / n_values + 0.0)
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
    """Miss-exponent ladders at false-alarm level alpha of every detector
    against every truth.

    models_by_n holds the K models of each n, n strictly increasing, each set
    the first n coordinates of the largest (same sigma2, autocov its first n
    lags).  One `_scorer` scores every n from prefixes y[:, :n], so the n are
    coupled, and a prefix inherits the largest model's jitter rung (<= 1e-8,
    roundoff only).  Each (detector, n) has one threshold, shared by every
    truth.  A singleton detector's is exact (`_singleton_thresholds`), so its
    false-alarm count is Binomial(trials, alpha).  Only when some detector is
    a mixture is the calibration null ("cal") drawn, and a mixture's
    threshold is its order statistic there.  The error counts read one white
    stream ("h0" under "mc"), drawn once at the largest n: it is the
    false-alarm null, and mapped through each truth's factor it is every
    truth's signal (`_error_counts`).  Returns estimates[detector][truth]; a
    ladder censored at every n has no slope."""
    return _operating_characteristics(models_by_n, detectors, truths, trials, alpha, seed)[0]


def _operating_characteristics(
    models_by_n: Sequence[Sequence[ToeplitzGaussian]],
    detectors: Sequence[MixtureWeights],
    truths: Sequence[int],
    trials: int,
    alpha: float,
    seed: int,
    first_rows: bool = False,
) -> Tuple[List[List[ExponentEstimate]], Optional[np.ndarray]]:
    """(ladders, null) of `operating_characteristics`.  With `first_rows`,
    null is the (trials, K) log-ratio matrix of its false-alarm null at the
    first n, column k for model k, which needs every model weighted by some
    detector; None otherwise.  Its rows are the first n coordinates of white
    rows, so they have the law of a null drawn at that n."""
    if not models_by_n:
        raise ParameterError("n_values must be nonempty")
    n_values = np.array([models[0].n for models in models_by_n], dtype=int)
    if np.any(np.diff(n_values) <= 0):
        raise ParameterError("n_values must be strictly increasing")
    largest = models_by_n[-1]
    for models in models_by_n[:-1]:
        n = models[0].n
        if [(m.sigma2, list(m.autocov)) for m in models] != [
            (m.sigma2, list(m.autocov[:n])) for m in largest
        ]:
            raise ParameterError(f"the models at n={n} are not the first n of the largest")
    order = threshold_order_index(alpha, trials)
    sigma2 = largest[0].sigma2
    score = _scorer(largest, detectors, sigma2, n_values)
    if first_rows and score.offsets.size != n_values.size * len(largest):
        raise ParameterError("null log-ratio rows need every model weighted by a detector")
    thresholds = _singleton_thresholds(score, largest, detectors, alpha)
    mixture = np.isnan(thresholds)
    if mixture.any():
        g = _null_statistics(score, sigma2, trials, derive_seed(seed, "cal"))[mixture]
        g.partition(order, axis=1)
        thresholds[mixture] = g[:, order]
        del g  # the error counts read only the thresholds
    fa, miss, null = _error_counts(
        score, largest, thresholds, truths, sigma2, trials, derive_seed(seed, "mc"), first_rows
    )
    fa, miss = fa.reshape(n_values.size, -1), miss.reshape(n_values.size, len(detectors), -1)
    ladders = [
        [_ladder(n_values, fa[:, d], miss[:, d, t], trials) for t in range(len(truths))]
        for d in range(len(detectors))
    ]
    return ladders, null


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

    The one-detector, one-truth view of operating_characteristics: every
    dimension is scored from the prefixes of one draw at the largest n, each
    against its own threshold at level alpha.
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
    """Tiles of draws from the Gaussian mixture sum_k w_k p_k, one weight per
    model, tiled as `normal_blocks`.

    The white-noise draws and component-selection uniforms are generated from
    substreams of `seed` that do not depend on `weights`, so runs with
    different operating points are coupled sample-by-sample.  The uniforms
    of a block come from one generator per block, drawn tile by tile.
    """
    if len(weights) != len(models):
        raise ParameterError(
            f"mixture has {len(weights)} weights for {len(models)} models"
        )
    cdf = np.cumsum(weights.w)
    select = derive_seed(seed, "mixsel")
    uniforms = seeded_tiles(trials, select, lambda rng, rows: rng.random(rows))
    for z, u in zip(normal_blocks(models[0].n, trials, seed), uniforms):
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

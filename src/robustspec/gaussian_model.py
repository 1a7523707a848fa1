"""Finite-dimensional Gaussian models with Toeplitz signal covariance.

A model is the zero-mean Gaussian with covariance C = sigma^2*I + Sigma_N,
where Sigma_N is the symmetric Toeplitz matrix built from the first n
autocovariance lags of a signal PSD.  Each model runs one `levinson_durbin`
pass at construction, in O(n^2): its prediction errors give log|C| and its
predictor gives C^{-1} by the Gohberg-Semencul formula.  `exponent.kl_rate`
runs the same pass without a model.

- The closed forms need only that pass: `ratio_expectation` sums the
  difference of two Gohberg-Semencul generators down its diagonals.
- Scoring reads the `precision` C^{-1}, summed the same way from the model's
  own generator on first read; `quad_forms` is one matrix product per block.
- Sampling maps white draws through the dense Cholesky `factor` L, built on
  first read so that unsampled models never form it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .errors import NotPositiveDefiniteError, ParameterError, require_positive
from .spectral import PsdGrid, autocovariance

#: Diagonal jitter ladder tried in order before declaring the covariance
#: not positive definite.  Valid PSDs give PD matrices in exact arithmetic;
#: jitter only absorbs roundoff.
JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)

#: Closed forms carry no sampling noise: E_null[p2/p1] <= 1 + RATIO_TOLERANCE is
#: finite-n dominance and a satisfied `minimax.kkt_certificate` condition.
RATIO_TOLERANCE = 1e-10

#: Trials per sampling substream; sample t lives in block t // SAMPLE_BLOCK
#: independent of the total trial count, so blocks can run concurrently and
#: shared-seed comparisons see identical draws.
SAMPLE_BLOCK = 4096


@dataclass(frozen=True)
class ToeplitzGaussian:
    """Zero-mean Gaussian N(0, sigma2*I + Toeplitz(autocov)) of dimension n.

    `jitter` is the JITTER_LADDER rung that construction's one Durbin pass
    needed (0: none); `logdet`, `predictor`, `prediction_error` and the
    lazily built `precision` and Cholesky `factor` all describe the
    covariance plus that jitter.
    """

    n: int
    sigma2: float
    autocov: np.ndarray
    label: str = ""
    logdet: float = field(init=False, compare=False)
    jitter: int = field(init=False, compare=False)
    predictor: np.ndarray = field(init=False, repr=False, compare=False)
    prediction_error: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        require_positive("sigma2", self.sigma2)
        autocov = np.array(self.autocov, dtype=float)
        if autocov.shape != (self.n,):
            raise ParameterError(
                f"autocov must have length n={self.n}, got {autocov.shape}"
            )
        if not np.all(np.isfinite(autocov)):
            raise ParameterError("autocov must be finite")
        autocov.setflags(write=False)
        a, errors, rung = _durbin_with_jitter(autocov, self.sigma2, self.label)
        a.setflags(write=False)
        object.__setattr__(self, "autocov", autocov)
        object.__setattr__(self, "jitter", rung)
        object.__setattr__(self, "logdet", float(np.sum(np.log(errors))))
        object.__setattr__(self, "predictor", a)
        object.__setattr__(self, "prediction_error", float(errors[-1]))

    @cached_property
    def factor(self) -> np.ndarray:
        """Lower Cholesky factor of the covariance plus the model's jitter."""
        cov = self.covariance()
        cov[np.diag_indices(self.n)] += JITTER_LADDER[self.jitter]
        try:
            factor = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError(
                f"covariance for PSD {self.label!r} is not positive definite (Cholesky)"
            ) from None
        factor.setflags(write=False)
        return factor

    @cached_property
    def precision(self) -> np.ndarray:
        """C^{-1}, the diagonal sums of the model's `_inverse_generator`."""
        precision = _diagonal_sums(_inverse_generator(self))
        precision.setflags(write=False)
        return precision

    def covariance(self) -> np.ndarray:
        """Dense covariance sigma2*I + Sigma_N."""
        lags = np.arange(self.n)
        cov = self.autocov[np.abs(lags[:, None] - lags)]
        cov[np.diag_indices(self.n)] += self.sigma2
        return cov

    def quad_forms(self, samples: np.ndarray) -> np.ndarray:
        """y^T C^{-1} y for each row y of `samples`."""
        return np.einsum("ij,ij->i", samples @ self.precision, samples)


def _durbin_with_jitter(
    autocov: np.ndarray, sigma2: float, label: str
) -> Tuple[np.ndarray, np.ndarray, int]:
    """(predictor, errors, rung) of the first JITTER_LADDER rung whose r[0] =
    autocov[0] + sigma2 + jitter passes `levinson_durbin`, the one PD test."""
    r = np.array(autocov, dtype=float)
    for rung, jitter in enumerate(JITTER_LADDER):
        r[0] = autocov[0] + sigma2 + jitter
        try:
            return (*levinson_durbin(r, label), rung)
        except NotPositiveDefiniteError:
            continue
    raise NotPositiveDefiniteError(
        f"covariance for PSD {label!r} is not positive definite "
        f"(jitter up to {JITTER_LADDER[-1]:g} exhausted)"
    )


def build_model(psd: PsdGrid, sigma2: float, n: int) -> ToeplitzGaussian:
    """Finite-n Gaussian model induced by a signal PSD over white noise."""
    return ToeplitzGaussian(n, sigma2, autocovariance(psd, n - 1), psd.label)


def build_model_sets(
    psds: Sequence[PsdGrid], sigma2: float, n_values: Sequence[int]
) -> List[List[ToeplitzGaussian]]:
    """The models of every PSD at every n, one list of len(psds) per n."""
    return [[build_model(psd, sigma2, n) for psd in psds] for n in n_values]


def white_model(sigma2: float, n: int) -> ToeplitzGaussian:
    """The null model N(0, sigma2*I)."""
    return ToeplitzGaussian(n=n, sigma2=sigma2, autocov=np.zeros(n), label="white")


def gaussian_kl(p: ToeplitzGaussian, q: ToeplitzGaussian) -> float:
    """KL divergence D(p || q) between two zero-mean Gaussians, in nats."""
    if p.n != q.n:
        raise ParameterError(f"dimension mismatch: {p.n} vs {q.n}")
    trace = float(np.trace(np.linalg.solve(q.covariance(), p.covariance())))
    return 0.5 * (trace - p.n + q.logdet - p.logdet)


def levinson_durbin(r: np.ndarray, label: str = "") -> Tuple[np.ndarray, np.ndarray]:
    """Durbin's recursion on the symmetric Toeplitz matrix with first column r.

    Returns the order-(n-1) predictor a (a[0] = 1), which solves
    Toeplitz(r) a = errors[-1] * e_0, and the prediction errors
    errors[k] = |C_{k+1}| / |C_k| of the leading k+1 by k+1 blocks, so that
    log|C| = sum(log(errors)).  Raises NotPositiveDefiniteError naming
    `label` when an error is not finite and positive.
    """
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
    return a, errors


def _inverse_generator(model: ToeplitzGaussian) -> np.ndarray:
    """G = (a a^T - b b^T) / eps with b = (0, a[n-1], ..., a[1]).

    a and eps are the model's predictor and last prediction error.  By the
    Gohberg-Semencul formula C^{-1} = (L(a) L(a)^T - L(b) L(b)^T) / eps for
    the lower-triangular Toeplitz L(.), so C^{-1}[i, j] is the sum of G down
    the diagonal from its edge to (i, j).
    """
    a = model.predictor
    b = np.concatenate(([0.0], a[:0:-1]))
    return (np.outer(a, a) - np.outer(b, b)) / model.prediction_error


def _diagonal_sums(generator: np.ndarray) -> np.ndarray:
    """Running sums of `generator` down each diagonal: C^{-1} from its generator G."""
    out = np.empty_like(generator)
    out[0] = generator[0]
    for i in range(1, generator.shape[0]):
        out[i, 0] = generator[i, 0]
        out[i, 1:] = out[i - 1, :-1] + generator[i, 1:]
    return out


def ratio_expectation(
    p0_sigma2: float, p1: ToeplitzGaussian, p2: ToeplitzGaussian
) -> float:
    """Closed-form E_{N(0, s2 I)}[p2(Y)/p1(Y)] for Gaussian densities p1, p2.

    Equals [|C1| / (|C2| * |I + s2 (C2^{-1} - C1^{-1})|)]^{1/2} where C_i is
    the covariance of p_i.  The middle matrix comes from the Gohberg-Semencul
    generators of C1^{-1} and C2^{-1} in O(n^2), read from the Durbin pass
    each model holds, with no recursion and no dense solve; its Cholesky
    factor gives its log-determinant.  Returns +inf when the middle
    matrix is not positive definite (the defining integral diverges).
    """
    require_positive("p0_sigma2", p0_sigma2)
    return _ratio_expectation(p0_sigma2, p1, _inverse_generator(p1), p2)


def _ratio_expectation(
    p0_sigma2: float,
    p1: ToeplitzGaussian,
    generator1: np.ndarray,
    p2: ToeplitzGaussian,
) -> float:
    """ratio_expectation with p1's `_inverse_generator` already built, so one
    p1 can be compared with many p2 from one generator."""
    if p1.n != p2.n:
        raise ParameterError(f"dimension mismatch: {p1.n} vs {p2.n}")
    # the generator of a difference of inverses is the difference of generators
    middle = _diagonal_sums(p0_sigma2 * (_inverse_generator(p2) - generator1))
    middle[np.diag_indices(p1.n)] += 1.0
    try:
        factor = np.linalg.cholesky(middle)
    except np.linalg.LinAlgError:
        return float("inf")
    logdet_middle = float(2.0 * np.sum(np.log(np.diag(factor))))
    return float(np.exp(0.5 * (p1.logdet - p2.logdet - logdet_middle)))


def finite_n_dominates(
    p0_sigma2: float, p1: ToeplitzGaussian, p2: ToeplitzGaussian
) -> bool:
    """True iff N(0, C1) is dominated by N(0, C2) w.r.t. N(0, s2 I) at this n."""
    return ratio_expectation(p0_sigma2, p1, p2) <= 1.0 + RATIO_TOLERANCE


def normal_blocks(n: int, trials: int, seed: int) -> Iterator[np.ndarray]:
    """Yield consecutive blocks of standard normal draws of dimension n.

    Block b holds trials b*SAMPLE_BLOCK onward and is generated from
    substream (seed, b) regardless of `trials`, so two runs with the same
    seed see identical draws sample-by-sample.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    for b, start in enumerate(range(0, trials, SAMPLE_BLOCK)):
        yield standard_normal_block(seed, b, min(SAMPLE_BLOCK, trials - start), n)


def white_blocks(sigma2: float, n: int, trials: int, seed: int) -> Iterator[np.ndarray]:
    """Blocks of null N(0, sigma2*I) draws, sqrt(sigma2)*z with no factorisation.

    Equal bit for bit to sample_gaussian(white_model(sigma2, n), trials, seed)
    split into blocks: the white factor is the diagonal sqrt(sigma2)*I.
    """
    scale = np.sqrt(sigma2)
    for z in normal_blocks(n, trials, seed):
        yield scale * z


def standard_normal_block(
    seed: int, block_index: int, size: int, n: int, block: int = SAMPLE_BLOCK
) -> np.ndarray:
    """Standard normal draws for substream (seed, block_index), shape (size, n).

    Shared across models so that detectors under comparison score coupled
    sample sets (the underlying white draws are identical).  Only `size` of
    the substream's `block` rows are drawn: the generator fills in order, so
    a short block equals the first rows of a full one.
    """
    if not 1 <= size <= block:
        raise ParameterError(f"block size must be in [1, {block}], got {size}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    return np.random.default_rng(ss).standard_normal((size, n))


def sample_gaussian(model: ToeplitzGaussian, trials: int, seed: int) -> np.ndarray:
    """Matrix of `trials` i.i.d. rows from the model, each block of
    `normal_blocks` mapped through the Cholesky factor; bit-reproducible."""
    return np.concatenate(
        [z @ model.factor.T for z in normal_blocks(model.n, trials, seed)], axis=0
    )

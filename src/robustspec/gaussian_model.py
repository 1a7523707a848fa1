"""Finite-dimensional Gaussian models with Toeplitz signal covariance.

A model is the zero-mean Gaussian with covariance C = sigma^2*I + Sigma_N,
where Sigma_N is the symmetric Toeplitz matrix built from the first n
autocovariance lags of a signal PSD.  Each model runs one `levinson_durbin`
pass at construction, in O(n^2): its prediction errors give log|C| and its
predictor gives C^{-1} by the Gohberg-Semencul formula.  `exponent.kl_rate`
runs the same pass without a model.

- The inverse algebra lives here alone, and no model keeps a matrix of it.
  `ToeplitzGaussian.whitener` reruns the pass to fill the triangular W with
  W C W^T = I, whose innovations W y `detection` scores, and
  `ToeplitzGaussian.inverse` sums C^{-1} down the diagonals of the model's
  Gohberg-Semencul generator for `gaussian_kl` and `quad_forms`.
- `ratio_expectations` sums the top ceil(n/2) rows of the difference of
  two generators the same way, and folds them into two half-size blocks.
- Sampling maps white draws through the dense Cholesky `factor` L, built on
  first read so that unsampled models never form it.
- `ToeplitzGaussian.null_weights` takes one dense eigvalsh of a leading block
  of the covariance: the weights of the white-null law of a prefix
  log-ratio, which `detection` thresholds exactly.
- Draws are seeded per block of SAMPLE_BLOCK rows and streamed in tiles of at
  most TILE_ROWS rows from the block's one generator, so a stream holds one
  tile at a time and the tiling never changes a draw.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NotPositiveDefiniteError, ParameterError, require_count, require_positive
from .errors import warn_fallback
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

#: Rows per tile, the unit of Monte Carlo work: a block is drawn, sampled and
#: scored TILE_ROWS rows at a time from its one generator.  At n = 8192 a tile
#: of normals is 32 MiB, where a whole block is 256 MiB.
TILE_ROWS = 512


@dataclass(frozen=True)
class ToeplitzGaussian:
    """Zero-mean Gaussian N(0, sigma2*I + Toeplitz(autocov)) of dimension n.

    `jitter` is the JITTER_LADDER rung that construction's one Durbin pass
    needed (0: none); `logdet`, `predictor`, `prediction_error` and the
    lazily built Cholesky `factor` all describe the covariance plus that
    jitter.
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
        require_count("n", self.n)
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
        try:
            factor = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError(
                f"covariance for PSD {self.label!r} is not positive definite (Cholesky)"
            ) from None
        factor.setflags(write=False)
        return factor

    def covariance(self, n: Optional[int] = None) -> np.ndarray:
        """Dense covariance sigma2*I + Sigma_N plus the model's jitter, the
        matrix `logdet`, `inverse` and `whitener` describe, or its leading
        n x n block.  Raises ParameterError naming `n` unless it is an
        integer in [1, self.n]."""
        if n is None:
            n = self.n
        require_count("n", n, self.n)
        lags = np.arange(n)
        cov = self.autocov[np.abs(lags[:, None] - lags)]
        cov[np.diag_indices(lags.size)] += self.sigma2
        cov[np.diag_indices(lags.size)] += JITTER_LADDER[self.jitter]
        return cov

    def null_weights(self, n: Optional[int] = None) -> np.ndarray:
        """Ascending eigenvalues lam of I - sigma2 C_n^{-1}, for C_n the leading
        n x n block (default: all) of the covariance plus the model's jitter.

        Under N(0, sigma2 I) the prefix log-ratio log p/p_0 (y_{<n}) is
        c(n) + (1/2) sum_i lam_i chi2_1, every lam in [0, 1): the law that
        `detection` thresholds exactly.  Eigenvalues of C_n that round below
        sigma2 would give lam of about -1e-15, so lam is clipped at 0.  One
        dense eigvalsh, O(n^3), on a new n x n array; n is checked as in
        `covariance`.
        """
        cov = self.covariance(n)
        return np.maximum(1.0 - self.sigma2 / np.linalg.eigvalsh(cov), 0.0)

    def inverse(self) -> np.ndarray:
        """C^{-1} of the covariance plus the model's jitter, summed from its
        `_inverse_generator` in O(n^2): a new array on each call, cached nowhere."""
        return _diagonal_sums(_inverse_generator(self))

    def whitener(self) -> Tuple[np.ndarray, np.ndarray]:
        """(W, errors), W = diag(errors)^{-1/2} U with W C W^T = I (C plus jitter)
        from a second Durbin pass that fills U, lower triangular, so that its
        leading blocks whiten every prefix of y.  A new array, cached nowhere."""
        r = np.array(self.autocov)
        r[0] = self.autocov[0] + self.sigma2 + JITTER_LADDER[self.jitter]
        rows = np.zeros((self.n, self.n))
        _, errors = levinson_durbin(r, self.label, rows)
        rows /= np.sqrt(errors)[:, np.newaxis]
        return rows, errors

    def quad_forms(self, samples: np.ndarray) -> np.ndarray:
        """y^T C^{-1} y for each row y of `samples`."""
        return np.einsum("ij,ij->i", samples @ self.inverse(), samples)


def _durbin_with_jitter(
    autocov: np.ndarray, sigma2: float, label: str
) -> Tuple[np.ndarray, np.ndarray, int]:
    """(predictor, errors, rung) of the first JITTER_LADDER rung whose r[0] =
    autocov[0] + sigma2 + jitter passes `levinson_durbin`, the one PD test.
    A rung above 0 is logged as a fallback."""
    r = np.array(autocov, dtype=float)
    for rung, jitter in enumerate(JITTER_LADDER):
        r[0] = autocov[0] + sigma2 + jitter
        try:
            a, errors = levinson_durbin(r, label)
        except NotPositiveDefiniteError:
            continue
        if rung:
            warn_fallback(
                "covariance for PSD %r at n=%d needed diagonal jitter %g to pass "
                "Levinson-Durbin", label, r.size, jitter,
            )
        return a, errors, rung
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
    trace = float(np.sum(q.inverse() * p.covariance()))
    return 0.5 * (trace - p.n + q.logdet - p.logdet)


def levinson_durbin(
    r: np.ndarray, label: str = "", rows: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Durbin's recursion on the symmetric Toeplitz matrix with first column r.

    Returns the order-(n-1) predictor a (a[0] = 1), which solves
    Toeplitz(r) a = errors[-1] * e_0, and the prediction errors
    errors[k] = |C_{k+1}| / |C_k| of the leading k+1 by k+1 blocks, so that
    log|C| = sum(log(errors)).  Raises NotPositiveDefiniteError naming
    `label` when an error is not finite and positive.  A zeroed n x n `rows`
    gets the order-k predictor reversed in row k: the unit lower-triangular U
    with U C U^T = diag(errors), row k mapping y to its k-th innovation.
    Raises ParameterError naming `r` unless it is a nonempty vector.
    """
    if np.ndim(r) != 1 or np.size(r) < 1:
        raise ParameterError(f"r must be a nonempty 1-D autocovariance, got shape {np.shape(r)}")
    n = r.size
    a = np.zeros(n)
    a[0] = 1.0
    errors = np.empty(n)
    error = float(r[0])
    # each step writes reflection * a[k-1::-1] into one scratch and adds it
    # in place, allocating nothing; the dot keeps its reversed view, since a
    # contiguous copy goes through BLAS ddot and changes the bits
    scratch = np.empty(n)
    for k in range(n):
        if k:
            reflection = -float(a[:k] @ r[k:0:-1]) / error
            step = np.multiply(a[k - 1 :: -1], reflection, out=scratch[:k])
            np.add(a[1 : k + 1], step, out=a[1 : k + 1])
            error *= 1.0 - reflection * reflection
        if not 0.0 < error < np.inf:
            raise NotPositiveDefiniteError(
                f"covariance for PSD {label!r} is not positive definite "
                f"(Levinson-Durbin prediction error {error:g} at order {k})"
            )
        errors[k] = error
        if rows is not None:
            rows[k, : k + 1] = a[k::-1]
    return a, errors


def _inverse_generator(model: ToeplitzGaussian, half: bool = False) -> np.ndarray:
    """G = (a a^T - b b^T) / eps with b = (0, a[n-1], ..., a[1]).

    a and eps are the model's predictor and last prediction error.  By the
    Gohberg-Semencul formula C^{-1} = (L(a) L(a)^T - L(b) L(b)^T) / eps for
    the lower-triangular Toeplitz L(.), so C^{-1}[i, j] is the sum of G down
    the diagonal from its edge to (i, j).  With half=True only the top
    ceil(n/2) rows of G are built: all that `ratio_expectations` reads.
    """
    a = model.predictor
    b = np.concatenate(([0.0], a[:0:-1]))
    rows = (model.n + 1) // 2 if half else model.n
    generator = np.outer(a[:rows], a)
    generator -= np.outer(b[:rows], b)
    generator /= model.prediction_error
    return generator


def _diagonal_sums(generator: np.ndarray) -> np.ndarray:
    """Running sums of `generator` down each diagonal, in place: C^{-1} from
    its generator G, or the top rows of C^{-1} from the same top rows of G.
    Returns `generator`."""
    for i in range(1, generator.shape[0]):
        generator[i, 1:] += generator[i - 1, :-1]
    return generator


def ratio_expectation(
    p0_sigma2: float, p1: ToeplitzGaussian, p2: ToeplitzGaussian
) -> float:
    """E_{N(0, s2 I)}[p2(Y)/p1(Y)]: the one entry of `ratio_expectations`."""
    return float(ratio_expectations(p0_sigma2, p1, [p2])[0])


def ratio_expectations(
    p0_sigma2: float, p1: ToeplitzGaussian, others: Sequence[ToeplitzGaussian]
) -> np.ndarray:
    """E_{N(0, s2 I)}[p2(Y)/p1(Y)] for each p2 in `others`, in closed form.

    Each is [|C1| / (|C2| |M|)]^{1/2} with M = I + s2 (C2^{-1} - C1^{-1}) for
    the covariances C_i of p_i.  The top ceil(n/2) rows of M come from the
    Gohberg-Semencul generators of the two inverses in O(n^2), with no
    recursion and no dense solve, p1's built once for all members, and
    `_folded_logdet` reads log|M| off them.  An entry is +inf when M is not
    positive definite (the defining integral diverges).
    """
    require_positive("p0_sigma2", p0_sigma2)
    if any(p2.n != p1.n for p2 in others):
        raise ParameterError(f"dimension mismatch: every model must have n={p1.n}")
    generator1 = _inverse_generator(p1, half=True)
    ratios = np.empty(len(others))
    for k, p2 in enumerate(others):
        # the generator of a difference of inverses is the difference of generators
        top = _inverse_generator(p2, half=True)
        top -= generator1
        top *= p0_sigma2
        _diagonal_sums(top)
        top[np.diag_indices(top.shape[0])] += 1.0  # the top rows of M
        ratios[k] = np.exp(0.5 * (p1.logdet - p2.logdet - _folded_logdet(top)))
        del top  # freed before the next member's generator: a lower memory peak
    return ratios


def _folded_logdet(top: np.ndarray) -> float:
    """log|M| from the top rows of M by the Cholesky factors of its `_fold`
    blocks; -inf when either is not positive definite (the ratio diverges)."""
    logdet = 0.0
    for block in _fold(top):
        try:
            factor = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            return -np.inf
        logdet += float(2.0 * np.sum(np.log(np.diag(factor))))
    return logdet


def _fold(top: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The even and odd blocks of a symmetric centrosymmetric M (J M J = M for
    the exchange J) from its top ceil(n/2) rows.

    With k = n // 2, A = M[:k, :k] and B = M[:k, n-k:], the orthogonal
    change to (y_top + J y_bot)/sqrt(2) and (y_top - J y_bot)/sqrt(2) makes
    M block diagonal, with blocks A + B J and A - B J; for odd n the middle
    coordinate joins the even block, its row and column scaled by sqrt(2).
    |M| is the product of their determinants.  Any matrix made of symmetric
    Toeplitz inverses and I, such as the middle matrix of
    `ratio_expectations`, is such an M.
    """
    n = top.shape[1]
    k = n // 2
    middle = n - k  # the even block's size, ceil(n/2)
    a, bj = top[:k, :k], top[:k, : middle - 1 : -1]
    even = np.empty((middle, middle))
    np.add(a, bj, out=even[:k, :k])
    if middle > k:
        even[:k, k] = even[k, :k] = np.sqrt(2.0) * top[:k, k]
        even[k, k] = top[k, k]
    return even, a - bj


def finite_n_dominates(
    p0_sigma2: float, p1: ToeplitzGaussian, p2: ToeplitzGaussian
) -> bool:
    """True iff N(0, C1) is dominated by N(0, C2) w.r.t. N(0, s2 I) at this n."""
    return ratio_expectation(p0_sigma2, p1, p2) <= 1.0 + RATIO_TOLERANCE


def block_generator(seed: int, block_index: int) -> np.random.Generator:
    """The generator of substream (seed, block_index): every draw of that
    block comes from it, in order.  Raises ParameterError naming `seed` or
    `block_index` unless it is a non-negative integer (of any size)."""
    for name, value in (("seed", seed), ("block_index", block_index)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise ParameterError(f"{name} must be a non-negative integer, got {value!r}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(block_index),))
    return np.random.default_rng(ss)


def seeded_tiles(
    trials: int, seed: int, draw: Callable[[np.random.Generator, int], np.ndarray]
) -> Iterator[np.ndarray]:
    """Yield draw(generator, rows) for consecutive tiles of `trials` rows.

    Block b holds trials b*SAMPLE_BLOCK onward and is drawn from
    block_generator(seed, b) regardless of `trials`, in tiles of at most
    TILE_ROWS rows one after another.  The generator fills in order, so the
    tiles of a block concatenate to the draws of the whole block, and a
    short block equals the first rows of a full one.  Callers check
    `trials` at the call, as `normal_blocks` does.
    """
    for b, start in enumerate(range(0, trials, SAMPLE_BLOCK)):
        generator = block_generator(seed, b)
        end = min(start + SAMPLE_BLOCK, trials)
        for first in range(start, end, TILE_ROWS):
            yield draw(generator, min(TILE_ROWS, end - first))


def normal_blocks(n: int, trials: int, seed: int) -> Iterator[np.ndarray]:
    """Tiles of standard normal draws of dimension n, seeded per block as
    `seeded_tiles`, so two runs with the same seed see identical draws
    sample by sample.  Raises ParameterError naming `n` or `trials` at the
    call unless it is an integer >= 1."""
    require_count("n", n)
    require_count("trials", trials)
    return seeded_tiles(trials, seed, lambda rng, rows: rng.standard_normal((rows, n)))


def white_blocks(sigma2: float, n: int, trials: int, seed: int) -> Iterator[np.ndarray]:
    """Tiles of null N(0, sigma2*I) draws, sqrt(sigma2)*z with no factorisation.

    Equal bit for bit to sample_gaussian(white_model(sigma2, n), trials, seed)
    split into tiles: the white factor is the diagonal sqrt(sigma2)*I.  Each
    tile is scaled in place, so no second copy of it is held.  Raises
    ParameterError naming `sigma2` at the call unless it is finite and > 0.
    """
    require_positive("sigma2", sigma2)
    scale = np.sqrt(sigma2)
    return (np.multiply(z, scale, out=z) for z in normal_blocks(n, trials, seed))


def standard_normal_block(
    seed: int, block_index: int, size: int, n: int, block: int = SAMPLE_BLOCK
) -> np.ndarray:
    """The first `size` of the `block` rows of substream (seed, block_index),
    shape (size, n), in one array: the rows that `normal_blocks` yields as
    the tiles of that block."""
    if not 1 <= size <= block:
        raise ParameterError(f"block size must be in [1, {block}], got {size}")
    return block_generator(seed, block_index).standard_normal((size, n))


def sample_blocks(
    models: Sequence[ToeplitzGaussian], trials: int, seed: int
) -> Iterator[np.ndarray]:
    """For each tile of `normal_blocks`, that tile mapped through each
    model's Cholesky factor in turn: every model is sampled from the same
    white draws, and each item is a (rows, n) array of at most TILE_ROWS rows."""
    for z in normal_blocks(models[0].n, trials, seed):
        for model in models:
            yield z @ model.factor.T


def sample_gaussian(model: ToeplitzGaussian, trials: int, seed: int) -> np.ndarray:
    """Matrix of `trials` i.i.d. rows from the model; bit-reproducible."""
    return np.concatenate(list(sample_blocks([model], trials, seed)))

"""The robustness game over mixture operating points on the simplex.

The engineer picks detector weights q, Nature picks an operating point r;
both live on the K-simplex.  The game value at the saddle is the normalized
KL divergence from the null to the least favorable mixture.  Newton steps on
the active face of a frozen sample-average objective locate it and stop on
the sample KKT condition; a closed-form KKT certificate verifies the
dominated singleton.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .detection import (
    MixtureWeights,
    _json_float,
    _log_sum_exp,
    _mixture_log_ratios,
    ratio_rows,
    sample_mixture_blocks,
)
from .errors import ParameterError, require_count, require_positive
from .gaussian_model import RATIO_TOLERANCE, ToeplitzGaussian, ratio_expectations

#: Default normalized tilt grid for Chernoff-type bounds: 41 points on [-2, 0].
DEFAULT_TILT_GRID = tuple(np.linspace(-2.0, 0.0, 41))

#: Halvings of a Newton step before `minimize_mixture_weights` gives up on it.
_BACKTRACKS = 40


@dataclass(frozen=True)
class KktCertificate:
    """First-order optimality certificate for the singleton operating point."""

    lam: float
    mu: np.ndarray
    max_violation: float
    singleton_verified: bool
    candidate_index: int
    diverged_indices: Tuple[int, ...] = ()

    def to_json(self) -> dict:
        """JSON form; a diverged member's mu and max_violation (infinite) are null."""
        return {
            "lambda": float(self.lam),
            "mu": [_json_float(m) for m in self.mu],
            "max_violation": _json_float(self.max_violation),
            "singleton_verified": bool(self.singleton_verified),
            "candidate_index": int(self.candidate_index),
            "diverged_indices": list(self.diverged_indices),
        }


def sample_average_kl(r: MixtureWeights, ratios: np.ndarray, n: int) -> float:
    """Sample-average (1/n) D(null || mixture r) from the log-ratio rows of a
    frozen null at dimension n, as `minimize_mixture_weights` reads them."""
    require_count("n", n)
    return float(-np.mean(_mixture_log_ratios(ratios, r.w))) / n


def minimize_mixture_weights(
    ratios: np.ndarray,
    n: int,
    init: MixtureWeights,
    max_iters: int = 200,
    tol: float = 1e-8,
) -> Tuple[MixtureWeights, float, dict]:
    """Minimize (1/n) mean[-log sum_k r_k p_k/p_0] over r on the simplex.

    `ratios` holds log(p_k/p_0) of the frozen null samples at dimension n,
    one row per sample and one column per model.  With m_k = mean(p_k/p_mix)
    at the current point, gaps records the Frank-Wolfe duality gap, which is
    (max_k m_k - 1)/n since sum_k r_k m_k = 1: the sample KKT residual of
    the point divided by n.  The solve stops when it is <= tol.  Otherwise
    it takes a Newton step on the active face (`_face_step`), cut by a ratio
    test that sets the member blocking it to exactly 0 and then halved
    until the objective rises by at most 1e-15; a step that cannot be cut
    that far ends the solve.  Returns (weights, value, trace) with
    per-iteration objectives and gaps, and `converged`, true iff the last
    gap is <= tol.
    """
    require_count("n", n)
    k = ratios.shape[1]
    if len(init) != k:
        raise ParameterError("init must match the number of models")
    if np.any(init.w < 1.0 / (10.0 * k)):
        raise ParameterError(f"init must be strictly interior (all >= 1/(10K))")
    x = init.w.copy()
    mix = _mixture_log_ratios(ratios, x)
    objectives = [float(-np.mean(mix)) / n]
    gaps: List[float] = []
    for _ in range(max_iters):
        p = np.exp(ratios - mix[:, np.newaxis])
        m = np.mean(p, axis=0)
        if not np.all(np.isfinite(m)):
            raise ParameterError("non-finite gradient in the mixture-weight step")
        grad = -m / n
        gap = float(grad @ x - np.min(grad))
        gaps.append(gap)
        if gap <= tol:
            break
        members, direction = _face_step(p, m, x)
        shrinking = direction < 0.0
        steps = x[members[shrinking]] / -direction[shrinking]
        t, block = 1.0, None
        if steps.size and np.min(steps) <= 1.0:
            first = np.argmin(steps)
            t, block = float(steps[first]), members[shrinking][first]
        for _ in range(_BACKTRACKS):
            candidate = x.copy()
            candidate[members] += t * direction
            if block is not None:
                candidate[block] = 0.0
            # a member that ties with the blocking one may round below 0
            candidate = np.maximum(candidate, 0.0)
            candidate /= np.sum(candidate)
            candidate_mix = _mixture_log_ratios(ratios, candidate)
            value = float(-np.mean(candidate_mix)) / n
            if value <= objectives[-1] + 1e-15:
                break
            t, block = 0.5 * t, None
        else:
            break
        x, mix = candidate, candidate_mix
        objectives.append(value)
    trace = {
        "objectives": objectives,
        "gaps": gaps,
        "iterations": len(gaps),
        "converged": bool(gaps) and gaps[-1] <= tol,
    }
    return MixtureWeights(x), objectives[-1], trace


def _face_step(
    p: np.ndarray, m: np.ndarray, x: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(members, direction): the Newton step of the objective on the face.

    `p` holds P = p_k/p_mix per sample and `m` its column means, the negated
    gradient; the Hessian is P^T P/rows.  The face is the support of x plus
    the inactive member with the largest m_k > 1, unless its own component
    of the step is not positive.
    """
    face = x > 0.0
    outside = np.where(face, -np.inf, m)
    entering = int(np.argmax(outside))
    enters = bool(outside[entering] > 1.0)
    face[entering] |= enters
    members = np.flatnonzero(face)
    direction = _newton_direction(p[:, members], m[members])
    entry = np.searchsorted(members, entering)
    if enters and direction[entry] <= 0.0:
        members = np.delete(members, entry)
        direction = _newton_direction(p[:, members], m[members])
    return members, direction


def _newton_direction(p: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The d with sum(d) = 0 that solves H d = m - lam*1 for some lam, where
    H = p^T p/rows.

    A ridge of 1e-12 trace(H) keeps a singular H, as from two equal members,
    factorable by Cholesky; the step has no component along a null direction
    with no gradient.  The right side m - 1 is small near the optimum, so y
    and lam*z below do not cancel.
    """
    size = p.shape[1]
    hessian = p.T @ p / p.shape[0]
    hessian[np.diag_indices(size)] += 1e-12 * np.trace(hessian)
    factor = np.linalg.cholesky(hessian)
    y, z = _cholesky_solve(factor, np.stack([m - 1.0, np.ones(size)], axis=1)).T
    return y - (np.sum(y) / np.sum(z)) * z


def _cholesky_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T x = rhs by forward and back substitution on the lower
    factor L: a face has at most K members, and numpy has no triangular
    solve to call in place of this loop."""
    x = np.array(rhs, dtype=float)
    size = factor.shape[0]
    for i in range(size):
        x[i] = (x[i] - factor[i, :i] @ x[:i]) / factor[i, i]
    for i in reversed(range(size)):
        x[i] = (x[i] - factor[i + 1 :, i] @ x[i + 1 :]) / factor[i, i]
    return x


def kkt_certificate(
    candidate_index: int,
    models: Sequence[ToeplitzGaussian],
    null_sigma2: float,
) -> KktCertificate:
    """Closed-form KKT verification that the candidate singleton is optimal.

    At the singleton the equality multiplier is 1/n and the inequality
    multiplier for member k is (1 - r_k)/n, with r_k = E_null[p_k/p_cand]
    from one `ratio_expectations` call and r = 1 at the candidate: no
    sampling.  A member whose r_k is infinite diverged; its mu is -inf and
    it makes max_violation infinite.
    """
    if not 0 <= candidate_index < len(models):
        raise ParameterError(f"candidate_index {candidate_index} out of range")
    require_positive("null_sigma2", null_sigma2)
    others = [model for k, model in enumerate(models) if k != candidate_index]
    ratios = ratio_expectations(null_sigma2, models[candidate_index], others)
    ratios = np.insert(ratios, candidate_index, 1.0)
    n = models[0].n
    max_violation = max(0.0, float(np.max(ratios)) - 1.0)
    return KktCertificate(
        lam=1.0 / n,
        mu=(1.0 - ratios) / n,
        max_violation=max_violation,
        singleton_verified=max_violation <= RATIO_TOLERANCE,
        candidate_index=candidate_index,
        diverged_indices=tuple(int(k) for k in np.flatnonzero(np.isinf(ratios))),
    )


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


def _utility(
    q: MixtureWeights,
    ratios0: np.ndarray,
    ratios1: np.ndarray,
    n: int,
    tilt_grid: Sequence[float],
) -> Tuple[float, float]:
    """(utility, SE) of detector q from the null and mixture log-ratio rows."""
    g0 = _mixture_log_ratios(ratios0, q.w) / n
    g1 = _mixture_log_ratios(ratios1, q.w) / n
    best, best_t = _chernoff_bound(float(np.mean(g0)), g1, n, tilt_grid)
    # delta-method SE at the chosen tilt
    se0 = abs(best_t) * float(np.std(g0)) / np.sqrt(len(g0))
    shifted = np.exp(best_t * n * g1 - np.max(best_t * n * g1))
    se1 = float(np.std(shifted) / (np.sqrt(len(g1)) * np.mean(shifted))) / n
    return best, float(np.hypot(se0, se1))


def utility(
    q: MixtureWeights,
    r: MixtureWeights,
    models: Sequence[ToeplitzGaussian],
    null_ratios: np.ndarray,
    h1_sample_seed: int,
    tilt_grid: Sequence[float] = DEFAULT_TILT_GRID,
    h1_trials: Optional[int] = None,
) -> Tuple[float, float]:
    """Game utility sup_{t<=0} [t E_null[g(.;q)] - (1/n) log E_mix(r)[e^{t n g(.;q)}]].

    Returns (value, se).  The null expectation reads the frozen null's
    log-ratio rows `null_ratios`; the mixture expectation is Monte Carlo over
    h1_trials draws (default len(null_ratios)), component choices and white
    draws derived from h1_sample_seed only (operating points are coupled).
    se is the delta-method standard error at the maximizing tilt.
    """
    trials = len(null_ratios) if h1_trials is None else h1_trials
    mixture = ratio_rows(sample_mixture_blocks(models, r, trials, h1_sample_seed), models)
    return _utility(q, null_ratios, mixture, models[0].n, tilt_grid)


def regularity_probe(
    r_star: MixtureWeights,
    r_dir: MixtureWeights,
    beta_ladder: Sequence[float],
    models: Sequence[ToeplitzGaussian],
    null_ratios: np.ndarray,
    h1_sample_seed: int,
    tilt_grid: Sequence[float] = DEFAULT_TILT_GRID,
    h1_trials: Optional[int] = None,
) -> List[dict]:
    """Utility gap of the saddle candidate under simplex perturbations.

    For each beta, perturbs the operating point toward r_dir and compares the
    best response (the perturbed log-likelihood ratio detector) against the
    unperturbed detector, on the frozen null's rows `null_ratios` and coupled
    mixture draws as `utility` takes them; both detectors score one set of
    mixture draws per beta.  Returns one record per beta: beta, gap, se.
    """
    betas = np.asarray(list(beta_ladder), dtype=float)
    if np.any(betas < 0.0):
        raise ParameterError("beta values must be >= 0")
    tilt_grid = tuple(tilt_grid)  # read twice per beta
    n = models[0].n
    trials = len(null_ratios) if h1_trials is None else h1_trials
    records = []
    for beta in betas:
        blend = MixtureWeights((1.0 - beta) * r_star.w + beta * r_dir.w)
        mixture = ratio_rows(sample_mixture_blocks(models, blend, trials, h1_sample_seed), models)
        best_response, se_a = _utility(blend, null_ratios, mixture, n, tilt_grid)
        candidate, se_b = _utility(r_star, null_ratios, mixture, n, tilt_grid)
        gap, se = float(best_response - candidate), float(np.hypot(se_a, se_b))
        records.append({"beta": float(beta), "gap": gap, "se": se})
    return records

"""Dominance relations for PMFs and for PSDs under a white-noise floor.

The central object is the spectral dominance margin

    (1/2pi) * int log(1 + phi*(w)[phi(w) - phi*(w)] / [sigma^2 + phi*(w)]^2) dw,

which must be nonnegative against every set member, with the log argument
bounded away from zero, for phi* to be the dominated PSD of the set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    AbsoluteContinuityError, ParameterError, UniquenessViolationError, require_positive,
)
from .spectral import PsdGrid, UncertaintySet, circle_mean

#: Smallest admissible value of the log argument before the boundedness
#: clause is declared violated.
BOUNDEDNESS_FLOOR = 1e-6

#: Margins in [-MARGIN_TOLERANCE, 0) are treated as zero to absorb
#: quadrature roundoff; the self-comparison margin is pinned to exactly 0.
MARGIN_TOLERANCE = 1e-9

#: Two qualifying members are "the same PSD" when their nodewise gap is below
#: this; otherwise uniqueness is violated.
PSD_EQUALITY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class DominanceReport:
    """Numerical certificate for the dominated-element test on a set."""

    boundedness_min: float
    dominated: bool
    per_member_margins: np.ndarray
    candidate_label: str = ""
    boundary: bool = False

    def to_json(self) -> dict:
        return {
            "candidate_label": self.candidate_label,
            "margins": [float(m) for m in self.per_member_margins],
            "boundedness_min": float(self.boundedness_min),
            "verdict": bool(self.dominated),
            "boundary": bool(self.boundary),
        }


def discrete_dominance_integral(
    p0: np.ndarray, p1: np.ndarray, p2: np.ndarray
) -> float:
    """Reference expectation of the density-ratio quotient on a finite support.

    Returns sum_x p0(x) * (p2(x)/p0(x)) / (p1(x)/p0(x)).  The first PMF is
    the reference; the second is dominated by the third iff the result <= 1.
    """
    p0, p1, p2 = (np.asarray(p, dtype=float) for p in (p0, p1, p2))
    if not (p0.shape == p1.shape == p2.shape):
        raise AbsoluteContinuityError("PMFs must share one finite support")
    for name, p in (("p0", p0), ("p1", p1), ("p2", p2)):
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ParameterError(f"{name} is not a probability mass function")
    support = p0 > 0.0
    if np.any(p1[~support] > 0) or np.any(p2[~support] > 0):
        raise AbsoluteContinuityError("p1, p2 must vanish wherever p0 vanishes")
    if np.any(p1[support] == 0.0):
        raise AbsoluteContinuityError("p1 must be positive wherever p0 is")
    return float(np.sum(p0[support] * p2[support] / p1[support]))


def sigma2_dominance_margin(
    phi_star: PsdGrid, phi: PsdGrid, sigma2: float
) -> Tuple[float, float]:
    """Spectral dominance margin of phi_star against phi at noise floor sigma2.

    Returns (margin, boundedness_min).  A margin of -inf signals that the
    log argument drops to 0 or below somewhere on the grid, i.e. the
    boundedness clause fails outright.
    """
    require_positive("sigma2", sigma2)
    if phi_star.grid_size != phi.grid_size:
        raise ParameterError("PSDs must share grid_size")
    s = phi_star.values
    arg = 1.0 + s * (phi.values - s) / (sigma2 + s) ** 2
    boundedness_min = float(arg.min())
    if boundedness_min <= 0.0:
        return float("-inf"), boundedness_min
    return circle_mean(np.log(arg)), boundedness_min


def find_dominated(
    uset: UncertaintySet, sigma2: float
) -> Tuple[Optional[int], Optional[DominanceReport]]:
    """Locate the unique member dominated by every other member, if any.

    Row j of one K x K table holds member j's margins against every member
    and their smallest log argument (1.0 for a one-member set).  The first
    row with every margin >= 0 and that minimum >= BOUNDEDNESS_FLOOR gives
    (index, report); a later one for a distinct PSD raises
    UniquenessViolationError.  Returns (None, None) when no row qualifies.
    """
    require_positive("sigma2", sigma2)
    members = uset.members
    k = len(members)
    margins, bounds = np.zeros((k, k)), np.full((k, k), np.inf)
    for j, i in itertools.permutations(range(k), 2):
        margins[j, i], bounds[j, i] = sigma2_dominance_margin(
            members[j], members[i], sigma2
        )
    margins[(-MARGIN_TOLERANCE <= margins) & (margins < 0.0)] = 0.0
    bmin = bounds.min(axis=1) if k > 1 else np.ones(1)
    qualifiers = np.flatnonzero(
        np.all(margins >= 0.0, axis=1) & (bmin >= BOUNDEDNESS_FLOOR)
    )
    if qualifiers.size == 0:
        return None, None
    first = int(qualifiers[0])
    gaps = np.array([np.max(np.abs(psd.values - members[first].values)) for psd in members])
    distinct = qualifiers[gaps[qualifiers] > PSD_EQUALITY_TOLERANCE]
    if distinct.size:
        raise UniquenessViolationError(
            f"members {first} and {distinct[0]} both qualify but differ "
            f"by {gaps[distinct[0]]:g} on the grid; check tolerances"
        )
    return first, DominanceReport(
        boundedness_min=float(bmin[first]),
        dominated=True,
        per_member_margins=margins[first],
        candidate_label=members[first].label,
        boundary=bool(np.any((margins[first] == 0.0) & (gaps > PSD_EQUALITY_TOLERANCE))),
    )


def flat_psd_criterion(phi: PsdGrid, rho: float, sigma2: float) -> bool:
    """Sufficient condition for a flat PSD of level rho*sigma2 to be dominated.

    True iff (1/2pi) int log[phi/sigma2 + (1+2rho)/rho] dw >= log[(1+rho)^2/rho].
    """
    require_positive("rho", rho)
    require_positive("sigma2", sigma2)
    lhs = circle_mean(np.log(phi.values / sigma2 + (1.0 + 2.0 * rho) / rho))
    rhs = float(np.log((1.0 + rho) ** 2 / rho))
    return lhs >= rhs - 1e-12


def low_snr_criterion(phi_star: PsdGrid, phi: PsdGrid) -> bool:
    """Weak-signal surrogate: int [phi*]^2 <= int phi* * phi."""
    if phi_star.grid_size != phi.grid_size:
        raise ParameterError("PSDs must share grid_size")
    lhs = circle_mean(phi_star.values**2)
    rhs = circle_mean(phi_star.values * phi.values)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return lhs <= rhs + 1e-12 * scale

"""Dominance relations for PMFs and for PSDs under a white-noise floor.

The central object is the spectral dominance margin

    (1/2pi) * int log(1 + phi*(w)[phi(w) - phi*(w)] / [sigma^2 + phi*(w)]^2) dw,

which must be nonnegative against every set member, with the log argument
bounded away from zero, for phi* to be the dominated PSD of the set.
"""

from __future__ import annotations

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

    margin: float
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
    uset: UncertaintySet,
    sigma2: float,
    boundedness_floor: float = BOUNDEDNESS_FLOOR,
) -> Tuple[Optional[int], Optional[DominanceReport]]:
    """Locate the unique member dominated by every other member, if any.

    Scans every candidate (uniqueness is a theorem for valid inputs, so a
    second distinct qualifier raises UniquenessViolationError) and returns
    (index, report), or (None, None) when no member qualifies.
    """
    require_positive("sigma2", sigma2)
    qualifiers = []
    for j, candidate in enumerate(uset.members):
        margins = np.empty(len(uset))
        bmin = np.inf
        for k, member in enumerate(uset.members):
            if k == j:
                margins[k] = 0.0
                continue
            m, b = sigma2_dominance_margin(candidate, member, sigma2)
            margins[k] = 0.0 if -MARGIN_TOLERANCE <= m < 0.0 else m
            bmin = min(bmin, b)
        bmin = 1.0 if bmin == np.inf else bmin
        if np.all(margins >= 0.0) and bmin >= boundedness_floor:
            boundary = any(
                margins[k] == 0.0
                and float(np.max(np.abs(uset.members[k].values - candidate.values)))
                > PSD_EQUALITY_TOLERANCE
                for k in range(len(uset))
                if k != j
            )
            report = DominanceReport(
                margin=float(margins.min()),
                boundedness_min=bmin,
                dominated=True,
                per_member_margins=margins,
                candidate_label=candidate.label,
                boundary=boundary,
            )
            qualifiers.append((j, report))
    if not qualifiers:
        return None, None
    first_idx, first_report = qualifiers[0]
    for other_idx, _ in qualifiers[1:]:
        gap = float(
            np.max(
                np.abs(
                    uset.members[other_idx].values - uset.members[first_idx].values
                )
            )
        )
        if gap > PSD_EQUALITY_TOLERANCE:
            raise UniquenessViolationError(
                f"members {first_idx} and {other_idx} both qualify but differ "
                f"by {gap:g} on the grid; check tolerances"
            )
    return first_idx, first_report


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

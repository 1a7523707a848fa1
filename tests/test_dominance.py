import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import prop_suites
from conftest import MASTER_SEED, MODULE_CASES, flat_set
from robustspec.dominance import (
    discrete_dominance_integral,
    find_dominated,
    flat_psd_criterion,
    low_snr_criterion,
    sigma2_dominance_margin,
)
import robustspec.dominance
from robustspec.errors import (
    AbsoluteContinuityError, ParameterError, UniquenessViolationError,
)
from robustspec.spectral import UncertaintySet, make_psd


def pmf_triples(max_size=16):
    """Three strictly positive PMFs on a shared support."""

    def normalize(raw):
        arr = np.asarray(raw, dtype=float) + 1e-3
        return arr / arr.sum()

    return st.integers(min_value=2, max_value=max_size).flatmap(
        lambda size: st.tuples(
            *(
                st.lists(
                    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                    min_size=size,
                    max_size=size,
                )
                for _ in range(3)
            )
        ).map(lambda triple: tuple(normalize(t) for t in triple))
    )


class TestDiscreteDominance:
    def test_identical_pmfs_give_one(self):
        p = np.array([0.2, 0.3, 0.5])
        assert discrete_dominance_integral(p, p, p) == pytest.approx(1.0, abs=1e-15)

    def test_two_point_counterexample_both_orderings(self):
        p0 = np.array([0.5, 0.5])
        p1 = np.array([0.9, 0.1])
        p2 = np.array([0.1, 0.9])
        assert discrete_dominance_integral(p0, p1, p2) == pytest.approx(
            41.0 / 9.0, abs=1e-12
        )
        assert discrete_dominance_integral(p0, p2, p1) == pytest.approx(
            41.0 / 9.0, abs=1e-12
        )

    def test_uniform_reference_direct_sum(self):
        p0 = np.array([0.5, 0.5])
        p1 = np.array([0.5, 0.5])
        p2 = np.array([0.9, 0.1])
        assert discrete_dominance_integral(p0, p1, p2) == pytest.approx(1.0, abs=1e-15)

    def test_support_mismatch_rejected(self):
        with pytest.raises(AbsoluteContinuityError):
            discrete_dominance_integral(
                np.array([0.5, 0.5]), np.array([1.0 / 3] * 3), np.array([1.0 / 3] * 3)
            )

    def test_absolute_continuity_enforced(self):
        p0 = np.array([1.0, 0.0])
        leak = np.array([0.5, 0.5])
        with pytest.raises(AbsoluteContinuityError):
            discrete_dominance_integral(p0, leak, np.array([1.0, 0.0]))
        with pytest.raises(AbsoluteContinuityError):
            discrete_dominance_integral(
                np.array([0.5, 0.5]), np.array([1.0, 0.0]), np.array([0.5, 0.5])
            )

    def test_non_pmf_rejected(self):
        with pytest.raises(ParameterError):
            discrete_dominance_integral(
                np.array([0.6, 0.6]), np.array([0.5, 0.5]), np.array([0.5, 0.5])
            )

    @settings(max_examples=200, deadline=None)
    @seed(MASTER_SEED)
    @given(pmf_triples())
    def test_sum_of_orderings_at_least_two(self, triple):
        p0, p1, p2 = triple
        total = discrete_dominance_integral(p0, p1, p2) + discrete_dominance_integral(
            p0, p2, p1
        )
        assert total >= 2.0 - 1e-12

    @settings(max_examples=200, deadline=None)
    @seed(MASTER_SEED)
    @given(pmf_triples())
    def test_orderings_never_both_strictly_dominated(self, triple):
        p0, p1, p2 = triple
        fwd = discrete_dominance_integral(p0, p1, p2)
        rev = discrete_dominance_integral(p0, p2, p1)
        if fwd <= 1.0 and rev <= 1.0:
            assert np.allclose(p1, p2, atol=1e-9)


class TestSpectralMargin:
    def test_self_margin_is_zero(self):
        psd = make_psd("rational_ar1", grid_size=256, variance=1.0, pole=0.4)
        margin, bmin = sigma2_dominance_margin(psd, psd, 1.0)
        assert margin == pytest.approx(0.0, abs=1e-15)
        assert bmin == pytest.approx(1.0, abs=1e-15)

    def test_flat_pair_closed_form(self):
        one, two = flat_set([1.0, 2.0])
        margin, bmin = sigma2_dominance_margin(one, two, 1.0)
        assert margin == pytest.approx(np.log(1.25), abs=1e-12)
        assert bmin == pytest.approx(1.25, abs=1e-12)

    def test_pointwise_lower_member_has_nonnegative_margin(self, rng):
        for _ in range(20):
            sigma2 = rng.uniform(0.5, 2.0)
            star, phi = prop_suites.dominated_pair(rng, sigma2, min_margin=0.0)
            margin, _ = sigma2_dominance_margin(star, phi, sigma2)
            assert margin >= 0.0

    def test_boundedness_floor_degrades_for_extreme_spectra(self):
        # the log argument is provably positive for nonnegative spectra, but
        # huge candidate levels push it below the admissibility floor
        from robustspec.dominance import BOUNDEDNESS_FLOOR

        big, small = flat_set([3e7, 0.0])
        margin, bmin = sigma2_dominance_margin(big, small, 1.0)
        assert 0.0 < bmin < BOUNDEDNESS_FLOOR
        assert np.isfinite(margin) and margin < 0.0

    def test_invalid_sigma2(self):
        one, two = flat_set([1.0, 2.0])
        with pytest.raises(ParameterError):
            sigma2_dominance_margin(one, two, 0.0)


class TestFindDominated:
    def test_flat_family_picks_smallest(self):
        uset = UncertaintySet(members=flat_set([1.0, 2.0, 3.0]))
        idx, report = find_dominated(uset, 1.0)
        assert idx == 0
        assert report.dominated and not report.boundary
        assert report.per_member_margins[0] == 0.0
        assert np.all(report.per_member_margins >= 0.0)

    def test_singleton(self):
        uset = UncertaintySet(members=flat_set([1.5]))
        idx, report = find_dominated(uset, 1.0)
        assert idx == 0
        assert np.array_equal(report.per_member_margins, [0.0])

    def test_mirror_pair_has_no_dominated_member(self):
        a = make_psd("raised_cosine", grid_size=512, peak=2.0, center=0.0, width=1.2)
        b = make_psd(
            "raised_cosine", grid_size=512, peak=2.0, center=np.pi, width=1.2
        )
        idx, report = find_dominated(UncertaintySet(members=(a, b)), 1.0)
        assert idx is None and report is None
        assert sigma2_dominance_margin(a, b, 1.0)[0] < 0.0
        assert sigma2_dominance_margin(b, a, 1.0)[0] < 0.0

    def test_near_identical_qualifiers_violate_uniqueness(self):
        # both margins snap to 0, yet the members differ by more than
        # PSD_EQUALITY_TOLERANCE
        uset = UncertaintySet(members=flat_set([1.0, 1.0 + 1e-10]))
        with pytest.raises(UniquenessViolationError):
            find_dominated(uset, 1.0)

    def test_identical_members_give_first_index(self):
        uset = UncertaintySet(members=flat_set([1.0, 1.0]))
        idx, report = find_dominated(uset, 1.0)
        assert idx == 0
        assert not report.boundary

    def test_zero_psd_is_a_boundary_dominated_member(self):
        flat1 = make_psd("flat", grid_size=256, level=1.0, label="f1")
        zero = make_psd("tabulated", grid_size=256, values=np.zeros(256), label="zero")
        idx, report = find_dominated(UncertaintySet(members=(flat1, zero)), 1.0)
        assert idx == 1
        assert report.boundary
        assert np.array_equal(report.per_member_margins, [0.0, 0.0])
        assert report.boundedness_min == 1.0

    def test_one_margin_per_ordered_pair_in_row_order(self, monkeypatch):
        original = robustspec.dominance.sigma2_dominance_margin
        pairs = []

        def recording(phi_star, phi, sigma2):
            pairs.append((phi_star.label, phi.label))
            return original(phi_star, phi, sigma2)

        monkeypatch.setattr(robustspec.dominance, "sigma2_dominance_margin", recording)
        uset = UncertaintySet(members=flat_set([1.0, 2.0, 3.0]))
        assert find_dominated(uset, 1.0)[0] == 0
        labels = [psd.label for psd in uset.members]
        assert pairs == [(a, b) for a in labels for b in labels if a != b]

    def test_report_serialization(self):
        uset = UncertaintySet(members=flat_set([1.0, 2.0]))
        _, report = find_dominated(uset, 1.0)
        doc = report.to_json()
        assert set(doc) == {
            "candidate_label",
            "margins",
            "boundedness_min",
            "verdict",
            "boundary",
        }
        assert doc["verdict"] is True
        assert doc["candidate_label"] == "flat1"


class TestCriteria:
    @pytest.mark.parametrize("rho", [0.25, 1.0, 4.0])
    def test_flat_criterion_equality_case(self, rho):
        phi = make_psd("flat", grid_size=64, level=rho * 1.0)
        assert flat_psd_criterion(phi, rho, 1.0)

    def test_flat_criterion_scalar_cases(self):
        assert flat_psd_criterion(make_psd("flat", grid_size=64, level=3.0), 1.0, 1.0)
        assert not flat_psd_criterion(
            make_psd("flat", grid_size=64, level=0.1), 1.0, 1.0
        )

    def test_flat_criterion_implies_margin(self, rng):
        # sufficiency cross-check against the integral margin
        rho, sigma2 = 1.0, 1.0
        star = make_psd("flat", grid_size=256, level=rho * sigma2)
        for _ in range(30):
            phi = prop_suites.random_psd(rng)
            if flat_psd_criterion(phi, rho, sigma2):
                margin, _ = sigma2_dominance_margin(star, phi, sigma2)
                assert margin >= -1e-9

    def test_low_snr_scalar_cases(self):
        one, two = flat_set([1.0, 2.0])
        assert low_snr_criterion(one, one)
        assert low_snr_criterion(one, two)
        assert not low_snr_criterion(two, one)

    def test_low_snr_agrees_with_margin_at_high_noise(self, rng):
        for _ in range(20):
            a = prop_suites.random_smooth_psd(rng)
            b = prop_suites.random_smooth_psd(rng)
            sigma2 = 100.0 * max(a.values.max(), b.values.max(), 1.0)
            margin, _ = sigma2_dominance_margin(a, b, sigma2)
            if abs(margin) < 1e-12:
                continue
            assert low_snr_criterion(a, b) == (margin > 0)


class TestInvariantSuites:
    def test_margin_antisymmetry_property(self):
        prop_suites.check_margin_antisymmetry(MASTER_SEED, MODULE_CASES)

    def test_envelope_sufficiency_property(self):
        prop_suites.check_envelope_sufficiency(MASTER_SEED, MODULE_CASES)

    def test_pmf_properties(self):
        prop_suites.check_pmf_antisymmetry(MASTER_SEED, MODULE_CASES)
        prop_suites.check_pmf_am_bound(MASTER_SEED, MODULE_CASES)

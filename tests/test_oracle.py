"""The profile objective and the certificate of a fit."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from dualfit import (
    Dataset,
    FitConfig,
    FittedLine,
    OracleReport,
    SufficientStats,
    compute_stats,
    fit_stats,
    intercept,
    sse,
    verify_fit,
)
from dualfit.errors import InvalidInput, NonPositiveCorrelation

from conftest import exact_profile, exact_quartic_terms, random_dataset, sse_per_point


def _symmetric_unit_stats():
    return SufficientStats(n=2, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1.0, s_xy=1.0, rho=1.0)


def _profile(stats, beta1, gamma):
    """The objective as a function of the slope, the intercept on the centroid line."""
    return sse(stats, intercept(stats, beta1), beta1, gamma)


# ---- profile objective ------------------------------------------------------


def test_profile_zero_on_exact_line():
    stats = compute_stats(Dataset.from_points([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]))
    for gamma in (0.1, 0.5, 0.9):
        assert _profile(stats, 1.0, gamma) == 0.0


def test_profile_dips_at_fitted_slope(reference_stats):
    center = _profile(reference_stats, 0.6612, 0.9)
    assert center <= _profile(reference_stats, 0.5, 0.9)
    assert center <= _profile(reference_stats, 1.5, 0.9)


def test_profile_agrees_with_per_point_sum(reference_data, reference_stats):
    got = _profile(reference_stats, 1.0, 0.5)
    want = sse_per_point(reference_data, intercept(reference_stats, 1.0), 1.0, 0.5)
    assert got == pytest.approx(want, rel=1e-10)
    assert intercept(reference_stats, 1.0) == -0.25


# ---- the certified minimizer -------------------------------------------------


def test_certified_reference_minimizer(reference_stats):
    config = FitConfig(gamma=0.9)
    report = verify_fit(reference_stats, fit_stats(reference_stats, config), config)
    assert report.certified
    assert report.oracle_slope == pytest.approx(0.6612, abs=1e-4)


def test_certified_symmetric_stats():
    stats = _symmetric_unit_stats()
    config = FitConfig(gamma=0.5)
    report = verify_fit(stats, fit_stats(stats, config), config)
    assert report.certified and report.oracle_slope == 1.0
    assert report.gradient_max_rel_err == 0.0


def test_exact_gradient_vanishes_on_exact_line():
    # y = 1 + 2x: s_xx = 2, s_xy = 4, s_yy = 8, so b^3 P'(b) / 2 is 0 at b = 2
    stats = compute_stats(Dataset.from_points([(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]))
    for gamma in (0.0, 0.5, 1.0):
        config = FitConfig(gamma=gamma)
        line = fit_stats(stats, config)
        report = verify_fit(stats, line, config)
        assert line.beta1 == 2.0 and report.certified
        assert report.gradient_max_rel_err == 0.0


# ---- the certificate against rational arithmetic -----------------------------


def _ulps_away(b, ulps):
    t = b
    for _ in range(abs(ulps)):
        t = math.nextafter(t, math.copysign(math.inf, ulps))
    return t


def _rational_report(stats, b, gamma):
    """verify_fit's bracket, choice and gradient for a positive correlation, in Fractions."""
    below, above = _ulps_away(b, -8), _ulps_away(b, 8)
    best = -b
    if b > 0.0:
        best = b
        for t in (below, above):
            if exact_profile(stats, gamma, t) < exact_profile(stats, gamma, best):
                best = t
    terms = exact_quartic_terms(stats, gamma, b)
    gradient = abs(sum(terms)) / sum(abs(term) for term in terms)
    return (below, above), best, float(gradient)


def _assert_rational(stats, b, gamma):
    report = verify_fit(stats, FittedLine(0.0, b, gamma, 1.0), FitConfig(gamma=gamma))
    bracket, best, gradient = _rational_report(stats, b, gamma)
    assert (report.bracket, report.oracle_slope, report.gradient_max_rel_err) == (
        bracket,
        best,
        gradient,
    )
    return report


# the finite-difference gradient refused these slopes, whose square or cube is
# subnormal, and was finite at 1e-100; the certificate's integers are exact
# at all of them, and point up towards the minimum near 0.66
@pytest.mark.parametrize("slope", [1e-170, -1.49e-154, 1e-120, -1.5e-154, 1e-100, -1e-100])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_exact_gradient_where_a_power_of_the_slope_is_subnormal(reference_stats, slope, gamma):
    report = _assert_rational(reference_stats, slope, gamma)
    assert not report.certified
    assert report.oracle_slope == (report.bracket[1] if slope > 0.0 else -slope)
    assert 0.0 < report.gradient_max_rel_err <= 1.0


# the central differences straddled the pole at 0 near these slopes; the
# 8-ulp bracket of a subnormal slope crosses 0, or (at 4e-323) ends on it
@pytest.mark.parametrize("slope", [5e-7, -5e-7, 1e-6, -1e-6, 5e-324, -5e-324, 4e-323])
@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_exact_comparison_near_a_slope_of_zero(slope, gamma):
    stats = compute_stats(Dataset.from_points([(0, 0.1), (1, 1.2), (2, 1.9), (3, 3.2)]))
    report = _assert_rational(stats, slope, gamma)
    assert report.bracket[0] < slope < report.bracket[1]
    assert not report.certified and report.oracle_slope != 0.0


def test_exact_gradient_at_random_slopes():
    rng = np.random.default_rng(77)
    for _ in range(100):
        stats = compute_stats(random_dataset(rng))
        if stats.rho <= 0.0:
            continue
        _assert_rational(stats, rng.uniform(0.1, 3.0), rng.uniform(0.05, 0.95))


# ---- verify_fit --------------------------------------------------------------


def test_verify_reference(reference_stats):
    config = FitConfig(gamma=0.9)
    line = fit_stats(reference_stats, config)
    report = verify_fit(reference_stats, line, config)
    assert report.abs_gap <= 1e-6 * (1.0 + abs(line.beta1))
    assert report.gradient_max_rel_err <= 1e-6
    assert report.bracket[0] < line.beta1 < report.bracket[1]
    assert 0 < report.profile_evals <= 200


def test_verify_endpoint_skips_search(reference_stats):
    # no weight is searched: the endpoint closed forms are certified like the rest
    s = reference_stats
    for gamma, closed_form in ((1.0, s.s_xy / s.s_xx), (0.0, s.s_yy / s.s_xy)):
        config = FitConfig(gamma=gamma)
        report = verify_fit(s, fit_stats(s, config), config)
        assert report.certified and report.profile_evals == 3
        assert report.oracle_slope == closed_form
        assert report.abs_gap == 0.0


def test_verify_eval_budget_random():
    rng = np.random.default_rng(321)
    for _ in range(10):
        stats = compute_stats(random_dataset(rng))
        for gamma in (0.1, 0.5, 0.9):
            config = FitConfig(gamma=gamma)
            line = fit_stats(stats, config)
            report = verify_fit(stats, line, config)
            assert report.profile_evals <= 200
            assert report.abs_gap <= 1e-6 * (1.0 + abs(line.beta1))


def test_verify_reflect_policy_fit(reference_data):
    mirrored = Dataset(reference_data.x, -reference_data.y)
    stats = compute_stats(mirrored)
    straight_stats = compute_stats(reference_data)
    for gamma in (0.0, 0.3, 0.9, 1.0):
        config = FitConfig(gamma=gamma, negative_correlation_policy="reflect")
        line = fit_stats(stats, config)
        report = verify_fit(stats, line, config)
        assert line.beta1 < 0.0
        assert report.abs_gap <= 1e-6 * (1.0 + abs(line.beta1))
        assert report.gradient_max_rel_err <= 1e-6
        assert report.bracket[0] < line.beta1 < report.bracket[1]
        # the report of (x, -y) is that of (x, y), mirrored exactly
        straight = FitConfig(gamma=gamma)
        expected = verify_fit(straight_stats, fit_stats(straight_stats, straight), straight)
        assert report.oracle_slope == -expected.oracle_slope
        assert report.bracket == (-expected.bracket[1], -expected.bracket[0])
        assert report.profile_evals == expected.profile_evals


def test_verify_negative_data_needs_reflect_policy(reference_data):
    stats = compute_stats(Dataset(reference_data.x, -reference_data.y))
    line = fit_stats(stats, FitConfig(gamma=0.5, negative_correlation_policy="reflect"))
    with pytest.raises(NonPositiveCorrelation):
        verify_fit(stats, line, FitConfig(gamma=0.5))


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, -0.5, 2.0])
def test_verify_refuses_a_line_whose_gamma_is_not_a_weight(reference_stats, gamma):
    # a weight outside [0, 1] counts one residual negatively, and a NaN or an
    # infinite one has no integer frame
    line = FittedLine(0.0, 0.6612043117, gamma, 1.0)
    with pytest.raises(InvalidInput, match=rf"^gamma must lie in \[0, 1\], got {gamma}$"):
        verify_fit(reference_stats, line, FitConfig(gamma=0.9))


@pytest.mark.parametrize("gamma", ["0.5", None, 1j])
def test_verify_refuses_a_line_whose_gamma_is_not_a_number(reference_stats, gamma):
    line = FittedLine(0.0, 1.0, gamma, 0.0)
    message = f"^gamma must be a number, got {re.escape(repr(gamma))}$"
    with pytest.raises(InvalidInput, match=message):
        verify_fit(reference_stats, line, FitConfig(gamma=0.5))


@pytest.mark.parametrize("beta1", [0.0, math.inf, math.nan])
def test_verify_refuses_a_line_whose_slope_is_zero_or_not_finite(reference_stats, beta1):
    # the certificate's integer frame needs a finite, nonzero slope
    line = FittedLine(0.0, beta1, 0.9, 1.0)
    with pytest.raises(InvalidInput, match=rf"^a fitted slope is finite and nonzero, got {beta1}$"):
        verify_fit(reference_stats, line, FitConfig(gamma=0.9))


def test_oracle_report_validation():
    with pytest.raises(InvalidInput):
        OracleReport(
            oracle_slope=1.0,
            quartic_slope=1.0,
            abs_gap=0.0,
            profile_evals=10,
            bracket=(2.0, 1.0),
            gradient_max_rel_err=0.0,
        )
    with pytest.raises(InvalidInput):
        OracleReport(
            oracle_slope=1.0,
            quartic_slope=1.0,
            abs_gap=0.5,
            profile_evals=10,
            bracket=(0.5, 2.0),
            gradient_max_rel_err=0.0,
        )
    with pytest.raises(InvalidInput):
        OracleReport(
            oracle_slope=1.0,
            quartic_slope=1.0,
            abs_gap=0.0,
            profile_evals=-1,
            bracket=(0.5, 2.0),
            gradient_max_rel_err=0.0,
        )


def test_oracle_report_refuses_a_negative_gradient_error():
    with pytest.raises(InvalidInput, match="^gradient error cannot be negative$"):
        OracleReport(1.0, 1.0, 0.0, 3, (0.5, 1.5), -1.0)

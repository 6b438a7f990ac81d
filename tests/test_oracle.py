"""Independent profile search and gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from dualfit import (
    Dataset,
    FitConfig,
    OracleReport,
    SufficientStats,
    check_gradient,
    compute_stats,
    fit,
    fit_stats,
    intercept,
    minimize_profile,
    profile_sse,
    verify_fit,
)
from dualfit.errors import (
    BracketFailure,
    InvalidInput,
    NonPositiveCorrelation,
    SingularSlope,
)

from conftest import random_dataset, sse_per_point


def _symmetric_unit_stats():
    return SufficientStats(n=2, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1.0, s_xy=1.0, rho=1.0)


# ---- profile objective ------------------------------------------------------


def test_profile_zero_on_exact_line():
    stats = compute_stats(Dataset.from_points([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]))
    for gamma in (0.1, 0.5, 0.9):
        assert profile_sse(stats, 1.0, gamma) == 0.0


def test_profile_dips_at_fitted_slope(reference_stats):
    center = profile_sse(reference_stats, 0.6612, 0.9)
    assert center <= profile_sse(reference_stats, 0.5, 0.9)
    assert center <= profile_sse(reference_stats, 1.5, 0.9)


def test_profile_agrees_with_per_point_sum(reference_data, reference_stats):
    got = profile_sse(reference_stats, 1.0, 0.5)
    want = sse_per_point(reference_data, intercept(reference_stats, 1.0), 1.0, 0.5)
    assert got == pytest.approx(want, rel=1e-10)
    assert intercept(reference_stats, 1.0) == -0.25


# ---- golden-section search ---------------------------------------------------


def test_minimize_reference(reference_stats):
    assert minimize_profile(reference_stats, 0.9) == pytest.approx(0.6612, abs=1e-4)


def test_minimize_symmetric_stats():
    assert minimize_profile(_symmetric_unit_stats(), 0.5) == pytest.approx(1.0, abs=1e-6)


def test_minimize_matches_quartic_path(reference_stats):
    line = fit_stats(reference_stats, FitConfig(gamma=0.5))
    assert abs(minimize_profile(reference_stats, 0.5) - line.beta1) <= 1e-6


def test_minimize_rejects_endpoint_gamma(reference_stats):
    with pytest.raises(InvalidInput):
        minimize_profile(reference_stats, 0.0)
    with pytest.raises(InvalidInput):
        minimize_profile(reference_stats, 1.0)
    with pytest.raises(InvalidInput):
        minimize_profile(reference_stats, 0.5, tol=0.0)


def test_minimize_needs_positive_correlation():
    stats = SufficientStats(
        n=3, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1.0, s_xy=-0.5, rho=-0.5
    )
    with pytest.raises(NonPositiveCorrelation):
        minimize_profile(stats, 0.5)


def test_bracket_failure_on_hostile_objective(reference_stats, monkeypatch):
    # Concave stand-in for the bound objective pushes the minimum to the
    # bracket edge.
    monkeypatch.setattr(
        "dualfit.oracle._objective",
        lambda stats, gamma: lambda beta0, beta1: -((beta1 - 1.0) ** 2),
    )
    with pytest.raises(BracketFailure):
        minimize_profile(reference_stats, 0.9)


# ---- gradient probe ----------------------------------------------------------


def test_gradient_zero_on_exact_line():
    stats = compute_stats(Dataset.from_points([(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]))
    assert check_gradient(stats, 1.0, 2.0, 0.5) <= 1e-9


def test_gradient_reference_point(reference_stats):
    assert check_gradient(reference_stats, 0.1, 0.8, 0.5) <= 1e-6


def test_gradient_random_points():
    rng = np.random.default_rng(77)
    for _ in range(100):
        stats = compute_stats(random_dataset(rng))
        beta1 = rng.uniform(0.1, 3.0)
        beta0 = rng.uniform(-3.0, 3.0)
        gamma = rng.uniform(0.05, 0.95)
        assert check_gradient(stats, beta0, beta1, gamma) <= 1e-6


def test_gradient_rejects_singular_slope(reference_stats):
    with pytest.raises(SingularSlope):
        check_gradient(reference_stats, 0.0, 0.0, 0.5)
    with pytest.raises(SingularSlope):
        check_gradient(reference_stats, 0.0, 1e-6, 0.5, step=1e-6)


@pytest.mark.parametrize("beta1", [5e-7, -5e-7, 1e-6, -1e-6])
def test_gradient_rejects_stencil_straddling_zero(beta1):
    # beta1 - step < 0 < beta1 + step: neither end is exactly zero, yet the
    # differences cross the pole of the horizontal term
    stats = compute_stats(Dataset.from_points([(0, 0.1), (1, 1.2), (2, 1.9), (3, 3.2)]))
    with pytest.raises(SingularSlope, match="straddle"):
        check_gradient(stats, 0.0, beta1, 0.5, step=1e-6)
    assert check_gradient(stats, 0.0, 3.0 * beta1, 0.5, step=1e-6) >= 0.0


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
    config = FitConfig(gamma=1.0)
    line = fit_stats(reference_stats, config)
    report = verify_fit(reference_stats, line, config)
    assert report.profile_evals == 0
    assert report.oracle_slope == reference_stats.s_xy / reference_stats.s_xx
    assert report.abs_gap <= 1e-12


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
        # the search runs on (x, -y) and maps back exactly
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

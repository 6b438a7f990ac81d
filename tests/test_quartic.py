"""Quartic construction, the fitted root, and the slope interval."""

from __future__ import annotations

import math
import re
import sys

import numpy as np
import pytest

from dualfit import (
    FitConfig,
    Quartic,
    SufficientStats,
    build_quartic,
    compute_stats,
    fit_stats,
    slope_bounds,
    verify_fit,
)
from dualfit import _kernel
from dualfit.core import ZERO_RHO_TOL
from dualfit.errors import (
    DegenerateData,
    InvalidInput,
    NonPositiveCorrelation,
    SolverFailure,
)

from conftest import assert_near_exact_root, random_dataset, reflected


def _scan_roots(coeffs, lo=-1000.0, hi=1000.0, steps=400_001):
    """Independent root oracle: sign-change scan plus bisection refinement."""
    grid = np.linspace(lo, hi, steps)
    vals = np.polyval(coeffs, grid)
    found = []
    for i in np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]:
        a, b = float(grid[i]), float(grid[i + 1])
        fa = float(vals[i])
        for _ in range(100):
            m = 0.5 * (a + b)
            fm = float(np.polyval(coeffs, m))
            if fm == 0.0:
                a = b = m
                break
            if (fa < 0.0) != (fm < 0.0):
                b = m
            else:
                a, fa = m, fm
        found.append(0.5 * (a + b))
    return found


def _symmetric_unit_stats():
    return SufficientStats(n=2, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1.0, s_xy=1.0, rho=1.0)


# ---- build_quartic --------------------------------------------------------


def test_reference_coefficients_gamma_09(reference_stats):
    # Q's coefficients are the statistics times the weights, one rounding each
    assert (reference_stats.s_xx, reference_stats.s_yy, reference_stats.s_xy) == (1.0, 0.75, 0.5)
    q = build_quartic(reference_stats, 0.9)
    assert q.coeffs == (0.9 * 1.0, -0.9 * 0.5, 0.0, (1 - 0.9) * 0.5, -(1 - 0.9) * 0.75)


def test_reference_coefficients_gamma_05(reference_stats):
    q = build_quartic(reference_stats, 0.5)
    assert q.coeffs == (0.5, -0.25, 0.0, 0.25, -0.375)


def test_symmetric_perfect_correlation_has_unit_root():
    q = build_quartic(_symmetric_unit_stats(), 0.5)
    assert q.coeffs == (0.5, -0.5, 0.0, 0.5, -0.5)
    assert q(1.0) == 0.0


def test_quartic_rejects_endpoint_gamma(reference_stats):
    with pytest.raises(InvalidInput):
        build_quartic(reference_stats, 0.0)
    with pytest.raises(InvalidInput):
        build_quartic(reference_stats, 1.0)


@pytest.mark.parametrize("gamma", ["0.5", None, 1j])
def test_quartic_refuses_a_gamma_that_is_not_a_number(reference_stats, gamma):
    message = f"^gamma must be a number, got {re.escape(repr(gamma))}$"
    with pytest.raises(InvalidInput, match=message):
        build_quartic(reference_stats, gamma)


@pytest.mark.parametrize("gamma", [0.0, 1.0, 1.5, math.nan])
def test_quartic_names_a_gamma_outside_the_open_interval(reference_stats, gamma):
    with pytest.raises(InvalidInput, match=f"^quartic is defined for 0 < gamma < 1, got {gamma}$"):
        build_quartic(reference_stats, gamma)


def test_quartic_rejects_degenerate_stats():
    flat = SufficientStats(n=3, x_bar=0.0, y_bar=0.0, s_xx=0.0, s_yy=1.0, s_xy=0.0, rho=0.0)
    with pytest.raises(DegenerateData):
        build_quartic(flat, 0.5)
    with pytest.raises(DegenerateData, match="^slope bounds need positive spread in x and y$"):
        slope_bounds(flat)


def test_quartic_type_validation():
    with pytest.raises(InvalidInput):
        Quartic((1.0, 2.0, 3.0))
    with pytest.raises(InvalidInput):
        Quartic((1.0, 0.0, float("nan"), 0.0, -1.0))


# ---- the fitted root -------------------------------------------------------


def test_fourth_roots_of_unity():
    q = Quartic((1.0, 0.0, 0.0, 0.0, -1.0))
    assert q(1.0) == 0.0
    assert q(-1.0) == 0.0
    assert q(0.0) == -1.0
    assert q(2.0) == 15.0


def test_reference_roots_gamma_09(reference_stats):
    q = build_quartic(reference_stats, 0.9)
    scanned = sorted(_scan_roots(q.coeffs))
    assert len(scanned) == 2
    assert -0.5 < scanned[0] < -0.4
    # the fit picks the positive root, cross-checked against the scan oracle
    slope = fit_stats(reference_stats, FitConfig(gamma=0.9)).beta1
    assert slope == pytest.approx(0.6612, abs=5e-4)
    assert abs(slope - scanned[1]) <= 1e-8


def test_root_residuals_meet_contract(reference_stats):
    for gamma in (0.1, 0.5, 0.9):
        q = build_quartic(reference_stats, gamma)
        b = fit_stats(reference_stats, FitConfig(gamma=gamma)).beta1
        terms = sum(abs(c) * b ** (4 - i) for i, c in enumerate(q.coeffs))
        assert abs(q(b)) <= 1e-15 * terms


def test_step_cap_raises_solver_failure(reference_stats, monkeypatch):
    # the start in reduced coordinates, rho + 0.75**-0.25 = 1.65, is not the root
    monkeypatch.setattr("dualfit._kernel._MAX_NEWTON_STEPS", 1)
    with pytest.raises(SolverFailure, match="within 1 steps"):
        fit_stats(reference_stats, FitConfig(gamma=0.5))


def _certified(stats, gamma):
    """The fit of ``stats`` at ``gamma``, certified and within 3 ulps of the exact root."""
    for case, policy in ((stats, "error"), (reflected(stats), "reflect")):
        config = FitConfig(gamma, policy)
        line = fit_stats(case, config)
        assert verify_fit(case, line, config).certified, (case, gamma)
        assert_near_exact_root(case, line)
    return line


def _line_stats(s_yy, rho, s_xx=1.0):
    s_xy = rho * math.sqrt(s_xx * s_yy)
    return SufficientStats(n=3, x_bar=0.0, y_bar=0.0, s_xx=s_xx, s_yy=s_yy, s_xy=s_xy, rho=rho)


@pytest.mark.parametrize("s_yy", [1e250, 1e300])
@pytest.mark.parametrize("gamma", [1e-300, 0.5, 1.0 - 1e-16])
def test_y_in_huge_units_of_x_is_certified(s_yy, gamma):
    # y in 1e125 and 1e150 units of x: the quartic in the slope overflows at
    # the slope's upper bound, its reduced form at no slope
    _certified(_line_stats(s_yy, 0.5), gamma)


def test_a_weight_whose_leading_coefficient_underflows_is_certified():
    # Q over sqrt(s_xx * s_yy) would lead with gamma * sqrt(s_xx / s_yy),
    # which underflows to 0 here while the b**4 term still matters; Q leads
    # with gamma * s_xx, and the solve's k = gamma / (1 - gamma) * s_yy / s_xx
    # = 1e7 keeps the term too
    stats = _line_stats(1e307, 0.5)
    assert build_quartic(stats, 1e-300).coeffs[0] == 1e-300
    line = _certified(stats, 1e-300)
    assert abs(line.beta1) == pytest.approx(0.5 * math.sqrt(1e307), rel=1e-5)


@pytest.mark.parametrize(
    "s_yy, gamma, k_is",
    [
        # 4 * k overflows
        (1e300, 1.0 - 1e-8, lambda k: sys.float_info.max / 4.0 < k < math.inf),
        # k overflows: the root is rho to the bit
        (1e300, 1.0 - 3e-9, lambda k: k == math.inf),
        # the root is 1 / rho, and 0.0**-0.25 raises
        (0.25, 5e-324, lambda k: k == 0.0),
        (1e4, 5e-324, lambda k: 0.0 < k < sys.float_info.min),
    ],
)
def test_extreme_k_is_certified(s_yy, gamma, k_is):
    assert k_is(gamma / (1.0 - gamma) * s_yy)
    _certified(_line_stats(s_yy, 0.5), gamma)


@pytest.mark.parametrize("rho", [1e-6, ZERO_RHO_TOL])
def test_a_start_rounded_onto_rho_is_the_root(rho):
    # rho + k**-0.25 rounds to rho, where f is not positive: Newton from 1/rho
    # would take some log(1/rho**2) / log(4/3) steps, past the cap
    stats = _line_stats(1e200, rho)
    assert rho + 1e200**-0.25 == rho
    line = _certified(stats, 0.5)
    assert abs(line.beta1) == rho * math.sqrt(stats.s_yy / stats.s_xx)


def test_least_correlation_settles_within_the_step_cap():
    # at rho = ZERO_RHO_TOL Newton takes the most steps, 9, where k is near
    # rho**-4 = 1e48; k runs here from 0 through 1e48 to past the largest
    # float, on slopes whose objective stays finite
    assert _kernel._MAX_NEWTON_STEPS <= 16
    for e in range(-250, 251, 25):
        stats = _line_stats(10.0 ** (e / 2), ZERO_RHO_TOL, s_xx=10.0 ** (-e / 2))
        for gamma in (5e-324, 1e-300, 1e-100, 1e-20, 0.5, 1.0 - 1e-9, 1.0 - 2.0**-53):
            _certified(stats, gamma)
    for ratio in (1e47, 1e48, 1e49):
        _certified(_line_stats(ratio, ZERO_RHO_TOL), 0.5)
    _certified(_line_stats(1e150, ZERO_RHO_TOL, s_xx=1e-150), 1.0 - 2.0**-53)  # k = inf


# ---- slope_bounds ----------------------------------------------------------


def test_reference_bounds(reference_stats):
    lower, upper = slope_bounds(reference_stats)
    assert lower == pytest.approx(0.5, abs=1e-12)
    assert upper == pytest.approx(1.5, abs=1e-12)


def test_bounds_collapse_at_full_correlation():
    assert slope_bounds(_symmetric_unit_stats()) == (1.0, 1.0)


def test_bounds_reject_nonpositive_rho():
    anti = SufficientStats(n=3, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1.0, s_xy=-0.5, rho=-0.5)
    with pytest.raises(NonPositiveCorrelation):
        slope_bounds(anti)
    flat = SufficientStats(n=3, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1.0, s_xy=0.0, rho=0.0)
    with pytest.raises(NonPositiveCorrelation):
        slope_bounds(flat)


def test_bounds_bracket_the_certified_minimizer():
    rng = np.random.default_rng(77)
    for _ in range(5):
        stats = compute_stats(random_dataset(rng))
        lower, upper = slope_bounds(stats)
        for gamma in (0.2, 0.5, 0.8):
            config = FitConfig(gamma=gamma)
            report = verify_fit(stats, fit_stats(stats, config), config)
            assert report.certified
            assert lower <= report.oracle_slope <= upper

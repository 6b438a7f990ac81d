"""Randomized invariance properties of the fit."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualfit import (
    Dataset,
    FitConfig,
    build_quartic,
    compute_stats,
    fit,
    fit_stats,
    slope_bounds,
    sse,
    verify_fit,
)
from dualfit.errors import DegenerateData, DualFitError, OutOfRange

from conftest import random_dataset, rel_err, sse_per_point

TRIALS = 100

# clamp acceptance reaches 10x the strict slack, so allow that much here
BOUND_SLACK = 2e-7


def _trial(seed):
    rng = np.random.default_rng(seed)
    data = random_dataset(rng)
    gamma = float(rng.uniform(0.05, 0.95))
    return rng, data, gamma


@pytest.mark.parametrize("base_seed", [900])
def test_translation_leaves_slope_alone(base_seed):
    for seed in range(base_seed, base_seed + TRIALS):
        rng, data, gamma = _trial(seed)
        a, b = rng.uniform(-50.0, 50.0, 2)
        line = fit(data, FitConfig(gamma=gamma))
        moved = fit(Dataset(data.x + a, data.y + b), FitConfig(gamma=gamma))
        assert abs(moved.beta1 - line.beta1) <= 1e-10 * (1.0 + abs(line.beta1))
        stats = compute_stats(Dataset(data.x + a, data.y + b))
        want = stats.y_bar - moved.beta1 * stats.x_bar
        assert abs(moved.beta0 - want) <= 1e-9 * (1.0 + abs(want))


@pytest.mark.parametrize("base_seed", [1700])
def test_common_scaling_scales_intercept_only(base_seed):
    for seed in range(base_seed, base_seed + TRIALS):
        rng, data, gamma = _trial(seed)
        c = float(rng.uniform(0.1, 100.0))
        line = fit(data, FitConfig(gamma=gamma))
        scaled = fit(Dataset(c * data.x, c * data.y), FitConfig(gamma=gamma))
        assert abs(scaled.beta1 - line.beta1) <= 1e-10 * (1.0 + abs(line.beta1))
        assert rel_err(scaled.beta0, c * line.beta0) <= 1e-9


@pytest.mark.parametrize("base_seed", [15])
def test_a_common_power_of_two_scales_the_fit_exactly(base_seed):
    # the statistics scale exactly while the data stays normal, so rho, k and
    # t do not move: the slope and the residual keep their bits, the
    # intercept is times 2**a and the objective times 4**a
    rng = np.random.default_rng(base_seed)
    for case in range(80):
        data = random_dataset(rng)
        config = FitConfig((0.0, 1.0, float(rng.uniform(0.02, 0.98)))[case % 3])
        line = fit(data, config)
        for a in range(-200, 201, 25):
            scaled = fit(Dataset(np.ldexp(data.x, a), np.ldexp(data.y, a)), config)
            got = (scaled.beta1, scaled.selected_root_residual, scaled.beta0, scaled.sse)
            want = (
                line.beta1,
                line.selected_root_residual,
                math.ldexp(line.beta0, a),
                math.ldexp(line.sse, 2 * a),
            )
            assert list(map(float.hex, got)) == list(map(float.hex, want)), (case, a)


@pytest.mark.parametrize("base_seed", [14])
def test_swapping_x_and_y_and_the_weights_gives_the_reciprocal_slope(base_seed):
    # the vertical residuals of (y, x) are the horizontal ones of (x, y), so
    # the objective at gamma and slope b is the swapped one at 1 - gamma and
    # 1 / b; the endpoint slopes s_xy / s_xx and s_yy / s_xy swap into each
    # other's reciprocals
    rng = np.random.default_rng(base_seed)
    for case in range(2400):
        data = random_dataset(rng)
        gamma = (0.0, 1.0, float(rng.uniform(0.02, 0.98)))[case % 3]
        b = fit(data, FitConfig(gamma)).beta1
        swapped = fit(Dataset(data.y, data.x), FitConfig(1.0 - gamma)).beta1
        ulps = abs(Fraction(b) - 1 / Fraction(swapped)) / Fraction(math.ulp(b))
        assert ulps <= 6, (case, gamma, b, swapped)


@pytest.mark.parametrize("base_seed", [2500])
def test_reflection_negates_slope_exactly(base_seed):
    reflect = "reflect"
    for seed in range(base_seed, base_seed + TRIALS):
        _, data, gamma = _trial(seed)
        line = fit(data, FitConfig(gamma=gamma))
        mirrored = fit(
            Dataset(data.x, -data.y),
            FitConfig(gamma=gamma, negative_correlation_policy=reflect),
        )
        assert mirrored.beta1 == -line.beta1
        assert mirrored.beta0 == -line.beta0


@pytest.mark.parametrize("base_seed", [3300])
def test_intercept_pins_line_to_centroid(base_seed):
    for seed in range(base_seed, base_seed + TRIALS):
        _, data, gamma = _trial(seed)
        stats = compute_stats(data)
        line = fit_stats(stats, FitConfig(gamma=gamma))
        assert line.beta0 == stats.y_bar - line.beta1 * stats.x_bar


@pytest.mark.parametrize("base_seed", [4100])
def test_sse_two_paths_agree(base_seed):
    for seed in range(base_seed, base_seed + TRIALS):
        rng, data, gamma = _trial(seed)
        stats = compute_stats(data)
        beta0 = float(rng.uniform(-3.0, 3.0))
        beta1 = float(rng.uniform(0.1, 3.0)) * float(rng.choice([-1.0, 1.0]))
        fast = sse(stats, beta0, beta1, gamma)
        slow = sse_per_point(data, beta0, beta1, gamma)
        assert rel_err(fast, slow) <= 1e-10


@pytest.mark.parametrize("base_seed", [4900])
def test_fitted_slope_respects_bounds(base_seed):
    for seed in range(base_seed, base_seed + TRIALS):
        _, data, gamma = _trial(seed)
        stats = compute_stats(data)
        line = fit_stats(stats, FitConfig(gamma=gamma))
        lower, upper = slope_bounds(stats)
        assert lower * (1.0 - BOUND_SLACK) <= line.beta1 <= upper * (1.0 + BOUND_SLACK)


@pytest.mark.parametrize("base_seed", [5700])
def test_fitted_slope_is_stationary(base_seed):
    for seed in range(base_seed, base_seed + TRIALS):
        _, data, gamma = _trial(seed)
        stats = compute_stats(data)
        config = FitConfig(gamma=gamma)
        line = fit_stats(stats, config)
        quartic = build_quartic(stats, gamma)
        # Q's coefficients, bit for bit: the statistics times the weights
        horizontal = 1 - gamma
        expected = (
            gamma * stats.s_xx,
            -gamma * stats.s_xy,
            0.0,
            horizontal * stats.s_xy,
            -horizontal * stats.s_yy,
        )
        assert list(map(float.hex, quartic.coeffs)) == list(map(float.hex, expected))
        terms = sum(abs(c) * abs(line.beta1) ** (4 - i) for i, c in enumerate(quartic.coeffs))
        assert abs(quartic(line.beta1)) <= 1e-15 * terms
        report = verify_fit(stats, line, config)
        assert report.certified
        assert report.gradient_max_rel_err <= 1e-14


def test_endpoint_weights_match_closed_forms():
    rng = np.random.default_rng(6500)
    for _ in range(TRIALS):
        stats = compute_stats(random_dataset(rng))
        ols = fit_stats(stats, FitConfig(gamma=1.0))
        assert rel_err(ols.beta1, stats.s_xy / stats.s_xx) <= 1e-12
        inv = fit_stats(stats, FitConfig(gamma=0.0))
        assert rel_err(inv.beta1, stats.s_yy / stats.s_xy) <= 1e-12


def test_near_endpoint_weights_approach_closed_forms(reference_stats):
    almost_ols = fit_stats(reference_stats, FitConfig(gamma=1.0 - 1e-6))
    assert almost_ols.beta1 == pytest.approx(0.5, abs=1e-3)
    almost_inv = fit_stats(reference_stats, FitConfig(gamma=1e-6))
    assert almost_inv.beta1 == pytest.approx(1.5, abs=1e-3)


# ---- hypothesis-driven fuzzing ------------------------------------------------

_pairs = st.lists(
    st.tuples(
        st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False),
        st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=3,
    max_size=30,
)


def _build(pairs, slope):
    x = np.array([p[0] for p in pairs])
    eps = np.array([p[1] for p in pairs])
    return Dataset(x, slope * x + eps)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(pairs=_pairs, slope=st.floats(0.2, 3.0), gamma=st.floats(0.01, 0.99))
def test_fuzzed_fits_stay_bounded(pairs, slope, gamma):
    data = _build(pairs, slope)
    try:
        stats = compute_stats(data)
    except (DegenerateData, OutOfRange):
        assume(False)
    assume(stats.rho > 0.05)
    assume(stats.s_xx > 1e-6 and stats.s_yy > 1e-6)
    ratio = stats.s_yy / stats.s_xx
    assume(1e-6 < ratio < 1e6)
    try:
        line = fit_stats(stats, FitConfig(gamma=gamma))
    except DualFitError:
        pytest.fail(f"fit refused well-posed data (rho={stats.rho})")
    lower, upper = slope_bounds(stats)
    assert lower * (1.0 - BOUND_SLACK) <= line.beta1 <= upper * (1.0 + BOUND_SLACK)
    assert line.beta0 == stats.y_bar - line.beta1 * stats.x_bar


@settings(max_examples=60, derandomize=True, deadline=None)
@given(pairs=_pairs, slope=st.floats(0.2, 3.0), gamma=st.floats(0.01, 0.99))
def test_fuzzed_sse_consistency(pairs, slope, gamma):
    data = _build(pairs, slope)
    try:
        stats = compute_stats(data)
    except (DegenerateData, OutOfRange):
        assume(False)
    assume(stats.s_xx > 1e-6 and stats.s_yy > 1e-6)
    beta0, beta1 = 0.3, 1.1
    assert rel_err(sse(stats, beta0, beta1, gamma), sse_per_point(data, beta0, beta1, gamma)) <= 1e-9

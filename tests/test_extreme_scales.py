"""Fits at extreme unit ratios, extreme weights and extreme data scales.

Every slope is checked against a plain float bisection on the reduced quartic
``f(t) = k*t^3*(t - rho) + rho*t - 1`` over ``[rho, 1/rho]``, where
``k = gamma*S_yy / ((1 - gamma)*S_xx)`` and the slope is
``t * sqrt(S_yy/S_xx)``.  On that interval ``f`` is increasing, with
``f(rho) <= 0 <= f(1/rho)``, so the bisection needs nothing from dualfit but
the statistics.  Data too large or too small for float64 statistics must
raise ``OutOfRange`` with no numpy warning, never a false ``DegenerateData``
or ``ZeroCorrelation``.
"""

from __future__ import annotations

import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dualfit import (
    Dataset,
    FitConfig,
    OutOfRange,
    SufficientStats,
    compute_stats,
    fit,
    fit_stats,
)

from conftest import REFERENCE_POINTS, src_env

HERE = Path(__file__).parent

REL_TOL = 1e-15


def _bisected_slope(stats, gamma: float) -> float:
    rho = stats.rho
    k = gamma * stats.s_yy / ((1.0 - gamma) * stats.s_xx)

    def f(t: float) -> float:
        return k * t**3 * (t - rho) + rho * t - 1.0

    lo, hi = rho, 1.0 / rho
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    t = lo if abs(f(lo)) <= abs(f(hi)) else hi
    return t * math.sqrt(stats.s_yy / stats.s_xx)


def _assert_matches_bisection(stats, gamma: float) -> None:
    slope = fit_stats(stats, FitConfig(gamma=gamma)).beta1
    expected = _bisected_slope(stats, gamma)
    assert abs(slope - expected) <= REL_TOL * expected, (slope, expected)


@pytest.mark.parametrize("y_unit", [1e4, 1e6, 1e9])
def test_y_in_large_units_of_x(y_unit):
    rng = np.random.default_rng(int(math.log10(y_unit)))
    x = rng.uniform(-5.0, 5.0, 100)
    y = (x + rng.normal(0.0, 1.0, 100)) * y_unit
    stats = compute_stats(Dataset(x, y))
    for gamma in (0.1, 0.5, 0.9):
        _assert_matches_bisection(stats, gamma)


@pytest.mark.parametrize("gamma", [5e-324, 1e-300, 1.0 - 1e-16])
def test_extreme_interior_weights(gamma):
    rng = np.random.default_rng(31)
    x = rng.uniform(-5.0, 5.0, 100)
    y = 2.0 * x + rng.normal(0.0, 1.0, 100)
    for data in (Dataset.from_points(REFERENCE_POINTS), Dataset(x, y)):
        _assert_matches_bisection(compute_stats(data), gamma)


def test_cli_fit_at_smallest_gamma():
    result = subprocess.run(
        [sys.executable, "-m", "dualfit", "fit", "--gamma", "5e-324",
         "--input", str(HERE / "data" / "reference.csv")],
        capture_output=True,
        env=src_env(),
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stderr == b""


def _scaled_line(scale: float) -> Dataset:
    rng = np.random.default_rng(41)
    x = rng.uniform(-5.0, 5.0, 100)
    y = 2.0 * x + rng.normal(0.0, 1.0, 100)
    return Dataset(x * scale, y * scale)


def _stats_without_warnings(data: Dataset):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return compute_stats(data)


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e307])
def test_overflowing_sums_raise_out_of_range(scale):
    with pytest.raises(OutOfRange, match="overflow"):
        _stats_without_warnings(_scaled_line(scale))


@pytest.mark.parametrize("scale", [1e-170, 1e-200, 1e-320])
def test_underflowing_spread_is_not_degenerate(scale):
    with pytest.raises(OutOfRange, match="spread of x underflows"):
        _stats_without_warnings(_scaled_line(scale))


def test_underflowing_y_spread_is_named():
    data = _scaled_line(1.0)
    with pytest.raises(OutOfRange, match="spread of y underflows"):
        _stats_without_warnings(Dataset(data.x, data.y * 1e-170))


@pytest.mark.parametrize("scale", [1e76, 1e100, 1e150, 1e-80, 1e-100, 1e-160])
def test_out_of_range_product_raises_out_of_range(scale):
    # s_xx * s_yy overflowed to a false zero correlation, or underflowed to
    # a ZeroDivisionError or a correlation with lost digits
    with pytest.raises(OutOfRange, match="out of float64 range"):
        _stats_without_warnings(_scaled_line(scale))


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_direct_statistics_out_of_product_range_raise_out_of_range(scale):
    # built directly, so compute_stats's own range check never ran; the
    # product underflows at 1e-200 and overflows at 1e200
    with pytest.raises(OutOfRange, match="out of float64 range"):
        SufficientStats(
            n=3, x_bar=0.0, y_bar=0.0, s_xx=scale, s_yy=scale, s_xy=scale, rho=1.0
        )


@pytest.mark.parametrize("scale", [1e75, 1e-78])
def test_largest_and_smallest_scales_in_range_still_fit(scale):
    expected = fit(_scaled_line(1.0), FitConfig(gamma=0.5)).beta1
    stats = _stats_without_warnings(_scaled_line(scale))
    slope = fit_stats(stats, FitConfig(gamma=0.5)).beta1
    assert abs(slope - expected) <= 1e-15 * expected


def test_cli_fit_on_overflowing_data_prints_one_typed_line(tmp_path):
    data = _scaled_line(1e160)
    path = tmp_path / "huge.csv"
    path.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(data.x.tolist(), data.y.tolist())))
    result = subprocess.run(
        [sys.executable, "-m", "dualfit", "fit", "--input", str(path)],
        capture_output=True,
        env=src_env(),
        timeout=120,
    )
    assert result.returncode == 3
    lines = result.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("OutOfRange: sums of squares overflow")

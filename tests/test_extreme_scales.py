"""Fits at extreme unit ratios and extreme weights.

Every slope is checked against a plain float bisection on the reduced quartic
``f(t) = k*t^3*(t - rho) + rho*t - 1`` over ``[rho, 1/rho]``, where
``k = gamma*S_yy / ((1 - gamma)*S_xx)`` and the slope is
``t * sqrt(S_yy/S_xx)``.  On that interval ``f`` is increasing, with
``f(rho) <= 0 <= f(1/rho)``, so the bisection needs nothing from dualfit but
the statistics.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dualfit import Dataset, FitConfig, compute_stats, fit_stats

from conftest import REFERENCE_POINTS

HERE = Path(__file__).parent
SRC = HERE.parent / "src"

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
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stderr == b""

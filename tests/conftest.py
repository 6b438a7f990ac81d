"""Shared fixtures: the reference dataset, seeded random-data factories and the exact root check."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dualfit import Dataset, compute_stats
from dualfit.errors import DegenerateData

SRC = Path(__file__).parent.parent / "src"


def src_env() -> dict[str, str]:
    """Environment for a subprocess that must import dualfit from ``src``."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


# started first and small, so that each dualfit process's ru_maxrss is its
# own: Linux folds the high-water mark of a process that vfork-and-execs a
# child into the child's ru_maxrss, and the test process holds numpy
_MEASURE = r"""
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def dualfit_peak_mb(*args: str, stdin=None) -> tuple[int, float]:
    """Exit code and peak resident memory in MB of one ``dualfit`` process.

    Needs ``os.wait4``; its output goes to /dev/null.  ``stdin`` is passed
    on to the process as its standard input, as ``subprocess.run`` takes it.
    """
    result = subprocess.run(
        [sys.executable, "-c", _MEASURE, sys.executable, "-m", "dualfit", *args],
        stdin=stdin,
        capture_output=True,
        env=src_env(),
        timeout=120,
        check=True,
    )
    code, peak_kb = map(int, result.stdout.split())
    return code, peak_kb / 1024.0


# four points with known statistics: means (1/2, 1/4), s_xx = 1, s_yy = 3/4
REFERENCE_POINTS = ((0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 1.0))


@pytest.fixture
def reference_data() -> Dataset:
    return Dataset.from_points(REFERENCE_POINTS)


@pytest.fixture
def reference_stats(reference_data):
    return compute_stats(reference_data)


def random_dataset(rng: np.random.Generator, n: int | None = None) -> Dataset:
    """Positively correlated dataset with 0.05 < rho < 1, rejection-sampled."""
    while True:
        size = int(n) if n is not None else int(rng.integers(3, 101))
        x = rng.uniform(-5.0, 5.0, size) * rng.uniform(0.5, 3.0)
        slope = rng.uniform(0.2, 3.0)
        noise = rng.normal(0.0, rng.uniform(0.1, 2.0), size)
        y = rng.uniform(-2.0, 2.0) + slope * x + noise
        try:
            stats = compute_stats(Dataset(x, y))
        except DegenerateData:
            continue
        if 0.05 < stats.rho < 1.0:
            return Dataset(x, y)


def sse_per_point(data: Dataset, beta0: float, beta1: float, gamma: float) -> float:
    """Raw per-point objective; the independent reference for the stats path."""
    vertical = 0.0
    horizontal = 0.0
    for xi, yi in zip(data.x, data.y):
        vertical += (yi - beta0 - beta1 * xi) ** 2
        if gamma < 1.0:
            horizontal += (xi - yi / beta1 + beta0 / beta1) ** 2
    return gamma * vertical + (1.0 - gamma) * horizontal


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def assert_near_exact_root(stats, line, ulps: int = 3) -> None:
    """Assert that an interior fit's slope lies within ``ulps`` ulps of the exact root.

    ``Q(b) = gamma*s_xx*b**4 - gamma*s_xy*b**3 + (1-gamma)*(s_xy*b - s_yy)`` is
    the slope quartic times ``sqrt(s_xx*s_yy)``, with rational coefficients,
    so its signs are exact in ``Fraction``; it increases through the root on
    the slopes of the sign of ``s_xy``, where it must change sign within
    ``ulps`` ulps of the slope.  The line's ``selected_root_residual`` must be
    ``|Q(b)| / sqrt(s_xx*s_yy)`` up to 16 eps of the sum of its terms'
    magnitudes.
    """
    b = line.beta1
    sign = 1 if b > 0.0 else -1  # a negative slope is the reflected data's, negated
    s_xx, s_yy, g = Fraction(stats.s_xx), Fraction(stats.s_yy), Fraction(line.gamma)
    s_xy = sign * Fraction(stats.s_xy)

    def terms(t):
        t = Fraction(t)
        return g * s_xx * t**4, -g * s_xy * t**3, (1 - g) * s_xy * t, -(1 - g) * s_yy

    below = above = abs(b)
    for _ in range(ulps):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
    assert sum(terms(below)) <= 0 <= sum(terms(above)), (stats, line)
    at_b = terms(abs(b))
    scale = Fraction(math.sqrt(stats.s_xx * stats.s_yy))
    gap = abs(Fraction(line.selected_root_residual) * scale - abs(sum(at_b)))
    assert gap <= 16 * Fraction(sys.float_info.epsilon) * sum(map(abs, at_b)), (stats, line)

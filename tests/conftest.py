"""Shared fixtures: the reference dataset, seeded random-data factories, and the
exact quartic, profile and root check."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from dualfit import Dataset, SufficientStats, cli, compute_stats
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


def reader_sizes(block_lines: int, run_rows: int | None = None):
    """A patch of the CLI reader to blocks of ``block_lines`` lines and runs
    of ``run_rows`` data rows, by default as many as a block's lines."""
    run_rows = block_lines if run_rows is None else run_rows
    return mock.patch.multiple(cli, _BLOCK_LINES=block_lines, _RUN_ROWS=run_rows)


# weights that are not a number: no float comparison takes them, and numpy
# would compare an array elementwise, whatever its size
NOT_NUMBERS = (
    "0.5",
    None,
    1j,
    np.array([0.5]),
    np.array([[0.5]]),
    np.array([0.5, 0.6]),
    np.array([]),
)

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


def reflected(stats):
    """Statistics of the data ``(x, -y)``; negation is exact in floating point."""
    return SufficientStats(
        n=stats.n,
        x_bar=stats.x_bar,
        y_bar=-stats.y_bar,
        s_xx=stats.s_xx,
        s_yy=stats.s_yy,
        s_xy=-stats.s_xy,
        rho=-stats.rho,
    )


def exact_quartic_terms(stats, gamma, t) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four terms of the slope quartic ``Q`` at ``t``, highest degree first, exactly.

    ``Q(t) = gamma*s_xx*t**4 - gamma*s_xy*t**3 + (1-gamma)*s_xy*t - (1-gamma)*s_yy``
    is ``t**3 * P'(t) / 2`` for the profile ``P`` of :func:`exact_profile`.
    """
    s_xx, s_xy, s_yy, g, t = map(Fraction, (stats.s_xx, stats.s_xy, stats.s_yy, gamma, t))
    return g * s_xx * t**4, -g * s_xy * t**3, (1 - g) * s_xy * t, -(1 - g) * s_yy


def exact_profile(stats, gamma, t) -> Fraction | float:
    """The objective on the centroid line at slope ``t``, exactly.

    ``P(t) = V(t) * (gamma + (1 - gamma) / t**2)`` with
    ``V(t) = s_yy - 2*t*s_xy + t**2*s_xx``; at ``t = 0`` it is ``V(0)`` for
    ``gamma = 1`` and ``math.inf`` otherwise.
    """
    s_xx, s_xy, s_yy, g, t = map(Fraction, (stats.s_xx, stats.s_xy, stats.s_yy, gamma, t))
    v = s_yy - 2 * t * s_xy + t * t * s_xx
    if t == 0:
        return v if g == 1 else math.inf
    return v * (g + (1 - g) / (t * t))


def assert_near_exact_root(stats, line, ulps: int = 3) -> None:
    """Assert that an interior fit's slope lies within ``ulps`` ulps of the exact root.

    ``Q`` (:func:`exact_quartic_terms`) has rational coefficients, so its signs
    are exact in ``Fraction``; it increases through the root away from 0 on
    the slopes of the sign of ``s_xy``, where it must change sign within
    ``ulps`` ulps of the slope.  The line's ``selected_root_residual`` must be
    ``|Q(b)| / sqrt(s_xx*s_yy)`` up to 16 eps of the sum of its terms'
    magnitudes.
    """
    b, gamma = line.beta1, line.gamma
    # Q(-b; -s_xy) = Q(b; s_xy): on a negative slope Q rises away from 0 too
    toward = away = b
    outward = math.copysign(math.inf, b)
    for _ in range(ulps):
        toward, away = math.nextafter(toward, 0.0), math.nextafter(away, outward)
    q_toward, q_away = (sum(exact_quartic_terms(stats, gamma, t)) for t in (toward, away))
    assert q_toward <= 0 <= q_away, (stats, line)
    at_b = exact_quartic_terms(stats, gamma, b)
    scale = Fraction(math.sqrt(stats.s_xx * stats.s_yy))
    gap = abs(Fraction(line.selected_root_residual) * scale - abs(sum(at_b)))
    assert gap <= 16 * Fraction(sys.float_info.epsilon) * sum(map(abs, at_b)), (stats, line)

"""Shared fixtures: the reference dataset and seeded random-data factories."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from dualfit import Dataset, compute_stats
from dualfit.errors import DegenerateData

SRC = Path(__file__).parent.parent / "src"


def src_env() -> dict[str, str]:
    """Environment for a subprocess that must import dualfit from ``src``."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


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

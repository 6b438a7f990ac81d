"""The blended objective and the intercept."""

from __future__ import annotations

import math
import re

import pytest

from dualfit import Dataset, compute_stats, intercept, sse
from dualfit.errors import InvalidInput, SingularSlope

from conftest import NOT_NUMBERS, rel_err, sse_per_point


@pytest.fixture
def line_stats():
    return compute_stats(Dataset.from_points([(0.0, 0.0), (1.0, 1.0)]))


def test_perfect_fit_is_zero(line_stats):
    for gamma in (0.0, 0.3, 0.7, 1.0):
        assert sse(line_stats, 0.0, 1.0, gamma) == 0.0


def test_reference_point_is_profile_minimum(reference_stats):
    # the 4-decimal fixture slope should beat its neighbors along the profile
    center = sse(reference_stats, -0.0806, 0.6612, 0.9)
    assert intercept(reference_stats, 0.6612) == pytest.approx(-0.0806, abs=1e-15)
    for b1 in (0.6612 - 1e-3, 0.6612 + 1e-3):
        neighbor = sse(reference_stats, intercept(reference_stats, b1), b1, 0.9)
        assert center <= neighbor


def test_sse_matches_per_point_summation(reference_data, reference_stats):
    value = sse(reference_stats, 0.0, 1.0, 0.5)
    raw = sse_per_point(reference_data, 0.0, 1.0, 0.5)
    assert rel_err(value, raw) <= 1e-10
    assert value == pytest.approx(1.0, rel=1e-12)


def test_sse_singular_slope(reference_stats):
    with pytest.raises(SingularSlope):
        sse(reference_stats, 0.0, 0.0, 0.5)
    # at gamma = 1 the horizontal term is absent, so a zero slope is fine
    assert sse(reference_stats, 0.25, 0.0, 1.0) > 0.0


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, -0.5, 2.0])
def test_sse_refuses_a_gamma_that_is_not_a_weight(reference_stats, gamma):
    # a weight outside [0, 1] counts one residual negatively, and a NaN one
    # is no overflow of the data
    with pytest.raises(InvalidInput, match=rf"^gamma must lie in \[0, 1\], got {gamma}$"):
        sse(reference_stats, 0.0, 1.0, gamma)


@pytest.mark.parametrize("gamma", NOT_NUMBERS)
def test_sse_refuses_a_gamma_that_is_not_a_number(reference_stats, gamma):
    message = f"^gamma must be a number, got {re.escape(repr(gamma))}$"
    with pytest.raises(InvalidInput, match=message):
        sse(reference_stats, 0.0, 1.0, gamma)


def test_intercept_reference(reference_stats):
    assert intercept(reference_stats, 0.6612) == pytest.approx(
        0.25 - 0.5 * 0.6612, abs=1e-16
    )


def test_intercept_zero_slope_gives_mean(reference_stats):
    assert intercept(reference_stats, 0.0) == reference_stats.y_bar


def test_intercept_through_origin(line_stats):
    assert intercept(line_stats, 1.0) == 0.0

"""Sufficient statistics: reference values, naive-oracle agreement, error modes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dualfit import Dataset, SufficientStats, compute_stats
from dualfit.errors import DegenerateData, InvalidInput


def test_reference_values(reference_stats):
    s = reference_stats
    assert s.n == 4
    assert s.x_bar == 0.5
    assert s.y_bar == 0.25
    assert s.s_xx == 1.0
    assert s.s_yy == 0.75
    assert s.s_xy == 0.5
    assert s.rho == pytest.approx(math.sqrt(3.0) / 3.0, rel=1e-15)
    assert s.rho == pytest.approx(0.5774, abs=1e-4)


def test_two_point_line():
    s = compute_stats(Dataset.from_points([(0.0, 0.0), (1.0, 1.0)]))
    assert (s.x_bar, s.y_bar) == (0.5, 0.5)
    assert (s.s_xx, s.s_yy, s.s_xy) == (0.5, 0.5, 0.5)
    assert s.rho == 1.0


def test_matches_naive_two_pass_oracle():
    rng = np.random.default_rng(2024)
    x = rng.uniform(-10.0, 10.0, 50)
    y = rng.uniform(-10.0, 10.0, 50)
    s = compute_stats(Dataset(x, y))

    # independent pure-Python two-pass summation
    xb = sum(x) / 50.0
    yb = sum(y) / 50.0
    sxx = sum((xi - xb) ** 2 for xi in x)
    syy = sum((yi - yb) ** 2 for yi in y)
    sxy = sum((xi - xb) * (yi - yb) for xi, yi in zip(x, y))

    assert s.x_bar == pytest.approx(xb, rel=1e-12)
    assert s.y_bar == pytest.approx(yb, rel=1e-12)
    assert s.s_xx == pytest.approx(sxx, rel=1e-12)
    assert s.s_yy == pytest.approx(syy, rel=1e-12)
    assert s.s_xy == pytest.approx(sxy, rel=1e-12)
    assert s.rho == pytest.approx(sxy / math.sqrt(sxx * syy), rel=1e-12)


def test_rho_clamped_for_collinear_data():
    x = np.linspace(0.1, 9.7, 23)
    s = compute_stats(Dataset(x, 2.0 * x - 1.0))
    assert abs(s.rho) <= 1.0
    assert s.rho == pytest.approx(1.0, abs=1e-12)


def test_all_x_equal_degenerate():
    with pytest.raises(DegenerateData):
        compute_stats(Dataset.from_points([(2.0, 1.0), (2.0, 3.0), (2.0, 5.0)]))


def test_all_y_equal_degenerate():
    with pytest.raises(DegenerateData):
        compute_stats(Dataset.from_points([(1.0, 4.0), (2.0, 4.0), (3.0, 4.0)]))


@pytest.mark.parametrize("value", [0.1, 1e308])
def test_constant_column_is_degenerate_despite_round_off(value):
    # the mean of three copies is not the value itself, so the centred sum is
    # round-off rather than 0; at 1e308 the sum overflows
    points = [(value, 1.0), (value, 2.0), (value, 4.0)]
    with pytest.raises(DegenerateData, match="all x values"):
        compute_stats(Dataset.from_points(points))
    with pytest.raises(DegenerateData, match="all y values"):
        compute_stats(Dataset.from_points([(y, x) for x, y in points]))


def test_nearly_constant_column_is_not_degenerate():
    s = compute_stats(Dataset.from_points([(1.0, 1.0), (1.0, 2.0), (1.0 + 2.0**-52, 4.0)]))
    assert 0.0 < s.s_xx < 1e-30


def test_nan_coordinates_rejected():
    with pytest.raises(InvalidInput):
        Dataset(np.array([0.0, float("nan")]), np.array([0.0, 1.0]))


def test_infinite_coordinates_rejected():
    with pytest.raises(InvalidInput):
        Dataset(np.array([0.0, 1.0]), np.array([0.0, float("inf")]))


def test_single_point_rejected():
    with pytest.raises(InvalidInput):
        Dataset(np.array([1.0]), np.array([2.0]))


def test_length_mismatch_rejected():
    with pytest.raises(InvalidInput):
        Dataset(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


def test_from_points_rejects_junk():
    with pytest.raises(InvalidInput):
        Dataset.from_points([])
    with pytest.raises(InvalidInput):
        Dataset.from_points([(1.0, 2.0, 3.0)])
    with pytest.raises(InvalidInput):
        Dataset.from_points([("a", "b"), ("c", "d")])


def test_stats_type_validates_ranges():
    with pytest.raises(InvalidInput):
        SufficientStats(n=1, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1.0, s_xy=0.0, rho=0.0)
    with pytest.raises(InvalidInput):
        SufficientStats(n=3, x_bar=0.0, y_bar=0.0, s_xx=-1.0, s_yy=1.0, s_xy=0.0, rho=0.0)
    with pytest.raises(InvalidInput):
        SufficientStats(n=3, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1.0, s_xy=0.0, rho=1.5)
    # Cauchy-Schwarz: |s_xy| cannot exceed sqrt(s_xx * s_yy)
    with pytest.raises(InvalidInput):
        SufficientStats(n=3, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1.0, s_xy=2.0, rho=1.0)
    # rho must be consistent with the sums
    with pytest.raises(InvalidInput):
        SufficientStats(n=3, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1.0, s_xy=0.9, rho=0.1)
    # every figure must be finite
    finite = dict(n=3, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1.0, s_xy=0.0, rho=0.0)
    for figure in (dict(x_bar=math.nan), dict(s_xx=math.inf), dict(rho=-math.inf)):
        with pytest.raises(InvalidInput, match="^statistics must be finite$"):
            SufficientStats(**{**finite, **figure})


@pytest.mark.parametrize(
    "n, message",
    [
        (1, "need at least 2 points, got 1"),
        (math.nan, "n must be a whole number, got nan"),
        (math.inf, "n must be a whole number, got inf"),
        (2.5, "n must be a whole number, got 2.5"),
    ],
)
def test_stats_type_refuses_a_count_that_is_not_a_whole_number_of_2_or_more(n, message):
    # nan and inf compare False with 2, and 2.5 passes it
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        SufficientStats(n=n, x_bar=1.0, y_bar=2.0, s_xx=1.0, s_yy=1.0, s_xy=0.5, rho=0.5)


@pytest.mark.parametrize("n", [3.0, np.int64(3)])
def test_stats_type_takes_a_whole_count_of_any_number_type(n):
    stats = SufficientStats(n=n, x_bar=1.0, y_bar=2.0, s_xx=1.0, s_yy=1.0, s_xy=0.5, rho=0.5)
    assert stats.n == 3


@pytest.mark.parametrize("figure", ["n", "x_bar", "s_xy"])
@pytest.mark.parametrize("value", ["0.5", None, 1j])
def test_stats_type_refuses_a_figure_that_is_not_a_number(figure, value):
    figures = dict(n=3, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1.0, s_xy=0.0, rho=0.0)
    with pytest.raises(InvalidInput, match="^statistics must be real numbers, got ") as excinfo:
        SufficientStats(**{**figures, figure: value})
    # the message shows the record, the figure at fault among its fields
    assert "SufficientStats(n=" in str(excinfo.value)
    assert f"{figure}={value!r}," in str(excinfo.value)


@pytest.mark.parametrize("s_xx, s_yy", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0)])
def test_stats_type_refuses_a_correlation_without_spread(s_xx, s_yy):
    # rho is s_xy / sqrt(s_xx * s_yy), which has no value when a sum is 0
    with pytest.raises(InvalidInput, match="rho must be 0"):
        SufficientStats(n=3, x_bar=0.0, y_bar=0.0, s_xx=s_xx, s_yy=s_yy, s_xy=0.0, rho=0.5)
    SufficientStats(n=3, x_bar=0.0, y_bar=0.0, s_xx=s_xx, s_yy=s_yy, s_xy=0.0, rho=0.0)


def test_stats_type_holds_a_small_rho_to_its_sums():
    # the sums imply rho = 3.2e-75; a tolerance of 1e-9 of rho's size, not
    # an absolute 1e-9, tells it from 1e-12
    sums = dict(n=3, x_bar=0.0, y_bar=0.0, s_xx=1e125, s_yy=1e-125, s_xy=3.1622776601683794e-75)
    with pytest.raises(InvalidInput, match="disagrees"):
        SufficientStats(**sums, rho=1e-12)
    SufficientStats(**sums, rho=3.1622776601683794e-75)

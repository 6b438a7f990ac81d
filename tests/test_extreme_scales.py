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

import contextlib
import io
import math
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dualfit import cli
from dualfit import (
    DegenerateData,
    Dataset,
    FitConfig,
    OutOfRange,
    SufficientStats,
    build_quartic,
    compute_stats,
    fit,
    fit_stats,
    slope_bounds,
    sse,
    verify_fit,
)

from conftest import REFERENCE_POINTS, reader_sizes, src_env

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


# the reference points with x in units of 1e80 and y of 1e-82: the slope at
# gamma = 0, s_yy / s_xy = 1.5e-162, squares to 0, and the horizontal
# residuals divide by that square
_TINY_SLOPE_POINTS = [(x * 1e80, y * 1e-82) for x, y in REFERENCE_POINTS]


def test_slope_whose_square_underflows_raises_out_of_range():
    stats = _stats_without_warnings(Dataset.from_points(_TINY_SLOPE_POINTS))
    with pytest.raises(OutOfRange, match="slope's square underflows"):
        fit_stats(stats, FitConfig(gamma=0.0))


def test_cli_fit_whose_slope_squares_to_zero_prints_one_typed_line(tmp_path):
    path = tmp_path / "tiny-slope.csv"
    path.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in _TINY_SLOPE_POINTS))
    result = subprocess.run(
        [sys.executable, "-m", "dualfit", "fit", "--gamma", "0", "--input", str(path)],
        capture_output=True,
        env={**src_env(), "PYTHONWARNINGS": "error"},
        timeout=120,
    )
    assert (result.returncode, result.stdout) == (3, b"")
    assert result.stderr.decode().splitlines() == [
        "OutOfRange: the slope's square underflows float64; rescale the data"
    ]


# x in units of 1e80 and y of 1e-81 or 1e-80: the gamma = 0 slope, 1.5e-161
# or 1.5e-160, squares to a subnormal that keeps a few bits, and the
# objective divided by it was 0.5 % or 5.6e-6 off
@pytest.mark.parametrize("y_unit", [1e-81, 1e-80])
def test_slope_whose_square_is_subnormal_raises_out_of_range(y_unit):
    points = [(x * 1e80, y * y_unit) for x, y in REFERENCE_POINTS]
    stats = _stats_without_warnings(Dataset.from_points(points))
    with pytest.raises(OutOfRange, match="slope's square underflows"):
        fit_stats(stats, FitConfig(gamma=0.0))


def test_cli_fit_whose_slope_squares_to_a_subnormal_prints_one_typed_line(tmp_path):
    path = tmp_path / "subnormal-square.csv"
    points = [(x * 1e80, y * 1e-81) for x, y in REFERENCE_POINTS]
    path.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in points))
    result = subprocess.run(
        [sys.executable, "-m", "dualfit", "fit", "--gamma", "0", "--input", str(path)],
        capture_output=True,
        env={**src_env(), "PYTHONWARNINGS": "error"},
        timeout=120,
    )
    assert (result.returncode, result.stdout) == (3, b"")
    assert result.stderr.decode().splitlines() == [
        "OutOfRange: the slope's square underflows float64; rescale the data"
    ]


# with x in units of 1e80 and y of 1e-81, s_yy / s_xx is the subnormal 7.5e-323:
# an interior fit said "InvalidInput: coefficients must be finite", and fit at
# gamma = 1 printed bound_lower 4.970239661e-162 below beta1 5e-162, the exact
# bounds being 5e-162 and 1.5e-161; each command now refuses the bounds
@pytest.mark.parametrize("command, gamma", [("fit", "0.5"), ("fit", "1"), ("verify", "1")])
def test_cli_on_a_subnormal_slope_ratio_prints_one_typed_line(command, gamma, tmp_path):
    path = tmp_path / "subnormal-ratio.csv"
    path.write_text("x,y\n" + "".join(f"{x * 1e80!r},{y * 1e-81!r}\n" for x, y in REFERENCE_POINTS))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--input", str(path), "--gamma", gamma])
    assert (code, out.getvalue()) == (3, "")
    assert err.getvalue() == (
        "OutOfRange: s_yy / s_xx = 7.5e-163 / 1e+160 is out of float64 range; rescale the data\n"
    )


# sys.float_info.min is 2.2250738585072014e-308, so a slope of 1.5e-154 squares
# to a normal float and one of 1.49e-154 to a subnormal
@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_objective_refuses_a_subnormal_square_of_the_slope(gamma):
    stats = compute_stats(Dataset.from_points(REFERENCE_POINTS))
    assert math.isfinite(sse(stats, 0.0, 1.5e-154, gamma))
    for slope in (1.49e-154, -1.49e-154, 1e-170, 5e-324):
        with pytest.raises(OutOfRange, match="slope's square underflows"):
            sse(stats, 0.0, slope, gamma)
    # the vertical residuals alone divide by nothing
    assert sse(stats, 0.0, 1e-170, 1.0) == sse(stats, 0.0, 0.0, 1.0)


# the gamma = 0 slope s_yy / s_xy = 1e155 squares to inf, so the objective,
# all horizontal there, was 0 * inf + inf / inf = nan, where it is about 1
_OVERFLOWING_SQUARE = SufficientStats(
    n=3, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1e300, s_xy=1e145, rho=1e-5
)


def test_objective_that_overflows_raises_out_of_range():
    with pytest.raises(OutOfRange, match="the objective overflows"):
        fit_stats(_OVERFLOWING_SQUARE, FitConfig(gamma=0.0))
    for gamma in (0.0, 0.5, 1.0):
        with pytest.raises(OutOfRange, match="the objective overflows"):
            sse(_OVERFLOWING_SQUARE, 0.0, 1e155, gamma)


# the reference points with x in units of 1e-77 and y of 1e77: the gamma = 0
# slope, 1.5e154, squares past float64, and the CLI printed an sse of NaN
@pytest.mark.parametrize("command", ["fit", "sweep"])
def test_cli_on_an_overflowing_objective_prints_one_typed_line(command, tmp_path):
    path = tmp_path / "huge-slope.csv"
    path.write_text("x,y\n" + "".join(f"{x * 1e-77!r},{y * 1e77!r}\n" for x, y in REFERENCE_POINTS))
    args = ["--gamma", "0"] if command == "fit" else ["--steps", "11"]
    result = subprocess.run(
        [sys.executable, "-m", "dualfit", command, "--input", str(path), "--format", "json", *args],
        capture_output=True,
        env={**src_env(), "PYTHONWARNINGS": "error"},
        timeout=120,
    )
    assert (result.returncode, result.stdout) == (3, b"")
    assert result.stderr.decode().splitlines() == [
        "OutOfRange: the objective overflows float64; rescale the data"
    ]


# a centred sum in the subnormal range keeps a few bits: with these x, s_xx
# was 9.999888672e-320 and rho 0.8485328607, against 0.8485281374 exactly
_SUBNORMAL_X = (0.0, 1e-160, 3e-160, 4e-160)
_SUBNORMAL_Y = (0.0, 1e10, 3e10, 2e10)


@pytest.mark.parametrize("swap", [False, True])
def test_subnormal_spread_raises_out_of_range(swap):
    x, y = (_SUBNORMAL_Y, _SUBNORMAL_X) if swap else (_SUBNORMAL_X, _SUBNORMAL_Y)
    with pytest.raises(OutOfRange, match=f"spread of {'y' if swap else 'x'} underflows"):
        _stats_without_warnings(Dataset(np.array(x), np.array(y)))


# one block and run, or one row per block and run through the merged statistics
@pytest.mark.parametrize("block_rows", [cli._RUN_ROWS, 1])
def test_cli_stats_on_subnormal_spread_prints_one_typed_line(tmp_path, block_rows):
    path = tmp_path / "tiny.csv"
    path.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(_SUBNORMAL_X, _SUBNORMAL_Y)))
    out, err = io.StringIO(), io.StringIO()
    with reader_sizes(block_rows):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["stats", "--input", str(path)])
    assert (code, out.getvalue()) == (3, "")
    assert err.getvalue() == (
        "OutOfRange: the spread of x underflows float64; rescale the data\n"
    )


@pytest.mark.parametrize("s_xx, s_yy", [(1e-300, 1e300), (1e300, 1e-300), (1e160, 1e-160)])
def test_slope_ratio_out_of_range_raises_out_of_range(s_xx, s_yy):
    # s_yy / s_xx overflows to inf, or underflows to 0 or to the subnormal
    # 1e-320, so the bounds would be (inf, inf), (0, 0) or inexact; the fit
    # and verify_fit build on them
    stats = SufficientStats(n=3, x_bar=1.0, y_bar=2.0, s_xx=s_xx, s_yy=s_yy, s_xy=0.5, rho=0.5)
    # the fit itself refuses these statistics, so verify a line of others
    line = fit_stats(replace(stats, s_xx=1.0, s_yy=1.0), FitConfig(gamma=0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: slope_bounds(stats),
            lambda: fit_stats(stats, FitConfig(gamma=0.5)),
            lambda: verify_fit(stats, line, FitConfig(gamma=0.5)),
        ):
            with pytest.raises(OutOfRange, match="s_yy / s_xx"):
                call()
        # the quartic takes no ratio: its coefficients are the sums times the weights
        quartic = build_quartic(stats, 0.5)
    assert quartic.coeffs == (0.5 * s_xx, -0.5 * 0.5, 0.0, 0.5 * 0.5, -0.5 * s_yy)


def _cli_stats_without_warnings(path: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["stats", "--input", str(path)])
    return code, out.getvalue(), err.getvalue()


_BIG = sys.float_info.max


# one block of rows whose math.fsum raises, on an overflow or on inf + -inf,
# where numpy's sums are inf or nan, or whose spread leaves the normal range:
# the CLI's error is compute_stats's, with no warning
@pytest.mark.parametrize(
    "x, y",
    [
        pytest.param(_scaled_line(s).x.tolist(), _scaled_line(s).y.tolist(), id=f"scaled {s:g}")
        for s in (1e160, 1e200, 1e307, 1e-170, 1e-200, 1e-320, 1e76, 1e-80, 1e-160)
    ]
    + [
        pytest.param([_BIG, _BIG, _BIG], [1.0, 2.0, 4.0], id="constant x, sum overflows"),
        pytest.param([1.0, 2.0, 4.0], [-_BIG, -_BIG, -_BIG], id="constant y, sum overflows"),
        pytest.param([_BIG, _BIG, -_BIG, 1.0], [1.0, 2.0, 4.0, 3.0], id="partial sum overflows"),
        pytest.param([1e300, 1e300, 1e300], [1.0, 2.0, 4.0], id="constant x near the top"),
        pytest.param([-1e155, 1e155, -1e155], [1e155, -1e155, 1e155], id="products inf and -inf"),
        pytest.param(list(_SUBNORMAL_X), list(_SUBNORMAL_Y), id="subnormal spread"),
    ],
)
def test_one_block_cli_error_is_that_of_compute_stats(tmp_path, x, y):
    with pytest.raises((OutOfRange, DegenerateData)) as excinfo:
        _stats_without_warnings(Dataset(np.array(x), np.array(y)))
    path = tmp_path / "extreme.csv"
    path.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x, y)))
    code, out, err = _cli_stats_without_warnings(path)
    assert (code, out) == (3, "")
    assert err == f"{type(excinfo.value).__name__}: {excinfo.value}\n"

"""``verify_fit`` certifies a slope by an exact comparison of the objective.

The regressions below each failed while ``verify_fit`` re-found the slope by
golden-section search and checked the gradient by finite differences: a
correct fit of data offset by 10^6 failed the gradient check, a slope near
10^-8 made the search find no interior minimum, and a slope moved by 10^-12
of itself, or left a few Newton steps short, passed the search's agreement
gate of 10^-6.  A least-squares slope whose product with its lower bound
underflows to 0 was taken for one of the wrong sign, and a slope within 8
ulps of the largest float raised a bare ``OverflowError``.  The properties
then vary one thing at a time (offset, slope scale, data scale, extreme
weights) and ask that every fit be certified and that data mirrored to
``(x, -y)`` get the mirrored report, bit for bit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfit import (
    Dataset,
    FitConfig,
    FittedLine,
    OutOfRange,
    SufficientStats,
    compute_stats,
    fit_stats,
    intercept,
    slope_bounds,
    verify_fit,
)
from dualfit import cli
from dualfit.cli import EXIT_FIT, EXIT_OK, EXIT_VERIFY, main

from conftest import REFERENCE_POINTS


def _noisy_line(seed: int, n: int, slope: float, y_unit: float = 1.0, noise: float = 0.1):
    """Points near ``y = slope * x``, with errors of ``noise`` times the spread on both axes."""
    rng = np.random.default_rng(seed)
    x_true = rng.uniform(-1.0, 1.0, n)
    x = x_true + noise * rng.normal(size=n)
    y = slope * (x_true + noise * rng.normal(size=n))
    return x, y * y_unit


def _write_csv(path, x, y) -> str:
    path.write_text("x,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y)))
    return str(path)


def _report(x, y, gamma: float, policy: str = "error"):
    stats = compute_stats(Dataset(x, y))
    config = FitConfig(gamma, policy)
    line = fit_stats(stats, config)
    return stats, line, config, verify_fit(stats, line, config)


# ---- regressions ---------------------------------------------------------------


def test_cli_certifies_the_reference_data_offset_by_1e6(tmp_path, capsys):
    x, y = zip(*REFERENCE_POINTS)
    path = _write_csv(tmp_path / "offset.csv", [v + 1e6 for v in x], [v + 1e6 for v in y])
    assert main(["verify", "--input", path, "--gamma", "0.9"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_a_slope_near_1e_minus_8_is_certified():
    _, line, _, report = _report(*_noisy_line(8, 200, 1e-8, noise=0.2), 0.5)
    assert 1e-9 < line.beta1 < 1e-7
    assert report.certified and report.abs_gap == 0.0


@pytest.mark.parametrize(
    "slope, y_unit", [(1e-12, 1.0), (1.5, 1e-6), (1.5, 1e-3), (1.5, 1.0), (1.5, 1e3), (1.5, 1e6)]
)
@pytest.mark.parametrize("moved_by", [1e-12, -1e-12])
def test_a_slope_moved_by_1e_minus_12_of_itself_fails(
    tmp_path, capsys, monkeypatch, slope, y_unit, moved_by
):
    x, y = _noisy_line(12, 200, slope, y_unit)
    stats, line, config, report = _report(x, y, 0.5)
    assert report.certified
    moved = dataclasses.replace(line, beta1=line.beta1 * (1.0 + moved_by))
    assert not verify_fit(stats, moved, config).certified

    path = _write_csv(tmp_path / "line.csv", x, y)
    assert main(["verify", "--input", path]) == EXIT_OK
    bind = cli._solver

    def moved_solver(stats, policy):
        solve = bind(stats, policy)

        def moved(gamma):
            beta0, beta1, *rest = solve(gamma)
            return (beta0, beta1 * (1.0 + moved_by), *rest)

        return moved

    monkeypatch.setattr(cli, "_solver", moved_solver)
    capsys.readouterr()
    assert main(["verify", "--input", path]) == EXIT_VERIFY
    err = capsys.readouterr().err
    assert err.startswith("VerificationFailure: ") and err.count("\n") == 1


def test_a_slope_whose_product_with_its_lower_bound_underflows_is_certified(tmp_path, capsys):
    # the least-squares slope times the lower slope bound underflows to 0, so
    # a sign test by that product took the slope for one of the wrong sign
    stats = SufficientStats(
        n=3, x_bar=1.0, y_bar=2.0, s_xx=1.0, s_yy=1e-300, s_xy=1e-162, rho=1e-12
    )
    config = FitConfig(1.0)
    line = fit_stats(stats, config)
    assert line.beta1 > 0.0 and line.beta1 * slope_bounds(stats)[0] == 0.0
    assert verify_fit(stats, line, config).certified
    # x in units of 1e80 and y of 1e-81 gave such a product too, but there
    # s_yy / s_xx is subnormal, so the slope bounds themselves are refused
    x, y = _noisy_line(1, 200, 0.3, y_unit=1e-81, noise=1.0)
    with pytest.raises(OutOfRange, match="s_yy / s_xx"):
        _report(x * 1e80, y, 1.0)
    path = _write_csv(tmp_path / "tiny.csv", x * 1e80, y)
    assert main(["verify", "--input", path, "--gamma", "1"]) == EXIT_FIT
    assert capsys.readouterr().err.startswith("OutOfRange: s_yy / s_xx = ")


def _newton_iterates(stats: SufficientStats, gamma: float) -> list[float]:
    """The slopes of Newton's method on the reduced quartic ``f(t)``, run as the fit runs it."""
    rho, ratio = stats.rho, stats.s_yy / stats.s_xx
    k = gamma / (1.0 - gamma) * ratio
    t = min(1.0 / rho, rho + k**-0.25)
    iterates = [t]
    while True:
        kt2 = k * t * t
        value = kt2 * t * (t - rho) + (rho * t - 1.0)
        step_to = max(rho, t - value / (kt2 * (4.0 * t - 3.0 * rho) + rho))
        if not (value > 0.0 and step_to < t):
            break
        t = step_to
        iterates.append(t)
    return [t * math.sqrt(ratio) for t in iterates]


@pytest.mark.parametrize("gamma", [0.1, 0.4, 0.9])
def test_newton_stopped_a_few_steps_early_fails(gamma):
    rho = 1e-6
    stats = SufficientStats(
        n=1000, x_bar=3.0, y_bar=-2.0, s_xx=2.0, s_yy=3.0, s_xy=rho * 6.0**0.5, rho=rho
    )
    config = FitConfig(gamma)
    line = fit_stats(stats, config)
    iterates = _newton_iterates(stats, gamma)
    assert iterates[-1] == line.beta1 and len(iterates) >= 3
    assert verify_fit(stats, line, config).certified
    # the start and the first step, thousands of ulps or more from the root
    for early in iterates[:2]:
        short = dataclasses.replace(line, beta0=intercept(stats, early), beta1=early)
        assert not verify_fit(stats, short, config).certified, early


def test_a_slope_of_the_wrong_sign_fails():
    stats, line, config, _ = _report(*_noisy_line(3, 50, 1.5), 0.5)
    report = verify_fit(stats, dataclasses.replace(line, beta1=-line.beta1), config)
    assert not report.certified and report.oracle_slope == line.beta1


@pytest.mark.parametrize("slope", [sys.float_info.max, -sys.float_info.max])
@pytest.mark.parametrize("policy", ["error", "reflect"])
def test_a_bracket_past_the_largest_float_is_out_of_range(slope, policy):
    # 8 ulps above the largest float is inf, which has no integer value; the
    # bounds of a fit cap its slope near 1e166, so only a library call gets here
    stats = SufficientStats(n=3, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=4.0, s_xy=1.0, rho=0.5)
    line = FittedLine(0.0, slope, 0.5, 1.0)
    with pytest.raises(OutOfRange, match="8-ulp bracket leaves float64"):
        verify_fit(stats, line, FitConfig(0.5, policy))


# ---- properties ------------------------------------------------------------------


def _mirrored(report):
    low, high = report.bracket
    return dataclasses.replace(
        report,
        oracle_slope=-report.oracle_slope,
        quartic_slope=-report.quartic_slope,
        bracket=(-high, -low),
    )


def _assert_certified_and_mirrored(x, y, gamma: float) -> None:
    _, _, _, report = _report(x, y, gamma, "reflect")
    assert report.certified, report
    _, _, _, mirror = _report(x, -y, gamma, "reflect")
    assert repr(mirror) == repr(_mirrored(report))


_SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(seed=_SEEDS, x_offset=st.floats(-1e8, 1e8), y_offset=st.floats(-1e8, 1e8))
def test_offset_data_is_certified(seed, x_offset, y_offset):
    x, y = _noisy_line(seed, 50, 1.5)
    _assert_certified_and_mirrored(x + x_offset, y + y_offset, 0.3)


@settings(max_examples=40, deadline=None)
@given(seed=_SEEDS, exponent=st.floats(-12.0, 12.0))
def test_any_slope_scale_is_certified(seed, exponent):
    x, y = _noisy_line(seed, 50, 10.0**exponent)
    _assert_certified_and_mirrored(x, y, 0.3)


@settings(max_examples=40, deadline=None)
@given(seed=_SEEDS, exponent=st.floats(-150.0, 150.0))
def test_any_data_scale_is_certified_or_out_of_range(seed, exponent):
    x, y = _noisy_line(seed, 50, 1.5)
    scale = 10.0**exponent
    # beyond about 1e75, s_xx * s_yy leaves float64 and the statistics are
    # refused by a typed error (ROADMAP item 3); within 1e70 they never are
    with contextlib.suppress(*((OutOfRange,) if abs(exponent) > 70.0 else ())):
        _assert_certified_and_mirrored(x * scale, y * scale, 0.3)


@settings(max_examples=40, deadline=None)
@given(seed=_SEEDS, gamma=st.sampled_from([5e-324, 1e-300, 1.0 - 1e-16]))
def test_extreme_weights_are_certified(seed, gamma):
    _assert_certified_and_mirrored(*_noisy_line(seed, 50, 1.5), gamma)

"""An independent reference for every value the benchmark checks.

Nothing here imports dualfit.  Statistics are two-pass ``math.fsum`` sums;
the interior slope is found by bisection on the reduced quartic
``f(t) = k*t^3*(t - rho) + rho*t - 1`` over ``[rho, 1/rho]`` (with
``b = t*sqrt(S_yy/S_xx)`` and ``k = gamma*S_yy / ((1 - gamma)*S_xx)``), which
has exactly one root there; ``np.polyfit`` gives the slope at gamma = 1 and
``S_yy/S_xy`` the slope at gamma = 0.  The helpers at the end check the
properties the method must have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# relative tolerance of every comparison with the reference: CLI output
# carries 10 significant digits, and rounding alone moves a value by up to
# 5e-10 of itself; library output differs from it by summation order only
REL_TOL = 1e-9
# the gate `dualfit verify` applies: slope gap <= 1e-6 * (1 + |slope|) and
# gradient relative error <= 1e-6
VERIFY_GAP = 1e-6
VERIFY_GRADIENT = 1e-6


@dataclass(frozen=True)
class Stats:
    n: int
    x_bar: float
    y_bar: float
    s_xx: float
    s_yy: float
    s_xy: float

    @property
    def rho(self) -> float:
        return max(-1.0, min(1.0, self.s_xy / math.sqrt(self.s_xx * self.s_yy)))

    @property
    def ratio(self) -> float:
        return math.sqrt(self.s_yy / self.s_xx)

    def reflected(self) -> "Stats":
        return Stats(self.n, self.x_bar, -self.y_bar, self.s_xx, self.s_yy, -self.s_xy)


def stats(x: np.ndarray, y: np.ndarray) -> Stats:
    """Two-pass sufficient statistics with exactly rounded sums."""
    n = int(x.size)
    x_bar = math.fsum(x.tolist()) / n
    y_bar = math.fsum(y.tolist()) / n
    dx = x - x_bar
    dy = y - y_bar
    return Stats(
        n,
        x_bar,
        y_bar,
        math.fsum((dx * dx).tolist()),
        math.fsum((dy * dy).tolist()),
        math.fsum((dx * dy).tolist()),
    )


def bounds(st: Stats) -> tuple[float, float]:
    """The bracket ``[rho*r, r/rho]``, mirrored for negative correlation."""
    if st.s_xy < 0.0:
        lower, upper = bounds(st.reflected())
        return -upper, -lower
    return st.rho * st.ratio, st.ratio / st.rho


def slope(st: Stats, gamma: float) -> float:
    """Optimal slope for weight ``gamma``; negative data is fitted reflected."""
    if st.s_xy < 0.0:
        return -slope(st.reflected(), gamma)
    if gamma == 1.0:
        return st.s_xy / st.s_xx
    if gamma == 0.0:
        return st.s_yy / st.s_xy
    rho = st.rho
    k = gamma * st.s_yy / ((1.0 - gamma) * st.s_xx)
    lo, hi = rho, 1.0 / rho
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if k * mid**3 * (mid - rho) + rho * mid - 1.0 < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * st.ratio


def polyfit_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y on x, the gamma = 1 fit."""
    return float(np.polyfit(x, y, 1)[0])


def profile_sse(st: Stats, b: float, gamma: float) -> float:
    """Objective at slope ``b`` with the intercept through the centroid."""
    vertical = math.fsum((st.s_yy, -2.0 * b * st.s_xy, b * b * st.s_xx))
    if gamma == 1.0:
        return vertical
    return gamma * vertical + (1.0 - gamma) * vertical / (b * b)


# ---------------------------------------------------------------------------
# checks; each returns a list of failure descriptions, empty when all hold
# ---------------------------------------------------------------------------


def close(value: float, expected: float, scale: float = 0.0) -> bool:
    """``|value - expected| <= REL_TOL * max(|expected|, scale)``."""
    return abs(value - expected) <= REL_TOL * max(abs(expected), scale)


def check_line(st: Stats, gamma: float, beta0: float, beta1: float) -> list[str]:
    """A fitted line against the reference and the method's properties.

    The slope matches the reference and lies in the bracket; the intercept
    is ``y_bar - beta1*x_bar``; the profile objective at the slope is no
    larger than at ``slope*(1 +- 1e-6)``.
    """
    errors = []
    expected = slope(st, gamma)
    if not close(beta1, expected):
        errors.append(f"slope {beta1!r} != reference {expected!r}")
    lower, upper = bounds(st)
    pad = REL_TOL * max(abs(lower), abs(upper))
    if not lower - pad <= beta1 <= upper + pad:
        errors.append(f"slope {beta1!r} outside bracket [{lower!r}, {upper!r}]")
    centroid = st.y_bar - beta1 * st.x_bar
    if not close(beta0, centroid, abs(st.y_bar) + abs(beta1 * st.x_bar)):
        errors.append(f"intercept {beta0!r} != y_bar - beta1*x_bar = {centroid!r}")
    if st.s_xy < 0.0:
        st, beta1 = st.reflected(), -beta1
    here = profile_sse(st, beta1, gamma)
    for factor in (1.0 - 1e-6, 1.0 + 1e-6):
        there = profile_sse(st, beta1 * factor, gamma)
        if here > there:
            errors.append(f"objective at {beta1!r} exceeds that at {beta1 * factor!r}")
    return errors


def check_stats(fields: dict, st: Stats) -> list[str]:
    """Printed statistics against the reference."""
    errors = []
    if fields["n"] != st.n:
        errors.append(f"n {fields['n']} != {st.n}")
    spread = math.sqrt(st.s_xx * st.s_yy)
    expected = {
        "x_bar": (st.x_bar, math.sqrt(st.s_xx / st.n)),
        "y_bar": (st.y_bar, math.sqrt(st.s_yy / st.n)),
        "s_xx": (st.s_xx, 0.0),
        "s_yy": (st.s_yy, 0.0),
        "s_xy": (st.s_xy, spread),
        "rho": (st.rho, 1.0),
    }
    for key, (value, scale) in expected.items():
        if not close(fields[key], value, scale):
            errors.append(f"{key} {fields[key]!r} != reference {value!r}")
    return errors


def check_verify(
    st: Stats, gamma: float, beta1: float, oracle_slope: float, gradient_err: float
) -> list[str]:
    """A verification report: gate passed and the oracle found the reference slope."""
    errors = []
    expected = slope(st, gamma)
    gap = VERIFY_GAP * (1.0 + abs(beta1))
    if abs(oracle_slope - beta1) > gap or gradient_err > VERIFY_GRADIENT:
        errors.append(
            f"verify gate failed: oracle {oracle_slope!r} vs {beta1!r}, gradient {gradient_err!r}"
        )
    if abs(oracle_slope - expected) > gap + REL_TOL * abs(expected):
        errors.append(f"oracle slope {oracle_slope!r} != reference {expected!r}")
    return errors

"""Derivative-free cross-checks for the quartic fitting path.

Nothing here touches the quartic.  The slope is re-found by golden-section
search on the profile objective (intercept pinned to the centroid line), and
the analytic gradient is re-checked against central finite differences.  A
fit is trusted only when both independent routes agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    FitConfig,
    FittedLine,
    SufficientStats,
    intercept,
    reflected,
    slope_bounds,
    sse,
    sse_gradient,
)
from .errors import BracketFailure, InvalidInput, SingularSlope

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2

# the slope bounds are widened by this factor on each side before searching
_BRACKET_PAD = 0.01

# threshold on the max relative gradient error for a fit to pass verification
GRADIENT_TOL = 1e-6


@dataclass(frozen=True)
class OracleReport:
    """Outcome of re-deriving a fit without the quartic.

    ``abs_gap`` is ``|oracle_slope - quartic_slope|`` and ``profile_evals``
    counts every profile evaluation spent by the search (zero for endpoint
    weights, which have closed forms and need no search).
    """

    oracle_slope: float
    quartic_slope: float
    abs_gap: float
    profile_evals: int
    bracket: tuple[float, float]
    gradient_max_rel_err: float

    def __post_init__(self):
        if self.bracket[0] >= self.bracket[1]:
            raise InvalidInput(f"bracket must be increasing, got {self.bracket}")
        if self.profile_evals < 0:
            raise InvalidInput("evaluation count cannot be negative")
        if self.abs_gap != abs(self.oracle_slope - self.quartic_slope):
            raise InvalidInput("abs_gap must equal |oracle_slope - quartic_slope|")
        if self.gradient_max_rel_err < 0.0:
            raise InvalidInput("gradient error cannot be negative")


def profile_sse(stats: SufficientStats, beta1: float, gamma: float) -> float:
    """Objective as a function of the slope alone, intercept on the centroid line."""
    return sse(stats, intercept(stats, beta1), beta1, gamma)


def _minimize_traced(
    stats: SufficientStats, gamma: float, tol: float
) -> tuple[float, int, tuple[float, float]]:
    if not 0.0 < gamma < 1.0:
        raise InvalidInput(f"profile search is defined for 0 < gamma < 1, got {gamma}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidInput(f"tolerance must be positive and finite, got {tol}")
    lower, upper = slope_bounds(stats)
    a = lower * (1.0 - _BRACKET_PAD)
    b = upper * (1.0 + _BRACKET_PAD)
    bracket = (a, b)

    evals = 0
    interior_best = math.inf

    def f(beta1: float) -> float:
        nonlocal evals, interior_best
        evals += 1
        value = profile_sse(stats, beta1, gamma)
        interior_best = min(interior_best, value)
        return value

    h = b - a
    if h <= tol:
        return (a + b) / 2.0, evals, bracket

    steps = math.ceil(math.log(tol / h) / math.log(INV_PHI))
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(steps - 1):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= INV_PHI
            c = a + INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= INV_PHI
            d = a + INV_PHI * h
            yd = f(d)
    x_star = (a + d) / 2.0 if yc < yd else (c + b) / 2.0

    # a true interior minimum beats both widened endpoints; an endpoint that
    # undercuts every interior probe means the minimum escaped the bracket
    evals += 2
    if (
        profile_sse(stats, bracket[0], gamma) < interior_best
        or profile_sse(stats, bracket[1], gamma) < interior_best
    ):
        raise BracketFailure(
            f"no interior minimum in [{bracket[0]:.6g}, {bracket[1]:.6g}]"
        )
    return x_star, evals, bracket


def minimize_profile(stats: SufficientStats, gamma: float, tol: float = 1e-9) -> float:
    """Golden-section minimizer of the profile objective.

    Searches the slope bounds widened by 1% on each side, shrinking until the
    bracket is narrower than ``tol``.  Deterministic, derivative-free, and
    independent of the quartic path.

    Raises
    ------
    BracketFailure
        If a widened endpoint undercuts every interior probe.
    """
    slope, _, _ = _minimize_traced(stats, gamma, tol)
    return slope


def check_gradient(
    stats: SufficientStats,
    beta0: float,
    beta1: float,
    gamma: float,
    step: float = 1e-6,
) -> float:
    """Max relative disagreement between the analytic gradient and central differences.

    The relative error of a component pair (a, f) is
    ``|a - f| / max(1, |a|, |f|)``.

    Raises
    ------
    SingularSlope
        If ``beta1`` or ``beta1 +- step`` is zero.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise InvalidInput(f"step must be positive and finite, got {step}")
    if beta1 == 0.0 or beta1 - step == 0.0 or beta1 + step == 0.0:
        raise SingularSlope("finite differences straddle beta1 = 0")
    a0, a1 = sse_gradient(stats, beta0, beta1, gamma)
    fd0 = (sse(stats, beta0 + step, beta1, gamma) - sse(stats, beta0 - step, beta1, gamma)) / (
        2.0 * step
    )
    fd1 = (sse(stats, beta0, beta1 + step, gamma) - sse(stats, beta0, beta1 - step, gamma)) / (
        2.0 * step
    )
    return max(_rel_err(a0, fd0), _rel_err(a1, fd1))


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def verify_fit(stats: SufficientStats, line: FittedLine, config: FitConfig) -> OracleReport:
    """Re-derive a fitted slope without the quartic and re-check the gradient.

    Interior weights are re-minimized by golden-section search; the endpoint
    weights compare against their closed forms.  The gradient is checked at
    the fitted point and at nearby off-optimum probes, each with a step
    scaled as ``1e-6 * (1 + |beta1|)``.

    A negatively correlated fit made with the reflect policy is re-derived
    on the statistics of ``(x, -y)``; the oracle slope and bracket are then
    negated back, and the gradient is checked on the original statistics.
    """
    gamma = line.gamma
    reflect = stats.rho < 0.0 and config.negative_correlation_policy == "reflect"
    positive = reflected(stats) if reflect else stats
    lower, upper = slope_bounds(positive)
    if 0.0 < gamma < 1.0:
        oracle_slope, evals, bracket = _minimize_traced(positive, gamma, config.oracle_tol)
    else:
        oracle_slope = (
            positive.s_xy / positive.s_xx if gamma == 1.0 else positive.s_yy / positive.s_xy
        )
        evals = 0
        bracket = (lower * (1.0 - _BRACKET_PAD), upper * (1.0 + _BRACKET_PAD))
    if reflect:
        oracle_slope, bracket = -oracle_slope, (-bracket[1], -bracket[0])

    grad_err = 0.0
    for factor in (1.0, 0.9, 1.1):
        b1 = line.beta1 * factor
        step = 1e-6 * (1.0 + abs(b1))
        if abs(b1) <= 2.0 * step:
            continue  # differences would straddle the beta1 = 0 singularity
        for b0 in (intercept(stats, b1), line.beta0 + 0.25 * (1.0 + abs(line.beta0))):
            grad_err = max(grad_err, check_gradient(stats, b0, b1, gamma, step))

    return OracleReport(
        oracle_slope=oracle_slope,
        quartic_slope=line.beta1,
        abs_gap=abs(oracle_slope - line.beta1),
        profile_evals=evals,
        bracket=bracket,
        gradient_max_rel_err=grad_err,
    )

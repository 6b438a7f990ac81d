"""Derivative-free cross-checks for the quartic fitting path.

Nothing here touches the quartic.  The slope is re-found by golden-section
search on the profile objective (intercept pinned to the centroid line), and
the analytic gradient is re-checked against central finite differences.  A
fit is trusted only when both independent routes agree.

Each search and each ``verify_fit`` binds the objective to its statistics
once, through ``core._objective``, and every evaluation after that calls the
bound function: the same arithmetic as :func:`dualfit.core.sse`, without
re-reading the statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import (
    FitConfig,
    FittedLine,
    SufficientStats,
    _objective,
    _slope_interval,
    intercept,
    reflected,
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

# the golden-section search stops once its bracket is narrower than this
_SEARCH_TOL = 1e-9


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
    """Objective as a function of the slope alone, intercept on the centroid line.

    One evaluation; the golden-section search evaluates the same profile
    through an objective it binds once per search.
    """
    return sse(stats, intercept(stats, beta1), beta1, gamma)


def _minimize_traced(
    stats: SufficientStats, gamma: float, tol: float
) -> tuple[float, int, tuple[float, float]]:
    if not 0.0 < gamma < 1.0:
        raise InvalidInput(f"profile search is defined for 0 < gamma < 1, got {gamma}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidInput(f"tolerance must be positive and finite, got {tol}")
    a, b = bracket = _slope_interval(stats, False, _BRACKET_PAD)

    h = b - a
    if h <= tol:
        return (a + b) / 2.0, 0, bracket

    # the profile objective: intercept on the centroid line
    f = _objective(stats, gamma)
    x_bar, y_bar = stats.x_bar, stats.y_bar
    steps = math.ceil(math.log(tol / h) / math.log(INV_PHI))
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    yc = f(y_bar - c * x_bar, c)
    yd = f(y_bar - d * x_bar, d)
    interior_best = min(math.inf, yc, yd)  # a NaN probe is never the best
    for _ in range(steps - 1):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= INV_PHI
            c = a + INV_PHI2 * h
            yc = f(y_bar - c * x_bar, c)
            if yc < interior_best:
                interior_best = yc
        else:
            a, c, yc = c, d, yd
            h *= INV_PHI
            d = a + INV_PHI * h
            yd = f(y_bar - d * x_bar, d)
            if yd < interior_best:
                interior_best = yd
    x_star = (a + d) / 2.0 if yc < yd else (c + b) / 2.0

    # a true interior minimum beats both widened endpoints; an endpoint that
    # undercuts every interior probe means the minimum escaped the bracket
    low, high = bracket
    if (
        f(y_bar - low * x_bar, low) < interior_best
        or f(y_bar - high * x_bar, high) < interior_best
    ):
        raise BracketFailure(f"no interior minimum in [{low:.6g}, {high:.6g}]")
    # evaluations: two first probes, one per narrowing, two endpoints
    return x_star, steps + 3, bracket


def minimize_profile(stats: SufficientStats, gamma: float, tol: float = _SEARCH_TOL) -> float:
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
    ``|a - f| / max(1, |a|, |f|)``.  The four differences are evaluations of
    one objective bound to ``stats`` and ``gamma``.

    Raises
    ------
    SingularSlope
        If ``|beta1| <= step``, so that the differences straddle or touch
        ``beta1 = 0``.
    """
    return _gradient_error(_objective(stats, gamma), stats, beta0, beta1, gamma, step)


def _gradient_error(
    objective: Callable[[float, float], float],
    stats: SufficientStats,
    beta0: float,
    beta1: float,
    gamma: float,
    step: float,
) -> float:
    # check_gradient with its objective already bound, so that verify_fit
    # binds one for all of its probes
    if not (math.isfinite(step) and step > 0.0):
        raise InvalidInput(f"step must be positive and finite, got {step}")
    if abs(beta1) <= step:
        raise SingularSlope("finite differences straddle beta1 = 0")
    a0, a1 = sse_gradient(stats, beta0, beta1, gamma)
    fd0 = (objective(beta0 + step, beta1) - objective(beta0 - step, beta1)) / (2.0 * step)
    fd1 = (objective(beta0, beta1 + step) - objective(beta0, beta1 - step)) / (2.0 * step)
    return max(_rel_err(a0, fd0), _rel_err(a1, fd1))


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def verify_fit(stats: SufficientStats, line: FittedLine, config: FitConfig) -> OracleReport:
    """Re-derive a fitted slope without the quartic and re-check the gradient.

    Interior weights are re-minimized by golden-section search down to a
    bracket of width 1e-9, as :func:`minimize_profile` does by default; the
    endpoint weights compare against their closed forms.  Of ``config`` only
    the negative-correlation policy is read; the weight is the line's.  The
    gradient is checked at the fitted point and at nearby off-optimum
    probes, each with a step scaled as ``1e-6 * (1 + |beta1|)``.

    A negatively correlated fit made with the reflect policy is re-derived
    on the statistics of ``(x, -y)``; the oracle slope and bracket are then
    negated back, and the gradient is checked on the original statistics.
    The off-optimum probes move the intercept towards the sign of the slope,
    so the report on ``(x, -y)`` mirrors this one bit for bit.
    """
    gamma = line.gamma
    reflect = stats.rho < 0.0 and config.negative_correlation_policy == "reflect"
    if 0.0 < gamma < 1.0:
        positive = reflected(stats) if reflect else stats
        oracle_slope, evals, bracket = _minimize_traced(positive, gamma, _SEARCH_TOL)
        if reflect:
            oracle_slope, bracket = -oracle_slope, (-bracket[1], -bracket[0])
    else:
        bracket = _slope_interval(stats, reflect, _BRACKET_PAD)
        # both closed forms are odd in y, so the reflected fit gives them back
        oracle_slope = stats.s_xy / stats.s_xx if gamma == 1.0 else stats.s_yy / stats.s_xy
        evals = 0

    objective = _objective(stats, gamma)
    grad_err = 0.0
    off_line = line.beta0 + math.copysign(0.25 * (1.0 + abs(line.beta0)), line.beta1)
    for factor in (1.0, 0.9, 1.1):
        b1 = line.beta1 * factor
        step = 1e-6 * (1.0 + abs(b1))
        if abs(b1) <= 2.0 * step:
            continue  # differences would straddle the beta1 = 0 singularity
        for b0 in (intercept(stats, b1), off_line):
            grad_err = max(grad_err, _gradient_error(objective, stats, b0, b1, gamma, step))

    return OracleReport(
        oracle_slope=oracle_slope,
        quartic_slope=line.beta1,
        abs_gap=abs(oracle_slope - line.beta1),
        profile_evals=evals,
        bracket=bracket,
        gradient_max_rel_err=grad_err,
    )

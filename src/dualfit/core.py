"""Straight-line fitting under a blended squared-error objective: the kernel.

The objective weighs squared vertical residuals by ``gamma`` and squared
horizontal residuals by ``1 - gamma``, with ``gamma`` in [0, 1].  For any
weight the optimal intercept keeps the line through the centroid of the data;
the optimal slope is the one root of a quartic polynomial, built from the
sufficient statistics, that lies between the two closed-form endpoint slopes.
The solve writes the slope as ``b = t*r`` with ``r = sqrt(s_yy/s_xx)``, where
the quartic over ``(1 - gamma)*r`` is ``f(t) = k*t**3*(t - rho) + rho*t - 1``
with ``k = gamma/(1 - gamma) * s_yy/s_xx``; its root lies in ``[rho, 1/rho]``,
where ``f`` is increasing and convex, so Newton's method started above the
root falls monotonically onto it.  The two endpoint weights are the
classical closed forms: regression of y on x at ``gamma = 1`` and inverse
regression (x on y, re-expressed as a slope in y over x) at ``gamma = 0``.

The slope depends on the data only through the sufficient statistics.
:func:`fit_stats` checks their correlation (``_reflects``) and solves one
weight (``_solve``) in a straight call; ``_solver`` binds the two to one
dataset for ``dualfit sweep``.  :func:`build_quartic` and :class:`Quartic`
state the paper's equation in the slope itself.

Only positively correlated data has a well-defined fit here.  Negating y
negates rho and the slope, as ``q(-b; -rho) = q(b; rho)``, so under the
reflect policy (``FitConfig.negative_correlation_policy``) negatively
correlated data is solved at ``|rho|`` and the slope takes the sign of rho.

This module imports no numpy.  The arrays live in :mod:`dualfit.dataset`:
a :class:`~dualfit.dataset.Dataset` keeps the record that
:func:`compute_stats` and :func:`fit` read, and its statistics are checked
here by ``_checked_stats``.  A few rows held as Python floats are summarised
here too, by ``_fsum_moments``, and :func:`predict` and
:func:`inverse_predict` import numpy only when they are given an array.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Literal, NamedTuple, Sequence

from .errors import (
    DegenerateData,
    InvalidInput,
    NonPositiveCorrelation,
    OutOfRange,
    SingularSlope,
    SolverFailure,
    ZeroCorrelation,
)

if TYPE_CHECKING:
    import numpy as np

    from .dataset import Dataset

NegativeCorrelationPolicy = Literal["error", "reflect"]

# |rho| below this is indistinguishable from zero correlation.
ZERO_RHO_TOL = 1e-12

# Newton from _newton_root's start takes at most 9 steps, where k is near
# rho**-4, for k from 0 past the largest float and rho from ZERO_RHO_TOL to 1
_MAX_NEWTON_STEPS = 16

_EPS = sys.float_info.epsilon
# the least normal float64; a power of the slope below it has lost bits
_TINY = sys.float_info.min


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SufficientStats:
    """Count, means, and centered second-order sums of a dataset.

    ``s_xx``, ``s_yy``, ``s_xy`` are sums (not variances) of centered
    products, and ``rho`` is the sample correlation ``s_xy / sqrt(s_xx*s_yy)``
    clamped to [-1, 1].
    """

    n: int
    x_bar: float
    y_bar: float
    s_xx: float
    s_yy: float
    s_xy: float
    rho: float

    def __post_init__(self):
        if self.n < 2:
            raise InvalidInput(f"need at least 2 points, got {self.n}")
        fields = (self.x_bar, self.y_bar, self.s_xx, self.s_yy, self.s_xy, self.rho)
        if not all(math.isfinite(v) for v in fields):
            raise InvalidInput("statistics must be finite")
        if self.s_xx < 0.0 or self.s_yy < 0.0:
            raise InvalidInput("centered sums of squares cannot be negative")
        if abs(self.rho) > 1.0:
            raise InvalidInput(f"correlation must lie in [-1, 1], got {self.rho}")
        # Cauchy-Schwarz, with room for round-off on collinear data
        if self.s_xy * self.s_xy > self.s_xx * self.s_yy * (1.0 + 1e-12):
            raise InvalidInput("s_xy^2 exceeds s_xx * s_yy")
        if self.s_xx > 0.0 and self.s_yy > 0.0:
            implied = self.s_xy / math.sqrt(_normal_product(self.s_xx, self.s_yy))
            if abs(self.rho - max(-1.0, min(1.0, implied))) > 1e-9:
                raise InvalidInput(
                    f"rho {self.rho} disagrees with s_xy/sqrt(s_xx*s_yy) = {implied}"
                )
        elif self.rho != 0.0:
            raise InvalidInput(f"rho must be 0 when s_xx or s_yy is 0, got {self.rho}")


@dataclass(frozen=True)
class FitConfig:
    """The residual weight of a fit and what to do with negative correlation.

    ``negative_correlation_policy`` is ``"error"`` (the default: raise
    :class:`NonPositiveCorrelation`) or ``"reflect"`` (fit ``(x, -y)`` and
    negate the slope).
    """

    gamma: float
    negative_correlation_policy: NegativeCorrelationPolicy = "error"

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise InvalidInput(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.negative_correlation_policy not in ("error", "reflect"):
            raise InvalidInput(
                f"unknown negative_correlation_policy {self.negative_correlation_policy!r}"
            )


@dataclass(frozen=True)
class Quartic:
    """Degree-4 polynomial, coefficients highest degree first."""

    coeffs: tuple[float, float, float, float, float]

    def __post_init__(self):
        if len(self.coeffs) != 5:
            raise InvalidInput(f"expected 5 coefficients, got {len(self.coeffs)}")
        coeffs = tuple(float(c) for c in self.coeffs)
        if not all(math.isfinite(c) for c in coeffs):
            raise InvalidInput("coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, b: float) -> float:
        value = 0.0
        for c in self.coeffs:
            value = value * b + c
        return value


@dataclass(frozen=True)
class FittedLine:
    """A fitted line plus the diagnostics of how its slope was found.

    ``selected_root_residual`` is ``(1 - gamma)*r*|f(t)|`` of the module
    docstring, the slope quartic's absolute value at the fitted slope up to
    round-off (zero for the closed-form endpoint weights).  ``notes``
    carries human-readable flags such as reflection.
    """

    beta0: float
    beta1: float
    gamma: float
    sse: float
    selected_root_residual: float = 0.0
    notes: tuple[str, ...] = ()

    # the fields stored straight into the instance's dict, where the generated
    # __init__ calls object.__setattr__ once per field; @dataclass keeps this
    # __init__ and generates the rest.  Stores by key keep the dict's keys
    # shared with the other records: one dict.update would give each record
    # a table of its own, at some 140 bytes more
    def __init__(
        self,
        beta0: float,
        beta1: float,
        gamma: float,
        sse: float,
        selected_root_residual: float = 0.0,
        notes: tuple[str, ...] = (),
    ):
        fields = vars(self)
        fields["beta0"] = beta0
        fields["beta1"] = beta1
        fields["gamma"] = gamma
        fields["sse"] = sse
        fields["selected_root_residual"] = selected_root_residual
        fields["notes"] = notes


# ---------------------------------------------------------------------------
# statistics and the objective
# ---------------------------------------------------------------------------


def _normal_product(s_xx: float, s_yy: float) -> float:
    """``s_xx * s_yy``, whose square root the correlation divides by.

    Raises
    ------
    OutOfRange
        If the product leaves the normal float64 range.
    """
    product = s_xx * s_yy
    if not sys.float_info.min <= product < math.inf:
        raise OutOfRange(
            f"s_xx * s_yy = {s_xx:.3g} * {s_yy:.3g} is out of float64 range; "
            "rescale the data"
        )
    return product


class _Moments(NamedTuple):
    """Count, means, and centred sums of squares and products of some rows."""

    n: int
    x_bar: float
    y_bar: float
    s_xx: float
    s_yy: float
    s_xy: float


def _merge(a: _Moments, b: _Moments) -> _Moments:
    """Moments of the rows of ``a`` and ``b`` together.

    The update of Chan, Golub & LeVeque (1979), "Updating formulae and a
    pairwise algorithm for computing sample variances".
    """
    n = a.n + b.n
    dx = b.x_bar - a.x_bar
    dy = b.y_bar - a.y_bar
    share = b.n / n
    weight = a.n * b.n / n
    return _Moments(
        n,
        a.x_bar + dx * share,
        a.y_bar + dy * share,
        a.s_xx + b.s_xx + dx * dx * weight,
        a.s_yy + b.s_yy + dy * dy * weight,
        a.s_xy + b.s_xy + dx * dy * weight,
    )


def _fsum(values: Iterable[float]) -> float:
    """``math.fsum(values)``, or nan where an exact partial sum leaves float64.

    fsum raises there, where a float sum would be inf or nan; either way
    :func:`_checked_stats` refuses the figure.
    """
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):  # an overflow, or inf + -inf
        return math.nan


def _fsum_moments(xs: Sequence[float], ys: Sequence[float]) -> _Moments:
    """Corrected two-pass moments of rows held as Python floats.

    The means are correctly rounded sums over ``n``.  Each centred sum is
    ``sum(d*d) - sum(d)**2 / n`` over the deviations ``d`` from the rounded
    mean: the corrected two-pass algorithm of Chan, Golub & LeVeque (1983),
    "Algorithms for computing the sample variance", whose second term takes
    out what the rounding of the mean leaves in the first.  Every sum is a
    ``math.fsum``, so the figures are within about an ulp of exact, and
    they can differ in the last bits from numpy's pairwise sums.  Nothing is
    checked here; :func:`_checked_stats` checks the figures.
    """
    n = len(xs)
    x_bar = _fsum(xs) / n
    y_bar = _fsum(ys) / n
    dx = [v - x_bar for v in xs]
    dy = [v - y_bar for v in ys]
    sum_dx, sum_dy = _fsum(dx), _fsum(dy)
    return _Moments(
        n,
        x_bar,
        y_bar,
        _fsum(map(operator.mul, dx, dx)) - sum_dx * sum_dx / n,
        _fsum(map(operator.mul, dy, dy)) - sum_dy * sum_dy / n,
        _fsum(map(operator.mul, dx, dy)) - sum_dx * sum_dy / n,
    )


def _checked_stats(
    m: _Moments, ranges: Callable[[], tuple[float, float, float, float]]
) -> SufficientStats:
    """Check moments and build their record; the checks of :func:`compute_stats`.

    ``ranges()`` returns the least and greatest x, then y.  It is called only
    when a column's figures could be those of identical values, so that a
    caller holding the data scans it only then.

    Raises
    ------
    DegenerateData
        If all x values or all y values coincide.
    OutOfRange
        If a sum overflows, if the spread of x or y underflows to a zero or
        subnormal sum of squares, or if ``s_xx * s_yy`` leaves the normal
        float64 range.
    """
    n, x_bar, y_bar, s_xx, s_yy, s_xy = m
    # n identical values v leave round-off of at most (n * eps * v)^2 per row
    # in the centred sum, so only a sum at or below that (or not finite) can
    # be a constant column's; float ** would raise on overflow, * gives inf
    round_off_x = n * _EPS * x_bar
    round_off_y = n * _EPS * y_bar
    suspect_x = not s_xx > n * round_off_x * round_off_x
    suspect_y = not s_yy > n * round_off_y * round_off_y
    if suspect_x or suspect_y:
        x_min, x_max, y_min, y_max = ranges()
        for suspect, low, high, name in (
            (suspect_x, x_min, x_max, "x"),
            (suspect_y, y_min, y_max, "y"),
        ):
            if suspect and low == high:
                raise DegenerateData(f"all {name} values are identical")
    if not all(math.isfinite(v) for v in (x_bar, y_bar, s_xx, s_yy, s_xy)):
        raise OutOfRange("sums of squares overflow float64; rescale the data")
    spreads = ((s_xx, "x"), (s_yy, "y"))
    for s, name in spreads:
        if s == 0.0:
            raise OutOfRange(f"the spread of {name} underflows float64; rescale the data")
    product = _normal_product(s_xx, s_yy)
    # a subnormal sum keeps too few bits for a correlation to 10 digits; it
    # is checked after the product, whose error names both sums
    for s, name in spreads:
        if s < sys.float_info.min:
            raise OutOfRange(f"the spread of {name} underflows float64; rescale the data")
    rho = max(-1.0, min(1.0, s_xy / math.sqrt(product)))
    return SufficientStats(
        n=n, x_bar=x_bar, y_bar=y_bar, s_xx=s_xx, s_yy=s_yy, s_xy=s_xy, rho=rho
    )


def compute_stats(data: Dataset) -> SufficientStats:
    """Corrected two-pass sufficient statistics of a dataset, made once per Dataset.

    Means first, then centered sums of squares and products, each less what
    the rounding of the means leaves in it (Chan, Golub & LeVeque, 1983), so
    a column nearly constant at a large offset keeps its spread.  Round-off
    can push the correlation a hair past 1 in magnitude for collinear data,
    so it is clamped to [-1, 1].

    The first call keeps the record on ``data`` and every later call, and
    every :func:`fit` of ``data``, returns that same object.  This relies on
    the read-only contract of :class:`Dataset`: its columns cannot be
    written, and copies and pickles are rebuilt without the record.  An
    error is raised again by every call, never kept.

    Raises
    ------
    DegenerateData
        If all x values or all y values coincide.
    OutOfRange
        If a sum overflows, if the spread of x or y underflows to a zero or
        subnormal sum of squares, or if ``s_xx * s_yy`` leaves the normal
        float64 range.
    """
    return data._stats


def sse(stats: SufficientStats, beta0: float, beta1: float, gamma: float) -> float:
    """Blended objective from sufficient statistics alone.

    Vertical squared residuals carry weight ``gamma``, horizontal squared
    residuals ``1 - gamma``.  The horizontal term divides by ``beta1**2`` and
    is only evaluated when ``gamma < 1``; at ``gamma = 1`` any slope is
    allowed.

    Raises
    ------
    SingularSlope
        If ``beta1 == 0`` while ``gamma < 1``.
    OutOfRange
        If ``beta1`` is nonzero but its square underflows to a zero or
        subnormal float64 while ``gamma < 1``, or if the objective is not a
        finite float64 (a square that overflows gives ``0 * inf`` or
        ``inf / inf``).
    """
    # the vertical and horizontal sums share these products
    misfit = stats.y_bar - beta0 - beta1 * stats.x_bar
    offset = stats.n * misfit * misfit
    cross = 2.0 * beta1 * stats.s_xy
    beta1_sq = beta1 * beta1
    spread = beta1_sq * stats.s_xx
    total = gamma * (stats.s_yy - cross + spread + offset)
    if gamma < 1.0:
        if beta1_sq < _TINY:
            if beta1 == 0.0:
                raise SingularSlope("horizontal residuals are undefined at beta1 = 0")
            raise OutOfRange("the slope's square underflows float64; rescale the data")
        total += (1.0 - gamma) * ((spread - cross + stats.s_yy + offset) / beta1_sq)
    if not math.isfinite(total):
        raise OutOfRange("the objective overflows float64; rescale the data")
    return float(total)


def intercept(stats: SufficientStats, beta1: float) -> float:
    """Optimal intercept for a given slope: keeps the line through the centroid."""
    return stats.y_bar - beta1 * stats.x_bar


# ---------------------------------------------------------------------------
# the slope quartic
# ---------------------------------------------------------------------------


def build_quartic(stats: SufficientStats, gamma: float) -> Quartic:
    """Quartic in the slope whose root inside the slope bounds minimizes the objective.

    Coefficients, highest degree first:
    ``(gamma*sqrt(s_xx/s_yy), -gamma*rho, 0, (1-gamma)*rho,
    -(1-gamma)*sqrt(s_yy/s_xx))``.  Negating y negates rho, and
    ``q(-b; -rho) = q(b; rho)``, so the fit solves this quartic at ``|rho|``.

    Only interior weights go through the quartic; the endpoint weights have
    closed-form slopes and raise InvalidInput here.

    Raises
    ------
    DegenerateData
        If ``s_xx`` or ``s_yy`` is not positive.
    InvalidInput
        If ``gamma`` is not strictly between 0 and 1.
    OutOfRange
        If ``s_yy / s_xx`` leaves float64, as in :func:`slope_bounds`.
    """
    s_xx, s_yy = stats.s_xx, stats.s_yy
    if s_xx <= 0.0 or s_yy <= 0.0:
        raise DegenerateData("slope quartic needs positive spread in x and y")
    if not 0.0 < gamma < 1.0:
        raise InvalidInput(f"quartic is defined for 0 < gamma < 1, got {gamma}")
    ratio_yx = math.sqrt(_ratio(s_xx, s_yy))
    rho, horizontal = stats.rho, 1.0 - gamma
    leading = gamma * math.sqrt(s_xx / s_yy)
    return Quartic((leading, -gamma * rho, 0.0, horizontal * rho, -horizontal * ratio_yx))


# ---------------------------------------------------------------------------
# slope bounds and the fit
# ---------------------------------------------------------------------------


def slope_bounds(stats: SufficientStats) -> tuple[float, float]:
    """Interval guaranteed to contain the optimal slope for every weight.

    Returns ``(rho*sqrt(s_yy/s_xx), sqrt(s_yy/s_xx)/rho)``.  The two ends are
    the closed-form endpoint slopes and coincide when ``rho == 1``.

    Raises
    ------
    NonPositiveCorrelation
        If ``rho <= 0``.
    OutOfRange
        If ``s_yy / s_xx`` overflows, or underflows to a zero or subnormal
        float64 that has lost its bits, so that the ends would be infinite,
        zero or inexact.
    """
    return _bounds(stats.s_xx, stats.s_yy, stats.rho)


def _bounds(s_xx: float, s_yy: float, rho: float) -> tuple[float, float]:
    """:func:`slope_bounds` of the figures, at the correlation its caller solves at."""
    if s_xx <= 0.0 or s_yy <= 0.0:
        raise DegenerateData("slope bounds need positive spread in x and y")
    if rho <= 0.0:
        raise NonPositiveCorrelation(f"slope bounds need rho > 0, got {rho:.6g}")
    ratio = math.sqrt(_ratio(s_xx, s_yy))
    return rho * ratio, ratio / rho


def _ratio(s_xx: float, s_yy: float) -> float:
    """``s_yy / s_xx`` of positive sums, if it is a normal float64.

    Then ``s_xx / s_yy`` is finite too, at most ``1 / sys.float_info.min``.

    Raises
    ------
    OutOfRange
        If the ratio overflows, or underflows to a zero or subnormal float64.
    """
    ratio = s_yy / s_xx
    if not _TINY <= ratio < math.inf:
        raise OutOfRange(
            f"s_yy / s_xx = {s_yy:.3g} / {s_xx:.3g} is out of float64 range; rescale the data"
        )
    return ratio


def reflected(stats: SufficientStats) -> SufficientStats:
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


def _slope_interval(stats: SufficientStats, reflect: bool) -> tuple[float, float]:
    """:func:`slope_bounds`; with ``reflect``, those of :func:`reflected` statistics, negated.

    Negated, they fall on the data's negative slopes, where a reflect-policy
    fit lands.
    """
    lower, upper = _bounds(stats.s_xx, stats.s_yy, -stats.rho if reflect else stats.rho)
    return (-upper, -lower) if reflect else (lower, upper)


def fit_stats(stats: SufficientStats, config: FitConfig) -> FittedLine:
    """Fit from sufficient statistics; see :func:`fit` for the full contract.

    The correlation checks of ``_reflects``, then ``_solve`` at the one
    weight: the same lines, to the bit, as a ``_solver`` bound to ``stats``.
    """
    return _solve(stats, _reflects(stats, config.negative_correlation_policy), config.gamma)


def _solver(
    stats: SufficientStats, policy: NegativeCorrelationPolicy
) -> Callable[[float], FittedLine]:
    """:func:`fit_stats` as ``solve(gamma)``, with the correlation checked once, here.

    The ``OutOfRange`` of ``s_yy / s_xx`` is raised by each interior weight's ``solve``.
    """
    return partial(_solve, stats, _reflects(stats, policy))


def _reflects(stats: SufficientStats, policy: NegativeCorrelationPolicy) -> bool:
    """Whether a fit of ``stats`` is solved at ``-rho`` and negated, after its checks."""
    rho = stats.rho
    if abs(rho) < ZERO_RHO_TOL:
        raise ZeroCorrelation(f"correlation {rho:.3g} is numerically zero")
    if rho < 0.0 and policy != "reflect":
        raise NonPositiveCorrelation(f"rho = {rho:.6g} < 0; pass the reflect policy to fit anyway")
    return rho < 0.0


def _solve(stats: SufficientStats, reflect: bool, gamma: float) -> FittedLine:
    """The fit at one weight of statistics ``_reflects`` has passed.

    Both signs of rho are solved on ``stats`` themselves: the endpoint
    closed forms are odd in y, and an interior weight runs Newton on ``f(t)``
    at ``|rho|`` and negates the slope under ``reflect``.
    """
    residual = 0.0
    if gamma == 1.0:
        beta1 = stats.s_xy / stats.s_xx
    elif gamma == 0.0:
        beta1 = stats.s_yy / stats.s_xy
    else:
        ratio = _ratio(stats.s_xx, stats.s_yy)
        ratio_yx = math.sqrt(ratio)
        weight = float(gamma)  # a Python float whatever gamma's type
        horizontal = 1.0 - weight
        t, value = _newton_root(weight / horizontal * ratio, abs(stats.rho))
        root = t * ratio_yx
        beta1, residual = -root if reflect else root, horizontal * ratio_yx * abs(value)
    beta0 = intercept(stats, beta1)
    notes = ("fitted on (x, -y) and negated the slope",) if reflect else ()
    return FittedLine(beta0, beta1, gamma, sse(stats, beta0, beta1, gamma), residual, notes)


def _newton_root(k: float, rho: float) -> tuple[float, float]:
    """The root of ``f(t) = k*t**3*(t - rho) + rho*t - 1`` in ``[rho, 1/rho]``, and ``f`` there.

    On ``t >= rho``, ``t**3*(t - rho) >= (t - rho)**4``, so ``f`` is positive
    at ``rho + k**-0.25``, and Newton starts at the lesser of that and
    ``1/rho``.  Where rounding leaves ``f`` there no more than 0, the start is
    within rounding of the root and is returned, as any iterate is.
    ``k*t*t`` is formed first and ``4*k`` never, so that for a finite ``k``
    nothing overflows below the start.
    """
    if k == math.inf:
        # (t - rho) / rho <= 1 / (k * rho**4), below 1e-260: the root is rho
        return rho, rho * rho - 1.0
    # f(rho) <= 0 < f(t), and f is increasing and convex in between, so
    # Newton descends onto the root without overshooting
    t = min(1.0 / rho, rho + k**-0.25) if k else 1.0 / rho
    for _ in range(_MAX_NEWTON_STEPS):
        kt2 = k * t * t
        value = kt2 * t * (t - rho) + (rho * t - 1.0)
        if value <= 0.0:
            return t, value
        step_to = t - value / (kt2 * (4.0 * t - 3.0 * rho) + rho)
        if not step_to > rho:  # a NaN step too
            step_to = rho
        if not step_to < t:
            return t, value
        t = step_to
    raise SolverFailure(
        f"Newton did not settle in [{rho!r}, {1.0 / rho!r}] within {_MAX_NEWTON_STEPS} steps"
    )


def fit(data: Dataset, config: FitConfig) -> FittedLine:
    """Fit the line minimizing the blended squared-error objective.

    Parameters
    ----------
    data : Dataset
        Paired observations, at least two points, finite coordinates.  Its
        statistics come from :func:`compute_stats`, so they are worked out
        on the first fit or summary of ``data`` and read back after that.
    config : FitConfig
        Residual weight ``gamma`` and the policy for negatively correlated
        data.

    Returns
    -------
    FittedLine
        Slope, intercept, achieved objective, and the quartic's residual at
        the slope.  The intercept always equals ``y_bar - beta1 * x_bar``.
        For ``0 < gamma < 1`` the slope is the root of :func:`build_quartic`
        inside :func:`slope_bounds`, found by Newton's method on ``f(t)`` of
        the module docstring; the endpoint weights use their closed forms.

    Raises
    ------
    DegenerateData
        If all x or all y coincide.
    ZeroCorrelation
        If the correlation is numerically zero.
    NonPositiveCorrelation
        If the correlation is negative and the policy is ``"error"``.
    OutOfRange
        If the statistics leave float64, as in :func:`compute_stats`; if
        ``0 < gamma < 1`` and :func:`slope_bounds` refuses them; or if the
        slope's square underflows to a zero or subnormal float64 while
        ``gamma < 1``, or the objective overflows, as in :func:`sse`.
    SolverFailure
        If Newton's method does not settle within its step cap (not expected
        for valid data).
    """
    return fit_stats(compute_stats(data), config)


# ---------------------------------------------------------------------------
# using a fitted line
# ---------------------------------------------------------------------------


def predict(line: FittedLine, x: float | np.ndarray) -> float | np.ndarray:
    """Line value at ``x``, a number or an array of them.

    Raises
    ------
    OutOfRange
        If a value is not finite: the line's value overflows float64, or
        the query itself is not finite.
    """
    return _evaluate(lambda q: line.beta0 + line.beta1 * q, x, "predict")


def inverse_predict(line: FittedLine, y: float | np.ndarray) -> float | np.ndarray:
    """The ``x`` at which the line reaches ``y``, a number or an array of them.

    Needs a nonzero slope.

    Raises
    ------
    SingularSlope
        If the fitted slope is zero.
    OutOfRange
        If a value is not finite: the line reaches ``y`` beyond float64, or
        the query itself is not finite.
    """
    if line.beta1 == 0.0:
        raise SingularSlope("cannot invert a horizontal line")
    return _evaluate(lambda q: q / line.beta1 - line.beta0 / line.beta1, y, "inverse")


def _evaluate(
    formula: Callable, query: float | np.ndarray, name: str
) -> float | np.ndarray:
    """``formula(query)``, if every element of it is finite.

    A Python number, a numpy float64 among them, is computed as a Python
    float, which turns an overflow into inf without a warning; anything else
    goes through numpy, imported here, with its warnings muted.

    Raises
    ------
    OutOfRange
        Naming the first query whose value is not finite.
    """
    if isinstance(query, (int, float)):
        value = formula(float(query))
        if math.isfinite(value):
            return value
        first = float(query)
    else:
        import numpy as np

        with np.errstate(all="ignore"):  # an overflow is raised as OutOfRange
            value = formula(query)
        finite = np.isfinite(value)
        if finite.all():
            return value
        first = float(np.broadcast_to(query, finite.shape)[~finite].flat[0])
    problem = "overflows float64" if math.isfinite(first) else "is not finite"
    raise OutOfRange(f"{name} at {first:.10g} {problem}")

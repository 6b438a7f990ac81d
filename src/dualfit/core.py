"""Straight-line fitting under a blended squared-error objective.

The objective weighs squared vertical residuals by ``gamma`` and squared
horizontal residuals by ``1 - gamma``, with ``gamma`` in [0, 1].  For any
weight the optimal intercept keeps the line through the centroid of the data;
the optimal slope is the one root of a quartic polynomial, built from the
sufficient statistics, that lies between the two closed-form endpoint slopes.
On that interval the quartic is increasing and convex, so Newton's method
started at the upper end falls monotonically onto the root.  The two endpoint
weights are the classical closed forms: regression of y on x at ``gamma = 1``
and inverse regression (x on y, re-expressed as a slope in y over x) at
``gamma = 0``.

Only positively correlated data has a well-defined fit here.  Negatively
correlated data can be handled by reflecting y, fitting, and negating the
slope; see ``FitConfig.negative_correlation_policy``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Literal

import numpy as np

from .errors import (
    DegenerateData,
    InvalidInput,
    NonPositiveCorrelation,
    OutOfRange,
    SingularSlope,
    SolverFailure,
    ZeroCorrelation,
)

NegativeCorrelationPolicy = Literal["error", "reflect"]

# |rho| below this is indistinguishable from zero correlation.
ZERO_RHO_TOL = 1e-12

# Newton from the upper slope bound needs about log(1/rho^2) / log(4/3) steps
# when the root sits near the lower bound: some 200 at rho = ZERO_RHO_TOL.
_MAX_NEWTON_STEPS = 400


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Paired observations, stored as two equal-length read-only float arrays."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.array(self.x, dtype=float))
        y = np.atleast_1d(np.array(self.y, dtype=float))
        if x.ndim != 1 or y.ndim != 1:
            raise InvalidInput("x and y must be one-dimensional")
        if x.shape != y.shape:
            raise InvalidInput(f"x has {x.size} values but y has {y.size}")
        if x.size < 2:
            raise InvalidInput(f"need at least 2 points, got {x.size}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise InvalidInput("coordinates must be finite")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]]) -> "Dataset":
        """Build a Dataset from an iterable of (x, y) pairs."""
        try:
            arr = np.asarray(list(points), dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"points are not numeric pairs: {exc}") from exc
        if arr.size == 0:
            raise InvalidInput("need at least 2 points, got 0")
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InvalidInput("points must be (x, y) pairs")
        return cls(arr[:, 0], arr[:, 1])

    def __len__(self) -> int:
        return int(self.x.size)


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


@dataclass(frozen=True)
class FitConfig:
    """Residual weight and numerical policy for a single fit."""

    gamma: float
    oracle_tol: float = 1e-9
    negative_correlation_policy: NegativeCorrelationPolicy = "error"

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise InvalidInput(f"gamma must lie in [0, 1], got {self.gamma}")
        if not (math.isfinite(self.oracle_tol) and self.oracle_tol > 0.0):
            raise InvalidInput(f"oracle_tol must be positive and finite, got {self.oracle_tol}")
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

    ``selected_root_residual`` is the absolute value of the slope quartic at
    the fitted slope (zero for the closed-form endpoint weights).  ``notes``
    carries human-readable flags such as reflection.
    """

    beta0: float
    beta1: float
    gamma: float
    sse: float
    selected_root_residual: float = 0.0
    notes: tuple[str, ...] = ()


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


def compute_stats(data: Dataset) -> SufficientStats:
    """Two-pass sufficient statistics of a dataset.

    Means first, then centered sums of squares and products.  Round-off can
    push the correlation a hair past 1 in magnitude for collinear data, so it
    is clamped to [-1, 1].

    Raises
    ------
    DegenerateData
        If all x values or all y values coincide.
    OutOfRange
        If a sum overflows, if the spread of x or y underflows to a zero
        sum of squares, or if ``s_xx * s_yy`` leaves the normal float64 range.
    """
    x, y = data.x, data.y
    n = int(x.size)
    # the results are checked below, so numpy's overflow warnings are muted;
    # sum / n is x.mean() to the bit, at a fraction of its call overhead
    with np.errstate(all="ignore"):
        x_bar = float(x.sum()) / n
        y_bar = float(y.sum()) / n
        dx = x - x_bar
        dy = y - y_bar
        s_xx = float(dx @ dx)
        s_yy = float(dy @ dy)
        s_xy = float(dx @ dy)
    if not all(math.isfinite(v) for v in (x_bar, y_bar, s_xx, s_yy, s_xy)):
        raise OutOfRange("sums of squares overflow float64; rescale the data")
    for s, values, name in ((s_xx, x, "x"), (s_yy, y, "y")):
        if s == 0.0:
            if values.min() != values.max():
                raise OutOfRange(
                    f"the spread of {name} underflows float64; rescale the data"
                )
            raise DegenerateData(f"all {name} values are identical")
    rho = s_xy / math.sqrt(_normal_product(s_xx, s_yy))
    rho = max(-1.0, min(1.0, rho))
    return SufficientStats(
        n=n, x_bar=x_bar, y_bar=y_bar, s_xx=s_xx, s_yy=s_yy, s_xy=s_xy, rho=rho
    )


def sse(stats: SufficientStats, beta0: float, beta1: float, gamma: float) -> float:
    """Blended objective from sufficient statistics alone.

    Vertical squared residuals carry weight ``gamma``, horizontal squared
    residuals ``1 - gamma``.  The horizontal term divides by ``beta1`` and is
    only evaluated when ``gamma < 1``; at ``gamma = 1`` any slope is allowed.
    This is one call of the objective that ``_objective`` binds; code that
    evaluates many points of one dataset binds it once instead.

    Raises
    ------
    SingularSlope
        If ``beta1 == 0`` while ``gamma < 1``.
    """
    return _objective(stats, gamma)(beta0, beta1)


def _objective(stats: SufficientStats, gamma: float) -> Callable[[float, float], float]:
    """:func:`sse` as ``f(beta0, beta1)``, with the statistics and weights bound."""
    n = stats.n
    x_bar, y_bar = stats.x_bar, stats.y_bar
    s_xx, s_yy, s_xy = stats.s_xx, stats.s_yy, stats.s_xy
    horizontal_weight = 1.0 - gamma
    with_horizontal = gamma < 1.0

    def objective(beta0: float, beta1: float) -> float:
        # the vertical and horizontal sums share these products
        misfit = y_bar - beta0 - beta1 * x_bar
        offset = n * misfit * misfit
        cross = 2.0 * beta1 * s_xy
        beta1_sq = beta1 * beta1
        spread = beta1_sq * s_xx
        total = gamma * (s_yy - cross + spread + offset)
        if with_horizontal:
            if beta1 == 0.0:
                raise SingularSlope("horizontal residuals are undefined at beta1 = 0")
            total += horizontal_weight * ((spread - cross + s_yy + offset) / beta1_sq)
        return float(total)

    return objective


def sse_gradient(
    stats: SufficientStats, beta0: float, beta1: float, gamma: float
) -> tuple[float, float]:
    """Analytic gradient (d/d beta0, d/d beta1) of :func:`sse`.

    Raises
    ------
    SingularSlope
        If ``beta1 == 0``.
    """
    if beta1 == 0.0:
        raise SingularSlope("gradient is undefined at beta1 = 0")
    n = stats.n
    # raw power sums, reconstructed from the centered ones
    sum_x = n * stats.x_bar
    sum_y = n * stats.y_bar
    sum_xx = stats.s_xx + n * stats.x_bar * stats.x_bar
    sum_yy = stats.s_yy + n * stats.y_bar * stats.y_bar
    sum_xy = stats.s_xy + n * stats.x_bar * stats.y_bar

    b1sq = beta1 * beta1
    b1cu = b1sq * beta1
    g0 = 2.0 * (n * beta0 - (sum_y - beta1 * sum_x)) * (gamma * b1sq + 1.0 - gamma) / b1sq
    g1 = gamma * (-2.0 * sum_xy + 2.0 * beta0 * sum_x + 2.0 * beta1 * sum_xx)
    g1 += (1.0 - gamma) * (
        -2.0 * n * beta0 * beta0 / b1cu
        + 2.0 * sum_xy / b1sq
        - 2.0 * beta0 * sum_x / b1sq
        - 2.0 * sum_yy / b1cu
        + 4.0 * beta0 * sum_y / b1cu
    )
    return float(g0), float(g1)


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
    -(1-gamma)*sqrt(s_yy/s_xx))``.

    Only interior weights go through the quartic; the endpoint weights have
    closed-form slopes and raise InvalidInput here.
    """
    if stats.s_xx <= 0.0 or stats.s_yy <= 0.0:
        raise DegenerateData("slope quartic needs positive spread in x and y")
    if not 0.0 < gamma < 1.0:
        raise InvalidInput(f"quartic is defined for 0 < gamma < 1, got {gamma}")
    ratio_xy = math.sqrt(stats.s_xx / stats.s_yy)
    ratio_yx = math.sqrt(stats.s_yy / stats.s_xx)
    return Quartic(
        (
            gamma * ratio_xy,
            -gamma * stats.rho,
            0.0,
            (1.0 - gamma) * stats.rho,
            -(1.0 - gamma) * ratio_yx,
        )
    )


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
    """
    if stats.s_xx <= 0.0 or stats.s_yy <= 0.0:
        raise DegenerateData("slope bounds need positive spread in x and y")
    if stats.rho <= 0.0:
        raise NonPositiveCorrelation(f"slope bounds need rho > 0, got {stats.rho:.6g}")
    ratio = math.sqrt(stats.s_yy / stats.s_xx)
    return stats.rho * ratio, ratio / stats.rho


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


def _closed_form(stats: SufficientStats, beta1: float, gamma: float) -> FittedLine:
    beta0 = intercept(stats, beta1)
    return FittedLine(
        beta0=beta0,
        beta1=beta1,
        gamma=gamma,
        sse=sse(stats, beta0, beta1, gamma),
    )


def fit_stats(stats: SufficientStats, config: FitConfig) -> FittedLine:
    """Fit from sufficient statistics; see :func:`fit` for the full contract."""
    if abs(stats.rho) < ZERO_RHO_TOL:
        raise ZeroCorrelation(f"correlation {stats.rho:.3g} is numerically zero")
    if stats.rho < 0.0:
        if config.negative_correlation_policy != "reflect":
            raise NonPositiveCorrelation(
                f"rho = {stats.rho:.6g} < 0; pass the reflect policy to fit anyway"
            )
        mirrored = _fit_positive(reflected(stats), config)
        beta1 = -mirrored.beta1
        return FittedLine(
            beta0=stats.y_bar - beta1 * stats.x_bar,
            beta1=beta1,
            gamma=config.gamma,
            sse=mirrored.sse,
            selected_root_residual=mirrored.selected_root_residual,
            notes=("fitted on (x, -y) and negated the slope",),
        )
    return _fit_positive(stats, config)


def _fit_positive(stats: SufficientStats, config: FitConfig) -> FittedLine:
    gamma = config.gamma
    if gamma == 1.0:
        return _closed_form(stats, stats.s_xy / stats.s_xx, gamma)
    if gamma == 0.0:
        return _closed_form(stats, stats.s_yy / stats.s_xy, gamma)

    quartic = build_quartic(stats, gamma)
    beta1 = _newton_root(quartic, *slope_bounds(stats))
    beta0 = intercept(stats, beta1)
    return FittedLine(
        beta0=beta0,
        beta1=beta1,
        gamma=gamma,
        sse=sse(stats, beta0, beta1, gamma),
        selected_root_residual=abs(quartic(beta1)),
    )


def _newton_root(q: Quartic, lower: float, upper: float) -> float:
    # q(lower) <= 0 <= q(upper), and q is increasing and convex in between, so
    # Newton from the upper end descends onto the root without overshooting
    c4, c3, c2, c1, c0 = q.coeffs
    b = upper
    for _ in range(_MAX_NEWTON_STEPS):
        value = (((c4 * b + c3) * b + c2) * b + c1) * b + c0  # q(b), without the call
        if not math.isfinite(value):
            raise SolverFailure(f"slope quartic overflows at {b!r}")
        if value <= 0.0:
            return b
        dq = ((4.0 * c4 * b + 3.0 * c3) * b + 2.0 * c2) * b + c1
        step_to = max(lower, b - value / dq)
        if not step_to < b:
            return b
        b = step_to
    raise SolverFailure(
        f"Newton did not settle in [{lower!r}, {upper!r}] within {_MAX_NEWTON_STEPS} steps"
    )


def fit(data: Dataset, config: FitConfig) -> FittedLine:
    """Fit the line minimizing the blended squared-error objective.

    Parameters
    ----------
    data : Dataset
        Paired observations, at least two points, finite coordinates.
    config : FitConfig
        Residual weight ``gamma`` plus numerical tolerances and the policy
        for negatively correlated data.

    Returns
    -------
    FittedLine
        Slope, intercept, achieved objective, and the quartic's residual at
        the slope.  The intercept always equals ``y_bar - beta1 * x_bar``.
        For ``0 < gamma < 1`` the slope is the root of :func:`build_quartic`
        inside :func:`slope_bounds`, found by Newton's method from the upper
        bound; the endpoint weights use their closed forms.

    Raises
    ------
    DegenerateData
        If all x or all y coincide.
    ZeroCorrelation
        If the correlation is numerically zero.
    NonPositiveCorrelation
        If the correlation is negative and the policy is ``"error"``.
    SolverFailure
        If the quartic overflows at the upper bound or Newton's method does
        not settle within its step cap (not expected for valid data).
    """
    return fit_stats(compute_stats(data), config)


# ---------------------------------------------------------------------------
# using a fitted line
# ---------------------------------------------------------------------------


def predict(line: FittedLine, x: float) -> float:
    """Line value at ``x``."""
    return line.beta0 + line.beta1 * x


def inverse_predict(line: FittedLine, y: float) -> float:
    """The ``x`` at which the line reaches ``y``; needs a nonzero slope.

    Raises
    ------
    SingularSlope
        If the fitted slope is zero.
    """
    if line.beta1 == 0.0:
        raise SingularSlope("cannot invert a horizontal line")
    return y / line.beta1 - line.beta0 / line.beta1

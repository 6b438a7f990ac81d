"""Straight-line fitting under a blended squared-error objective: the library.

The objective weighs squared vertical residuals by ``gamma`` and squared
horizontal residuals by ``1 - gamma``, with ``gamma`` in [0, 1].  The line
keeps the centroid of the data, and its slope is the one root of the
quartic ``Q`` of :func:`build_quartic`, whose coefficients are the
sufficient statistics times the weights, between the two closed-form
endpoint slopes (see :mod:`dualfit._kernel`).

This module is the library's boundary: its records are frozen dataclasses,
:class:`SufficientStats`, :class:`FitConfig`, :class:`Quartic`,
:class:`FittedLine` and :class:`OracleReport`, and each public function is
one straight call of the kernel, whose plain floats and tuples it turns into
a record.  The kernel, :mod:`dualfit._kernel`, and the certificate,
:mod:`dualfit.oracle`, hold every number; the ``dualfit`` command runs on
them without this module.  :func:`sse` and :func:`intercept` are the
kernel's own.

Only positively correlated data has a well-defined fit here.  Under the
reflect policy (``FitConfig.negative_correlation_policy``) negatively
correlated data is solved at ``|rho|`` and the slope takes the sign of rho.

This module imports no numpy.  The arrays live in :mod:`dualfit.dataset`:
a :class:`~dualfit.dataset.Dataset` keeps the record that
:func:`compute_stats` and :func:`fit` read.  :func:`predict` and
:func:`inverse_predict` import numpy only when they are given an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._kernel import (
    ZERO_RHO_TOL,
    _bounds,
    _check_gamma,
    _check_stats,
    _inverse,
    _predict,
    _reflects,
    _solve,
    intercept,
    sse,
)
from .errors import DegenerateData, InvalidInput
from .oracle import certify

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Literal

    import numpy as np

    from .dataset import Dataset

    NegativeCorrelationPolicy = Literal["error", "reflect"]


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SufficientStats:
    """Count, means, and centered second-order sums of a dataset.

    ``s_xx``, ``s_yy``, ``s_xy`` are sums (not variances) of centered
    products, and ``rho`` is the sample correlation ``s_xy / sqrt(s_xx*s_yy)``
    clamped to [-1, 1].  A record whose figures could not be those of any
    data, or are not all real numbers, raises :class:`InvalidInput`.
    """

    n: int
    x_bar: float
    y_bar: float
    s_xx: float
    s_yy: float
    s_xy: float
    rho: float

    def __post_init__(self):
        try:
            _check_stats(self)
        except TypeError:  # a figure that is not a real number
            raise InvalidInput(f"statistics must be real numbers, got {self!r}") from None


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
        _check_gamma(self.gamma)
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

    ``selected_root_residual`` is ``|Q(b)| / sqrt(s_xx*s_yy)`` up to
    round-off, ``Q`` being :func:`build_quartic` and ``b`` the fitted slope;
    the solve works it out as ``(1 - gamma)*r*|f(t)|`` of
    :mod:`dualfit._kernel` (zero for the closed-form endpoint weights).
    ``notes`` carries human-readable flags such as reflection.
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


@dataclass(frozen=True)
class OracleReport:
    """What :func:`verify_fit` found around a fitted slope ``b`` (``quartic_slope``).

    ``oracle_slope`` is the one of ``bracket[0]``, ``b`` and ``bracket[1]``
    with the least exact objective (ties go to ``b``; the 3 ``profile_evals``),
    or ``-b`` when ``b`` has the wrong sign; ``abs_gap`` is its distance from
    ``b``.  ``gradient_max_rel_err`` is ``b**3 * P'(b) / 2`` over the sum of
    its four terms' magnitudes, both exact.
    """

    oracle_slope: float
    quartic_slope: float
    abs_gap: float
    profile_evals: int
    bracket: tuple[float, float]
    gradient_max_rel_err: float

    # the checks, then the fields stored by key as in FittedLine; replace() checks too
    def __init__(
        self,
        oracle_slope: float,
        quartic_slope: float,
        abs_gap: float,
        profile_evals: int,
        bracket: tuple[float, float],
        gradient_max_rel_err: float,
    ):
        if bracket[0] >= bracket[1]:
            raise InvalidInput(f"bracket must be increasing, got {bracket}")
        if profile_evals < 0:
            raise InvalidInput("evaluation count cannot be negative")
        if abs_gap != abs(oracle_slope - quartic_slope):
            raise InvalidInput("abs_gap must equal |oracle_slope - quartic_slope|")
        if gradient_max_rel_err < 0.0:
            raise InvalidInput("gradient error cannot be negative")
        fields = vars(self)
        fields["oracle_slope"] = oracle_slope
        fields["quartic_slope"] = quartic_slope
        fields["abs_gap"] = abs_gap
        fields["profile_evals"] = profile_evals
        fields["bracket"] = bracket
        fields["gradient_max_rel_err"] = gradient_max_rel_err

    @property
    def certified(self) -> bool:
        """No slope of the bracket beats the fitted one, so the minimum lies in the bracket."""
        return self.oracle_slope == self.quartic_slope


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def compute_stats(data: Dataset) -> SufficientStats:
    """Corrected two-pass sufficient statistics of a dataset, made once per Dataset.

    Means first, then centered sums of squares and products; each figure,
    the means too, is corrected by what the rounding of the means leaves in
    it (Chan, Golub & LeVeque, 1983), so a column nearly constant at a large
    offset keeps its spread.  A column whose values are all equal is
    degenerate, whatever its sums.  Round-off can push the correlation a
    hair past 1 in magnitude for collinear data, so it is clamped to [-1, 1].

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


# ---------------------------------------------------------------------------
# the slope quartic and its bounds
# ---------------------------------------------------------------------------


def build_quartic(stats: SufficientStats, gamma: float) -> Quartic:
    """Quartic in the slope whose root inside the slope bounds minimizes the objective.

    ``Q(b) = gamma*s_xx*b**4 - gamma*s_xy*b**3 + (1-gamma)*s_xy*b - (1-gamma)*s_yy``,
    which is ``b**3 * P'(b) / 2`` for the objective ``P`` along the centroid
    line (see :mod:`dualfit.oracle`).  Each coefficient is one rounded product
    of the statistics, so it is finite whenever they are.  Negating y negates
    ``s_xy``, and ``Q(-b; -s_xy) = Q(b; s_xy)``, so the fit solves this
    quartic at ``|rho|``.

    Only interior weights go through the quartic; the endpoint weights have
    closed-form slopes and raise InvalidInput here.

    Raises
    ------
    DegenerateData
        If ``s_xx`` or ``s_yy`` is not positive.
    InvalidInput
        If ``gamma`` is not a number strictly between 0 and 1.
    """
    s_xx, s_yy, s_xy = stats.s_xx, stats.s_yy, stats.s_xy
    if s_xx <= 0.0 or s_yy <= 0.0:
        raise DegenerateData("slope quartic needs positive spread in x and y")
    try:
        if getattr(gamma, "ndim", 0):  # numpy would compare it elementwise
            raise TypeError
        if not 0.0 < gamma < 1.0:
            raise InvalidInput(f"quartic is defined for 0 < gamma < 1, got {gamma}")
    except TypeError:
        raise InvalidInput(f"gamma must be a number, got {gamma!r}") from None
    horizontal = 1.0 - gamma
    return Quartic((gamma * s_xx, -gamma * s_xy, 0.0, horizontal * s_xy, -horizontal * s_yy))


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


# ---------------------------------------------------------------------------
# the fit and its certificate
# ---------------------------------------------------------------------------


def fit_stats(stats: SufficientStats, config: FitConfig) -> FittedLine:
    """Fit from sufficient statistics; see :func:`fit` for the full contract.

    The correlation checks of ``_reflects``, then ``_solve`` at the one
    weight: the same lines, to the bit, as a ``_solver`` bound to ``stats``.
    """
    policy = config.negative_correlation_policy
    return FittedLine(*_solve(stats, _reflects(stats, policy), config.gamma))


def fit(data: Dataset, config: FitConfig) -> FittedLine:
    """Fit the line minimizing the blended squared-error objective.

    Parameters
    ----------
    data : Dataset
        Paired observations, at least two points, finite coordinates.  Its
        statistics are the record :func:`compute_stats` returns, read from
        ``data`` directly, so they are worked out on the first fit or
        summary of ``data`` and read back after that.  The fit is
        :func:`fit_stats` of that record, to the bit.
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
        :mod:`dualfit._kernel`; the endpoint weights use their closed forms.

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
    # fit_stats of compute_stats(data), without the two calls between
    stats = data._stats
    policy = config.negative_correlation_policy
    return FittedLine(*_solve(stats, _reflects(stats, policy), config.gamma))


def verify_fit(stats: SufficientStats, line: FittedLine, config: FitConfig) -> OracleReport:
    """Certify a fitted slope by one exact comparison of the profile objective.

    ``P`` (see :mod:`dualfit.oracle`) is compared exactly at the fitted slope
    ``b = n * 2**k`` and at ``b - h`` and ``b + h``, ``h`` being 8 ulps, all
    three integers ``m`` times one power of two ``2**k``.  With ``d = m - n``
    the sign of ``P(m * 2**k) - P(b)`` is that of ``d * S(d)``, for a cubic
    ``S`` in integers whose constant term ``S(0)`` is ``n`` times ``Q(b)``,
    the gradient the report weighs.  If neither neighbour has a lower ``P``,
    the minimum lies in ``[b - h, b + h]``: the report is
    :attr:`~OracleReport.certified`.  ``P`` keeps its value when ``s_xy`` and
    ``t`` are both negated, so mirrored data gets the mirrored report, bit for
    bit.  A slope of the wrong sign loses to its negation.  Of ``config`` only
    the negative-correlation policy is read.

    Raises
    ------
    NonPositiveCorrelation
        If the correlation is negative and the policy is ``"error"``.
    OutOfRange
        If ``s_yy / s_xx`` leaves float64, as in :func:`dualfit.slope_bounds`,
        or the slope's 8-ulp bracket does.
    InvalidInput
        If the fitted slope is zero or not finite, or the line's ``gamma``
        does not lie in [0, 1].
    """
    policy = config.negative_correlation_policy
    return OracleReport(*certify(stats, line.beta1, line.gamma, policy))


# ---------------------------------------------------------------------------
# using a fitted line
# ---------------------------------------------------------------------------


def predict(line: FittedLine, x: float | np.ndarray) -> float | np.ndarray:
    """Line value at ``x``, a number or an array of them, in float64.

    Raises
    ------
    OutOfRange
        If a value is not finite: the line's value overflows float64, or
        the query itself is not finite or is an integer beyond float64.
    """
    return _predict(line.beta0, line.beta1, x)


def inverse_predict(line: FittedLine, y: float | np.ndarray) -> float | np.ndarray:
    """The ``x`` at which the line reaches ``y``, a number or an array of them, in float64.

    Needs a nonzero slope.

    Raises
    ------
    SingularSlope
        If the fitted slope is zero.
    OutOfRange
        If a value is not finite: the line reaches ``y`` beyond float64, or
        the query itself is not finite or is an integer beyond float64.
    """
    return _inverse(line.beta0, line.beta1, y)

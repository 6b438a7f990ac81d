"""The numbers of a fit, in plain floats and tuples: the kernel.

The objective weighs squared vertical residuals by ``gamma`` and squared
horizontal residuals by ``1 - gamma``, with ``gamma`` in [0, 1].  For any
weight the optimal intercept keeps the line through the centroid of the data;
the optimal slope is the one root of the quartic
``Q(b) = gamma*s_xx*b**4 - gamma*s_xy*b**3 + (1 - gamma)*(s_xy*b - s_yy)``
that lies between the two closed-form endpoint slopes.  The solve writes the
slope as ``b = t*r`` with ``r = sqrt(s_yy/s_xx)``, where
``Q(t*r) = (1 - gamma)*s_yy*f(t)`` with ``f(t) = k*t**3*(t - rho) + rho*t - 1``
and ``k = gamma/(1 - gamma) * s_yy/s_xx``; its root lies in ``[rho, 1/rho]``,
where ``f`` is increasing and convex, so Newton's method started above the
root falls monotonically onto it.  The two endpoint weights are the
classical closed forms: regression of y on x at ``gamma = 1`` and inverse
regression (x on y, re-expressed as a slope in y over x) at ``gamma = 0``.

Only positively correlated data has a well-defined fit here.  Negating y
negates ``s_xy``, rho and the slope, as ``Q(-b; -s_xy) = Q(b; s_xy)``, so
under the reflect policy negatively correlated data is solved at ``|rho|``
and the slope takes the sign of rho.

The statistics are read by field name, so a kernel :data:`_Stats` tuple and
a :class:`dualfit.SufficientStats` record serve alike; a fit is the tuple of
:class:`dualfit.FittedLine`'s fields.  The ``dualfit`` command runs on this
module alone, which makes its statistics from the runs of rows its reader
gives (:func:`_merged_moments`), and :mod:`dualfit.core` builds the
library's records from its values.  It imports neither numpy nor
``dataclasses`` nor ``typing``.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple
from functools import partial
from itertools import chain

from .errors import (
    DegenerateData,
    InvalidInput,
    NonPositiveCorrelation,
    OutOfRange,
    SingularSlope,
    SolverFailure,
    ZeroCorrelation,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Iterator, Sequence

    import numpy as np

# |rho| below this is indistinguishable from zero correlation.
ZERO_RHO_TOL = 1e-12

# Newton from _newton_root's start takes at most 9 steps, where k is near
# rho**-4, for k from 0 past the largest float and rho from ZERO_RHO_TOL to 1
_MAX_NEWTON_STEPS = 16

# the least normal float64; a power of the slope below it has lost bits
_TINY = sys.float_info.min

# count, means, and centred sums of squares and products of some rows
_Moments = namedtuple("_Moments", "n x_bar y_bar s_xx s_yy s_xy")
# the same and the correlation: the fields of SufficientStats, checked
_Stats = namedtuple("_Stats", "n x_bar y_bar s_xx s_yy s_xy rho")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def _normal_product(s_xx: float, s_yy: float) -> float:
    """``s_xx * s_yy``, whose square root the correlation divides by.

    Raises
    ------
    OutOfRange
        If the product leaves the normal float64 range.
    """
    product = s_xx * s_yy
    if not _TINY <= product < math.inf:
        raise OutOfRange(
            f"s_xx * s_yy = {s_xx:.3g} * {s_yy:.3g} is out of float64 range; "
            "rescale the data"
        )
    return product


def _check_stats(stats) -> None:
    """The checks of statistics, given or worked out: :class:`dualfit.SufficientStats`'s.

    Raises
    ------
    InvalidInput
        If the figures cannot be those of any data: fewer than 2 points, a
        count that is not a whole number or lies beyond float64, a figure
        not finite, a negative sum of squares, ``|s_xy|`` above
        ``sqrt(s_xx*s_yy)``, or ``rho`` off ``s_xy/sqrt(s_xx*s_yy)``
        (clamped to [-1, 1]) by more than 1e-9 of itself.
    TypeError
        If a figure is not a real number.  The figures worked out from data
        are floats; a record types this error.
    """
    s_xx, s_yy, s_xy, rho = stats.s_xx, stats.s_yy, stats.s_xy, stats.rho
    if stats.n < 2:
        raise InvalidInput(f"need at least 2 points, got {stats.n}")
    try:
        finite = math.isfinite(stats.n)
    except OverflowError:  # an integer beyond float64, the count of no data
        raise InvalidInput("n must be a whole number within float64's range") from None
    if not finite or stats.n % 1:  # nan and inf pass the test above
        raise InvalidInput(f"n must be a whole number, got {stats.n}")
    if not all(math.isfinite(v) for v in (stats.x_bar, stats.y_bar, s_xx, s_yy, s_xy, rho)):
        raise InvalidInput("statistics must be finite")
    if s_xx < 0.0 or s_yy < 0.0:
        raise InvalidInput("centered sums of squares cannot be negative")
    if abs(rho) > 1.0:
        raise InvalidInput(f"correlation must lie in [-1, 1], got {rho}")
    # Cauchy-Schwarz, with room for round-off on collinear data
    if s_xy * s_xy > s_xx * s_yy * (1.0 + 1e-12):
        raise InvalidInput("s_xy^2 exceeds s_xx * s_yy")
    if s_xx > 0.0 and s_yy > 0.0:
        implied = s_xy / math.sqrt(_normal_product(s_xx, s_yy))
        clamped = max(-1.0, min(1.0, implied))
        if abs(rho - clamped) > 1e-9 * abs(clamped):
            raise InvalidInput(f"rho {rho} disagrees with s_xy/sqrt(s_xx*s_yy) = {implied}")
    elif rho != 0.0:
        raise InvalidInput(f"rho must be 0 when s_xx or s_yy is 0, got {rho}")


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


def _fsum_moments(
    xs: Sequence[float], ys: Sequence[float], x_shift: float = 0.0, y_shift: float = 0.0
) -> _Moments:
    """Corrected two-pass moments of rows held as Python floats, the means
    less ``x_shift`` and ``y_shift``.

    Each centred sum is ``sum(d*d) - sum(d)**2 / n`` over the deviations
    ``d`` from ``c``, the float sum of the values over ``n``: the corrected
    two-pass algorithm of Chan, Golub & LeVeque (1983), "Algorithms for
    computing the sample variance", whose second term takes out what the
    rounding of ``c`` leaves in the first.  The mean is
    ``(c - shift) + sum(d) / n``, the same correction, so a mean taken from
    a shift close to it keeps the bits that the rounding of ``c`` drops;
    each ``d`` is exact where the values lie within a factor of 2 of ``c``,
    as at a large offset.  The other sums are ``math.fsum``, so the figures
    are within about an ulp of exact, and they can differ in the last bits
    from the numpy sums and BLAS dot products of ``dataset._moments``.
    Where an exact sum leaves float64, as fsum raises, every figure but the
    count is nan.  Nothing is checked here; :func:`_checked_stats` checks
    the figures.
    """
    n = len(xs)
    x_bar = sum(xs) / n
    y_bar = sum(ys) / n
    dx = [v - x_bar for v in xs]
    dy = [v - y_bar for v in ys]
    try:
        sum_dx, sum_dy = math.fsum(dx), math.fsum(dy)
        return _Moments(
            n,
            (x_bar - x_shift) + sum_dx / n,
            (y_bar - y_shift) + sum_dy / n,
            math.fsum(map(operator.mul, dx, dx)) - sum_dx * sum_dx / n,
            math.fsum(map(operator.mul, dy, dy)) - sum_dy * sum_dy / n,
            math.fsum(map(operator.mul, dx, dy)) - sum_dx * sum_dy / n,
        )
    except (OverflowError, ValueError):  # an overflow, or inf + -inf
        return _Moments(n, *[math.nan] * 5)


def _merged_moments(runs: Iterator[tuple[list[float], list[float]]]) -> tuple[_Moments, bool, bool]:
    """The moments of all the rows of ``runs``, and whether all x values,
    and all y values, are equal: the arguments of :func:`_checked_stats`.

    Each run of rows is summed by :func:`_fsum_moments`, its means taken
    from the first run's, so that they stay small and the merge loses
    nothing to an offset in the data.  The runs merge pairwise by
    :func:`_merge` (Chan, Golub & LeVeque, 1979), as a binary counter
    carries, so memory stays flat in the number of runs; one run alone gives
    ``_fsum_moments`` of its rows to the bit.  Each run of a column is
    counted against the column's first value until a run holds another, so
    that whether the column is constant is known exactly.

    A non-finite value makes its run's figures non-finite, as a sum that
    overflows does, so a run's values are scanned for one only where its
    figures are not finite.

    Raises
    ------
    InvalidInput
        If a value is not finite, once every run has been read.
    """
    xs, ys = next(runs)
    shift_x, shift_y = sum(xs) / len(xs), sum(ys) / len(ys)
    # the moments of 2**k runs for each bit k set in the count of runs read,
    # k decreasing down the list
    stack: list[_Moments] = []
    first_x, first_y = xs[0], ys[0]
    same_x = same_y = True  # whether every value read equals the first
    finite = True  # whether every value read is
    # a list iterator drops the first run once read; chain's list would not
    for count, (xs, ys) in enumerate(chain(iter([(xs, ys)]), runs), 1):
        # a column stops being constant at its first run of two values
        same_x = same_x and xs.count(first_x) == len(xs)
        same_y = same_y and ys.count(first_y) == len(ys)
        moments = _fsum_moments(xs, ys, shift_x, shift_y)
        # the figures are finite unless a value is not, or the sums overflow
        if finite and not all(map(math.isfinite, moments)):
            finite = all(map(math.isfinite, chain(xs, ys)))
        # one merge for each trailing zero bit of the count, as a carry
        while not count & 1:
            moments = _merge(stack.pop(), moments)
            count >>= 1
        stack.append(moments)
    if not finite:
        raise InvalidInput("coordinates must be finite")
    moments = stack.pop()
    while stack:
        moments = _merge(stack.pop(), moments)
    moments = moments._replace(x_bar=shift_x + moments.x_bar, y_bar=shift_y + moments.y_bar)
    return moments, same_x, same_y


def _checked_stats(m: _Moments, same_x: bool, same_y: bool) -> _Stats:
    """Check moments and add their correlation; the checks of :func:`dualfit.compute_stats`.

    ``same_x`` and ``same_y`` say whether all x values, and all y values,
    are equal (``0.0`` equals ``-0.0``); either makes the data degenerate,
    whatever the figures, x first.  The statistics then pass
    :func:`_check_stats`, as a record of them would.

    Raises
    ------
    DegenerateData
        If all x values or all y values coincide.
    OutOfRange
        If a sum overflows, if the spread of x or y underflows to a zero or
        subnormal sum of squares, or if ``s_xx * s_yy`` leaves the normal
        float64 range.
    InvalidInput
        If the figures fail :func:`_check_stats`.
    """
    if same_x or same_y:
        raise DegenerateData(f"all {'x' if same_x else 'y'} values are identical")
    if not all(math.isfinite(v) for v in m):
        raise OutOfRange("sums of squares overflow float64; rescale the data")
    spreads = ((m.s_xx, "x"), (m.s_yy, "y"))
    for s, name in spreads:
        if s == 0.0:
            raise OutOfRange(f"the spread of {name} underflows float64; rescale the data")
    product = _normal_product(m.s_xx, m.s_yy)
    # a subnormal sum keeps too few bits for a correlation to 10 digits; it
    # is checked after the product, whose error names both sums
    for s, name in spreads:
        if s < _TINY:
            raise OutOfRange(f"the spread of {name} underflows float64; rescale the data")
    stats = _Stats(*m, max(-1.0, min(1.0, m.s_xy / math.sqrt(product))))
    _check_stats(stats)
    return stats


# ---------------------------------------------------------------------------
# the objective
# ---------------------------------------------------------------------------


def sse(stats, beta0: float, beta1: float, gamma: float) -> float:
    """Blended objective from sufficient statistics alone.

    Vertical squared residuals carry weight ``gamma``, horizontal squared
    residuals ``1 - gamma``.  The horizontal term divides by ``beta1**2`` and
    is only evaluated when ``gamma < 1``; at ``gamma = 1`` any slope is
    allowed.  The weight is checked, then worked as ``float(gamma)`` by
    :func:`_sse`: a NumPy float32 or float16 weight gives the objective of
    its value in float64, not in its own precision.

    Raises
    ------
    InvalidInput
        If ``gamma`` is not a number in [0, 1].
    SingularSlope
        If ``beta1 == 0`` while ``gamma < 1``.
    OutOfRange
        If ``beta1`` is nonzero but its square underflows to a zero or
        subnormal float64 while ``gamma < 1``, or if the objective is not a
        finite float64 (a square that overflows gives ``0 * inf`` or
        ``inf / inf``).
    """
    _check_gamma(gamma)
    return _sse(stats, beta0, beta1, float(gamma))


def _sse(stats, beta0: float, beta1: float, gamma: float) -> float:
    """:func:`sse` at a weight already checked, a Python float, so that a
    NumPy float32 or float16 weight is not worked in its own precision.

    The fit calls this body directly: ``FitConfig``, or the command's
    argument parser, has checked its weight.
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


def _check_gamma(gamma) -> None:
    """Refuse a weight that is not a number in [0, 1].

    Raises
    ------
    InvalidInput
        If ``gamma`` does not lie in [0, 1], or cannot be compared with a
        float, such as a string, ``None`` or a complex, or is an array of
        one or more dimensions.
    """
    try:
        if getattr(gamma, "ndim", 0):  # numpy would compare it elementwise
            raise TypeError
        if not 0.0 <= gamma <= 1.0:
            raise InvalidInput(f"gamma must lie in [0, 1], got {gamma}")
    except TypeError:
        raise InvalidInput(f"gamma must be a number, got {gamma!r}") from None


def intercept(stats, beta1: float) -> float:
    """Optimal intercept for a given slope: keeps the line through the centroid."""
    return stats.y_bar - beta1 * stats.x_bar


# ---------------------------------------------------------------------------
# slope bounds and the fit
# ---------------------------------------------------------------------------


def _bounds(s_xx: float, s_yy: float, rho: float) -> tuple[float, float]:
    """:func:`dualfit.slope_bounds` of the figures, at the correlation its caller solves at."""
    ratio = math.sqrt(_bounds_ratio(s_xx, s_yy, rho))
    return rho * ratio, ratio / rho


def _bounds_ratio(s_xx: float, s_yy: float, rho: float) -> float:
    """``s_yy / s_xx``, after the checks of :func:`_bounds`, which raise its errors in its order.

    The certificate calls this for the errors alone, building no bounds.
    """
    if s_xx <= 0.0 or s_yy <= 0.0:
        raise DegenerateData("slope bounds need positive spread in x and y")
    if rho <= 0.0:
        raise NonPositiveCorrelation(f"slope bounds need rho > 0, got {rho:.6g}")
    return _ratio(s_xx, s_yy)


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


def _solver(stats, policy: str) -> Callable[[float], tuple]:
    """The fit of ``stats`` under ``policy`` as ``solve(gamma)``; the correlation is checked here.

    The ``OutOfRange`` of ``s_yy / s_xx`` is raised by each interior weight's ``solve``.
    """
    return partial(_solve, stats, _reflects(stats, policy))


def _reflects(stats, policy: str) -> bool:
    """Whether a fit of ``stats`` is solved at ``-rho`` and negated, after its checks."""
    rho = stats.rho
    if abs(rho) < ZERO_RHO_TOL:
        raise ZeroCorrelation(f"correlation {rho:.3g} is numerically zero")
    if rho < 0.0 and policy != "reflect":
        raise NonPositiveCorrelation(f"rho = {rho:.6g} < 0; pass the reflect policy to fit anyway")
    return rho < 0.0


def _solve(stats, reflect: bool, gamma: float) -> tuple:
    """The fit at one weight of statistics ``_reflects`` has passed.

    Returns ``(beta0, beta1, gamma, sse, residual, notes)``, the fields of
    :class:`dualfit.FittedLine`, ``gamma`` as given and everything else
    worked at ``float(gamma)``.  The weight is not checked here: a
    ``FitConfig``, or the command's argument parser, has checked it.  Both
    signs of rho are solved on ``stats`` themselves: the endpoint closed
    forms are odd in y, and an interior weight runs Newton on ``f(t)`` at
    ``|rho|`` and negates the slope under ``reflect``.
    """
    weight = float(gamma)  # a Python float whatever gamma's type
    residual = 0.0
    if weight == 1.0:
        beta1 = stats.s_xy / stats.s_xx
    elif weight == 0.0:
        beta1 = stats.s_yy / stats.s_xy
    else:
        ratio = _ratio(stats.s_xx, stats.s_yy)
        ratio_yx = math.sqrt(ratio)
        horizontal = 1.0 - weight
        t, value = _newton_root(weight / horizontal * ratio, abs(stats.rho))
        root = t * ratio_yx
        beta1, residual = -root if reflect else root, horizontal * ratio_yx * abs(value)
    beta0 = stats.y_bar - beta1 * stats.x_bar  # intercept(stats, beta1)
    notes = ("fitted on (x, -y) and negated the slope",) if reflect else ()
    return beta0, beta1, gamma, _sse(stats, beta0, beta1, weight), residual, notes


def _newton_root(k: float, rho: float) -> tuple[float, float]:
    """The root of ``f(t) = k*t**3*(t - rho) + rho*t - 1`` in ``[rho, 1/rho]``, and ``f`` there.

    On ``t >= rho``, ``t**3*(t - rho) >= (t - rho)**4``, so ``f`` is positive
    at ``rho + k**-0.25``, and Newton starts at the lesser of that and
    ``1/rho`` (``1/rho`` where they are equal, and at ``k = 0``), taken by
    a comparison: a call of ``min()`` costs ten times as much.  Where
    rounding leaves ``f`` there no more than 0, the start is within
    rounding of the root and is returned, as any iterate is.  ``k*t*t`` is
    formed first and ``4*k`` never, so that for a finite ``k`` nothing
    overflows below the start.
    """
    if k == math.inf:
        # (t - rho) / rho <= 1 / (k * rho**4), below 1e-260: the root is rho
        return rho, rho * rho - 1.0
    # f(rho) <= 0 < f(t), and f is increasing and convex in between, so
    # Newton descends onto the root without overshooting
    t = 1.0 / rho
    if k:
        start = rho + k**-0.25
        if start < t:
            t = start
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


# ---------------------------------------------------------------------------
# using a fitted line
# ---------------------------------------------------------------------------


def _predict(beta0: float, beta1: float, x: float | np.ndarray) -> float | np.ndarray:
    """:func:`dualfit.predict` of the line ``beta0 + beta1 * x``."""
    return _evaluate(lambda q: beta0 + beta1 * q, x, "predict")


def _inverse(beta0: float, beta1: float, y: float | np.ndarray) -> float | np.ndarray:
    """:func:`dualfit.inverse_predict` of the line ``beta0 + beta1 * x``."""
    if beta1 == 0.0:
        raise SingularSlope("cannot invert a horizontal line")
    return _evaluate(lambda q: q / beta1 - beta0 / beta1, y, "inverse")


def _evaluate(
    formula: Callable, query: float | np.ndarray, name: str
) -> float | np.ndarray:
    """``formula(query)``, if every element of it is finite.

    A Python number, a numpy float64 among them, is computed as a Python
    float, which turns an overflow into inf without a warning; anything else
    is made a float64 array by numpy, imported here, and computed with its
    warnings muted, in float64 as the line is.

    Raises
    ------
    OutOfRange
        Naming the first query whose value is not finite, or for a query
        beyond float64.
    InvalidInput
        For a complex query, a ``None`` in it, or one numpy cannot make float64.
    """
    if isinstance(query, (int, float)):
        try:
            first = float(query)
        except OverflowError:
            bits = abs(query).bit_length()
            raise OutOfRange(f"{name} at an integer of {bits} bits overflows float64") from None
        value = formula(first)
        if math.isfinite(value):
            return value
    else:
        import numpy as np

        try:
            raw = np.asarray(query)
            if raw.dtype.kind == "c":  # numpy's cast would drop the imaginary part
                raise TypeError(f"got {raw.dtype} values")
            if raw.dtype.kind == "O" and any(value is None for value in raw.flat):
                raise TypeError("got None")  # which numpy's cast would make nan
            query = np.asarray(raw, dtype=np.float64)
        except OverflowError as exc:  # a number beyond float64, such as a large int
            raise OutOfRange(f"{name} query overflows float64: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"{name} queries are not real numbers: {exc}") from exc
        with np.errstate(all="ignore"):  # an overflow is raised as OutOfRange
            value = formula(query)
        finite = np.isfinite(value)
        if finite.all():
            return value
        first = float(np.broadcast_to(query, finite.shape)[~finite].flat[0])
    problem = "overflows float64" if math.isfinite(first) else "is not finite"
    raise OutOfRange(f"{name} at {first:.10g} {problem}")

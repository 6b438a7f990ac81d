"""The objective, the slope solve and the oracle against frozen copies.

The ``_ref_*`` functions are ``sse``, ``sse_gradient``, ``profile_sse``,
``_minimize_traced``, ``check_gradient``, ``verify_fit``, ``_newton_root``
(with ``Quartic.__call__``) and the fit around it, as they were before the
objective was bound once per search and per verify.  One deliberate change:
``_ref_check_gradient`` raises ``SingularSlope`` when ``|beta1| <= step``,
where the old code only refused a difference that hit ``beta1 = 0`` exactly.

On every input the two must agree exactly: ``==`` and the same ``repr`` on
every field of ``FittedLine`` and ``OracleReport`` (so signed zeros and
float types count too), or the same exception type and message.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfit import (
    Dataset,
    FitConfig,
    FittedLine,
    OracleReport,
    SufficientStats,
    build_quartic,
    check_gradient,
    compute_stats,
    fit_stats,
    profile_sse,
    slope_bounds,
    sse,
    sse_gradient,
    verify_fit,
)
from dualfit.core import ZERO_RHO_TOL, _newton_root, reflected
from dualfit.errors import (
    BracketFailure,
    DualFitError,
    InvalidInput,
    NonPositiveCorrelation,
    SingularSlope,
    SolverFailure,
    ZeroCorrelation,
)
from dualfit.oracle import _minimize_traced

# ---- the frozen reference ----------------------------------------------------

_REF_MAX_NEWTON_STEPS = 400
_REF_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_REF_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_REF_BRACKET_PAD = 0.01


def _ref_sse(stats, beta0, beta1, gamma):
    n = stats.n
    x_bar, y_bar = stats.x_bar, stats.y_bar
    s_xx, s_yy, s_xy = stats.s_xx, stats.s_yy, stats.s_xy
    misfit = y_bar - beta0 - beta1 * x_bar
    vertical = s_yy - 2.0 * beta1 * s_xy + beta1 * beta1 * s_xx + n * misfit * misfit
    total = gamma * vertical
    if gamma < 1.0:
        if beta1 == 0.0:
            raise SingularSlope("horizontal residuals are undefined at beta1 = 0")
        horizontal = (
            beta1 * beta1 * s_xx - 2.0 * beta1 * s_xy + s_yy + n * misfit * misfit
        ) / (beta1 * beta1)
        total += (1.0 - gamma) * horizontal
    return float(total)


def _ref_sse_gradient(stats, beta0, beta1, gamma):
    if beta1 == 0.0:
        raise SingularSlope("gradient is undefined at beta1 = 0")
    n = stats.n
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


def _ref_profile_sse(stats, beta1, gamma):
    return _ref_sse(stats, stats.y_bar - beta1 * stats.x_bar, beta1, gamma)


def _ref_minimize_traced(stats, gamma, tol):
    if not 0.0 < gamma < 1.0:
        raise InvalidInput(f"profile search is defined for 0 < gamma < 1, got {gamma}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidInput(f"tolerance must be positive and finite, got {tol}")
    lower, upper = slope_bounds(stats)
    a = lower * (1.0 - _REF_BRACKET_PAD)
    b = upper * (1.0 + _REF_BRACKET_PAD)
    bracket = (a, b)

    evals = 0
    interior_best = math.inf

    def f(beta1):
        nonlocal evals, interior_best
        evals += 1
        value = _ref_profile_sse(stats, beta1, gamma)
        interior_best = min(interior_best, value)
        return value

    h = b - a
    if h <= tol:
        return (a + b) / 2.0, evals, bracket

    steps = math.ceil(math.log(tol / h) / math.log(_REF_INV_PHI))
    c = a + _REF_INV_PHI2 * h
    d = a + _REF_INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(steps - 1):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= _REF_INV_PHI
            c = a + _REF_INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _REF_INV_PHI
            d = a + _REF_INV_PHI * h
            yd = f(d)
    x_star = (a + d) / 2.0 if yc < yd else (c + b) / 2.0

    evals += 2
    if (
        _ref_profile_sse(stats, bracket[0], gamma) < interior_best
        or _ref_profile_sse(stats, bracket[1], gamma) < interior_best
    ):
        raise BracketFailure(f"no interior minimum in [{bracket[0]:.6g}, {bracket[1]:.6g}]")
    return x_star, evals, bracket


def _ref_rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _ref_check_gradient(stats, beta0, beta1, gamma, step=1e-6):
    if not (math.isfinite(step) and step > 0.0):
        raise InvalidInput(f"step must be positive and finite, got {step}")
    if abs(beta1) <= step:  # the deliberate change; was: an exact zero only
        raise SingularSlope("finite differences straddle beta1 = 0")
    a0, a1 = _ref_sse_gradient(stats, beta0, beta1, gamma)
    fd0 = (
        _ref_sse(stats, beta0 + step, beta1, gamma) - _ref_sse(stats, beta0 - step, beta1, gamma)
    ) / (2.0 * step)
    fd1 = (
        _ref_sse(stats, beta0, beta1 + step, gamma) - _ref_sse(stats, beta0, beta1 - step, gamma)
    ) / (2.0 * step)
    return max(_ref_rel_err(a0, fd0), _ref_rel_err(a1, fd1))


def _ref_verify_fit(stats, line, config):
    gamma = line.gamma
    reflect = stats.rho < 0.0 and config.negative_correlation_policy == "reflect"
    positive = reflected(stats) if reflect else stats
    lower, upper = slope_bounds(positive)
    if 0.0 < gamma < 1.0:
        oracle_slope, evals, bracket = _ref_minimize_traced(positive, gamma, config.oracle_tol)
    else:
        oracle_slope = (
            positive.s_xy / positive.s_xx if gamma == 1.0 else positive.s_yy / positive.s_xy
        )
        evals = 0
        bracket = (lower * (1.0 - _REF_BRACKET_PAD), upper * (1.0 + _REF_BRACKET_PAD))
    if reflect:
        oracle_slope, bracket = -oracle_slope, (-bracket[1], -bracket[0])

    grad_err = 0.0
    for factor in (1.0, 0.9, 1.1):
        b1 = line.beta1 * factor
        step = 1e-6 * (1.0 + abs(b1))
        if abs(b1) <= 2.0 * step:
            continue
        for b0 in (stats.y_bar - b1 * stats.x_bar, line.beta0 + 0.25 * (1.0 + abs(line.beta0))):
            grad_err = max(grad_err, _ref_check_gradient(stats, b0, b1, gamma, step))

    return OracleReport(
        oracle_slope=oracle_slope,
        quartic_slope=line.beta1,
        abs_gap=abs(oracle_slope - line.beta1),
        profile_evals=evals,
        bracket=bracket,
        gradient_max_rel_err=grad_err,
    )


def _ref_newton_root(q, lower, upper):
    c4, c3, c2, c1, _ = q.coeffs
    b = upper
    for _ in range(_REF_MAX_NEWTON_STEPS):
        value = 0.0
        for c in q.coeffs:  # Quartic.__call__
            value = value * b + c
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
        f"Newton did not settle in [{lower!r}, {upper!r}] within {_REF_MAX_NEWTON_STEPS} steps"
    )


def _ref_closed_form(stats, beta1, gamma):
    beta0 = stats.y_bar - beta1 * stats.x_bar
    return FittedLine(
        beta0=beta0, beta1=beta1, gamma=gamma, sse=_ref_sse(stats, beta0, beta1, gamma)
    )


def _ref_fit_positive(stats, config):
    gamma = config.gamma
    if gamma == 1.0:
        return _ref_closed_form(stats, stats.s_xy / stats.s_xx, gamma)
    if gamma == 0.0:
        return _ref_closed_form(stats, stats.s_yy / stats.s_xy, gamma)
    quartic = build_quartic(stats, gamma)
    beta1 = _ref_newton_root(quartic, *slope_bounds(stats))
    beta0 = stats.y_bar - beta1 * stats.x_bar
    return FittedLine(
        beta0=beta0,
        beta1=beta1,
        gamma=gamma,
        sse=_ref_sse(stats, beta0, beta1, gamma),
        selected_root_residual=abs(quartic(beta1)),
    )


def _ref_fit_stats(stats, config):
    if abs(stats.rho) < ZERO_RHO_TOL:
        raise ZeroCorrelation(f"correlation {stats.rho:.3g} is numerically zero")
    if stats.rho < 0.0:
        if config.negative_correlation_policy != "reflect":
            raise NonPositiveCorrelation(
                f"rho = {stats.rho:.6g} < 0; pass the reflect policy to fit anyway"
            )
        mirrored = _ref_fit_positive(reflected(stats), config)
        beta1 = -mirrored.beta1
        return FittedLine(
            beta0=stats.y_bar - beta1 * stats.x_bar,
            beta1=beta1,
            gamma=config.gamma,
            sse=mirrored.sse,
            selected_root_residual=mirrored.selected_root_residual,
            notes=("fitted on (x, -y) and negated the slope",),
        )
    return _ref_fit_positive(stats, config)


# ---- comparison ----------------------------------------------------------------


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except DualFitError as exc:
        return type(exc), str(exc)


def _assert_same(new_fn, ref_fn, *args):
    got = _outcome(new_fn, *args)
    want = _outcome(ref_fn, *args)
    assert got == want and repr(got) == repr(want), (args, got, want)
    return want


def _assert_case(stats: SufficientStats, gamma: float, policy: str) -> None:
    config = FitConfig(gamma=gamma, negative_correlation_policy=policy)
    kind, line = _assert_same(fit_stats, _ref_fit_stats, stats, config)
    if kind != "ok":
        # verify a reflect-policy fit of the same data under this config
        reflect = FitConfig(gamma=gamma, negative_correlation_policy="reflect")
        kind, line = _outcome(_ref_fit_stats, stats, reflect)
    if kind == "ok":
        _assert_same(verify_fit, _ref_verify_fit, stats, line, config)
        _assert_same(sse, _ref_sse, stats, line.beta0, line.beta1, gamma)
        _assert_same(sse_gradient, _ref_sse_gradient, stats, line.beta0, line.beta1, gamma)
        _assert_same(profile_sse, _ref_profile_sse, stats, line.beta1, gamma)
        _assert_same(check_gradient, _ref_check_gradient, stats, line.beta0, line.beta1, gamma)
    _assert_same(_minimize_traced, _ref_minimize_traced, stats, gamma, config.oracle_tol)
    positive = reflected(stats) if stats.rho < 0.0 else stats
    if 0.0 < gamma < 1.0 and positive.rho > 0.0:
        quartic = build_quartic(positive, gamma)
        _assert_same(_newton_root, _ref_newton_root, quartic, *slope_bounds(positive))


# ---- inputs ----------------------------------------------------------------------


def _seeded_stats(rng: np.random.Generator) -> SufficientStats:
    """Noisy line: n 10..1e4, |slope| 0.1..10 of either sign, units 1e-3..1e3."""
    n = int(np.exp(rng.uniform(np.log(10.0), np.log(1e4))))
    slope = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))) * rng.choice([-1.0, 1.0])
    x = rng.normal(rng.uniform(-5.0, 5.0), rng.uniform(0.2, 3.0), n)
    y = rng.uniform(-5.0, 5.0) + slope * x + rng.normal(0.0, rng.uniform(0.05, 2.0), n)
    x_unit, y_unit = 10.0 ** rng.uniform(-3.0, 3.0, 2)
    return compute_stats(Dataset(x * x_unit, y * y_unit))


def test_seeded_datasets_match_reference():
    rng = np.random.default_rng(20260501)
    for case in range(2100):
        stats = _seeded_stats(rng)
        gamma = (0.0, 1.0, float(rng.uniform(0.02, 0.98)))[case % 3]
        _assert_case(stats, gamma, ("error", "reflect")[(case // 3) % 2])


@pytest.mark.parametrize("gamma", [5e-324, 1e-300, 1.0 - 1e-16])
def test_extreme_weights_match_reference(gamma):
    rng = np.random.default_rng(7)
    for _ in range(30):
        stats = _seeded_stats(rng)
        for policy in ("error", "reflect"):
            _assert_case(stats, gamma, policy)


@pytest.mark.parametrize(
    "stats",
    [
        # the quartic overflows at the upper bound: SolverFailure
        SufficientStats(n=3, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1e250, s_xy=5e124, rho=0.5),
        # exactly collinear: the bracket is one point widened by the pad
        SufficientStats(n=2, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1.0, s_xy=1.0, rho=1.0),
        # a slope far below the finite-difference step
        SufficientStats(n=50, x_bar=1e3, y_bar=-2.0, s_xx=1e8, s_yy=1e-6, s_xy=9.0, rho=0.9),
        # correlation just above the zero tolerance
        SufficientStats(n=10, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1.0, s_xy=1e-11, rho=1e-11),
    ],
)
@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
def test_edge_statistics_match_reference(stats, gamma):
    for policy in ("error", "reflect"):
        _assert_case(stats, gamma, policy)
        _assert_case(reflected(stats), gamma, policy)


@st.composite
def _drawn_stats(draw):
    n = draw(st.integers(2, 10**6))
    means = st.floats(-1e8, 1e8, allow_nan=False)
    s_xx = draw(st.floats(1e-6, 1e12))
    s_yy = draw(st.floats(1e-6, 1e12))
    rho = draw(st.floats(-1.0, 1.0).filter(lambda r: abs(r) >= 1e-9))
    s_xy = rho * math.sqrt(s_xx * s_yy)
    implied = max(-1.0, min(1.0, s_xy / math.sqrt(s_xx * s_yy)))
    return SufficientStats(
        n=n, x_bar=draw(means), y_bar=draw(means), s_xx=s_xx, s_yy=s_yy, s_xy=s_xy, rho=implied
    )


@settings(max_examples=150, deadline=None)
@given(
    stats=_drawn_stats(),
    gamma=st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 1e-16]), st.floats(0.0, 1.0)),
    policy=st.sampled_from(["error", "reflect"]),
)
def test_drawn_statistics_match_reference(stats, gamma, policy):
    _assert_case(stats, gamma, policy)

"""The objective and the slope solve against frozen copies.

The ``_ref_*`` functions are ``sse``, ``_newton_root`` (with
``Quartic.__call__``), the fit around it and ``reflected``, as they were
before the fit stopped building reflected statistics.  ``_newton_root`` now
takes a quartic's coefficients and returns its value at the root too;
``_ref_newton_pair`` puts the frozen root finder in that form.  It also
leaves out the quartic's 0.0 ``b**2`` coefficient, which is held to the
frozen sums where the ``b`` coefficient is least and where a partial sum is
a negative zero.  ``sse`` now raises ``OutOfRange`` where the frozen copy
returns an objective that is not finite; no input here reaches that.

``verify_fit`` is held to an exact reference instead, ``_ref_verify``: the
profile objective evaluated in ``fractions.Fraction`` at the fitted slope
and 8 ulps either side, on fitted slopes and on slopes moved by 4 ulps,
where both verdicts occur, on slopes a few ulps from powers of two
across the float64 range, subnormal ones included, and on slopes whose
mantissa is within 8 of either end of its binade, where the bracket read off
the slope's mantissa gives way to the ulp-by-ulp walk.  A bracket end of
exactly 0, where ``_ref_profile`` divides by zero, is held to its own exact
``V(t)`` at ``gamma = 1``.  Where ``s_yy / s_xx`` leaves float64 the fit
raises the ``OutOfRange`` of ``slope_bounds``, and so does the reference,
through ``build_quartic``.

On every input the two must agree exactly: ``==`` and the same ``repr`` on
every field of ``FittedLine`` and ``OracleReport`` (so signed zeros and
float types count too), or the same exception type and message.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfit import (
    Dataset,
    FitConfig,
    FittedLine,
    OracleReport,
    Quartic,
    SufficientStats,
    build_quartic,
    compute_stats,
    fit_stats,
    slope_bounds,
    sse,
    verify_fit,
)
from dualfit.core import ZERO_RHO_TOL, _newton_root
from dualfit.errors import (
    DualFitError,
    NonPositiveCorrelation,
    OutOfRange,
    SingularSlope,
    SolverFailure,
    ZeroCorrelation,
)

# ---- the frozen reference ----------------------------------------------------

_REF_MAX_NEWTON_STEPS = 400
_REF_ULPS = 8


def _ref_reflected(stats):
    return SufficientStats(
        n=stats.n,
        x_bar=stats.x_bar,
        y_bar=-stats.y_bar,
        s_xx=stats.s_xx,
        s_yy=stats.s_yy,
        s_xy=-stats.s_xy,
        rho=-stats.rho,
    )


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


def _ref_profile(stats, t, gamma):
    """The profile objective ``V(t) * (gamma + (1 - gamma) / t**2)``, exactly."""
    s_xx, s_xy, s_yy, g, t = map(Fraction, (stats.s_xx, stats.s_xy, stats.s_yy, gamma, t))
    return (s_yy - 2 * t * s_xy + t * t * s_xx) * (g + (1 - g) / (t * t))


def _ref_verify(stats, line, config):
    reflect = stats.rho < 0.0 and config.negative_correlation_policy == "reflect"
    slope_bounds(_ref_reflected(stats) if reflect else stats)  # raises as verify_fit does
    b, gamma = line.beta1, line.gamma
    below = above = b
    for _ in range(_REF_ULPS):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
    if (b > 0.0) != reflect:
        best = b
        for probe in (below, above):
            if _ref_profile(stats, probe, gamma) < _ref_profile(stats, best, gamma):
                best = probe
        evals = 3
    else:  # a slope of the wrong sign loses to its negation
        best, evals = -b, 0
    s_xx, s_xy, s_yy, g, t = map(Fraction, (stats.s_xx, stats.s_xy, stats.s_yy, gamma, b))
    terms = [g * s_xx * t**4, -g * s_xy * t**3, (1 - g) * s_xy * t, -(1 - g) * s_yy]
    return OracleReport(
        oracle_slope=best,
        quartic_slope=b,
        abs_gap=abs(best - b),
        profile_evals=evals,
        bracket=(below, above),
        gradient_max_rel_err=float(abs(sum(terms)) / sum(map(abs, terms))),
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


def _ref_newton_pair(coeffs, lower, upper):
    # _newton_root takes the coefficients and returns the quartic's value too
    quartic = Quartic(coeffs)
    root = _ref_newton_root(quartic, lower, upper)
    return root, quartic(root)


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
        mirrored = _ref_fit_positive(_ref_reflected(stats), config)
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
        _assert_same(verify_fit, _ref_verify, stats, line, config)
        # half a bracket off the fit, where about half the slopes are certified
        moved = line.beta1
        for _ in range(_REF_ULPS // 2):
            moved = math.nextafter(moved, math.inf)
        moved_line = dataclasses.replace(line, beta1=moved)
        _assert_same(verify_fit, _ref_verify, stats, moved_line, config)
        _assert_same(sse, _ref_sse, stats, line.beta0, line.beta1, gamma)
    positive = _ref_reflected(stats) if stats.rho < 0.0 else stats
    if 0.0 < gamma < 1.0 and positive.rho > 0.0:
        quartic = build_quartic(positive, gamma)
        _assert_same(_newton_root, _ref_newton_pair, quartic.coeffs, *slope_bounds(positive))


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
        # exactly collinear: the slope bounds are one point
        SufficientStats(n=2, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1.0, s_xy=1.0, rho=1.0),
        # a slope near 1e-7
        SufficientStats(n=50, x_bar=1e3, y_bar=-2.0, s_xx=1e8, s_yy=1e-6, s_xy=9.0, rho=0.9),
        # correlation just above the zero tolerance
        SufficientStats(n=10, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1.0, s_xy=1e-11, rho=1e-11),
    ],
)
@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
def test_edge_statistics_match_reference(stats, gamma):
    for policy in ("error", "reflect"):
        _assert_case(stats, gamma, policy)
        _assert_case(_ref_reflected(stats), gamma, policy)


def _edge_slopes():
    """Powers of two moved by a few ulps, so that a bracket end can leave the binade."""
    for e in (-1060, -1022, -1, 0, 1, 52, 300, 1000, 1023):
        for j in (-9, -8, -1, 0, 1, 8, 9):
            slope = 2.0**e
            for _ in range(abs(j)):
                slope = math.nextafter(slope, math.copysign(math.inf, j))
            # the least, 2**-1060 - 9 ulps, is 2**14 - 9 ulps from 0, so no
            # bracket end is 0, where the reference would divide by t**2 = 0
            yield slope
            yield -slope


@pytest.mark.parametrize(
    "stats",
    [
        SufficientStats(n=5, x_bar=1.0, y_bar=-3.0, s_xx=0.1, s_yy=0.9, s_xy=0.15, rho=0.5),
        # the lower bound is 3e-151, so its product with a slope below 8e-174
        # underflows to 0; such a slope must still be taken for the right sign
        SufficientStats(n=5, x_bar=0.0, y_bar=0.0, s_xx=1e150, s_yy=1e-150, s_xy=0.3, rho=0.3),
    ],
)
@pytest.mark.parametrize("gamma", [0.0, 1.0, 5e-324, 2.0**-1000, 0.5, 1.0 - 2.0**-53])
def test_slopes_at_the_edges_of_float64_match_reference(stats, gamma):
    for slope in _edge_slopes():
        line = FittedLine(beta0=0.0, beta1=slope, gamma=gamma, sse=0.0)
        for case in (stats, _ref_reflected(stats)):
            for policy in ("error", "reflect"):
                config = FitConfig(gamma=gamma, negative_correlation_policy=policy)
                _assert_same(verify_fit, _ref_verify, case, line, config)


def _binade_edge_slopes():
    """Slopes ``n * 2**k`` with ``n`` at either end of the 53-bit mantissas.

    For ``2**52 + 8 <= |n| <= 2**53 - 9`` of a normal slope the bracket
    ``(n -+ 8) * 2**k`` stays in the slope's binade; the others leave it, or
    leave float64.
    """
    # the binades of 2**-1022, 2**-1021 and 1, and the largest, which ends at
    # sys.float_info.max
    for k in (-1074, -1073, -52, 971):
        for n in (2**52 + 7, 2**52 + 8, 2**53 - 9, 2**53 - 8):
            yield math.ldexp(n, k)
            yield math.ldexp(-n, k)


@pytest.mark.parametrize(
    "stats",
    [
        SufficientStats(n=5, x_bar=1.0, y_bar=-3.0, s_xx=0.1, s_yy=0.9, s_xy=0.15, rho=0.5),
        SufficientStats(n=5, x_bar=0.0, y_bar=0.0, s_xx=1e150, s_yy=1e-150, s_xy=0.3, rho=0.3),
    ],
)
@pytest.mark.parametrize("gamma", [0.0, 1.0, 5e-324, 2.0**-1000, 0.5, 1.0 - 2.0**-53])
def test_brackets_at_the_ends_of_a_binade_are_the_ulp_walk(stats, gamma):
    for slope in _binade_edge_slopes():
        below = above = slope
        for _ in range(_REF_ULPS):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        line = FittedLine(beta0=0.0, beta1=slope, gamma=gamma, sse=0.0)
        for case in (stats, _ref_reflected(stats)):
            for policy in ("error", "reflect"):
                config = FitConfig(gamma=gamma, negative_correlation_policy=policy)
                if math.isinf(above) or math.isinf(below):
                    # the reference cannot evaluate P at an infinite bracket end
                    refused = case.rho < 0.0 and policy == "error"
                    want = NonPositiveCorrelation if refused else OutOfRange
                    assert _outcome(verify_fit, case, line, config)[0] is want
                    continue
                kind, _ = _assert_same(verify_fit, _ref_verify, case, line, config)
                if kind == "ok":
                    report = verify_fit(case, line, config)
                    assert repr(report.bracket) == repr((below, above))


@pytest.mark.parametrize("s_xy", [1e-323, 2e-323, 3e-323])
def test_a_bracket_end_at_zero_competes_where_its_objective_is_finite(s_xy):
    # b = 4e-323 is 8 ulps above 0.0, its bracket's lower end; at gamma = 1
    # P(t) = V(t) is finite there, and least when the least-squares slope
    # s_xy / s_xx is below b / 2, which _ref_profile cannot evaluate at t = 0
    stats = SufficientStats(n=3, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1.0, s_xy=s_xy, rho=s_xy)
    line = FittedLine(beta0=0.0, beta1=4e-323, gamma=1.0, sse=0.0)
    mirrored = dataclasses.replace(line, beta1=-4e-323)
    cases = [(stats, line, "error"), (_ref_reflected(stats), mirrored, "reflect")]
    for case, fitted, policy in cases:
        config = FitConfig(gamma=1.0, negative_correlation_policy=policy)
        report = verify_fit(case, fitted, config)
        assert 0.0 in report.bracket and report.profile_evals == 3

        def exact(t):
            return Fraction(case.s_yy) - 2 * Fraction(t) * Fraction(case.s_xy) + Fraction(t) ** 2

        best = fitted.beta1  # ties go to the fitted slope
        for t in report.bracket:
            if exact(t) < exact(best):
                best = t
        assert repr(report.oracle_slope) == repr(best)
        assert report.certified == (s_xy >= 2e-323)


@pytest.mark.parametrize("gamma", [5e-324, 0.3, 1.0 - 1e-16])
def test_overflowing_ratio_matches_reference(gamma):
    # s_yy / s_xx overflows; the fit, and the reference through build_quartic,
    # refuse it as slope_bounds does, with OutOfRange
    stats = SufficientStats(n=3, x_bar=1.0, y_bar=2.0, s_xx=1e-300, s_yy=1e300, s_xy=0.5, rho=0.5)
    refused = _outcome(slope_bounds, stats)
    assert refused[0] is OutOfRange
    for policy in ("error", "reflect"):
        config = FitConfig(gamma=gamma, negative_correlation_policy=policy)
        for case in (stats, _ref_reflected(stats)):
            got, want = _outcome(fit_stats, case, config), _outcome(_ref_fit_stats, case, config)
            if want[0] is NonPositiveCorrelation:
                assert got == want
            else:
                assert got == want == refused


# _newton_root sums the slope quartic without its 0.0 b**2 term, which can only
# turn a -0.0 partial sum into +0.0 before the b term (1 - gamma) * rho is
# added; that term is least at the extreme interior weights and at the least
# correlation a fit accepts, and it must still give the Horner sums' bits
_LEAST_RHOS = (ZERO_RHO_TOL, math.nextafter(ZERO_RHO_TOL, 1.0), 2.0 * ZERO_RHO_TOL, 1e-9)


@pytest.mark.parametrize("rho", _LEAST_RHOS)
@pytest.mark.parametrize("gamma", [2.0**-53, 1.0 - 2.0**-53])
def test_newton_at_the_least_b_coefficient_matches_reference(gamma, rho):
    for e in range(-120, 121, 8):  # s_yy / s_xx from 1e-120 to 1e120
        s_yy = 10.0**e
        stats = SufficientStats(
            n=3, x_bar=1.0, y_bar=-2.0, s_xx=1.0, s_yy=s_yy, s_xy=rho * math.sqrt(s_yy), rho=rho
        )
        quartic = build_quartic(stats, gamma)
        assert quartic.coeffs[2] == 0.0 and quartic.coeffs[3] != 0.0
        _assert_same(_newton_root, _ref_newton_pair, quartic.coeffs, *slope_bounds(stats))
        for case in (stats, _ref_reflected(stats)):
            for policy in ("error", "reflect"):
                config = FitConfig(gamma=gamma, negative_correlation_policy=policy)
                _assert_same(fit_stats, _ref_fit_stats, case, config)


@pytest.mark.parametrize(
    "coeffs, lower, upper",
    [
        # c4*b underflows to 0, so (c4*b + c3)*b and its derivative's
        # (4*c4*b + 3*c3)*b are -0.0 at every step of the two
        ((5e-324, -1e-320, 0.0, 1.0, -1e-10), 5e-11, 2e-10),
        ((5e-324, -1e-320, 0.0, 2.0**-53 * ZERO_RHO_TOL, -1e-50), 1e-23, 1e-21),
    ],
)
def test_newton_through_a_negative_zero_partial_sum_matches_reference(coeffs, lower, upper):
    _assert_same(_newton_root, _ref_newton_pair, coeffs, lower, upper)


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

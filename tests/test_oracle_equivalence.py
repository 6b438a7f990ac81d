"""The objective and the fit against frozen copies, the slope against its exact root.

The ``_ref_*`` functions are ``sse`` and the fit as they were before the fit
stopped building reflected statistics; ``conftest.reflected`` gives the
statistics they reflected to.  An interior weight's slope is not frozen: the
fit solves the quartic in reduced coordinates, and each slope must lie within
3 ulps of the root of the exact quartic of its statistics
(``assert_near_exact_root``), with ``selected_root_residual`` its absolute
value there up to round-off.  ``_ref_fit_stats`` then builds the rest of the
line around that slope.  ``sse`` now raises ``OutOfRange`` where the frozen
copy returns an objective that is not finite; no input here reaches that.

``verify_fit`` is held to an exact reference instead, ``_ref_verify``: the
profile objective ``conftest.exact_profile`` at the fitted slope and 8 ulps
either side, and the gradient from the quartic's terms
``conftest.exact_quartic_terms`` at the fitted slope, both in
``fractions.Fraction``.  It runs on fitted slopes and on slopes moved by -9,
-4, +4 and +9 ulps, where the fitted slope, the lower neighbour and the upper
one each win, on slopes a few ulps from powers of two across the float64
range, subnormal ones included, on slopes whose mantissa is within 8 of
either end of its binade, where the bracket read off the slope's mantissa
gives way to the ulp-by-ulp walk, and on a bracket end of exactly 0 at
``gamma = 1``.  Where ``s_yy / s_xx`` leaves float64 the fit
raises the ``OutOfRange`` of ``slope_bounds``, and so does the reference.

On every input the two must agree exactly, the interior slope and its
residual taken from the fit once checked: ``==`` and the same ``repr`` on
every field of ``FittedLine`` and ``OracleReport`` (so signed zeros and
float types count too), or the same exception type and message.
"""

from __future__ import annotations

import dataclasses
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
    compute_stats,
    fit_stats,
    slope_bounds,
    sse,
    verify_fit,
)
from dualfit.core import ZERO_RHO_TOL
from dualfit.errors import (
    DualFitError,
    NonPositiveCorrelation,
    OutOfRange,
    SingularSlope,
    ZeroCorrelation,
)

from conftest import assert_near_exact_root, exact_profile, exact_quartic_terms, reflected

# ---- the frozen reference ----------------------------------------------------

_REF_ULPS = 8


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


def _ref_verify(stats, line, config):
    reflect = stats.rho < 0.0 and config.negative_correlation_policy == "reflect"
    slope_bounds(reflected(stats) if reflect else stats)  # raises as verify_fit does
    b, gamma = line.beta1, line.gamma
    below = above = b
    for _ in range(_REF_ULPS):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
    if (b > 0.0) != reflect:
        best = b
        for probe in (below, above):
            if exact_profile(stats, gamma, probe) < exact_profile(stats, gamma, best):
                best = probe
        evals = 3
    else:  # a slope of the wrong sign loses to its negation
        best, evals = -b, 0
    terms = exact_quartic_terms(stats, gamma, b)
    return OracleReport(
        oracle_slope=best,
        quartic_slope=b,
        abs_gap=abs(best - b),
        profile_evals=evals,
        bracket=(below, above),
        gradient_max_rel_err=float(abs(sum(terms)) / sum(map(abs, terms))),
    )


def _ref_closed_form(stats, beta1, gamma):
    beta0 = stats.y_bar - beta1 * stats.x_bar
    return FittedLine(
        beta0=beta0, beta1=beta1, gamma=gamma, sse=_ref_sse(stats, beta0, beta1, gamma)
    )


def _ref_fit_positive(stats, config, root):
    gamma = config.gamma
    if gamma == 1.0:
        return _ref_closed_form(stats, stats.s_xy / stats.s_xx, gamma)
    if gamma == 0.0:
        return _ref_closed_form(stats, stats.s_yy / stats.s_xy, gamma)
    slope_bounds(stats)  # raises as the fit does
    assert root is not None, "the fit raised where the reference solves"
    beta1, residual = root
    beta0 = stats.y_bar - beta1 * stats.x_bar
    return FittedLine(
        beta0=beta0,
        beta1=beta1,
        gamma=gamma,
        sse=_ref_sse(stats, beta0, beta1, gamma),
        selected_root_residual=residual,
    )


def _ref_fit_stats(stats, config, root=None):
    """The frozen fit; at an interior weight ``root`` is the positive slope and its residual."""
    if abs(stats.rho) < ZERO_RHO_TOL:
        raise ZeroCorrelation(f"correlation {stats.rho:.3g} is numerically zero")
    if stats.rho < 0.0:
        if config.negative_correlation_policy != "reflect":
            raise NonPositiveCorrelation(
                f"rho = {stats.rho:.6g} < 0; pass the reflect policy to fit anyway"
            )
        mirrored = _ref_fit_positive(reflected(stats), config, root)
        beta1 = -mirrored.beta1
        return FittedLine(
            beta0=stats.y_bar - beta1 * stats.x_bar,
            beta1=beta1,
            gamma=config.gamma,
            sse=mirrored.sse,
            selected_root_residual=mirrored.selected_root_residual,
            notes=("fitted on (x, -y) and negated the slope",),
        )
    return _ref_fit_positive(stats, config, root)


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


def _assert_fit(stats: SufficientStats, config: FitConfig):
    """``fit_stats`` against the frozen fit, an interior slope against the exact root."""
    got = _outcome(fit_stats, stats, config)
    kind, line = got
    root = None
    if kind == "ok" and 0.0 < config.gamma < 1.0:
        assert_near_exact_root(stats, line)
        root = abs(line.beta1), line.selected_root_residual
    want = _outcome(_ref_fit_stats, stats, config, root)
    assert got == want and repr(got) == repr(want), (stats, config, got, want)
    return got


def _assert_case(stats: SufficientStats, gamma: float, policy: str) -> None:
    config = FitConfig(gamma=gamma, negative_correlation_policy=policy)
    kind, line = _assert_fit(stats, config)
    if kind != "ok":
        # verify a reflect-policy fit of the same data under this config
        reflect = FitConfig(gamma=gamma, negative_correlation_policy="reflect")
        kind, line = _assert_fit(stats, reflect)
    if kind == "ok":
        _assert_same(verify_fit, _ref_verify, stats, line, config)
        # half a bracket off the fit either way, where about half the slopes
        # are certified, and past the bracket, where a neighbour wins
        for ulps in (-9, -4, 4, 9):
            moved = line.beta1
            for _ in range(abs(ulps)):
                moved = math.nextafter(moved, math.copysign(math.inf, ulps))
            moved_line = dataclasses.replace(line, beta1=moved)
            _assert_same(verify_fit, _ref_verify, stats, moved_line, config)
        _assert_same(sse, _ref_sse, stats, line.beta0, line.beta1, gamma)


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
        # y in 1e125 units of x, where the quartic in the slope overflowed
        # at its upper bound; its reduced form does not
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
        _assert_case(reflected(stats), gamma, policy)


def _edge_slopes():
    """Powers of two moved by a few ulps, so that a bracket end can leave the binade."""
    for e in (-1060, -1022, -1, 0, 1, 52, 300, 1000, 1023):
        for j in (-9, -8, -1, 0, 1, 8, 9):
            slope = 2.0**e
            for _ in range(abs(j)):
                slope = math.nextafter(slope, math.copysign(math.inf, j))
            # the least, 2**-1060 - 9 ulps, is 2**14 - 9 ulps from 0, so no
            # bracket end is 0 (the test of a bracket end at zero has those)
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
        for case in (stats, reflected(stats)):
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
        for case in (stats, reflected(stats)):
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
    # s_xy / s_xx is below b / 2
    stats = SufficientStats(n=3, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1.0, s_xy=s_xy, rho=s_xy)
    line = FittedLine(beta0=0.0, beta1=4e-323, gamma=1.0, sse=0.0)
    mirrored = dataclasses.replace(line, beta1=-4e-323)
    cases = [(stats, line, "error"), (reflected(stats), mirrored, "reflect")]
    for case, fitted, policy in cases:
        config = FitConfig(gamma=1.0, negative_correlation_policy=policy)
        _, report = _assert_same(verify_fit, _ref_verify, case, fitted, config)
        assert 0.0 in report.bracket and report.profile_evals == 3
        assert report.certified == (s_xy >= 2e-323)


@pytest.mark.parametrize("gamma", [5e-324, 0.3, 1.0 - 1e-16])
def test_overflowing_ratio_matches_reference(gamma):
    # s_yy / s_xx overflows; the fit, and the reference through slope_bounds,
    # refuse it with OutOfRange
    stats = SufficientStats(n=3, x_bar=1.0, y_bar=2.0, s_xx=1e-300, s_yy=1e300, s_xy=0.5, rho=0.5)
    refused = _outcome(slope_bounds, stats)
    assert refused[0] is OutOfRange
    for policy in ("error", "reflect"):
        config = FitConfig(gamma=gamma, negative_correlation_policy=policy)
        for case in (stats, reflected(stats)):
            got, want = _outcome(fit_stats, case, config), _outcome(_ref_fit_stats, case, config)
            if want[0] is NonPositiveCorrelation:
                assert got == want
            else:
                assert got == want == refused


# every offset across the edge of the 8-ulp bracket, and two past it
_EDGE_OFFSETS = (*range(-12, 13), -16, 16, -40, 40)


@pytest.mark.parametrize("gamma", [1e-6, 0.3, 1.0 - 1e-6])
def test_slopes_around_the_bracket_edge_match_reference(gamma):
    # the fitted slope, and the power of two nearest it, moved across the
    # edge of the bracket, where certify's test on Q(b) stops settling the
    # comparison and, next to the power of two, the bracket is walked ulp by
    # ulp; on the seeded data and its mirror image, under both policies
    rng = np.random.default_rng(20261022)
    fitted = FitConfig(gamma=gamma, negative_correlation_policy="reflect")
    for _ in range(8):
        stats = _seeded_stats(rng)
        for data in (stats, reflected(stats)):
            line = fit_stats(data, fitted)
            power = math.copysign(2.0 ** round(math.log2(abs(line.beta1))), line.beta1)
            for base in (line.beta1, power):
                for policy in ("error", "reflect"):
                    config = FitConfig(gamma=gamma, negative_correlation_policy=policy)
                    for ulps in _EDGE_OFFSETS:
                        moved = base
                        for _ in range(abs(ulps)):
                            moved = math.nextafter(moved, math.copysign(math.inf, ulps))
                        moved_line = dataclasses.replace(line, beta1=moved)
                        kind, report = _assert_same(
                            verify_fit, _ref_verify, data, moved_line, config
                        )
                        if kind == "ok" and base == line.beta1 and ulps in (0, -40, 40):
                            # the fit is certified, and a slope 40 ulps off never is
                            assert report.certified == (ulps == 0), (data, gamma, ulps)


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

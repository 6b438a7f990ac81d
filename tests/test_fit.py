"""Slope selection, the end-to-end fit, and prediction."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

from dualfit import (
    Dataset,
    FitConfig,
    FittedLine,
    build_quartic,
    compute_stats,
    fit,
    fit_stats,
    intercept,
    inverse_predict,
    predict,
    slope_bounds,
    sse,
    verify_fit,
)
from dualfit.errors import (
    InvalidInput,
    NonPositiveCorrelation,
    OutOfRange,
    SingularSlope,
    ZeroCorrelation,
)

from conftest import NOT_NUMBERS, REFERENCE_POINTS, random_dataset


def _symmetric_unit_stats():
    from dualfit import SufficientStats

    return SufficientStats(n=2, x_bar=0.0, y_bar=0.0, s_xx=1.0, s_yy=1.0, s_xy=1.0, rho=1.0)


# ---- slope selection -------------------------------------------------------


def test_select_positive_reference_root(reference_stats):
    # the quartic's other real root, near -0.482, lies outside the slope bounds
    chosen = fit_stats(reference_stats, FitConfig(gamma=0.9)).beta1
    assert chosen == pytest.approx(0.6612, abs=5e-4)


def test_select_single_collapsed_candidate():
    # rho = 1 collapses the slope bounds onto the single slope 1
    stats = _symmetric_unit_stats()
    assert fit_stats(stats, FitConfig(gamma=0.5)).beta1 == 1.0


def test_select_is_the_certified_minimizer(reference_stats):
    config = FitConfig(gamma=0.5)
    line = fit_stats(reference_stats, config)
    report = verify_fit(reference_stats, line, config)
    assert report.certified and report.oracle_slope == line.beta1


# ---- fit -------------------------------------------------------------------


def test_fit_reference(reference_data):
    line = fit(reference_data, FitConfig(gamma=0.9))
    assert line.beta1 == pytest.approx(0.6612, abs=5e-4)
    assert line.beta0 == pytest.approx(-0.0806, abs=5e-4)
    assert line.selected_root_residual <= 1e-10
    assert line.notes == ()


def test_fit_endpoints_closed_form(reference_data):
    ols = fit(reference_data, FitConfig(gamma=1.0))
    assert ols.beta1 == pytest.approx(0.5, abs=1e-12)
    assert ols.selected_root_residual == 0.0
    inv = fit(reference_data, FitConfig(gamma=0.0))
    assert inv.beta1 == pytest.approx(1.5, abs=1e-12)
    assert inv.selected_root_residual == 0.0


def test_fit_exact_line_any_gamma():
    data = Dataset.from_points([(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)])
    for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
        line = fit(data, FitConfig(gamma=gamma))
        assert line.beta1 == pytest.approx(2.0, abs=1e-9)
        assert line.beta0 == pytest.approx(1.0, abs=1e-9)
        assert line.sse <= 1e-18


def test_fit_zero_correlation_rejected():
    data = Dataset.from_points([(-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0)])
    with pytest.raises(ZeroCorrelation):
        fit(data, FitConfig(gamma=0.5))


def test_fit_negative_correlation_default_error():
    data = Dataset.from_points([(0.0, 3.0), (1.0, 2.0), (2.0, 0.5)])
    with pytest.raises(NonPositiveCorrelation):
        fit(data, FitConfig(gamma=0.5))


def test_fit_reflects_when_asked(reference_data, reference_stats):
    mirrored = Dataset(reference_data.x, -reference_data.y)
    for gamma in (0.0, 0.3, 0.7, 1.0):
        straight = fit(reference_data, FitConfig(gamma=gamma))
        reflected = fit(
            mirrored, FitConfig(gamma=gamma, negative_correlation_policy="reflect")
        )
        assert reflected.beta1 == -straight.beta1
        assert reflected.beta0 == -reference_stats.y_bar - reflected.beta1 * 0.5
        assert any("negated" in note for note in reflected.notes)
        assert reflected.selected_root_residual == straight.selected_root_residual


def test_fit_config_validation():
    with pytest.raises(InvalidInput):
        FitConfig(gamma=1.2)
    with pytest.raises(InvalidInput):
        FitConfig(gamma=-0.1)
    with pytest.raises(InvalidInput):
        FitConfig(gamma=float("nan"))
    with pytest.raises(InvalidInput):
        FitConfig(gamma=0.5, negative_correlation_policy="mirror")


@pytest.mark.parametrize("gamma", NOT_NUMBERS)
def test_fit_config_refuses_a_gamma_that_is_not_a_number(gamma):
    message = f"^gamma must be a number, got {re.escape(repr(gamma))}$"
    with pytest.raises(InvalidInput, match=message):
        FitConfig(gamma=gamma)


def test_fit_config_names_a_gamma_outside_the_weights():
    with pytest.raises(InvalidInput, match=r"^gamma must lie in \[0, 1\], got 1.2$"):
        FitConfig(gamma=1.2)


@pytest.mark.parametrize("gamma", [np.array(0.5), np.float32(0.5)])
def test_a_numpy_scalar_or_0d_array_is_a_weight(reference_stats, gamma):
    config = FitConfig(gamma=gamma)
    line, want = fit_stats(reference_stats, config), fit_stats(reference_stats, FitConfig(0.5))
    assert (line.beta0, line.beta1) == (want.beta0, want.beta1)
    assert sse(reference_stats, line.beta0, line.beta1, gamma) == pytest.approx(want.sse)
    assert build_quartic(reference_stats, gamma) == build_quartic(reference_stats, 0.5)
    assert verify_fit(reference_stats, line, config).certified


def test_fit_random_records_diagnostics():
    rng = np.random.default_rng(11)
    stats = compute_stats(random_dataset(rng))
    config = FitConfig(gamma=0.37)
    line = fit_stats(stats, config)
    quartic = build_quartic(stats, 0.37)
    terms = sum(abs(c) * line.beta1 ** (4 - i) for i, c in enumerate(quartic.coeffs))
    # |Q(b)| / sqrt(s_xx*s_yy), up to the round-off of a sum of terms this size
    scaled = line.selected_root_residual * math.sqrt(stats.s_xx * stats.s_yy)
    assert abs(scaled - abs(quartic(line.beta1))) <= 4e-16 * terms
    assert scaled <= 1e-15 * terms
    lower, upper = slope_bounds(stats)
    assert lower <= line.beta1 <= upper
    assert line.beta0 == intercept(stats, line.beta1)


# ---- predict / inverse_predict ---------------------------------------------


def test_predict_direct():
    assert predict(FittedLine(beta0=0.0, beta1=1.0, gamma=0.5, sse=0.0), 7.0) == 7.0
    assert predict(FittedLine(beta0=1.0, beta1=2.0, gamma=0.5, sse=0.0), 3.0) == 7.0


def test_predict_goes_through_centroid(reference_data, reference_stats):
    line = fit(reference_data, FitConfig(gamma=0.9))
    assert predict(line, reference_stats.x_bar) == pytest.approx(
        reference_stats.y_bar, abs=1e-12
    )


def test_inverse_direct():
    assert inverse_predict(FittedLine(beta0=1.0, beta1=2.0, gamma=0.5, sse=0.0), 7.0) == 3.0


def test_inverse_reference_centroid(reference_data):
    line = fit(reference_data, FitConfig(gamma=0.9))
    assert inverse_predict(line, 0.25) == pytest.approx(0.5, abs=1e-3)


def test_round_trip_random_values():
    rng = np.random.default_rng(5150)
    line = fit(random_dataset(rng, n=40), FitConfig(gamma=0.35))
    for x in rng.uniform(-100.0, 100.0, 100):
        y = predict(line, x)
        back = inverse_predict(line, y)
        assert back == pytest.approx(x, rel=1e-12, abs=1e-12)
        assert predict(line, back) == pytest.approx(y, rel=1e-12, abs=1e-12)


def test_inverse_rejects_flat_line():
    with pytest.raises(SingularSlope):
        inverse_predict(FittedLine(beta0=1.0, beta1=0.0, gamma=1.0, sse=0.0), 2.0)


_SLOPED_LINE = fit(
    Dataset.from_points([(0, 0), (1, 1.1), (2, 2), (3, 3.2)]), FitConfig(gamma=0.5)
)
_SHALLOW_LINE = FittedLine(beta0=1.0, beta1=0.5, gamma=0.5, sse=0.0)


@pytest.mark.parametrize(
    "at, line, query, message",
    [
        (predict, _SLOPED_LINE, 1.79e308, "predict at 1.79e+308 overflows float64"),
        (predict, _SLOPED_LINE, -1.79e308, "predict at -1.79e+308 overflows float64"),
        (inverse_predict, _SHALLOW_LINE, 1e308, "inverse at 1e+308 overflows float64"),
        (predict, _SLOPED_LINE, np.float64(1.79e308), "predict at 1.79e+308 overflows"),
        (predict, _SLOPED_LINE, float("nan"), "predict at nan is not finite"),
        (inverse_predict, _SHALLOW_LINE, float("-inf"), "inverse at -inf is not finite"),
    ],
)
def test_non_finite_scalar_result_raises(at, line, query, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match=re.escape(message)):
            at(line, query)


@pytest.mark.parametrize(
    "at, line, query, first",
    [
        (predict, _SLOPED_LINE, [1.0, 1.79e308, -1.79e308], "1.79e+308"),
        (predict, _SLOPED_LINE, [[1.0, 2.0], [-1.79e308, 3.0]], "-1.79e+308"),
        (inverse_predict, _SHALLOW_LINE, [2.0, 3.0, -1e308], "-1e+308"),
        (inverse_predict, _SHALLOW_LINE, [2.0, np.nan], "nan"),
    ],
)
def test_non_finite_array_result_raises_naming_the_first(at, line, query, first):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning must not leak
        with pytest.raises(OutOfRange, match=re.escape(f" at {first} ")):
            at(line, np.array(query))


def test_finite_array_results_match_scalars():
    queries = np.array([[-3.0, 0.0], [0.5, 1e300]])
    for at in (predict, inverse_predict):
        values = at(_SLOPED_LINE, queries)
        assert isinstance(values, np.ndarray) and values.shape == queries.shape
        assert values.tolist() == [[at(_SLOPED_LINE, q) for q in row] for row in queries.tolist()]
    assert type(predict(_SLOPED_LINE, 2.0)) is float
    assert type(inverse_predict(_SLOPED_LINE, 2.0)) is float


_ROUNDED_LINE = fit(Dataset.from_points([(0, 0), (1, 1), (2, 1), (3, 3)]), FitConfig(gamma=0.5))


@pytest.mark.parametrize("at, name", [(predict, "predict"), (inverse_predict, "inverse")])
@pytest.mark.parametrize("query", [10**400, -(10**400)])
def test_an_integer_query_beyond_float64_raises_out_of_range(at, name, query):
    message = f"{name} at an integer of 1329 bits overflows float64"
    with pytest.raises(OutOfRange, match=re.escape(message)):
        at(_ROUNDED_LINE, query)


@pytest.mark.parametrize("at", [predict, inverse_predict])
@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble])
@pytest.mark.parametrize("query", [2.0, -2.0])
def test_a_query_of_any_float_dtype_is_computed_in_float64(at, dtype, query):
    # 2.0 and 6.0 are exact in every dtype, so only the line's arithmetic can differ
    want = [at(_ROUNDED_LINE, query), at(_ROUNDED_LINE, 3.0 * query)]
    scalar = at(_ROUNDED_LINE, dtype(query))
    assert type(scalar) is np.float64 and scalar == want[0]
    values = at(_ROUNDED_LINE, np.array([query, 3.0 * query], dtype=dtype))
    assert values.dtype == np.float64 and values.tolist() == want


@pytest.mark.parametrize("at", [predict, inverse_predict])
@pytest.mark.parametrize("query", [np.array([2**70, 6]), [2.0, -6.0], (2, 6.0), ["2", "6"]])
def test_a_query_numpy_makes_float64_is_computed_in_float64(at, query):
    # np.array([2**70, 6]) is an array of Python ints, dtype object
    values = at(_SHALLOW_LINE, query)
    assert values.dtype == np.float64
    assert values.tolist() == [at(_SHALLOW_LINE, float(q)) for q in query]


@pytest.mark.parametrize("at, name", [(predict, "predict"), (inverse_predict, "inverse")])
@pytest.mark.parametrize(
    "query, error, message",
    [
        (np.array([10**400], dtype=object), OutOfRange, "query overflows float64"),
        (np.array([1 + 2j]), InvalidInput, "queries are not real numbers: got complex128"),
        (1 + 2j, InvalidInput, "queries are not real numbers: got complex128"),
        (np.array([1 + 2j], dtype=object), InvalidInput, "queries are not real numbers"),
        ("abc", InvalidInput, "queries are not real numbers"),
        ([1.0, [2.0, 3.0]], InvalidInput, "queries are not real numbers"),
        # numpy would make each None nan, which the caller never passed
        (None, InvalidInput, "queries are not real numbers: got None"),
        ([None, 1.0], InvalidInput, "queries are not real numbers: got None"),
        ([1.0, None], InvalidInput, "queries are not real numbers: got None"),
        (np.array([[2.0], [None]], dtype=object), InvalidInput, "queries are not real numbers"),
    ],
)
def test_a_query_numpy_cannot_make_float64_raises_a_typed_error(at, name, query, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's ComplexWarning must not leak
        with pytest.raises(error, match=f"^{re.escape(f'{name} {message}')}"):
            at(_SHALLOW_LINE, query)


def test_dataset_roundtrip_points():
    data = Dataset.from_points(REFERENCE_POINTS)
    assert len(data) == 4
    assert data.x.tolist() == [0.0, 0.0, 1.0, 1.0]
    assert data.y.tolist() == [0.0, 0.0, 0.0, 1.0]

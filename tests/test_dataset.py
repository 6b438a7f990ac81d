"""The Dataset contract: read-only columns, value equality, typed input errors,
and the sufficient statistics it keeps after the first summary."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from dualfit import Dataset, FitConfig, compute_stats, dataset, fit, verify_fit
from dualfit.errors import DegenerateData, DualFitError, InvalidInput, OutOfRange


@pytest.fixture
def summaries(monkeypatch) -> list[int]:
    """One entry per call of ``dataset._moments``, the pass over a Dataset's rows."""
    calls: list[int] = []
    moments = dataset._moments

    def counting(x, y):
        calls.append(int(x.size))
        return moments(x, y)

    monkeypatch.setattr(dataset, "_moments", counting)
    return calls


def _sloped() -> Dataset:
    return Dataset([0.0, 1.0, 2.0, 3.0], [0.0, 1.1, 2.0, 3.2])


# ---- read-only columns, through copies and pickles ---------------------------------


def _round_trips(data: Dataset) -> list[Dataset]:
    return [copy.copy(data), copy.deepcopy(data), pickle.loads(pickle.dumps(data))]


def test_columns_cannot_be_made_writeable():
    data = _sloped()
    for column in (data.x, data.y):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column.setflags(write=True)
        with pytest.raises(ValueError):
            column[0] = 5.0


def test_copies_and_pickles_are_read_only_and_equal():
    data = _sloped()
    for twin in _round_trips(data):
        assert type(twin) is Dataset and twin is not data and twin == data
        for column in (twin.x, twin.y):
            assert column.dtype == np.float64 and not column.flags.writeable
            with pytest.raises(ValueError):
                column.setflags(write=True)


def test_copies_and_pickles_carry_no_record(summaries):
    data = _sloped()
    stats = compute_stats(data)
    assert len(summaries) == 1
    for twin in _round_trips(data):
        # each is summarised afresh, to the same figures
        assert compute_stats(twin) is not stats
        assert compute_stats(twin) == stats
    assert len(summaries) == 4


def test_record_takes_no_part_in_repr_fields_or_equality():
    data, fresh = _sloped(), _sloped()
    compute_stats(data)
    assert repr(data) == repr(fresh)
    assert [f.name for f in dataclasses.fields(data)] == ["x", "y"]
    assert data == fresh and fresh == data


# ---- equality ----------------------------------------------------------------------


def test_equal_operands():
    assert Dataset([0, 1.0], [0, 1.0]) == Dataset([0, 1.0], [0, 1.0])
    assert Dataset([0, 1], [0, 1]) == Dataset(np.array([0.0, 1.0]), (0.0, 1.0))
    assert not Dataset([0, 1.0], [0, 1.0]) != Dataset([0, 1.0], [0, 1.0])


@pytest.mark.parametrize(
    "other",
    [
        Dataset([0, 1.0], [0, 2.0]),
        Dataset([0, 2.0], [0, 1.0]),
        Dataset([0, 1.0, 2.0], [0, 1.0, 2.0]),
        Dataset([0, 1.0], [0, 1.0 + 2**-52]),
    ],
)
def test_unequal_operands(other):
    data = Dataset([0, 1.0], [0, 1.0])
    assert data != other and other != data
    assert not data == other


@pytest.mark.parametrize("other", [None, 5, "Dataset", ([0, 1.0], [0, 1.0])])
def test_non_dataset_operand(other):
    data = Dataset([0, 1.0], [0, 1.0])
    assert data != other and other != data
    assert not data == other


def test_dataset_is_unhashable():
    with pytest.raises(TypeError):
        hash(Dataset([0, 1.0], [0, 1.0]))


# ---- typed input errors ------------------------------------------------------------


@pytest.mark.parametrize(
    "x, y",
    [
        (["a", "b"], [1, 2]),
        ([1, 2], ["1", "two"]),
        ([1 + 2j, 2], [1, 2]),
        (np.array([1.0, 2.0]), np.array([1 + 0j, 2 + 0j])),
        ([np.complex128(1), 2], [1, 2]),
        ([object(), 2], [1, 2]),
    ],
)
def test_non_numeric_input_raises_invalid_input(x, y):
    with pytest.raises(InvalidInput, match="not real numbers"):
        Dataset(x, y)


@pytest.mark.parametrize(
    "points",
    [[("a", 1), (2, 3)], [(1 + 2j, 1), (2, 3)], [(np.complex128(1 + 1j), 2), (2, 3)], [(1, 2), (3,)]],
)
def test_non_numeric_points_raise_invalid_input(points):
    with pytest.raises(InvalidInput, match="not real numbers"):
        Dataset.from_points(points)


def test_columns_of_more_than_one_dimension_raise_invalid_input():
    with pytest.raises(InvalidInput, match="^x and y must be one-dimensional$"):
        Dataset(np.ones((2, 2)), np.ones((2, 2)))


def test_numeric_text_is_still_read():
    assert Dataset(["0", "1.5"], [0, 1]) == Dataset([0.0, 1.5], [0.0, 1.0])


# ---- the kept record ---------------------------------------------------------------


def test_compute_stats_returns_one_record():
    data = _sloped()
    assert compute_stats(data) is compute_stats(data)


def test_fits_and_verify_after_compute_stats_summarise_nothing(summaries):
    data = _sloped()
    stats = compute_stats(data)
    assert summaries == [4]
    for gamma in (0.0, 0.35, 1.0):
        fit(data, FitConfig(gamma=gamma))
    config = FitConfig(gamma=0.5)
    verify_fit(compute_stats(data), fit(data, config), config)
    assert summaries == [4]
    assert compute_stats(data) is stats


def test_first_fit_keeps_the_record(summaries):
    data = _sloped()
    line = fit(data, FitConfig(gamma=0.5))
    assert fit(data, FitConfig(gamma=0.5)) == line
    compute_stats(data)
    assert summaries == [4]


@pytest.mark.parametrize(
    "x, y, error",
    [
        ([1.0, 2.0, 3.0], [5.0, 5.0, 5.0], DegenerateData),
        ([7.0, 7.0, 7.0], [1.0, 2.0, 3.0], DegenerateData),
        ([1e160, 2e160, 3e160], [1e160, 3e160, 2e160], OutOfRange),
    ],
)
def test_errors_are_raised_on_every_call(summaries, x, y, error):
    data = Dataset(x, y)
    for _ in range(3):
        with pytest.raises(error):
            compute_stats(data)
        with pytest.raises(error):
            fit(data, FitConfig(gamma=0.5))
    # nothing was kept, so every call summarised the rows again
    assert len(summaries) == 6


def _outcomes(make, config: FitConfig) -> list[str]:
    """``repr`` of compute_stats, fit and verify_fit, each on ``make()``'s Dataset.

    A typed error ends the list with its type and message.
    """
    seen = []
    try:
        seen.append(repr(compute_stats(make())))
        line = fit(make(), config)
        seen.append(repr(line))
        seen.append(repr(verify_fit(compute_stats(make()), line, config)))
    except DualFitError as exc:
        seen.append(f"{type(exc).__name__}: {exc}")
    return seen


def test_reused_dataset_matches_fresh_ones():
    rng = np.random.default_rng(20261018)
    kinds = {"fitted": 0, "negative": 0, "failed": 0}
    for case in range(1000):
        n = int(round(10.0 ** rng.uniform(1.0, 4.0)))
        x = rng.uniform(-1e6, 1e6) + rng.normal(0.0, 10.0 ** rng.uniform(-1.0, 3.0), n)
        sign = 1.0 if case % 2 else -1.0
        y = rng.uniform(-1e6, 1e6) + sign * rng.uniform(0.1, 10.0) * (x - x.mean())
        y += rng.normal(0.0, 10.0 ** rng.uniform(-1.0, 3.0), n)
        if case % 25 == 0:
            y[:] = y[0]  # a constant column: every call must raise
        gamma = (0.0, 1.0, float(rng.uniform()))[case % 3]
        config = FitConfig(gamma=gamma, negative_correlation_policy="reflect")

        fresh = _outcomes(lambda: Dataset(x, y), config)
        data = Dataset(x, y)
        # twice over one Dataset, as a caller that fits and checks it again would
        assert _outcomes(lambda: data, config) == fresh, case
        assert _outcomes(lambda: data, config) == fresh, case
        if len(fresh) == 3:
            assert compute_stats(data) is compute_stats(data)
            kinds["negative" if sign < 0 else "fitted"] += 1
        else:
            kinds["failed"] += 1
    # both signs fitted, and the constant columns failed
    assert kinds["fitted"] > 400 and kinds["negative"] > 400 and kinds["failed"] >= 40

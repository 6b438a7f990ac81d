"""The result records behave as the frozen dataclasses they are declared as.

``FittedLine`` and ``OracleReport`` write their own ``__init__``, which fills
every field in one update; ``@dataclass`` keeps it and generates the rest.
These tests pin what callers rely on: the fields and their order, the
constructor's signature and defaults, ``dataclasses.replace``, ``==``,
``hash``, ``repr``, copies and pickles, and that a record cannot be changed.
``OracleReport``'s own checks are tested in ``tests/test_oracle.py``.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle

import pytest

from dualfit import (
    Dataset,
    FitConfig,
    FittedLine,
    InvalidInput,
    OracleReport,
    compute_stats,
    fit,
    verify_fit,
)

from conftest import REFERENCE_POINTS

LINE_FIELDS = ("beta0", "beta1", "gamma", "sse", "selected_root_residual", "notes")
REPORT_FIELDS = (
    "oracle_slope",
    "quartic_slope",
    "abs_gap",
    "profile_evals",
    "bracket",
    "gradient_max_rel_err",
)


def _line() -> FittedLine:
    return FittedLine(
        beta0=-0.5, beta1=1.5, gamma=0.25, sse=3.0, selected_root_residual=2e-16, notes=("a",)
    )


def _report() -> OracleReport:
    return OracleReport(
        oracle_slope=1.5,
        quartic_slope=1.5,
        abs_gap=0.0,
        profile_evals=3,
        bracket=(1.25, 1.75),
        gradient_max_rel_err=1e-17,
    )


def _fitted() -> tuple[FittedLine, OracleReport]:
    stats = compute_stats(Dataset.from_points(REFERENCE_POINTS))
    config = FitConfig(gamma=0.9)
    line = fit(Dataset.from_points(REFERENCE_POINTS), config)
    return line, verify_fit(stats, line, config)


RECORDS = [
    pytest.param(_line, LINE_FIELDS, id="FittedLine"),
    pytest.param(_report, REPORT_FIELDS, id="OracleReport"),
]


@pytest.mark.parametrize("make, names", RECORDS)
def test_fields_in_declared_order(make, names):
    record = make()
    assert dataclasses.is_dataclass(record)
    assert tuple(f.name for f in dataclasses.fields(record)) == names
    assert type(record).__match_args__ == names
    # the instance holds its fields and nothing else, in the same order
    assert tuple(vars(record)) == names


def test_constructor_signatures_and_defaults():
    line_params = inspect.signature(FittedLine).parameters
    assert tuple(line_params) == LINE_FIELDS
    defaults = {name: p.default for name, p in line_params.items() if p.default is not p.empty}
    assert defaults == {"selected_root_residual": 0.0, "notes": ()}
    line = FittedLine(1.0, 2.0, 0.5, 3.0)
    assert (line.selected_root_residual, line.notes) == (0.0, ())
    assert tuple(inspect.signature(OracleReport).parameters) == REPORT_FIELDS
    assert all(
        p.default is p.empty for p in inspect.signature(OracleReport).parameters.values()
    )


@pytest.mark.parametrize("make, names", RECORDS)
def test_positional_and_keyword_construction_agree(make, names):
    record = make()
    values = dataclasses.astuple(record)
    assert type(record)(*values) == record
    assert type(record)(**dict(zip(names, values))) == record
    assert dataclasses.asdict(record) == dict(zip(names, values))
    with pytest.raises(TypeError):
        type(record)(*values[:3])
    with pytest.raises(TypeError):
        type(record)(*values, unknown=1)


def test_replace_makes_a_new_line():
    line = _line()
    moved = dataclasses.replace(line, beta1=2.5, notes=())
    assert (moved.beta0, moved.beta1, moved.notes) == (-0.5, 2.5, ())
    assert moved.sse == line.sse and line.beta1 == 1.5
    assert dataclasses.replace(line) == line


def test_replace_checks_a_report_again():
    report = _report()
    moved = dataclasses.replace(report, oracle_slope=1.75, abs_gap=0.25)
    assert (moved.oracle_slope, moved.abs_gap, moved.certified) == (1.75, 0.25, False)
    with pytest.raises(InvalidInput):
        dataclasses.replace(report, oracle_slope=1.75)  # abs_gap no longer matches


@pytest.mark.parametrize("make, names", RECORDS)
def test_equality_and_hash_follow_the_fields(make, names):
    record = make()
    twin = make()
    assert record is not twin
    assert record == twin and hash(record) == hash(twin)
    assert hash(record) == hash(dataclasses.astuple(record))
    assert record != dataclasses.astuple(record)  # another type is never equal
    assert len({record, twin}) == 1


def test_a_changed_field_breaks_equality():
    line = _line()
    for name, value in (("beta0", 0.5), ("gamma", 0.75), ("notes", ())):
        assert dataclasses.replace(line, **{name: value}) != line
    report = _report()
    assert dataclasses.replace(report, gradient_max_rel_err=0.5) != report


def test_repr_names_every_field():
    assert repr(_line()) == (
        "FittedLine(beta0=-0.5, beta1=1.5, gamma=0.25, sse=3.0, "
        "selected_root_residual=2e-16, notes=('a',))"
    )
    assert repr(_report()) == (
        "OracleReport(oracle_slope=1.5, quartic_slope=1.5, abs_gap=0.0, "
        "profile_evals=3, bracket=(1.25, 1.75), gradient_max_rel_err=1e-17)"
    )


@pytest.mark.parametrize("make, names", [*RECORDS, pytest.param(None, None, id="fitted")])
def test_copies_and_pickles_are_equal_records(make, names):
    records = _fitted() if make is None else (make(),)
    for record in records:
        for twin in (
            copy.copy(record),
            copy.deepcopy(record),
            *(pickle.loads(pickle.dumps(record, protocol)) for protocol in (2, 5)),
        ):
            assert type(twin) is type(record)
            assert twin == record and hash(twin) == hash(record)
            assert repr(twin) == repr(record)


@pytest.mark.parametrize("make, names", RECORDS)
def test_fields_cannot_be_changed(make, names):
    record = make()
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.extra = 1
    assert record == make()

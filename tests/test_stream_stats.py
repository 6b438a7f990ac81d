"""The CLI's streamed statistics against parsing whole, then ``compute_stats``.

``dualfit`` sums input of at most ``cli._BLOCK_ROWS`` data rows in Python
floats, and reads longer input that many rows at a time, merging each
block's statistics; it never builds a ``Dataset``.  Here the block size is
cut to 1, 2 and 3 rows so that small texts span many blocks, and every
``dualfit stats`` run is held to the same run made the way the CLI worked
before: ``parse_csv`` on the whole text, then ``compute_stats``.

Input errors must agree exactly: exit code, message and line.  Statistics
may differ by the round-off either algorithm commits, which the comparison
allows, field by field; data that fits in one block must also give, to the
bit, ``parse_csv``'s values summed by the one-block arithmetic.  Where a
value's magnitude leaves ``[2**-200, 2**200]``, whether a sum overflows or
underflows can depend on the order of the arithmetic, so there the two runs
need only both end in exit 0 or 3.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfit import Dataset, SufficientStats, compute_stats
from dualfit import cli
from dualfit.cli import EXIT_INPUT, EXIT_OK, parse_csv
from dualfit._columns import _RunningStats
from dualfit._kernel import _checked_stats, _fsum_moments
from dualfit.errors import DualFitError, InvalidInput, ParseError

from conftest import dualfit_peak_mb
from test_parse_equivalence import _ALPHABET, _WEIGHTED, CASES, COLUMN_CASES, Unseekable, _cells

EPS = sys.float_info.epsilon
BLOCK_SIZES = (1, 2, 3)

# block boundaries that need care, each met at some size in BLOCK_SIZES
BOUNDARY_CASES = [
    'x,y\n1,2\n"3\n",4\n5,7\n8,9\n',  # a quoted cell spanning two lines
    'x,y\n1,2\n3,"4\n\n"\n5,7\n',  # a blank line inside quotes
    "x,y\ninf,1\n2,3\n4,5\n6,7\nbad,8\n9,10\n",  # inf, then a malformed row
    "x,y\n1,nan\n2,3\n4,5\n6,7\n",  # a non-finite value and no error after it
    "x,y\n1,2\n3,5\n4,4\n6,9\n\n\n",  # 4 rows, then blank lines
    "x,y\n1,2\n3,5\n4,4\n6,9\n2,2\n8,1\n",  # 6 rows: a multiple of every size
    "x,y\n1,2\n3,5\n4,4\n6,9\n2,2\n8,1\n\r\n\n\r",  # the same, blank lines after
    "x,y\n1,2\n\n3,5\n\r\n4,4\n\n\n6,9\n",  # blank lines inside blocks
    "1,2\r\n3,5\r\n4,4\r\n",
    "x,y\n0,0\n1,1\n2,0\n",  # a covariance that is 0 before round-off
    "x,y\n1,2\n3,5\n4,4\n \n6,9\n",  # a whitespace row: the row loop decides
    "x,y\n1,2\n3,5\n4,4\n1_0,9\n",
    "x,y\n0.1,1\n0.1,2\n0.1,4\n0.1,3\n",  # a constant x whose mean is inexact
    "x,y\n1e300,1\n1e300,2\n1e300,4\n",  # a constant x whose sum overflows
    'x,y\n1,2\n3,"4\n5"\n6,7\n8,9\n',  # a quoted line break at the last line of a block
    'x,y\n1,"2\n\n\n3"\n4,5\n6,7\n',  # a quoted cell spanning three line breaks
    'x,y\n"1\n",2\n"3\n",4\n"5\n",6\n',  # a quoted line break in every row
    'x,y,z\n1,2,a"b\n3,4,c\n5,6,d\n',  # a stray quote within a cell opens none
    'x,y,z\n1,2,a"b\n3,"4\n",c\n5,6,d\n7,8,e\n',  # and a quoted cell after it
]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("stream") / "input.csv"


def _stats_run(path, raw: bytes, columns) -> tuple[int, str, str]:
    path.write_bytes(raw)
    args = ["stats", "--input", str(path)]
    for flag, column in zip(("--x-col", "--y-col"), columns):
        if column is not None:
            args.append(f"{flag}={column}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def _whole_then_stats(fh, x_column, y_column):
    # the CLI before streaming: the whole text parsed, then compute_stats
    data = parse_csv(fh, x_column, y_column)
    return lambda: compute_stats(data)


def _whole_then_one_block_stats(fh, x_column, y_column):
    # parse_csv's values, summed as the CLI sums one block
    data = parse_csv(fh, x_column, y_column)
    xs, ys = data.x.tolist(), data.y.tolist()
    ranges = (min(xs), max(xs), min(ys), max(ys))
    return lambda: _checked_stats(_fsum_moments(xs, ys), lambda: ranges)


def _summary(fh, columns):
    # the statistics _read_stats gives, or the error it raises
    try:
        return ("stats", cli._read_stats(fh, *columns)())
    except DualFitError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line", None))


def _parsed(raw, columns):
    try:
        data = parse_csv(raw, *columns)
    except (ParseError, InvalidInput) as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line", None))
    return ("data", data.x.tobytes(), data.y.tobytes())


def _record(stdout: str) -> dict[str, float]:
    return {key: float(value) for key, value in (line.split() for line in stdout.splitlines())}


def _in_range(data: Dataset) -> bool:
    values = np.abs(np.concatenate([data.x, data.y]))
    values = values[values != 0.0]
    return bool(((2.0**-200 <= values) & (values <= 2.0**200)).all())


def _assert_within_round_off(got: dict, want: dict, data: Dataset) -> None:
    """Each printed statistic within the round-off of either algorithm.

    A mean is off by a few units in the last place of the largest value.  A
    centred sum is off by a few units in its own last place, plus what an
    inexact mean leaves in it: up to ``n * (n * eps * max|x|)^2``, which is
    all there is of a nearly constant column.
    """
    assert got.keys() == want.keys() and got["n"] == want["n"]
    n = len(data)
    big_x = float(np.abs(data.x).max())
    big_y = float(np.abs(data.y).max())
    off_x = n * (n * EPS * big_x) ** 2
    off_y = n * (n * EPS * big_y) ** 2
    s_xx, s_yy = want["s_xx"], want["s_yy"]
    spread = math.sqrt(s_xx * s_yy)
    tol = {
        "x_bar": 16 * EPS * big_x,
        "y_bar": 16 * EPS * big_y,
        "s_xx": 64 * EPS * s_xx + off_x,
        "s_yy": 64 * EPS * s_yy + off_y,
        "s_xy": 64 * EPS * spread + math.sqrt(off_x * off_y),
    }
    tol["rho"] = (
        4 * EPS
        + tol["s_xy"] / spread
        + abs(want["rho"]) * (tol["s_xx"] / s_xx + tol["s_yy"] / s_yy) / 2
    )
    for key, value in tol.items():
        # and one unit in the 10th printed digit
        bound = value + 1e-9 * max(abs(got[key]), abs(want[key]))
        assert abs(got[key] - want[key]) <= bound, (key, got[key], want[key])


def _assert_streams_like_whole(path, text: str, columns=(None, None)) -> None:
    raw = text.encode("utf-8")
    with mock.patch.object(cli, "_read_stats", _whole_then_stats):
        expected = _stats_run(path, raw, columns)
    parsed = _parsed(raw, columns)
    rows = len(np.frombuffer(parsed[1], dtype=float)) if parsed[0] == "data" else 0
    for block_rows in BLOCK_SIZES:
        with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
            got = _stats_run(path, raw, columns)
            # parse_csv joins the same blocks, to the same arrays
            assert _parsed(raw, columns) == parsed
        code, out, err = got
        if expected[0] == EXIT_INPUT:
            assert got == expected, block_rows
            continue
        if rows <= block_rows:
            with mock.patch.object(cli, "_read_stats", _whole_then_one_block_stats):
                assert got == _stats_run(path, raw, columns), block_rows
        data = Dataset(np.frombuffer(parsed[1]), np.frombuffer(parsed[2]))
        if not _in_range(data):
            assert code in (EXIT_OK, 3) and len(err.splitlines()) == (code != EXIT_OK)
            continue
        assert (code, err) == expected[::2], block_rows
        if code == EXIT_OK:
            _assert_within_round_off(_record(out), _record(expected[1]), data)
    # bytes that cannot be sought, as a pipe's, are read as a file's are
    for block_rows in (cli._BLOCK_ROWS, *BLOCK_SIZES):
        with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
            assert _summary(Unseekable(raw), columns) == _summary(io.BytesIO(raw), columns)
            assert _parsed(Unseekable(raw), columns) == parsed


@pytest.mark.parametrize("text", CASES + BOUNDARY_CASES)
def test_fixed_cases_stream_like_whole(csv_path, text):
    _assert_streams_like_whole(csv_path, text)


@pytest.mark.parametrize("text, x_column, y_column", COLUMN_CASES)
def test_column_cases_stream_like_whole(csv_path, text, x_column, y_column):
    _assert_streams_like_whole(csv_path, text, (x_column, y_column))


@settings(max_examples=400, deadline=None)
@given(
    prefix=st.sampled_from(["", "x,y\n", "y,x\n", "1,2\n", "x,y\n0,0\n"]),
    body=st.one_of(st.text(alphabet=_ALPHABET, max_size=60), st.text(_WEIGHTED, max_size=80)),
    columns=st.sampled_from([(None, None), ("1", "0"), ("x", "y"), ("0", "2"), ("2", None)]),
)
def test_generated_text_streams_like_whole(csv_path, prefix, body, columns):
    _assert_streams_like_whole(csv_path, prefix + body, columns)


@settings(max_examples=250, deadline=None)
@given(
    rows=st.lists(st.one_of(st.lists(_cells(), min_size=2, max_size=4), st.just([])), max_size=8),
    header=st.sampled_from(["", "x,y", "y,x,z", "a,b"]),
    ending=st.sampled_from(["\n", "\r\n"]),
)
def test_generated_tables_stream_like_whole(csv_path, rows, header, ending):
    lines = ([header] if header else []) + [",".join(cells) for cells in rows]
    _assert_streams_like_whole(csv_path, "".join(line + ending for line in lines))


# ---- one rule for cells over the csv module's field limit ---------------------

_LIMIT = csv.field_size_limit()


def _long_cell_texts(cell: str, at: int, rows: int = 12) -> list[tuple[str, int]]:
    """A table with ``cell`` as data row ``at``, and its line number, with and
    without a whitespace row (which only the row loop reads) far from it."""
    body = [f"{i},{2 * i + 1}" for i in range(rows)]
    body[at] = cell
    near = "x,y\n" + "\n".join(body) + "\n"
    before = "x,y\n" + "\n".join(body[:1] + [" "] + body[1:]) + "\n"
    after = near + " \n1,1\n"
    return [(near, at + 2), (before, at + 3), (after, at + 2)]


@pytest.mark.parametrize(
    "cell, at, message",
    [
        ("3," + "4" * (_LIMIT + 1), 1, "field larger than field limit"),
        ("3," + "4" * (_LIMIT + 1), 9, "field larger than field limit"),
        ('3,"' + "4" * (_LIMIT + 1) + '"', 9, "field larger than field limit"),
        # in a column that is not read
        ("3,4," + "z" * (_LIMIT + 1), 9, "field larger than field limit"),
        # quoted, with a comma in every stretch: only the csv module finds it long
        ('3,4,"' + "z," * (_LIMIT // 2 + 1) + '"', 9, "field larger than field limit"),
        # at the limit the cell is read, as inf
        ("3," + "4" * _LIMIT, 9, "coordinates must be finite"),
    ],
)
def test_overlong_cell_outcome_ignores_far_rows(csv_path, cell, at, message):
    for text, line in _long_cell_texts(cell, at):
        for block_rows in (cli._BLOCK_ROWS, 2, 3):
            with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
                parsed = _parsed(text.encode(), (None, None))
                code, _, err = _stats_run(csv_path, text.encode(), (None, None))
            assert message in parsed[2] and code == EXIT_INPUT
            assert err == f"{parsed[1].__name__}: {parsed[2]}\n"
            if parsed[1] is ParseError:
                assert parsed[3] == line


def test_overlong_cell_reports_its_line_in_a_later_block():
    text = "x,y\n" + "".join(f"{i},{i % 7}\n" for i in range(20)) + "3," + "4" * (_LIMIT + 1) + "\n"
    for block_rows in (cli._BLOCK_ROWS, 1, 4):
        with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
            with pytest.raises(ParseError) as excinfo:
                parse_csv(text)
        assert excinfo.value.line == 22


# ---- accuracy of the merged statistics ------------------------------------------


def _exact(x: np.ndarray, y: np.ndarray) -> tuple[float, ...]:
    """Means and centred sums rounded once from exact rational arithmetic."""
    ratios = [v.as_integer_ratio() for v in np.concatenate([x, y]).tolist()]
    scale = max(q for _, q in ratios)  # every denominator is a power of 2
    ints = [p * (scale // q) for p, q in ratios]
    xs, ys = ints[: x.size], ints[x.size :]
    n = x.size

    def centred(u, v):
        products = sum(a * b for a, b in zip(u, v))
        return float(Fraction(n * products - sum(u) * sum(v), n * scale * scale))

    mean_x, mean_y = Fraction(sum(xs), n * scale), Fraction(sum(ys), n * scale)
    return float(mean_x), float(mean_y), centred(xs, xs), centred(ys, ys), centred(xs, ys)


def _streamed(x: np.ndarray, y: np.ndarray, block_rows: int):
    running = _RunningStats()
    for start in range(0, x.size, block_rows):
        running.add(x[start : start + block_rows].copy(), y[start : start + block_rows].copy())
    return running.stats()


def _dataset(kind: str) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(20260518)
    n = 200_000
    t = rng.uniform(-3.0, 3.0, n)
    x, y = t + 0.3 * rng.standard_normal(n), 1.7 * t + 0.5 * rng.standard_normal(n)
    if kind == "offset 1e3":
        return x + 1e3, y + 1e3
    if kind == "offset 1e9":
        return x + 1e9, y - 1e9
    if kind == "sorted by x":
        order = np.argsort(x)
        return x[order] + 1e3, y[order]
    if kind == "heavy tails":
        heavy = rng.lognormal(0.0, 2.0, n)
        return heavy, heavy * rng.uniform(0.5, 1.5, n)
    if kind == "three blocks":
        return x[: 3 * cli._BLOCK_ROWS + 5], y[: 3 * cli._BLOCK_ROWS + 5]
    return x, y


@pytest.mark.parametrize(
    "kind", ["line", "offset 1e3", "offset 1e9", "sorted by x", "heavy tails", "three blocks"]
)
def test_merged_stats_within_4_ulp_of_exact(kind):
    x, y = _dataset(kind)
    stats = _streamed(x, y, cli._BLOCK_ROWS)
    assert stats.n == x.size
    ulps = _ulps_from_exact(stats, x, y)
    assert max(ulps.values()) <= 4.0, ulps


def _ulps_from_exact(stats, x: np.ndarray, y: np.ndarray) -> dict[str, float]:
    """Each statistic's distance from :func:`_exact`, in units in the last place.

    A mean is measured in ulps of the largest value of its column, and
    ``s_xy`` in ulps of ``sqrt(s_xx * s_yy)``, the scale its round-off has.
    """
    x_bar, y_bar, s_xx, s_yy, s_xy = _exact(x, y)
    return {
        "x_bar": abs(stats.x_bar - x_bar) / math.ulp(float(np.abs(x).max())),
        "y_bar": abs(stats.y_bar - y_bar) / math.ulp(float(np.abs(y).max())),
        "s_xx": abs(stats.s_xx - s_xx) / math.ulp(s_xx),
        "s_yy": abs(stats.s_yy - s_yy) / math.ulp(s_yy),
        "s_xy": abs(stats.s_xy - s_xy) / math.ulp(math.sqrt(s_xx * s_yy)),
    }


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6, 1e9])
@pytest.mark.parametrize("n", [2, 7, 1000, 8192])
def test_one_block_stats_within_1_ulp_of_exact(n, offset):
    # the CLI's one-block path: the row parse, then corrected two-pass fsums
    assert n <= cli._BLOCK_ROWS
    rng = np.random.default_rng([n, int(offset)])
    t = rng.uniform(-3.0, 3.0, n)
    x = t + 0.3 * rng.standard_normal(n) + offset
    y = 1.7 * t + 0.5 * rng.standard_normal(n) - offset
    text = "x,y\n" + "".join(map("{!r},{!r}\n".format, x.tolist(), y.tolist()))
    stats = cli._read_stats(io.BytesIO(text.encode()), None, None)()
    assert stats.n == n
    ulps = _ulps_from_exact(stats, x, y)
    assert max(ulps.values()) <= 1.0, ulps


@pytest.mark.parametrize("n", [2, 3, 100, 8192])
def test_single_block_is_compute_stats_to_the_bit(n):
    rng = np.random.default_rng(n)
    x = rng.normal(5.0, 2.0, n)
    y = 0.5 * x + rng.normal(0.0, 1.0, n)
    assert SufficientStats(*_streamed(x, y, 8192)) == compute_stats(Dataset(x, y))


def test_two_points_at_a_large_offset_are_exact():
    # the mean rounds half an ulp away, which an uncorrected centred sum
    # counts twice over
    x, y = np.array([1e20, 1e20 + 16384]), np.array([1.0, 2.0])
    stats = compute_stats(Dataset(x, y))
    assert (stats.x_bar, stats.y_bar, stats.s_xx, stats.s_yy, stats.s_xy) == _exact(x, y)
    assert (stats.s_xx, stats.rho) == (134217728.0, 1.0)


def _offset_columns(kind: str, n: int, offset: float) -> tuple[np.ndarray, np.ndarray]:
    """Seeded columns at ``offset`` and ``-offset``: a noisy line, or values a
    few ulps of the offset apart, which are all a centred sum has to hold."""
    rng = np.random.default_rng([n, int(offset), kind == "near-constant"])
    if kind == "ordinary":
        t = rng.uniform(-3.0, 3.0, n)
        return t + 0.3 * rng.standard_normal(n) + offset, 1.7 * t - offset
    steps = rng.integers(-8, 9, n)
    steps[:2] = (-8, 8)  # never a constant column
    spread = math.ulp(offset)
    return offset + spread * steps, spread * (steps + rng.integers(-2, 3, n)) - offset


@pytest.mark.parametrize("offset", [1e3, 1e6, 1e9, 1e12])
@pytest.mark.parametrize("n", [2, 7, 1000, 10_000])
@pytest.mark.parametrize("kind", ["ordinary", "near-constant"])
def test_compute_stats_within_32_ulp_of_exact(kind, n, offset):
    x, y = _offset_columns(kind, n, offset)
    stats = compute_stats(Dataset(x, y))
    ulps = _ulps_from_exact(stats, x, y)
    assert max(ulps.values()) <= 32.0, ulps


# ---- peak memory flat in the number of rows -------------------------------------


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_peak_memory_does_not_grow_with_rows(tmp_path):
    rng = np.random.default_rng(7)
    peaks = {}
    for n in (20_000, 200_000):
        x = rng.uniform(-5.0, 5.0, n)
        y = 2.0 * x + rng.standard_normal(n)
        path = tmp_path / f"rows-{n}.csv"
        path.write_text("x,y\n" + "".join(map("{!r},{!r}\n".format, x.tolist(), y.tolist())))
        code, peaks[n] = dualfit_peak_mb("stats", "--input", str(path))
        assert code == EXIT_OK
    assert peaks[200_000] - peaks[20_000] <= 2.0, peaks


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_peak_memory_stays_flat_past_a_refused_block(tmp_path):
    # np.loadtxt refuses the 1_0 cell at data row 9000, in the second block;
    # the rest of the file is still read a block at a time
    rng = np.random.default_rng(8)
    x = rng.integers(-(10**6), 10**6, 200_000).tolist()
    y = rng.integers(-(10**6), 10**6, 200_000).tolist()
    x[8999] = 10
    peaks = {}
    for cell in ("10", "1_0"):
        rows = [f"{a},{b}\n" for a, b in zip(x, y)]
        rows[8999] = f"{cell},{y[8999]}\n"
        path = tmp_path / f"cell-{cell}.csv"
        path.write_text("x,y\n" + "".join(rows))
        code, peaks[cell] = dualfit_peak_mb("stats", "--input", str(path))
        assert code == EXIT_OK
    assert peaks["1_0"] - peaks["10"] <= 2.0, peaks

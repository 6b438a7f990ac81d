"""The CLI's streamed statistics against parsing whole, then ``compute_stats``.

``dualfit`` reads its input in blocks of ``cli._BLOCK_LINES`` lines and sums
each run of ``cli._RUN_ROWS`` data rows in Python floats, whatever lines the
blocks hold, merging the runs' statistics; it never builds a ``Dataset``.
Here blocks and runs are cut to 1, 2 and 3 lines and rows, to sizes that
differ, (2, 3) and (3, 2), and to one-line blocks in runs of 8192 rows, so
that small texts span many blocks and runs, and every ``dualfit stats`` run
is held to the same run made the way the CLI worked before: ``parse_csv`` on
the whole text, then ``compute_stats``.

Input errors must agree exactly: exit code, message and line.  Statistics
may differ by the round-off either algorithm commits, which the comparison
allows, field by field; data that fits in one run must also give, to the
bit, ``parse_csv``'s values summed by the one-run arithmetic.  Where a
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
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfit import Dataset, compute_stats
from dualfit import cli
from dualfit.cli import EXIT_INPUT, EXIT_OK, parse_csv
from dualfit._kernel import _checked_stats, _fsum_moments, _solver
from dualfit.errors import DegenerateData, DualFitError, InvalidInput, ParseError

from conftest import dualfit_peak_mb, reader_sizes, src_env
from test_parse_equivalence import _ALPHABET, _WEIGHTED, CASES, COLUMN_CASES, Unseekable, _cells

EPS = sys.float_info.epsilon
# (block lines, run rows): equal, then blocks and runs that end apart
BLOCK_SIZES = ((1, 1), (2, 2), (3, 3), (2, 3), (3, 2), (1, 8192))

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
    "x,y\n5,1\n5,2\n5,3\n5,4\n5,6\n6,5\n",  # x constant in every run but the last
    "x,y\n1,7\n2,7\n3,7\n4,7\n",  # a constant y
    "x,y\n0.0,1\n-0.0,2\n0,3\n",  # 0.0 and -0.0 are one x value
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


def _whole_then_one_run_stats(fh, x_column, y_column):
    # parse_csv's values, summed as the CLI sums one run
    data = parse_csv(fh, x_column, y_column)
    xs, ys = data.x.tolist(), data.y.tolist()
    constant = (min(xs) == max(xs), min(ys) == max(ys))
    return lambda: _checked_stats(_fsum_moments(xs, ys), *constant)


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
    for sizes in BLOCK_SIZES:
        with reader_sizes(*sizes):
            got = _stats_run(path, raw, columns)
            # parse_csv joins the same blocks, to the same arrays
            assert _parsed(raw, columns) == parsed
        code, out, err = got
        if expected[0] == EXIT_INPUT:
            assert got == expected, sizes
            continue
        if rows <= sizes[1]:
            with mock.patch.object(cli, "_read_stats", _whole_then_one_run_stats):
                assert got == _stats_run(path, raw, columns), sizes
        data = Dataset(np.frombuffer(parsed[1]), np.frombuffer(parsed[2]))
        if not _in_range(data):
            assert code in (EXIT_OK, 3) and len(err.splitlines()) == (code != EXIT_OK)
            continue
        assert (code, err) == expected[::2], sizes
        if code == EXIT_OK:
            _assert_within_round_off(_record(out), _record(expected[1]), data)
    # bytes that cannot be sought, as a pipe's, are read as a file's are
    for sizes in ((cli._BLOCK_LINES, cli._RUN_ROWS), *BLOCK_SIZES):
        with reader_sizes(*sizes):
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
        for sizes in ((cli._BLOCK_LINES, cli._RUN_ROWS), (2, 2), (3, 3)):
            with reader_sizes(*sizes):
                parsed = _parsed(text.encode(), (None, None))
                code, _, err = _stats_run(csv_path, text.encode(), (None, None))
            assert message in parsed[2] and code == EXIT_INPUT
            assert err == f"{parsed[1].__name__}: {parsed[2]}\n"
            if parsed[1] is ParseError:
                assert parsed[3] == line


def test_overlong_cell_reports_its_line_in_a_later_block():
    text = "x,y\n" + "".join(f"{i},{i % 7}\n" for i in range(20)) + "3," + "4" * (_LIMIT + 1) + "\n"
    for sizes in ((cli._BLOCK_LINES, cli._RUN_ROWS), (1, 1), (4, 4)):
        with reader_sizes(*sizes):
            with pytest.raises(ParseError) as excinfo:
                parse_csv(text)
        assert excinfo.value.line == 22


# ---- a non-finite value or an overflow past the first run -----------------------

_NON_FINITE = "InvalidInput: coordinates must be finite\n"
_OVERFLOW = "OutOfRange: sums of squares overflow float64; rescale the data\n"


def _three_runs(scale: float, changed: dict[int, str]) -> bytes:
    """20,000 data rows of values near ``scale``, three runs of ``cli._RUN_ROWS``,
    with each data row ``i`` (1-based) of ``changed`` written ``changed[i]``."""
    rows = [
        f"{(1 + i % 89 / 100) * scale!r},{(2 - i % 97 / 100) * scale!r}\n" for i in range(20_000)
    ]
    for i, row in changed.items():
        rows[i - 1] = f"{row}\n"
    return ("x,y\n" + "".join(rows)).encode()


@pytest.mark.parametrize(
    "scale, changed, code, error",
    [
        (1.0, {9000: "inf,1"}, EXIT_INPUT, _NON_FINITE),
        (1.0, {9000: "1,nan"}, EXIT_INPUT, _NON_FINITE),
        (1.0, {20_000: "nan,1"}, EXIT_INPUT, _NON_FINITE),
        (1.0, {20_000: "1,-inf"}, EXIT_INPUT, _NON_FINITE),
        # finite values whose centred sums overflow
        (1e300, {}, 3, _OVERFLOW),
        # a non-finite value is an input error, which wins over an overflow
        (1e300, {9000: "inf,1"}, EXIT_INPUT, _NON_FINITE),
        (1e300, {20_000: "1,inf"}, EXIT_INPUT, _NON_FINITE),
    ],
)
def test_a_later_run_decides_non_finite_and_overflow(csv_path, scale, changed, code, error):
    assert 2 * cli._RUN_ROWS < 20_000
    raw = _three_runs(scale, changed)
    assert _stats_run(csv_path, raw, (None, None)) == (code, "", error)
    # a pipe, which cannot seek
    args = [sys.executable, "-m", "dualfit", "stats"]
    piped = subprocess.run(args, input=raw, capture_output=True, env=src_env(), timeout=60)
    assert (piped.returncode, piped.stdout, piped.stderr.decode()) == (code, b"", error)
    if code == EXIT_INPUT:
        want = ("error", InvalidInput, "coordinates must be finite", None)
        assert _parsed(raw, (None, None)) == want
    else:
        assert len(parse_csv(raw)) == 20_000


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


def _streamed(x: np.ndarray, y: np.ndarray):
    # the CLI's statistics of the rows written as round-trip text
    text = "x,y\n" + "".join(map("{!r},{!r}\n".format, x.tolist(), y.tolist()))
    return cli._read_stats(io.BytesIO(text.encode()), None, None)()


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
    if kind == "three blocks":  # three runs and 5 rows
        return x[: 3 * cli._RUN_ROWS + 5], y[: 3 * cli._RUN_ROWS + 5]
    return x, y


@pytest.mark.parametrize(
    "kind", ["line", "offset 1e3", "offset 1e9", "sorted by x", "heavy tails", "three blocks"]
)
def test_merged_stats_within_4_ulp_of_exact(kind):
    x, y = _dataset(kind)
    stats = _streamed(x, y)
    assert stats.n == x.size
    ulps = _ulps_from_exact(stats, x, y)
    assert max(ulps.values()) <= 4.0, ulps


@pytest.mark.parametrize("power", [-200, -60, 7, 200])
def test_a_common_power_of_two_scales_the_statistics_exactly(power):
    # a power of two changes no rounding of the sums, within a run or in the
    # merge, while every value and product stays normal: the means scale by
    # it, the sums by its square, and rho and the slope keep their bits
    x, y = _dataset("three blocks")
    scale = 2.0**power
    base, scaled = _streamed(x, y), _streamed(x * scale, y * scale)
    assert (scaled.n, scaled.rho) == (base.n, base.rho)
    assert (scaled.x_bar, scaled.y_bar) == (base.x_bar * scale, base.y_bar * scale)
    squares = (scaled.s_xx, scaled.s_yy, scaled.s_xy)
    assert squares == (base.s_xx * scale**2, base.s_yy * scale**2, base.s_xy * scale**2)
    for gamma in (0.0, 0.3, 1.0):
        beta0, beta1, _, sse, *_ = _solver(scaled, "error")(gamma)
        base_beta0, base_beta1, _, base_sse, *_ = _solver(base, "error")(gamma)
        assert (beta1, beta0, sse) == (base_beta1, base_beta0 * scale, base_sse * scale**2)


def test_blank_lines_and_block_size_move_no_run():
    # a run is _RUN_ROWS data rows whatever lines the blocks hold: blank
    # lines, whose blocks only the row parse reads, and blocks of the
    # reader's size or of a whole run leave every statistic its bits
    x, y = _dataset("three blocks")
    rows = list(map("{!r},{!r}\n".format, x.tolist(), y.tolist()))
    plain = ("x,y\n" + "".join(rows)).encode()
    for i in range(699, len(rows), 700):
        rows[i] += "\n"  # a blank line every 700 lines
    blank = ("x,y\n" + "".join(rows)).encode()
    want = repr(cli._read_stats(io.BytesIO(plain), None, None)())
    for block_lines in (cli._BLOCK_LINES, 8192):
        with reader_sizes(block_lines, cli._RUN_ROWS):
            got = repr(cli._read_stats(io.BytesIO(blank), None, None)())
        assert got == want, block_lines


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
    # the CLI's one-run path: corrected two-pass fsums of the rows read
    assert n <= cli._RUN_ROWS
    rng = np.random.default_rng([n, int(offset)])
    t = rng.uniform(-3.0, 3.0, n)
    x = t + 0.3 * rng.standard_normal(n) + offset
    y = 1.7 * t + 0.5 * rng.standard_normal(n) - offset
    text = "x,y\n" + "".join(map("{!r},{!r}\n".format, x.tolist(), y.tolist()))
    stats = cli._read_stats(io.BytesIO(text.encode()), None, None)()
    assert stats.n == n
    ulps = _ulps_from_exact(stats, x, y)
    assert max(ulps.values()) <= 1.0, ulps


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


def test_compute_stats_means_are_correctly_rounded_at_a_large_offset():
    # the mean is the float sum over n plus the deviations' mean, as the CLI
    # takes it; the float sum over n alone misses in about half these sets
    for seed in range(20):
        rng = np.random.default_rng([seed, 10**9])
        x = rng.normal(1e9, 1.0, 5000)
        y = 0.7 * x + rng.standard_normal(5000)
        stats = compute_stats(Dataset(x, y))
        assert (stats.x_bar, stats.y_bar) == _exact(x, y)[:2], seed


# ---- a constant column ----------------------------------------------------------


def _near_constant(rng: np.random.Generator, n: int) -> list[float]:
    """``n`` copies of a seeded value from 5e-324 to 1e300, or of 0.0, of
    either sign; half the time one copy is moved an ulp up or down, or negated."""
    if rng.random() < 0.4:
        value = float(rng.choice([0.0, 5e-324, 2.0**-1022, 0.1, 1.0, 1e9, 1e300]))
    else:
        value = 10.0 ** rng.uniform(-323.0, 300.0)
    column = [float(value * rng.choice([-1.0, 1.0]))] * n
    at, change = int(rng.integers(n)), rng.integers(6)
    if change == 1:
        column[at] = math.nextafter(column[at], math.inf)
    elif change == 2:
        column[at] = math.nextafter(column[at], -math.inf)
    elif change == 3:
        column[at] = -column[at]  # 0.0 and -0.0 are one value
    return column


def _degenerate(summary) -> str | None:
    # the message of the DegenerateData that summary() raises, or None
    try:
        summary()
    except DegenerateData as exc:
        return str(exc)
    except DualFitError:
        pass
    return None


def test_a_column_is_degenerate_exactly_when_its_values_are_equal():
    # decided on the values, whatever the round-off, overflow or underflow of
    # the sums, by compute_stats and by the CLI at its sizes and at small runs
    rng = np.random.default_rng(20261021)
    for case in range(60):
        n = int(math.exp(rng.uniform(math.log(2), math.log(20_000))))
        column = _near_constant(rng, n)
        if rng.random() < 0.3:
            other = _near_constant(rng, n)
        else:
            other = (rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3) + 1e6).tolist()
        for xs, ys in ((column, other), (other, column)):
            want = next(
                (f"all {name} values are identical" for name, values in (("x", xs), ("y", ys))
                 if min(values) == max(values)),
                None,
            )
            raw = ("x,y\n" + "".join(map("{!r},{!r}\n".format, xs, ys))).encode()
            got = [_degenerate(lambda: compute_stats(Dataset(np.array(xs), np.array(ys))))]
            for sizes in ((cli._BLOCK_LINES, cli._RUN_ROWS), (7, 16)):
                with reader_sizes(*sizes):
                    got.append(_degenerate(lambda: cli._read_stats(io.BytesIO(raw), None, None)()))
            assert got == [want] * 3, (case, n, xs[:2], ys[:2])


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
def test_working_set_of_a_large_input_is_one_run_and_one_block(tmp_path):
    # beyond what a 100-row input needs, a process holds a run's values and
    # one block in four forms (lines, text, cells and floats): about 1.5 MB
    # at blocks of 1024 lines, and 3.7 MB at blocks of 8192
    rng = np.random.default_rng(9)
    peaks = {}
    for n in (100, 200_000):
        x = rng.uniform(-5.0, 5.0, n)
        y = 2.0 * x + rng.standard_normal(n)
        path = tmp_path / f"rows-{n}.csv"
        path.write_text("x,y\n" + "".join(map("{!r},{!r}\n".format, x.tolist(), y.tolist())))
        runs = [dualfit_peak_mb("stats", "--input", str(path)) for _ in range(3)]
        assert all(code == EXIT_OK for code, _ in runs)
        peaks[n] = min(peak for _, peak in runs)
    assert peaks[200_000] - peaks[100] <= 2.5, peaks


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_peak_memory_stays_flat_past_a_refused_block(tmp_path):
    # the split path refuses the block of data row 9000, the ninth, where
    # that row is wider than the rest; the rest of the file is still read a
    # block at a time
    rng = np.random.default_rng(8)
    x = rng.integers(-(10**6), 10**6, 200_000).tolist()
    y = rng.integers(-(10**6), 10**6, 200_000).tolist()
    x[8999] = 10
    peaks = {}
    for row in (f"10,{y[8999]}", f"1_0,{y[8999]}", f"10,{y[8999]},z"):
        rows = [f"{a},{b}\n" for a, b in zip(x, y)]
        rows[8999] = f"{row}\n"
        path = tmp_path / "cells.csv"
        path.write_text("x,y\n" + "".join(rows))
        code, peaks[row] = dualfit_peak_mb("stats", "--input", str(path))
        assert code == EXIT_OK
    plain = peaks.pop(f"10,{y[8999]}")
    assert max(peaks.values()) - plain <= 2.0, (plain, peaks)

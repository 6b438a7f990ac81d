"""Command-line front end: CSV in, fits and verification reports out.

Subcommands: fit, sweep, predict, inverse, stats, verify.  Each is a function
of argparse's namespace and the input's sufficient statistics, looked up in
``_RUNNERS``; argparse checks the arguments.  The commands run on the
kernel's plain floats and tuples (:mod:`dualfit._kernel`, and for verify
:mod:`dualfit.oracle`) and build none of the library's records, so a command
imports neither ``dataclasses`` nor ``typing``.  All numeric output is printed
with 10 significant digits so json and csv output is byte-stable for
identical inputs.  Exit codes: 0 ok, 2 input error or an output that cannot
be written, 3 fit error, 4 verification failure; a reader that closes the
output pipe early ends the command quietly with 0.

Every input, a pipe included, is read once and forward by :func:`_blocks`,
a bounded block at a time: split into cells, each column read by one
``float`` per cell, or row by row where a block's rows are not all of one
width.  :func:`_read_stats` hands the runs of rows to the kernel, which sums
each by ``math.fsum`` and merges them pairwise, so no command imports numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from itertools import chain, islice

from ._kernel import (
    _bounds,
    _checked_stats,
    _inverse,
    _merged_moments,
    _predict,
    _solver,
    _Stats,
)
from .errors import DualFitError, InvalidInput, ParseError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Iterable, Iterator

    from .dataset import Dataset

    # the 1-based line number and stripped cells of each non-blank row
    _Rows = Iterator[tuple[int, list[str]]]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FIT = 3
EXIT_VERIFY = 4

_FORMATS = ("table", "json", "csv")

# a float literal with a minus sign, exponent forms included
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

STDIN_MARKER = "-"


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _probe_index(selector: str | None, default: int) -> int:
    if selector is None:
        return default
    try:
        return int(selector)
    except ValueError:
        return default


def _resolve_column(
    selector: str | None, header: list[str] | None, default_name: str, default_index: int
) -> int:
    names = header or []
    if selector is None:
        return names.index(default_name) if default_name in names else default_index
    if selector in names:
        return names.index(selector)
    try:
        return int(selector)
    except ValueError:
        problem = "is a name but the file has no header row"
        if header:
            problem = f"not found in header {header}"
        raise InvalidInput(f"column {selector!r} {problem}") from None


def _csv_rows(lines: Iterable[str], skipped: int = 0) -> _Rows:
    """Yield the 1-based line number and stripped cells of each non-blank row.

    A row is blank when it has no cells or only whitespace cells.  Line
    numbers count on from the ``skipped`` lines before ``lines``.

    Raises
    ------
    ParseError
        Caused by the csv module rejecting the text, naming the line it stopped on.
    """
    reader = csv.reader(lines)
    try:
        for cells in reader:
            # all cells are whitespace iff their concatenation is
            if "".join(cells).strip():
                yield skipped + reader.line_num, list(map(str.strip, cells))
    except csv.Error as exc:
        line = skipped + reader.line_num
        raise ParseError(f"line {line}: {exc}", line=line) from exc


def _data_rows(
    rows: _Rows, x_column: str | None, y_column: str | None
) -> tuple[int, int, tuple[int, list[str]]]:
    """The x and y column indices, and the first data row of ``rows``.

    The first row is a header iff its cells at the x and y probe indices fail
    to parse as numbers; the first data row must hold both columns.  This and
    :func:`_values` decide the grammar: the rules that name the line of a
    malformed row.
    """
    first = next(rows, None)
    if first is None:
        raise InvalidInput("need at least 2 data rows, got 0")
    probes = {_probe_index(x_column, 0), _probe_index(y_column, 1)}
    present = [first[1][i] for i in sorted(probes) if 0 <= i < len(first[1])]
    has_header = bool(present) and not all(_is_number(c) for c in present)
    header = first[1] if has_header else None
    x_idx = _resolve_column(x_column, header, "x", 0)
    y_idx = _resolve_column(y_column, header, "y", 1)
    first_data = next(rows, None) if has_header else first
    if first_data is None:
        raise InvalidInput("need at least 2 data rows, got 0")
    width = len(first_data[1])
    for idx, label in ((x_idx, "x"), (y_idx, "y")):
        if idx < 0 or idx >= width:
            raise InvalidInput(
                f"{label} column index {idx} is out of range for {width} column(s)"
            )
    return x_idx, y_idx, first_data


def _values(rows: _Rows, x_idx: int, y_idx: int) -> tuple[list[float], list[float]]:
    """The x and y values of ``rows``, read one by one by Python's ``float``."""
    xs: list[float] = []
    ys: list[float] = []
    needed = max(x_idx, y_idx) + 1
    for line_num, cells in rows:
        if len(cells) < needed:
            raise ParseError(
                f"line {line_num}: expected at least {needed} columns, got {len(cells)}",
                line=line_num,
            )
        for idx, values in ((x_idx, xs), (y_idx, ys)):
            try:
                values.append(float(cells[idx]))
            except ValueError:
                raise ParseError(
                    f"line {line_num}: could not parse {cells[idx]!r} as a number",
                    line=line_num,
                ) from None
    return xs, ys


# lines in a block, which the reader holds at once in four forms (lines,
# text, cells and floats): tens of kB of text, which still spreads the work
# of a block thin
_BLOCK_LINES = 1024
# data rows in a run of the statistics, whatever lines the blocks hold
_RUN_ROWS = 8192


def _cells_within_limit(text: str) -> bool:
    """Whether no cell of ``text``, which holds no quote, can be longer than
    ``csv.field_size_limit()``: such a cell, holding no comma, would cover a
    whole stretch of half the limit, and a stretch without a comma says no."""
    limit = csv.field_size_limit()
    if len(text) <= limit:
        return True
    half = limit // 2
    return all(text.find(",", i, i + half) >= 0 for i in range(0, len(text) - half + 1, half))


class _Stream:
    """A CSV stream, text or UTF-8 bytes, read once and forward from where it
    stands, a line or a block of lines at a time.  Bytes are decoded as they
    are read; the first that are not UTF-8 end the reading, and that read and
    every later one raise the error that decoding the whole text gives."""

    def __init__(self, fh) -> None:
        # a chain reads no more once at its end, which a terminal gives once
        self._fh = chain(fh)
        self._offset = 0  # the bytes decoded
        self._error: InvalidInput | None = None

    def _text(self, raw: str | bytes) -> str:
        if isinstance(raw, str):
            return raw
        if self._error is not None:
            raise self._error
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            start, end = exc.start + self._offset, exc.end + self._offset
            where = f"bytes in position {start}-{end - 1}"
            if end - start == 1:
                where = f"byte 0x{raw[exc.start]:02x} in position {start}"
            message = f"'utf-8' codec can't decode {where}: {exc.reason}"
            self._error = InvalidInput(f"input is not valid UTF-8: {message}")
            raise self._error from None
        self._offset += len(raw)
        return text

    def lines(self) -> Iterator[str]:
        return map(self._text, self._fh)

    def block(self) -> tuple[str, int, list[list[str]] | None] | None:
        """The next block: its text, its number of lines and, if it holds a
        quote, its rows as the csv module reads them, or None where it
        rejects them.  A block is ``_BLOCK_LINES`` lines, and more while the
        csv module has read fewer rows from it, so it ends where a row does:
        only the csv module tells where a quote opens a cell that spans lines
        (``1,2"3`` opens none)."""
        lines = list(islice(self._fh, _BLOCK_LINES))
        if not lines:
            return None
        count = len(lines)
        # joined as str or as bytes, as the stream gives them
        text = self._text(lines[0][:0].join(lines))
        del lines  # the block is held once, as its text
        if '"' not in text:
            return text, count, None
        more: list[str] = []

        def extra() -> Iterator[str]:
            for line in self._fh:
                more.append(self._text(line))
                yield more[-1]

        # as many rows as the block has lines, blank ones among them; the csv
        # module enforces its field limit
        reader = csv.reader(chain(io.StringIO(text), extra()))
        try:
            rows = list(islice(reader, count))
        except csv.Error:
            rows = None
        return text + "".join(more), count + len(more), rows


def _block_columns(
    text: str, lines: int, rows: list[list[str]] | None, x_idx: int, y_idx: int
) -> tuple[list[float], list[float]] | None:
    """The x and y columns of a block whose rows are all of one width, by
    ``float`` over every ``width``-th cell, or None for the row parse to read.

    A quoted block's cells are the csv module's ``rows``.  Any other block's
    are its text split at each comma and after each line end: the csv
    module's reading of text with no NUL, no ``\\r`` but before ``\\n``, and no
    cell longer than ``csv.field_size_limit()``.  Python's ``float`` strips
    only what ``str.strip`` does, so where it takes every cell read and each
    row holds both columns, the values are the row parse's.  None is
    returned for any other block: one with a blank or whitespace-only row,
    rows of two widths, or a cell ``float`` refuses.
    """
    if rows is not None:
        widths = set(map(len, rows))
        width = widths.pop() if len(widths) == 1 else 0
        cells = list(chain.from_iterable(rows))
    elif (
        '"' in text
        or "\0" in text
        or ("\r" in text and text.count("\r") != text.count("\r\n"))
        or not _cells_within_limit(text)
    ):
        return None
    else:
        # each line end stays at the end of its row's last cell
        cells = text.replace("\n", "\n,").split(",")
        # every line ends in "\n" but maybe the input's last
        line_ends = lines - (not text.endswith("\n"))
        if line_ends == lines:
            cells.pop()  # the empty cell after the last line end
        width = len(cells) // lines
        # every line end in a row's last cell, so every row of one width
        ends = "".join(cells[width - 1 :: width]).count("\n")
        if len(cells) != width * lines or ends != line_ends:
            return None
    if width <= max(x_idx, y_idx):
        return None
    try:
        return list(map(float, cells[x_idx::width])), list(map(float, cells[y_idx::width]))
    except ValueError:
        return None


def _blocks(
    fh, x_column: str | None, y_column: str | None
) -> Iterator[tuple[list[float], list[float]]]:
    """Yield the x and y values of a CSV stream, text or UTF-8 bytes, from
    where it stands, in runs of ``_RUN_ROWS`` data rows, the last fewer.

    The row parse reads the header and the first data row, which decide the
    columns.  :func:`_block_columns` reads each :meth:`_Stream.block` after
    them, and the row parse a block it returns None for.  A block is
    ``_BLOCK_LINES`` lines, fewer than a run holds; the runs are
    ``_RUN_ROWS`` rows whatever the blocks hold, so that neither the block
    size nor blank lines move a run.  A non-finite value is yielded like any
    other: what takes the values decides it after the last run, so that it
    is still the last error reported (:func:`_read_stats` for the command,
    ``Dataset`` for :func:`parse_csv`).
    """
    stream = _Stream(fh)
    rows = _csv_rows(stream.lines())
    line = 0  # the lines read
    try:
        x_idx, y_idx, first = _data_rows(rows, x_column, y_column)
        xs, ys = _values([first], x_idx, y_idx)
        line, rows = first[0], iter(())  # the blocks are read from here on
        n = 1
        for text, count, block_rows in iter(stream.block, None):
            skipped, line = line, line + count
            values = _block_columns(text, count, block_rows, x_idx, y_idx)
            if values is None:
                rows = _csv_rows(io.StringIO(text), skipped)
                values = _values(rows, x_idx, y_idx)
            n += len(values[0])
            xs += values[0]
            ys += values[1]
            while len(xs) >= _RUN_ROWS:
                yield xs[:_RUN_ROWS], ys[:_RUN_ROWS]
                del xs[:_RUN_ROWS], ys[:_RUN_ROWS]
        if n < 2:
            raise InvalidInput(f"need at least 2 data rows, got {n}")
        if xs:
            yield xs, ys
    except (InvalidInput, ParseError) as error:
        # the whole text's order: a later row the csv module rejects, unless
        # this error is one, then invalid UTF-8 after either, is raised instead
        try:
            if not isinstance(error.__cause__, csv.Error):
                for _ in chain(rows, _csv_rows(stream.lines(), line)):
                    pass
        finally:
            for _ in stream.lines():
                pass
        raise error


def parse_csv(source, x_column: str | None = None, y_column: str | None = None) -> Dataset:
    """Parse UTF-8 comma-separated text into a Dataset.

    ``source`` is a str, UTF-8 bytes, or an open file object, text or
    binary, which is read from where it stands.  An optional single header
    row is auto-detected: it is a header iff the cells selected for x and y
    in the first row fail to parse as numbers.  Columns may be picked by
    header name or zero-based index, defaulting to "x"/0 and "y"/1.

    Rows are split by the csv module's default dialect: comma-separated,
    ``"``-quoted (a doubled ``""`` is a literal quote, and a quoted cell may
    span lines), with ``\\n`` or ``\\r\\n`` line ends.  A ``\\r`` alone in the
    middle of a row is a malformed row.  Cells are stripped of whitespace and
    read by Python's ``float``, so ``inf``/``nan`` spellings, ``1_0`` and
    non-ASCII digits parse, and non-finite values are then refused.  Rows
    that are empty or hold only whitespace cells are skipped, and cells past
    the selected columns are ignored.  A cell longer than
    ``csv.field_size_limit()``, in any column, is a malformed row.

    The text is read once, forward: the header and the first data row row by
    row, then blocks of ``_BLOCK_LINES`` lines.  A block whose rows are all of
    one width is split into cells, at its commas and line ends or by the csv
    module where it holds a quote, and each column read by one ``float`` per
    cell; any other block (a blank or whitespace-only row, rows of two
    widths, a cell ``float`` refuses, or an error) is read row by row.  The
    values are gathered in runs of ``_RUN_ROWS`` data rows, each turned into
    float64 arrays as it is read.  One error is raised, the first of these
    the text holds, in this order: text that is not UTF-8; a row the csv
    module rejects; the first other input error; a non-finite value.  The
    reader checks no value; a non-finite one is refused by ``Dataset``, once
    every row has been read.

    The ``dualfit`` command reads the same blocks and runs without a Dataset
    or numpy, summing each run by ``math.fsum``; ``compute_stats`` sums a
    Dataset with numpy, so the two can differ in the last bits.

    Raises
    ------
    ParseError
        For a malformed row, naming its 1-based line number.
    InvalidInput
        For text that is not UTF-8, missing columns, non-finite values, or
        fewer than 2 data rows.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    elif isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    elif not hasattr(source, "read"):
        raise InvalidInput(f"unsupported CSV source type {type(source).__name__}")
    import numpy as np

    from .dataset import Dataset

    # each run as float64 as it is read, never the whole file as Python floats
    runs = ((np.array(xs), np.array(ys)) for xs, ys in _blocks(source, x_column, y_column))
    x, y = zip(*runs)
    return Dataset(np.concatenate(x), np.concatenate(y))


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    # 10 significant digits, shortest form; keeps golden files byte-stable
    return format(float(value), ".10g")


def _jnum(value: float):
    return float(_fmt(value))


def _emit_record(pairs: list[tuple[str, object]], fmt: str) -> None:
    if fmt == "json":
        obj = {key: _jnum(value) if isinstance(value, float) else value for key, value in pairs}
        print(json.dumps(obj, indent=2))
        return

    def cell(value) -> str:
        return _fmt(value) if isinstance(value, float) else str(value)

    if fmt == "csv":
        print(",".join(key for key, _ in pairs))
        print(",".join(cell(value) for _, value in pairs))
        return
    width = max(len(key) for key, _ in pairs)
    for key, value in pairs:
        print(f"{key:<{width}}  {cell(value)}")


def _json_number(value: float) -> str:
    # json.dumps's text for _jnum(value): a finite float is written as its repr
    value = _jnum(value)
    return repr(value) if math.isfinite(value) else json.dumps(value)


_SWEEP_COLUMNS = ("gamma", "beta1", "beta0", "sse", "root_residual")
_SWEEP_JSON_KEYS = tuple(f"      {json.dumps(name)}: " for name in _SWEEP_COLUMNS)
# a csv row, each value as _fmt writes it
_SWEEP_CSV_ROW = "%.10g,%.10g,%.10g,%.10g,%.10g\n"

# sweep rows per write: a write per line costs a system call each when
# standard output is unbuffered
_SWEEP_CHUNK = 256


def _gamma_grid(steps: int) -> Iterator[float]:
    """``np.linspace(0.0, 1.0, steps)`` to the bit, one value at a time."""
    # linspace's own arithmetic: i times the step, then exactly 1.0 at the
    # end; the integer division rounds as linspace's float one does
    # wherever steps - 1 < 2**53, and never overflows
    step = 1 / (steps - 1)
    for i in range(steps - 1):
        yield i * step
    yield 1.0


def _sweep_rows(solve: Callable[[float], tuple], steps: int) -> Iterator[tuple[float, ...]]:
    """Each weight of the grid, solved, as its row's values in ``_SWEEP_COLUMNS`` order."""
    for gamma in _gamma_grid(steps):
        beta0, beta1, _, sse, residual, _ = solve(gamma)
        yield gamma, beta1, beta0, sse, residual


def _sweep_text(solve: Callable[[float], tuple], steps: int, fmt: str) -> Iterator[str]:
    """The sweep's output in pieces, a row each, solving a row per piece.

    json is the text of ``json.dumps({"rows": [...]}, indent=2)``.  The
    table pads every column to its widest cell, so it solves the grid twice:
    first only to measure the widths, then to print.
    """
    if fmt == "csv":
        yield ",".join(_SWEEP_COLUMNS) + "\n"
        for row in _sweep_rows(solve, steps):
            yield _SWEEP_CSV_ROW % row
    elif fmt == "json":
        yield '{\n  "rows": ['
        separator = "\n"
        for row in _sweep_rows(solve, steps):
            pairs = ",\n".join(map(str.__add__, _SWEEP_JSON_KEYS, map(_json_number, row)))
            yield f"{separator}    {{\n{pairs}\n    }}"
            separator = ",\n"
        yield "\n  ]\n}\n"
    else:
        widths = [len(name) for name in _SWEEP_COLUMNS]
        for row in _sweep_rows(solve, steps):
            widths = list(map(max, widths, map(len, map(_fmt, row))))
        rows = (map(_fmt, row) for row in _sweep_rows(solve, steps))
        for cells in chain([_SWEEP_COLUMNS], rows):
            yield "  ".join(map(str.ljust, cells, widths)) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _read_stats(
    fh, x_column: str | None, y_column: str | None
) -> Callable[[], _Stats]:
    """Summarise a binary CSV stream, ``_RUN_ROWS`` data rows at a time.

    :func:`_blocks` reads the runs of rows, and the kernel's
    :func:`~dualfit._kernel._merged_moments` sums and merges them; one run
    alone gives ``_fsum_moments`` of its rows to the bit.  A non-finite
    value is an input error, raised once the whole input has been read
    without another.

    Returns the step that checks the statistics and adds their correlation,
    so that a statistics error (exit 3), such as a sum that overflows, stays
    apart from an input error (exit 2).  Any stream, a pipe too, is read
    once, forward, in blocks of ``_BLOCK_LINES`` lines, so that only a run's
    values and a block's text are held at once.
    """
    moments, same_x, same_y = _merged_moments(_blocks(fh, x_column, y_column))
    return lambda: _checked_stats(moments, same_x, same_y)


def _load_stats(args: argparse.Namespace) -> Callable[[], _Stats]:
    columns = args.x_col, args.y_col
    if args.input != STDIN_MARKER:
        with open(args.input, "rb") as fh:
            return _read_stats(fh, *columns)
    if sys.stdin is None:
        raise OSError("standard input is closed")
    return _read_stats(sys.stdin.buffer, *columns)


def _stats_pairs(stats: _Stats) -> list[tuple[str, object]]:
    return [(name, getattr(stats, name)) for name in _Stats._fields]


def _fit(args: argparse.Namespace, stats: _Stats) -> int:
    """Fit once and print the statistics, the line and the slope bounds."""
    beta0, beta1, gamma, sse, residual, _ = _solver(stats, args.policy)(args.gamma)
    # the bounds of the data (x, -y), negated, where a reflect-policy fit of
    # negatively correlated data lands; _solver has refused |rho| near 0
    lower, upper = _bounds(stats.s_xx, stats.s_yy, abs(stats.rho))
    if stats.rho < 0.0:
        lower, upper = -upper, -lower
    report = _stats_pairs(stats) + [
        ("gamma", gamma),
        ("beta0", beta0),
        ("beta1", beta1),
        ("sse", sse),
        ("bound_lower", lower),
        ("bound_upper", upper),
        ("root_residual", residual),
    ]
    _emit_record(report, args.format)
    return EXIT_OK


def _stats(args: argparse.Namespace, stats: _Stats) -> int:
    """Print sufficient statistics without fitting."""
    _emit_record(_stats_pairs(stats), args.format)
    return EXIT_OK


def _sweep(args: argparse.Namespace, stats: _Stats) -> int:
    """Fit on a uniform gamma grid over [0, 1] and print one row per weight.

    Rows are written as they are solved, ``_SWEEP_CHUNK`` pieces of text a
    write, so memory stays flat in the number of steps.  A fit error
    part-way through leaves on standard output only the writes made before
    it: up to ``_SWEEP_CHUNK - 1`` rows solved before the failing weight are
    not written.
    """
    pieces = _sweep_text(_solver(stats, args.policy), args.steps, args.format)
    while chunk := "".join(islice(pieces, _SWEEP_CHUNK)):
        sys.stdout.write(chunk)
    return EXIT_OK


def _point(args: argparse.Namespace, stats: _Stats) -> int:
    """Fit, then print the line's y at x = value, or for inverse its x at y = value.

    A result that overflows float64 raises the library's :class:`OutOfRange`
    (exit 3), whose message names the command and the value.
    """
    beta0, beta1, *_ = _solver(stats, args.policy)(args.gamma)
    at = _inverse if args.command == "inverse" else _predict
    value = at(beta0, beta1, args.value)
    if args.format == "table":
        print(_fmt(value))
    else:
        _emit_record([("value", value)], args.format)
    return EXIT_OK


def _verify(args: argparse.Namespace, stats: _Stats) -> int:
    """Fit, then certify the slope by an exact comparison of the objective.

    Exits 0 when the slope is certified (no slope a few ulps either side of
    the fitted one has a lower objective); exits 4 otherwise, with both
    slopes on the diagnostic line.  Only this command imports the oracle.
    """
    from .oracle import certify

    _, beta1, gamma, *_ = _solver(stats, args.policy)(args.gamma)
    report = certify(stats, beta1, gamma, args.policy)
    oracle_slope, quartic_slope, abs_gap, evals, (lower, upper), gradient = report
    certified = oracle_slope == quartic_slope
    pairs = [
        ("oracle_slope", oracle_slope),
        ("quartic_slope", quartic_slope),
        ("abs_gap", abs_gap),
        ("profile_evals", evals),
        ("bracket_lower", lower),
        ("bracket_upper", upper),
        ("gradient_max_rel_err", gradient),
        ("status", "ok" if certified else "fail"),
    ]
    _emit_record(pairs, args.format)
    if certified:
        return EXIT_OK
    print(
        f"VerificationFailure: quartic slope {_fmt(quartic_slope)} is not certified: "
        f"oracle slope {_fmt(oracle_slope)} has a lower objective",
        file=sys.stderr,
    )
    return EXIT_VERIFY


# in the order --help lists
_RUNNERS: dict[str, Callable[[argparse.Namespace, _Stats], int]] = {
    "fit": _fit,
    "sweep": _sweep,
    "predict": _point,
    "inverse": _point,
    "stats": _stats,
    "verify": _verify,
}


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def _gamma_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"gamma must be a number, got {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"gamma must lie in [0, 1], got {text}")
    return value


def _steps_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"steps must be an integer, got {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError(f"steps must be at least 2, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualfit",
        description=(
            "Fit a line by minimizing a weighted sum of squared vertical and "
            "squared horizontal errors."
        ),
    )
    # argparse takes an argument that starts with "-" for an option unless it
    # looks like a negative number; its own pattern misses exponent forms,
    # so "--value -1e3" would lack its argument
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    parser.add_argument("command", choices=_RUNNERS)
    parser.add_argument(
        "--input",
        default=STDIN_MARKER,
        metavar="PATH",
        help="CSV file, or '-' for standard input (default)",
    )
    parser.add_argument(
        "--gamma",
        type=_gamma_arg,
        default=0.5,
        metavar="G",
        help="vertical-error weight in [0, 1] (default 0.5)",
    )
    parser.add_argument(
        "--steps",
        type=_steps_arg,
        default=101,
        metavar="N",
        help="grid size for sweep, endpoints included (default 101)",
    )
    parser.add_argument("--x-col", default=None, metavar="C", help="x column name or index")
    parser.add_argument("--y-col", default=None, metavar="C", help="y column name or index")
    parser.add_argument("--format", choices=_FORMATS, default="table", dest="format")
    parser.add_argument(
        "--reflect-negative",
        action="store_const",
        const="reflect",
        default="error",
        dest="policy",
        help="fit negatively correlated data by reflecting y and negating the slope",
    )
    parser.add_argument(
        "--value",
        type=float,
        default=None,
        metavar="V",
        help="query point for predict/inverse",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except OSError as exc:
        # Python flushes standard output again at exit; pointed at devnull,
        # that flush cannot raise (the recipe of the signal module's docs)
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return EXIT_OK  # the reader stopped reading: its choice, not an error
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("predict", "inverse") and args.value is None:
        parser.error(f"{args.command} requires --value")
    if args.value is not None and not math.isfinite(args.value):
        parser.error("--value must be finite")
    if sys.stdout is None:
        raise OSError("standard output is closed")
    try:
        summarise = _load_stats(args)
    except (OSError, ParseError, InvalidInput) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return _RUNNERS[args.command](args, summarise())
    except DualFitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FIT


if __name__ == "__main__":
    raise SystemExit(main())

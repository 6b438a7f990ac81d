"""Command-line front end: CSV in, fits and verification reports out.

Subcommands: fit, sweep, predict, inverse, stats, verify.  Each is a function
of argparse's namespace and the input's sufficient statistics, looked up in
``_RUNNERS``; argparse checks the arguments, and :class:`FitConfig` the
weight and the policy the library is given.  All numeric output is printed
with 10 significant digits so json and csv output is byte-stable for
identical inputs.  Exit codes: 0 ok, 2 input error or an output that cannot
be written, 3 fit error, 4 verification failure; a reader that closes the
output pipe early ends the command quietly with 0.

Every input, a pipe included, is read once and forward by :func:`_blocks`,
a bounded block at a time: by ``np.loadtxt``, or row by row where it
refuses a block.  Input that ends within the first block is summarised in
Python floats, so such a command never imports numpy.
"""

from __future__ import annotations

import argparse
from array import array
import csv
import io
import json
import math
import os
import re
import sys
import warnings
from dataclasses import fields
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .core import (
    FitConfig,
    FittedLine,
    SufficientStats,
    _checked_stats,
    _fsum_moments,
    _slope_interval,
    _solver,
    fit_stats,
    inverse_predict,
    predict,
)
from .errors import DualFitError, InvalidInput, ParseError

if TYPE_CHECKING:
    import numpy as np

    from .dataset import Dataset
    from .oracle import OracleReport

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
    if header is not None:
        if selector is None:
            return header.index(default_name) if default_name in header else default_index
        if selector in header:
            return header.index(selector)
        try:
            return int(selector)
        except ValueError:
            raise InvalidInput(f"column {selector!r} not found in header {header}") from None
    if selector is None:
        return default_index
    try:
        return int(selector)
    except ValueError:
        raise InvalidInput(
            f"column {selector!r} is a name but the file has no header row"
        ) from None


# the 1-based line number and stripped cells of each non-blank row
_Rows = Iterator[tuple[int, list[str]]]


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


def _data_rows(rows: _Rows, x_column: str | None, y_column: str | None) -> tuple[int, int, _Rows]:
    """The x and y column indices, and the data rows of ``rows``.

    The first row is a header iff its cells at the x and y probe indices fail
    to parse as numbers; the first data row must hold both columns.  This and
    :func:`_values` decide the grammar: the rules that name the line of a
    malformed row, and the forms ``np.loadtxt`` does not take.
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
    return x_idx, y_idx, chain([first_data], rows)


def _values(rows: _Rows, x_idx: int, y_idx: int) -> tuple[list[float], list[float], bool, int]:
    """The x and y values of ``rows``, read one by one by Python's ``float``,
    whether they are all finite, and the line number of the last row (0 if
    there is none)."""
    xs: list[float] = []
    ys: list[float] = []
    needed = max(x_idx, y_idx) + 1
    line_num = 0
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
    return xs, ys, all(map(math.isfinite, chain(xs, ys))), line_num


# data rows in the first block and lines in each after it: a few hundred kB
# per np.loadtxt call, which spreads the call overhead thin
_BLOCK_ROWS = 8192


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

    def block(self) -> tuple[list[str] | list[bytes], bool] | None:
        """The next block's lines as read, and whether ``np.loadtxt`` may read
        them, no cell being longer than ``csv.field_size_limit()``.  A block is
        ``_BLOCK_ROWS`` lines, and more while the csv module has read fewer rows
        from it, so it ends where a row does: only the csv module tells where a
        quote opens a cell that spans lines (``1,2"3`` opens none)."""
        lines = list(islice(self._fh, _BLOCK_ROWS))
        if not lines:
            return None
        join = lines[0][:0].join  # of str or of bytes, as the stream gives them
        # decoded a thousand lines a join, as a join holds an 80-byte buffer per piece
        texts = (self._text(join(lines[i : i + 1024])) for i in range(0, len(lines), 1024))
        checks = [('"' in text, _cells_within_limit(text)) for text in texts]
        if not any(quoted for quoted, _ in checks):
            return lines, all(fits for _, fits in checks)

        def more() -> Iterator[str]:
            for line in self._fh:
                lines.append(line)
                yield self._text(line)

        # the csv module, which enforces the limit, reads as many rows as the
        # block has lines, blank ones among them
        reader = csv.reader(chain(map(_str, lines), more()))
        try:
            next(islice(reader, len(lines) - 1, None), None)
        except csv.Error:
            return lines, False
        return lines, True


def _str(line: str | bytes) -> str:
    """A line as text; a :class:`_Stream` has found its bytes UTF-8."""
    return line if isinstance(line, str) else line.decode("utf-8")


def _loadtxt_block(lines: list[str] | list[bytes], x_idx: int, y_idx: int) -> tuple | None:
    """The x and y columns of ``lines`` by ``np.loadtxt`` and whether all are finite, or None."""
    import numpy as np

    try:
        with warnings.catch_warnings():
            # np.loadtxt warns that it read no data, as from blank lines
            warnings.filterwarnings("ignore", ".*contained no data", UserWarning)
            xy = np.loadtxt(
                lines,
                delimiter=",",
                usecols=(x_idx, y_idx),
                comments=None,
                quotechar='"',
                ndmin=2,
                encoding="utf-8",
            )
    except ValueError:
        return None
    x, y = xy.T.copy()  # contiguous columns, as a Dataset holds them
    return x, y, np.isfinite(xy).all()


def _blocks(
    fh, x_column: str | None, y_column: str | None
) -> Iterator[tuple[Sequence[float], Sequence[float]]]:
    """Yield the x and y values of a CSV stream, text or UTF-8 bytes, from
    where it stands, a block at a time.

    The row parse reads the header and the first ``_BLOCK_ROWS`` data rows
    line by line; numpy is imported only if text follows.  ``np.loadtxt``
    reads each :meth:`_Stream.block` after them, and the row parse a block it
    refuses.  A non-finite value stops the yielding, not the reading, so it
    is raised only when the rest of the input holds no other error.
    """
    stream = _Stream(fh)
    rows = _csv_rows(stream.lines())
    line = 0  # the lines read
    try:
        x_idx, y_idx, data = _data_rows(rows, x_column, y_column)
        xs, ys, finite, line = _values(islice(data, _BLOCK_ROWS), x_idx, y_idx)
        rows = iter(())  # the blocks are read from here on

        def parse(block) -> tuple[Sequence[float], Sequence[float], bool]:
            nonlocal line, rows
            lines, loadable = block
            skipped, line = line, line + len(lines)
            if loadable and (values := _loadtxt_block(lines, x_idx, y_idx)) is not None:
                return values
            rows = _csv_rows(map(_str, lines), skipped)
            return _values(rows, x_idx, y_idx)[:3]

        # held as C doubles, a quarter the size of Python floats, while numpy is imported
        xs, ys = array("d", xs), array("d", ys)
        n = 0
        # a list iterator drops the first block once read; chain's list would not
        first = iter([(xs, ys, finite)])
        for xs, ys, block_finite in chain(first, map(parse, iter(stream.block, None))):
            n += len(xs)
            finite = finite and block_finite
            if finite and len(xs):
                yield xs, ys
        if n < 2:
            raise InvalidInput(f"need at least 2 data rows, got {n}")
        if not finite:
            raise InvalidInput("coordinates must be finite")
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

    The text is read once, forward: the header and the first ``_BLOCK_ROWS``
    data rows row by row, then blocks of ``_BLOCK_ROWS`` lines, each by one
    ``np.loadtxt`` call, or row by row where it does not take one
    (whitespace-only or ``,,`` rows, ``1_0``, non-ASCII digits, a ``\\r`` before
    ``\\r\\n``, or an error).  One error is raised, the first of these the text
    holds, in this order: text that is not UTF-8; a row the csv module
    rejects; the first other input error; a non-finite value.

    The ``dualfit`` command reads the same blocks without a Dataset; its
    statistics can differ from ``compute_stats(parse_csv(...))`` in the last bits.

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
    xs, ys = zip(*_blocks(source, x_column, y_column))
    import numpy as np

    from .dataset import Dataset

    return Dataset(np.concatenate(xs), np.concatenate(ys))


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
        obj = {}
        for key, value in pairs:
            if isinstance(value, float):
                obj[key] = _jnum(value)
            elif isinstance(value, (list, tuple)):
                obj[key] = [_jnum(v) for v in value]
            else:
                obj[key] = value
        print(json.dumps(obj, indent=2))
        return

    def cell(value) -> str:
        if isinstance(value, float):
            return _fmt(value)
        if isinstance(value, (list, tuple)):
            return ";".join(_fmt(v) for v in value)
        return str(value)

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


def _sweep_cells(
    solve: Callable[[float], FittedLine], steps: int, cell: Callable[[float], str]
) -> Iterator[list[str]]:
    """Each weight of the grid, solved, as its row's cells."""
    for gamma in _gamma_grid(steps):
        line = solve(gamma)
        values = (gamma, line.beta1, line.beta0, line.sse, line.selected_root_residual)
        yield [cell(v) for v in values]


def _sweep_text(solve: Callable[[float], FittedLine], steps: int, fmt: str) -> Iterator[str]:
    """The sweep's output in pieces, a row each, solving a row per piece.

    json is the text of ``json.dumps({"rows": [...]}, indent=2)``.  The
    table pads every column to its widest cell, so it solves the grid twice:
    first only to measure the widths, then to print.
    """
    if fmt == "csv":
        yield ",".join(_SWEEP_COLUMNS) + "\n"
        for cells in _sweep_cells(solve, steps, _fmt):
            yield ",".join(cells) + "\n"
    elif fmt == "json":
        yield '{\n  "rows": ['
        separator = "\n"
        for cells in _sweep_cells(solve, steps, _json_number):
            pairs = ",\n".join(map(str.__add__, _SWEEP_JSON_KEYS, cells))
            yield f"{separator}    {{\n{pairs}\n    }}"
            separator = ",\n"
        yield "\n  ]\n}\n"
    else:
        widths = [len(name) for name in _SWEEP_COLUMNS]
        for cells in _sweep_cells(solve, steps, _fmt):
            widths = list(map(max, widths, map(len, cells)))
        for cells in chain([_SWEEP_COLUMNS], _sweep_cells(solve, steps, _fmt)):
            yield "  ".join(map(str.ljust, cells, widths)) + "\n"


def _emit_scalar(value: float, fmt: str) -> None:
    if fmt == "table":
        print(_fmt(value))
    else:
        _emit_record([("value", value)], fmt)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _read_stats(
    fh, x_column: str | None, y_column: str | None
) -> Callable[[], SufficientStats]:
    """Summarise a binary CSV stream: one block in Python floats, more block by block.

    Returns the step that checks the statistics and builds the record, so
    that a statistics error (exit 3) stays apart from an input error (exit
    2).  Any stream, a pipe too, is read once, forward, in bounded blocks.
    """
    blocks = _blocks(fh, x_column, y_column)
    xs, ys = next(blocks)
    block = next(blocks, None)
    if block is None:
        return lambda: _checked_stats(
            _fsum_moments(xs, ys), lambda: (min(xs), max(xs), min(ys), max(ys))
        )
    import numpy as np

    from .dataset import _RunningStats

    running = _RunningStats()
    running.add(np.asarray(xs), np.asarray(ys))
    del xs, ys  # taken in, so not held through the read
    while block is not None:  # holding one later block at a time
        running.add(np.asarray(block[0]), np.asarray(block[1]))
        block = next(blocks, None)
    return running.stats


def _load_stats(args: argparse.Namespace) -> Callable[[], SufficientStats]:
    columns = args.x_col, args.y_col
    if args.input != STDIN_MARKER:
        with open(args.input, "rb") as fh:
            return _read_stats(fh, *columns)
    if sys.stdin is None:
        raise OSError("standard input is closed")
    return _read_stats(sys.stdin.buffer, *columns)


def _stats_pairs(stats: SufficientStats) -> list[tuple[str, object]]:
    return [(field.name, getattr(stats, field.name)) for field in fields(stats)]


def _fit(args: argparse.Namespace, stats: SufficientStats) -> int:
    """Fit once and print the statistics, the line and the slope bounds."""
    line = fit_stats(stats, FitConfig(args.gamma, args.policy))
    # a fit of negatively correlated data succeeds only under the reflect policy
    lower, upper = _slope_interval(stats, stats.rho < 0.0)
    report = _stats_pairs(stats) + [
        ("gamma", line.gamma),
        ("beta0", line.beta0),
        ("beta1", line.beta1),
        ("sse", line.sse),
        ("bound_lower", lower),
        ("bound_upper", upper),
        ("root_residual", line.selected_root_residual),
    ]
    _emit_record(report, args.format)
    return EXIT_OK


def _stats(args: argparse.Namespace, stats: SufficientStats) -> int:
    """Print sufficient statistics without fitting."""
    _emit_record(_stats_pairs(stats), args.format)
    return EXIT_OK


def _sweep(args: argparse.Namespace, stats: SufficientStats) -> int:
    """Fit on a uniform gamma grid over [0, 1] and print one row per weight.

    Rows are written as they are solved, so memory stays flat in the number
    of steps.  A fit error part-way through leaves the rows before it on
    standard output.
    """
    pieces = _sweep_text(_solver(stats, args.policy), args.steps, args.format)
    while chunk := "".join(islice(pieces, _SWEEP_CHUNK)):
        sys.stdout.write(chunk)
    return EXIT_OK


def _point(args: argparse.Namespace, stats: SufficientStats) -> int:
    """Fit, then print the line's y at x = value, or for inverse its x at y = value.

    A result that overflows float64 raises the library's :class:`OutOfRange`
    (exit 3), whose message names the command and the value.
    """
    line = fit_stats(stats, FitConfig(args.gamma, args.policy))
    at = inverse_predict if args.command == "inverse" else predict
    _emit_scalar(at(line, args.value), args.format)
    return EXIT_OK


def verify_fit(stats: SufficientStats, line: FittedLine, config: FitConfig) -> OracleReport:
    """:func:`dualfit.oracle.verify_fit`; only ``verify`` imports the oracle, on its first call."""
    from .oracle import verify_fit

    return verify_fit(stats, line, config)


def _verify(args: argparse.Namespace, stats: SufficientStats) -> int:
    """Fit, then certify the slope by an exact comparison of the objective.

    Exits 0 when the report is certified (no slope a few ulps either side of
    the fitted one has a lower objective); exits 4 otherwise, with both
    slopes on the diagnostic line.
    """
    config = FitConfig(args.gamma, args.policy)
    report = verify_fit(stats, fit_stats(stats, config), config)
    pairs = [
        ("oracle_slope", report.oracle_slope),
        ("quartic_slope", report.quartic_slope),
        ("abs_gap", report.abs_gap),
        ("profile_evals", report.profile_evals),
        ("bracket_lower", report.bracket[0]),
        ("bracket_upper", report.bracket[1]),
        ("gradient_max_rel_err", report.gradient_max_rel_err),
        ("status", "ok" if report.certified else "fail"),
    ]
    _emit_record(pairs, args.format)
    if report.certified:
        return EXIT_OK
    print(
        f"VerificationFailure: quartic slope {_fmt(report.quartic_slope)} is not certified: "
        f"oracle slope {_fmt(report.oracle_slope)} has a lower objective",
        file=sys.stderr,
    )
    return EXIT_VERIFY


# in the order --help lists
_RUNNERS: dict[str, Callable[[argparse.Namespace, SufficientStats], int]] = {
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
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
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

"""Command-line front end: CSV in, fits and verification reports out.

Subcommands: fit, sweep, predict, inverse, stats, verify.  All numeric output
is printed with 10 significant digits so json and csv output is byte-stable
for identical inputs.  Exit codes: 0 ok, 2 input error, 3 fit error,
4 verification failure; a reader that closes the output pipe early ends the
command quietly with 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import (
    Dataset,
    FitConfig,
    FittedLine,
    SufficientStats,
    _RunningStats,
    _slope_interval,
    _solver,
    compute_stats,
    fit_stats,
    inverse_predict,
    predict,
)
from .errors import DualFitError, InvalidInput, ParseError
from .oracle import GRADIENT_TOL, verify_fit

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FIT = 3
EXIT_VERIFY = 4

_COMMANDS = ("fit", "sweep", "predict", "inverse", "stats", "verify")
_FORMATS = ("table", "json", "csv")

STDIN_MARKER = "-"


@dataclass(frozen=True)
class CliConfig:
    """One parsed invocation."""

    command: str
    input_path: str = STDIN_MARKER
    gamma: float = 0.5
    gamma_steps: int = 101
    x_column: str | None = None
    y_column: str | None = None
    output_format: str = "table"
    reflect_negative: bool = False

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise InvalidInput(f"unknown command {self.command!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise InvalidInput(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.gamma_steps < 2:
            raise InvalidInput(f"sweep needs at least 2 steps, got {self.gamma_steps}")
        if self.output_format not in _FORMATS:
            raise InvalidInput(f"unknown output format {self.output_format!r}")


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _as_text(source) -> str:
    if isinstance(source, str):
        return source
    if isinstance(source, (bytes, bytearray)):
        try:
            return bytes(source).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"input is not valid UTF-8: {exc}") from exc
    raise InvalidInput(f"unsupported CSV source type {type(source).__name__}")


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


def _columns(
    first_cells: list[str], x_column: str | None, y_column: str | None
) -> tuple[bool, int, int]:
    """Whether the first row is a header, and the x and y column indices.

    The row is a header iff the cells it holds at the x and y probe indices
    fail to parse as numbers.
    """
    probes = {_probe_index(x_column, 0), _probe_index(y_column, 1)}
    present = [first_cells[i] for i in sorted(probes) if 0 <= i < len(first_cells)]
    has_header = bool(present) and not all(_is_number(c) for c in present)
    header = first_cells if has_header else None
    x_idx = _resolve_column(x_column, header, "x", 0)
    y_idx = _resolve_column(y_column, header, "y", 1)
    return has_header, x_idx, y_idx


def _csv_rows(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield the 1-based line number and stripped cells of each non-blank row.

    A row is blank when it has no cells or only whitespace cells.

    Raises
    ------
    ParseError
        When the csv module rejects the text, naming the line it stopped on.
    """
    reader = csv.reader(lines)
    try:
        for cells in reader:
            if cells and not all(c.strip() == "" for c in cells):
                yield reader.line_num, [c.strip() for c in cells]
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}", line=reader.line_num) from None


class _Fallback(Exception):
    """The block reader cannot take this input; the row loop decides."""


# data rows per np.loadtxt call: memory per block is a few hundred kB, and
# the call overhead is spread thin
_BLOCK_ROWS = 8192

# lines np.loadtxt skips as empty, so a block holding only these has no data
_BLANK_LINES = (b"\n", b"\r\n", b"\r")


def _skip_blank_lines(fh) -> bool:
    """Move ``fh`` past lines np.loadtxt skips; False at the end of the input."""
    while True:
        begin = fh.tell()
        line = fh.readline()
        if line not in _BLANK_LINES:
            fh.seek(begin)
            return bool(line)


def _cells_within_limit(fh, begin: int, end: int) -> bool:
    """Whether no cell of the rows in bytes ``[begin, end)`` of ``fh`` can be
    longer than ``csv.field_size_limit()``; leaves ``fh`` at ``end``.

    Without a quote, a cell holds no comma, so a cell over the limit leaves a
    longer run of bytes between commas, which covers a whole stretch of half
    the limit; a stretch without a comma sends the text to the row loop.
    With a quote, the csv module, which enforces the limit, reads the rows.
    """
    limit = csv.field_size_limit()
    if end - begin <= limit:
        return True
    fh.seek(begin)
    raw = fh.read(end - begin)
    if b'"' in raw:
        try:
            for _ in _csv_rows(io.StringIO(raw.decode("utf-8"))):
                pass
        except ParseError:
            return False
        return True
    half = limit // 2
    return all(raw.find(b",", i, i + half) >= 0 for i in range(0, len(raw) - half + 1, half))


def _data_blocks(fh, x_column: str | None, y_column: str | None) -> Iterator[np.ndarray]:
    """Yield the ``(x, y)`` data rows of a seekable binary CSV stream in blocks.

    The first row, and the first data row after a header, are read with the
    csv module as in :func:`_parse_rows`; from there ``np.loadtxt`` reads up
    to ``_BLOCK_ROWS`` rows per call.  Each block is an ``(m, 2)`` array.

    Raises
    ------
    _Fallback
        When the row loop must decide: the text is not UTF-8, a head row is
        malformed, the columns do not resolve, ``np.loadtxt`` rejects a row,
        a cell may be longer than ``csv.field_size_limit()``, or fewer than 2
        data rows were read.  Raising is left to that loop, so every error
        keeps the line number and the precedence of the row-by-row parse.
    """
    rows = _csv_rows(line.decode("utf-8") for line in fh)
    try:
        _, first = next(rows)
        has_header, x_idx, y_idx = _columns(first, x_column, y_column)
        start = fh.tell() if has_header else 0
        # the first data row sets the column count, as in _parse_rows
        cells = next(rows)[1] if has_header else first
    except (StopIteration, ValueError, ParseError):
        raise _Fallback from None
    if not (0 <= x_idx < len(cells) and 0 <= y_idx < len(cells)):
        raise _Fallback
    fh.seek(start)
    count = 0
    # np.loadtxt warns when it reads no data, so it is called only before a
    # line it does not skip
    while _skip_blank_lines(fh):
        begin = fh.tell()
        try:
            with warnings.catch_warnings():
                # that a blank line is not counted towards max_rows is what
                # blocks of rows need, not news for the user
                warnings.filterwarnings(
                    "ignore", r"Input line \d+ contained no data", UserWarning
                )
                xy = np.loadtxt(
                    fh,
                    delimiter=",",
                    usecols=(x_idx, y_idx),
                    comments=None,
                    quotechar='"',
                    ndmin=2,
                    encoding="utf-8",
                    max_rows=_BLOCK_ROWS,
                )
        except ValueError:
            raise _Fallback from None
        if not _cells_within_limit(fh, begin, fh.tell()):
            raise _Fallback
        count += len(xy)
        yield xy
    if count < 2:
        raise _Fallback


def _parse_rows(text: str, x_column: str | None, y_column: str | None) -> Dataset:
    """Parse row by row; the path that names the line of a malformed row."""
    rows = list(_csv_rows(io.StringIO(text)))
    if not rows:
        raise InvalidInput("need at least 2 data rows, got 0")
    has_header, x_idx, y_idx = _columns(rows[0][1], x_column, y_column)
    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise InvalidInput("need at least 2 data rows, got 0")
    width = len(data_rows[0][1])
    for idx, label in ((x_idx, "x"), (y_idx, "y")):
        if idx < 0 or idx >= width:
            raise InvalidInput(
                f"{label} column index {idx} is out of range for {width} column(s)"
            )

    xs: list[float] = []
    ys: list[float] = []
    needed = max(x_idx, y_idx) + 1
    for line_num, cells in data_rows:
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
    if len(xs) < 2:
        raise InvalidInput(f"need at least 2 data rows, got {len(xs)}")
    return Dataset(np.asarray(xs), np.asarray(ys))


def parse_csv(source, x_column: str | None = None, y_column: str | None = None) -> Dataset:
    """Parse UTF-8 comma-separated text into a Dataset.

    ``source`` is a str, UTF-8 bytes, or a file object whose ``read()``
    returns either.  An optional single header row is auto-detected: it is a
    header iff the cells selected for x and y in the first row fail to parse
    as numbers.  Columns may be picked by header name or zero-based index,
    defaulting to "x"/0 and "y"/1.

    Rows are split by the csv module's default dialect: comma-separated,
    ``"``-quoted (a doubled ``""`` is a literal quote, and a quoted cell may
    span lines), with ``\\n`` or ``\\r\\n`` line ends.  A ``\\r`` alone in the
    middle of a row is a malformed row.  Cells are stripped of whitespace and
    read by Python's ``float``, so ``inf``/``nan`` spellings, ``1_0`` and
    non-ASCII digits parse, and non-finite values are then refused by
    :class:`Dataset`.  Rows that are empty or hold only whitespace cells are
    skipped, and cells past the selected columns are ignored.  A cell longer
    than ``csv.field_size_limit()``, in any column, is a malformed row.

    Well-formed input is read in blocks of rows, one ``np.loadtxt`` call
    each, and the blocks are joined.  Only text those calls reject goes
    through a row-by-row loop, which either parses it (the rare forms
    ``np.loadtxt`` does not take: whitespace-only or ``,,`` rows, ``1_0``,
    non-ASCII digits, a ``\\r`` before ``\\r\\n``) or raises the error below
    with the line number.

    The ``dualfit`` command does not build a Dataset: it reads a file in the
    same blocks and folds each into running statistics, so its memory does
    not grow with the number of rows.  Standard input, or a pipe, is still
    read whole first, because text the blocks reject is read again from the
    start.
    With more than one block, its statistics can differ from
    ``compute_stats(parse_csv(...))`` in the last bits.

    Raises
    ------
    ParseError
        For a malformed row, naming its 1-based line number.
    InvalidInput
        For text that is not UTF-8, missing columns, non-finite values, or
        fewer than 2 data rows.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (str, bytes, bytearray)):
        try:
            raw = source.encode("utf-8") if isinstance(source, str) else bytes(source)
            xy = np.concatenate(list(_data_blocks(io.BytesIO(raw), x_column, y_column)))
        except (UnicodeEncodeError, _Fallback):
            pass
        else:
            return Dataset(xy[:, 0], xy[:, 1])
    return _parse_rows(_as_text(source), x_column, y_column)


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
    if fmt == "json":
        print(json.dumps({"value": _jnum(value)}, indent=2))
    elif fmt == "csv":
        print("value")
        print(_fmt(value))
    else:
        print(_fmt(value))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _read_stats(
    fh, x_column: str | None, y_column: str | None
) -> Callable[[], SufficientStats]:
    """Fold a seekable binary CSV stream into running statistics, block by block.

    Returns the step that checks them and builds the record, so that a
    statistics error (exit 3) stays apart from an input error (exit 2).
    Input the block reader rejects, or a non-finite value, goes back to the
    start for :func:`parse_csv`, whose verdict stands: a malformed row after
    an ``inf`` is still reported by its line.
    """
    running = _RunningStats()
    try:
        for xy in _data_blocks(fh, x_column, y_column):
            if not np.isfinite(xy).all():
                raise _Fallback
            x, y = xy.T.copy()  # contiguous columns, as a Dataset holds them
            running.add(x, y)
    except _Fallback:
        fh.seek(0)
        data = parse_csv(fh, x_column, y_column)
        return lambda: compute_stats(data)
    return running.stats


def _load_stats(config: CliConfig) -> Callable[[], SufficientStats]:
    columns = config.x_column, config.y_column
    # standard input, or a pipe named by --input, is read whole first: a
    # rejected input is read again from the start
    if config.input_path == STDIN_MARKER:
        return _read_stats(io.BytesIO(sys.stdin.buffer.read()), *columns)
    with open(config.input_path, "rb") as fh:
        return _read_stats(fh if fh.seekable() else io.BytesIO(fh.read()), *columns)


def _policy(config: CliConfig) -> str:
    return "reflect" if config.reflect_negative else "error"


def _fit_config(config: CliConfig) -> FitConfig:
    return FitConfig(gamma=config.gamma, negative_correlation_policy=_policy(config))


def _guarded(config: CliConfig, body: Callable[[CliConfig, SufficientStats], int]) -> int:
    try:
        summarise = _load_stats(config)
    except (OSError, ParseError, InvalidInput) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return body(config, summarise())
    except DualFitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FIT


def _fit_report(stats: SufficientStats, line: FittedLine) -> list[tuple[str, object]]:
    # a fit of negatively correlated data succeeds only under the reflect policy
    lower, upper = _slope_interval(stats, stats.rho < 0.0)
    return [
        ("n", stats.n),
        ("x_bar", stats.x_bar),
        ("y_bar", stats.y_bar),
        ("s_xx", stats.s_xx),
        ("s_yy", stats.s_yy),
        ("s_xy", stats.s_xy),
        ("rho", stats.rho),
        ("gamma", line.gamma),
        ("beta0", line.beta0),
        ("beta1", line.beta1),
        ("sse", line.sse),
        ("bound_lower", lower),
        ("bound_upper", upper),
        ("root_residual", line.selected_root_residual),
    ]


def run_fit(config: CliConfig) -> int:
    """Fit once and print the full report."""

    def body(cfg: CliConfig, stats: SufficientStats) -> int:
        line = fit_stats(stats, _fit_config(cfg))
        _emit_record(_fit_report(stats, line), cfg.output_format)
        return EXIT_OK

    return _guarded(config, body)


def run_stats(config: CliConfig) -> int:
    """Print sufficient statistics without fitting."""

    def body(cfg: CliConfig, stats: SufficientStats) -> int:
        pairs = [
            ("n", stats.n),
            ("x_bar", stats.x_bar),
            ("y_bar", stats.y_bar),
            ("s_xx", stats.s_xx),
            ("s_yy", stats.s_yy),
            ("s_xy", stats.s_xy),
            ("rho", stats.rho),
        ]
        _emit_record(pairs, cfg.output_format)
        return EXIT_OK

    return _guarded(config, body)


def run_sweep(config: CliConfig) -> int:
    """Fit on a uniform gamma grid over [0, 1] and print one row per weight.

    Rows are written as they are solved, so memory stays flat in the number
    of steps.  A fit error part-way through leaves the rows before it on
    standard output.
    """

    def body(cfg: CliConfig, stats: SufficientStats) -> int:
        solve = _solver(stats, _policy(cfg))
        pieces = _sweep_text(solve, cfg.gamma_steps, cfg.output_format)
        while chunk := "".join(islice(pieces, _SWEEP_CHUNK)):
            sys.stdout.write(chunk)
        return EXIT_OK

    return _guarded(config, body)


def _point_command(config: CliConfig, value: float, inverse: bool) -> int:
    def body(cfg: CliConfig, stats: SufficientStats) -> int:
        line = fit_stats(stats, _fit_config(cfg))
        result = inverse_predict(line, value) if inverse else predict(line, value)
        _emit_scalar(result, cfg.output_format)
        return EXIT_OK

    return _guarded(config, body)


def run_predict(config: CliConfig, value: float) -> int:
    """Fit, then print the line's value at x = value."""
    return _point_command(config, value, inverse=False)


def run_inverse(config: CliConfig, value: float) -> int:
    """Fit, then print the x at which the line reaches y = value."""
    return _point_command(config, value, inverse=True)


def run_verify(config: CliConfig) -> int:
    """Fit, re-derive the slope without the quartic, and cross-check gradients.

    Exits 0 when the two slopes agree within the oracle agreement tolerance
    of 1e-6 * (1 + |slope|) and the gradient check stays at or below 1e-6;
    exits 4 otherwise, with both slopes on the diagnostic line.
    """

    def body(cfg: CliConfig, stats: SufficientStats) -> int:
        fit_cfg = _fit_config(cfg)
        line = fit_stats(stats, fit_cfg)
        report = verify_fit(stats, line, fit_cfg)
        gap_tol = 1e-6 * (1.0 + abs(report.quartic_slope))
        ok = report.abs_gap <= gap_tol and report.gradient_max_rel_err <= GRADIENT_TOL
        pairs = [
            ("oracle_slope", report.oracle_slope),
            ("quartic_slope", report.quartic_slope),
            ("abs_gap", report.abs_gap),
            ("profile_evals", report.profile_evals),
            ("bracket_lower", report.bracket[0]),
            ("bracket_upper", report.bracket[1]),
            ("gradient_max_rel_err", report.gradient_max_rel_err),
            ("status", "ok" if ok else "fail"),
        ]
        _emit_record(pairs, cfg.output_format)
        if not ok:
            print(
                "VerificationFailure: quartic slope "
                f"{_fmt(report.quartic_slope)} vs oracle slope "
                f"{_fmt(report.oracle_slope)}, gap {_fmt(report.abs_gap)}, "
                f"gradient error {_fmt(report.gradient_max_rel_err)}",
                file=sys.stderr,
            )
            return EXIT_VERIFY
        return EXIT_OK

    return _guarded(config, body)


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
    parser.add_argument("command", choices=_COMMANDS)
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
        action="store_true",
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
    except BrokenPipeError:
        # the reader stopped reading, which is its choice, not an error.
        # Python flushes standard output again at exit; pointed at devnull,
        # that flush cannot raise (the recipe of the signal module's docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    return code


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("predict", "inverse") and args.value is None:
        parser.error(f"{args.command} requires --value")
    if args.value is not None and not math.isfinite(args.value):
        parser.error("--value must be finite")
    config = CliConfig(
        command=args.command,
        input_path=args.input,
        gamma=args.gamma,
        gamma_steps=args.steps,
        x_column=args.x_col,
        y_column=args.y_col,
        output_format=args.format,
        reflect_negative=args.reflect_negative,
    )
    if config.command == "fit":
        return run_fit(config)
    if config.command == "stats":
        return run_stats(config)
    if config.command == "sweep":
        return run_sweep(config)
    if config.command == "predict":
        return run_predict(config, args.value)
    if config.command == "inverse":
        return run_inverse(config, args.value)
    return run_verify(config)


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end: CSV in, fits and verification reports out.

Subcommands: fit, sweep, predict, inverse, stats, verify.  All numeric output
is printed with 10 significant digits so json and csv output is byte-stable
for identical inputs.  Exit codes: 0 ok, 2 input error, 3 fit error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import (
    Dataset,
    FitConfig,
    FittedLine,
    SufficientStats,
    compute_stats,
    fit_stats,
    inverse_predict,
    predict,
    reflected,
    slope_bounds,
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


def _parse_bulk(source, x_column: str | None, y_column: str | None) -> Dataset | None:
    """Parse the data rows in one ``np.loadtxt`` call, or return None.

    The first row, and the first data row after a header, are read with the
    csv module as in :func:`_parse_rows`, and the data rows from there on go
    to ``np.loadtxt`` in one call.  None means the row loop must decide: the
    text is not UTF-8, a head row is malformed, the columns do not resolve,
    fewer than 2 data rows were read, or ``np.loadtxt`` rejected a row.
    Raising is left to that loop, so every error keeps the line number and
    the precedence of the row-by-row parse.
    """
    if isinstance(source, str):
        try:
            source = source.encode("utf-8")
        except UnicodeEncodeError:
            return None
    elif not isinstance(source, (bytes, bytearray)):
        return None
    lines = io.BytesIO(source)
    rows = _csv_rows(line.decode("utf-8") for line in lines)
    try:
        _, first = next(rows)
        has_header, x_idx, y_idx = _columns(first, x_column, y_column)
        start = lines.tell() if has_header else 0
        # the first data row must exist, so that np.loadtxt never sees empty
        # input, and it sets the column count as in _parse_rows
        cells = next(rows)[1] if has_header else first
        if not (0 <= x_idx < len(cells) and 0 <= y_idx < len(cells)):
            return None
        lines.seek(start)
        xy = np.loadtxt(
            lines,
            delimiter=",",
            usecols=(x_idx, y_idx),
            comments=None,
            quotechar='"',
            ndmin=2,
            encoding="utf-8",
        )
    except (StopIteration, ValueError, ParseError):
        return None
    if len(xy) < 2:
        return None
    return Dataset(xy[:, 0], xy[:, 1])


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
    skipped, and cells past the selected columns are ignored.

    Well-formed input is read in one ``np.loadtxt`` call.  Only text that
    call rejects goes through a row-by-row loop, which either parses it (the
    rare forms ``np.loadtxt`` does not take: whitespace-only or ``,,`` rows,
    ``1_0``, non-ASCII digits, a ``\\r`` before ``\\r\\n``) or raises the
    error below with the line number.  ``csv.field_size_limit()`` applies
    only to rows the csv module reads: the first row, the first data row
    after a header, and every row of that loop.

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
    data = _parse_bulk(source, x_column, y_column)
    if data is None:
        data = _parse_rows(_as_text(source), x_column, y_column)
    return data


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


def _emit_rows(columns: list[str], rows: list[list[float]], fmt: str) -> None:
    if fmt == "json":
        obj = {"rows": [dict(zip(columns, (_jnum(v) for v in row))) for row in rows]}
        print(json.dumps(obj, indent=2))
        return
    if fmt == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join(_fmt(v) for v in row))
        return
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(name), max((len(r[i]) for r in cells), default=0))
        for i, name in enumerate(columns)
    ]
    print("  ".join(name.ljust(w) for name, w in zip(columns, widths)))
    for row in cells:
        print("  ".join(value.ljust(w) for value, w in zip(row, widths)))


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


def _load_dataset(config: CliConfig) -> Dataset:
    if config.input_path == STDIN_MARKER:
        return parse_csv(sys.stdin.buffer.read(), config.x_column, config.y_column)
    with open(config.input_path, "rb") as fh:
        return parse_csv(fh.read(), config.x_column, config.y_column)


def _fit_config(config: CliConfig) -> FitConfig:
    policy = "reflect" if config.reflect_negative else "error"
    return FitConfig(gamma=config.gamma, negative_correlation_policy=policy)


def _guarded(config: CliConfig, body: Callable[[CliConfig, Dataset], int]) -> int:
    try:
        data = _load_dataset(config)
    except (OSError, ParseError, InvalidInput) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return body(config, data)
    except DualFitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FIT


def _bounds_for(stats: SufficientStats) -> tuple[float, float]:
    if stats.rho > 0.0:
        return slope_bounds(stats)
    # mirrored bounds mapped back to the negative-slope problem
    lower, upper = slope_bounds(reflected(stats))
    return -upper, -lower


def _fit_report(stats: SufficientStats, line: FittedLine) -> list[tuple[str, object]]:
    lower, upper = _bounds_for(stats)
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

    def body(cfg: CliConfig, data: Dataset) -> int:
        stats = compute_stats(data)
        line = fit_stats(stats, _fit_config(cfg))
        _emit_record(_fit_report(stats, line), cfg.output_format)
        return EXIT_OK

    return _guarded(config, body)


def run_stats(config: CliConfig) -> int:
    """Print sufficient statistics without fitting."""

    def body(cfg: CliConfig, data: Dataset) -> int:
        stats = compute_stats(data)
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
    """Fit on a uniform gamma grid over [0, 1] and print one row per weight."""

    def body(cfg: CliConfig, data: Dataset) -> int:
        stats = compute_stats(data)
        base = _fit_config(cfg)
        rows = []
        for gamma in np.linspace(0.0, 1.0, cfg.gamma_steps):
            line = fit_stats(stats, replace(base, gamma=float(gamma)))
            rows.append(
                [float(gamma), line.beta1, line.beta0, line.sse, line.selected_root_residual]
            )
        _emit_rows(["gamma", "beta1", "beta0", "sse", "root_residual"], rows, cfg.output_format)
        return EXIT_OK

    return _guarded(config, body)


def _point_command(config: CliConfig, value: float, inverse: bool) -> int:
    def body(cfg: CliConfig, data: Dataset) -> int:
        line = fit_stats(compute_stats(data), _fit_config(cfg))
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

    def body(cfg: CliConfig, data: Dataset) -> int:
        stats = compute_stats(data)
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

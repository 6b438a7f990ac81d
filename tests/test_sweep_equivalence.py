"""``dualfit sweep`` against a frozen copy of the sweep that kept every row.

``_ref_run_sweep`` and ``_ref_emit_rows`` are ``run_sweep`` and
``_emit_rows`` as they were before the sweep bound one solver to the
statistics and wrote its rows as they were solved: a ``FitConfig`` and a fit
per weight of ``np.linspace(0, 1, steps)``, every row kept as floats, then
printed whole.  They call the live ``fit_stats``, so that what is compared
is the streaming and the byte format; ``test_oracle_equivalence`` checks the
fit.  ``_RefConfig`` and ``_ref_load_and_guard`` are the CLI's parsed
invocation and its load-and-guard step of that time.  On every input the
two must print the same bytes, exit with the same code and write the same
error line.

The streamed sweep departs from the reference in one place, checked on its
own below: a fit error part-way through leaves the rows solved before it on
standard output, where the reference printed nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dualfit import Dataset, FitConfig, FittedLine, SufficientStats, compute_stats, fit_stats
from dualfit import cli
from dualfit.cli import EXIT_FIT, EXIT_INPUT, EXIT_OK, _gamma_grid
from dualfit._kernel import _solver
from dualfit.errors import DualFitError, InvalidInput, ParseError, SolverFailure

from conftest import dualfit_peak_mb, src_env

HERE = Path(__file__).parent
REFERENCE_CSV = HERE / "data" / "reference.csv"
FORMATS = ("csv", "json", "table")

# ---- the frozen reference ----------------------------------------------------


@dataclass(frozen=True)
class _RefConfig:
    command: str
    input_path: str = "-"
    gamma: float = 0.5
    gamma_steps: int = 101
    x_column: str | None = None
    y_column: str | None = None
    output_format: str = "table"
    reflect_negative: bool = False


def _ref_load_stats(config):
    columns = config.x_column, config.y_column
    if config.input_path == "-":
        return cli._read_stats(io.BytesIO(sys.stdin.buffer.read()), *columns)
    with open(config.input_path, "rb") as fh:
        return cli._read_stats(fh if fh.seekable() else io.BytesIO(fh.read()), *columns)


def _ref_load_and_guard(config, body):
    try:
        summarise = _ref_load_stats(config)
    except (OSError, ParseError, InvalidInput) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return body(config, summarise())
    except DualFitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FIT


def _ref_fmt(value):
    return format(float(value), ".10g")


def _ref_jnum(value):
    return float(_ref_fmt(value))


def _ref_emit_rows(columns, rows, fmt):
    if fmt == "json":
        obj = {"rows": [dict(zip(columns, (_ref_jnum(v) for v in row))) for row in rows]}
        print(json.dumps(obj, indent=2))
        return
    if fmt == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join(_ref_fmt(v) for v in row))
        return
    cells = [[_ref_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(name), max((len(r[i]) for r in cells), default=0))
        for i, name in enumerate(columns)
    ]
    print("  ".join(name.ljust(w) for name, w in zip(columns, widths)))
    for row in cells:
        print("  ".join(value.ljust(w) for value, w in zip(row, widths)))


def _ref_run_sweep(config):
    def body(cfg, stats):
        policy = "reflect" if cfg.reflect_negative else "error"
        base = FitConfig(gamma=cfg.gamma, negative_correlation_policy=policy)
        rows = []
        for gamma in np.linspace(0.0, 1.0, cfg.gamma_steps):
            line = fit_stats(stats, replace(base, gamma=float(gamma)))
            rows.append(
                [float(gamma), line.beta1, line.beta0, line.sse, line.selected_root_residual]
            )
        _ref_emit_rows(["gamma", "beta1", "beta0", "sse", "root_residual"], rows, cfg.output_format)
        return EXIT_OK

    return _ref_load_and_guard(config, body)


# ---- runs ----------------------------------------------------------------------


def _captured(run, *args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(*args)
    return code, out.getvalue(), err.getvalue()


def _streamed(path, steps: int, fmt: str, reflect: bool):
    args = ["sweep", "--input", str(path), "--steps", str(steps), "--format", fmt]
    return _captured(cli.main, args + ["--reflect-negative"] * reflect)


def _reference(path, steps: int, fmt: str, reflect: bool):
    config = _RefConfig(
        command="sweep",
        input_path=str(path),
        gamma_steps=steps,
        output_format=fmt,
        reflect_negative=reflect,
    )
    return _captured(_ref_run_sweep, config)


def _csv_text(x: np.ndarray, y: np.ndarray) -> str:
    return "x,y\n" + "".join(map("{!r},{!r}\n".format, x.tolist(), y.tolist()))


def _seeded(seed: int, slope: float, y_unit: float = 1.0) -> str:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 400))
    x = rng.normal(rng.uniform(-5.0, 5.0), rng.uniform(0.2, 3.0), n)
    y = rng.uniform(-5.0, 5.0) + slope * x + rng.normal(0.0, rng.uniform(0.05, 2.0), n)
    return _csv_text(x, y * y_unit)


DATASETS = {
    "golden": REFERENCE_CSV.read_text(),
    "perfect line": "x,y\n0,1\n1,3\n2,5\n3,7\n",
    "seeded": _seeded(1, 0.8),
    "seeded steep": _seeded(2, 7.0),
    "seeded y units 1e6": _seeded(3, 1.3, 1e6),
    "seeded negative": _seeded(4, -1.7),
    "seeded negative y units 1e-4": _seeded(5, -0.4, 1e-4),
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    written = {}
    for i, (name, text) in enumerate(DATASETS.items()):
        written[name] = root / f"data-{i}.csv"
        written[name].write_text(text)
    return written


def _assert_same(path, steps: int, fmt: str, reflect: bool) -> None:
    got = _streamed(path, steps, fmt, reflect)
    want = _reference(path, steps, fmt, reflect)
    assert got == want, (path, steps, fmt, reflect)


# ---- byte-identical output -------------------------------------------------------


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("steps", [2, 3, 11, 101])
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_sweep_matches_reference(paths, dataset, steps, fmt):
    # the negative datasets exit 3 with the error policy, and fit reflected
    for reflect in (False, True):
        _assert_same(paths[dataset], steps, fmt, reflect)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("dataset, reflect", [("golden", False), ("seeded negative", True)])
def test_long_sweep_matches_reference(paths, dataset, reflect, fmt):
    _assert_same(paths[dataset], 10001, fmt, reflect)


@pytest.mark.parametrize("dataset", ["seeded", "seeded negative"])
@pytest.mark.parametrize("policy", ["error", "reflect"])
def test_one_solver_matches_reference_at_every_weight(dataset, policy):
    # weights in any order, endpoints and extreme weights among them, solved
    # by one solver bound to the statistics as fit_stats solves each
    raw = np.loadtxt(io.StringIO(DATASETS[dataset]), delimiter=",", skiprows=1)
    stats = compute_stats(Dataset(raw[:, 0], raw[:, 1]))
    gammas = [0.3, 0.0, 0.7, 1.0, 5e-324, 1.0 - 1e-16, 0.3, 0.5]
    try:
        solve = _solver(stats, policy)
    except DualFitError as exc:
        with pytest.raises(type(exc), match=str(exc)):
            fit_stats(stats, FitConfig(gamma=0.5, negative_correlation_policy=policy))
        return
    for gamma in gammas:
        want = fit_stats(stats, FitConfig(gamma=gamma, negative_correlation_policy=policy))
        got = FittedLine(*solve(gamma))
        assert got == want and repr(got) == repr(want), gamma


# the grids that test_sweep_matches_reference and test_long_sweep_matches_reference sweep
_TEST_GRIDS = [(dataset, steps) for dataset in sorted(DATASETS) for steps in (2, 3, 11, 101)]
_TEST_GRIDS += [("golden", 10001), ("seeded negative", 10001)]


@pytest.mark.parametrize("dataset, steps", _TEST_GRIDS)
def test_every_grid_slope_falls_in_magnitude_as_gamma_rises(dataset, steps):
    # k rises with gamma and df/dk = t**3 * (t - rho) >= 0 on [rho, 1/rho], so
    # the slope's magnitude falls from r / rho at gamma = 0 to rho * r at 1;
    # checked on the unrounded slopes the sweep prints to 10 digits
    raw = np.loadtxt(io.StringIO(DATASETS[dataset]), delimiter=",", skiprows=1)
    solve = _solver(compute_stats(Dataset(raw[:, 0], raw[:, 1])), "reflect")
    slopes = [abs(solve(gamma)[1]) for gamma in _gamma_grid(steps)]
    assert all(a >= b for a, b in zip(slopes, slopes[1:]))


def _seeded_stats(seed: int):
    """Statistics of noisy lines of either slope sign, n 10..1e4, scales 1e-3..1e3."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        n = int(np.exp(rng.uniform(np.log(10.0), np.log(1e4))))
        x = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 3.0), n)
        slope = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)
        y = slope * (x + rng.normal(0.0, rng.uniform(0.01, 1.0) * x.std(), n))
        yield compute_stats(Dataset(x, y))


def _fit_outcome(solve, gamma):
    try:
        return repr(solve(gamma))
    except DualFitError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_fit_stats_is_one_call_of_the_bound_solver():
    rng = np.random.default_rng(7)
    # and statistics whose slope bounds each interior solve refuses
    subnormal_ratio = SufficientStats(
        n=3, x_bar=1.0, y_bar=2.0, s_xx=1e160, s_yy=1e-160, s_xy=0.5, rho=0.5
    )
    for stats in [*_seeded_stats(7), subnormal_ratio]:
        for policy in ("error", "reflect"):
            for gamma in (0.0, 1.0, 5e-324, 1.0 - 1e-16, 0.5, float(rng.uniform())):
                got = _fit_outcome(lambda g: FittedLine(*_solver(stats, policy)(g)), gamma)
                want = _fit_outcome(lambda g: fit_stats(stats, FitConfig(g, policy)), gamma)
                assert got == want, (stats, gamma, policy)


# ---- the grid ------------------------------------------------------------------------


def _grid_bytes(steps: int) -> bytes:
    return np.fromiter(_gamma_grid(steps), dtype=float, count=steps).tobytes()


def test_grid_is_linspace_to_the_bit_for_small_steps():
    for steps in range(2, 3000):
        assert _grid_bytes(steps) == np.linspace(0.0, 1.0, steps).tobytes(), steps


@pytest.mark.parametrize("steps", [10001, 99991, 100001, 10**6, 1234567])
def test_grid_is_linspace_to_the_bit_for_large_steps(steps):
    assert _grid_bytes(steps) == np.linspace(0.0, 1.0, steps).tobytes()


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@given(st.tuples(*[_ANY_FLOAT] * 5))
@example((0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308))
@example((math.inf, -math.inf, math.nan, 1e-320, 0.1))
def test_a_csv_row_is_each_value_formatted_alone(row):
    assert cli._SWEEP_CSV_ROW % row == ",".join(format(v, ".10g") for v in row) + "\n"


# ---- a fit error part-way through ----------------------------------------------------


# no data is known to fail part-way through a grid since the slope is solved
# in reduced coordinates (y in 3e102 units of x did, on an overflowing
# quartic), so the failure is put into the solver that cli._solver binds,
# from the weight 0.7 on
_FAILS_FROM = 0.7


@pytest.fixture
def failing_solver(monkeypatch):
    bind = cli._solver

    def solver(stats, policy):
        solve = bind(stats, policy)

        def failing(gamma):
            if gamma >= _FAILS_FROM:
                raise SolverFailure(f"failed at gamma = {gamma!r}")
            return solve(gamma)

        return failing

    monkeypatch.setattr(cli, "_solver", solver)


@pytest.mark.parametrize("fmt", FORMATS)
def test_fit_error_midway_keeps_the_rows_before_it(paths, failing_solver, fmt):
    path = paths["seeded"]
    grid = np.linspace(0.0, 1.0, 1001).tolist()
    first_failure = next(i for i, gamma in enumerate(grid) if gamma >= _FAILS_FROM)
    code, out, err = _streamed(path, 1001, fmt, False)
    assert code == EXIT_FIT
    assert err == f"SolverFailure: failed at gamma = {grid[first_failure]!r}\n"
    if fmt == "table":
        # the first pass, which only measures widths, meets the error
        assert out == ""
        return
    if fmt == "json":
        assert out.startswith('{\n  "rows": [\n    {\n      "gamma": 0.0,\n')
        return
    header, *rows = out.splitlines()
    assert header == "gamma,beta1,beta0,sse,root_residual" and out.endswith("\n")
    # the statistics the CLI fits: its one-block sums can differ from
    # compute_stats in the last bits
    with path.open("rb") as fh:
        stats = cli._read_stats(fh, None, None)()
    for gamma, row in zip(grid, rows):
        line = fit_stats(stats, FitConfig(gamma=gamma))
        values = [gamma, line.beta1, line.beta0, line.sse, line.selected_root_residual]
        assert row == ",".join(map(_ref_fmt, values))
    # rows go out a chunk at a time, so the first weight that fails lies in
    # the chunk after the last one written
    assert 0 < len(rows) <= first_failure < len(rows) + cli._SWEEP_CHUNK


# ---- memory, closed pipes and huge grids --------------------------------------------


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
@pytest.mark.parametrize("fmt", FORMATS)
def test_peak_memory_does_not_grow_with_steps(fmt):
    peaks = {}
    for steps in (100, 100_000):
        args = ["sweep", "--input", str(REFERENCE_CSV), "--steps", str(steps), "--format", fmt]
        code, peaks[steps] = dualfit_peak_mb(*args)
        assert code == EXIT_OK
    assert peaks[100_000] - peaks[100] <= 2.0, peaks


def _read_then_close(args: list[str], lines: int, env: dict[str, str]):
    """Read ``lines`` lines of a dualfit process's output, then close the pipe."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "dualfit", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        head = [proc.stdout.readline() for _ in range(lines)]
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return head, code, err


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_pipe_ends_quietly(unbuffered):
    args = ["sweep", "--input", str(REFERENCE_CSV), "--steps", "100000", "--format", "csv"]
    env = {**src_env(), "PYTHONUNBUFFERED": unbuffered}
    head, code, err = _read_then_close(args, 1, env)
    assert head == [b"gamma,beta1,beta0,sse,root_residual\n"]
    assert (code, err) == (EXIT_OK, b"")


def test_largest_step_count_streams():
    # too large a grid for np.linspace; csv streams it, while the table's
    # width pass would never end
    args = ["sweep", "--input", str(REFERENCE_CSV), "--steps", str(2**63 - 1), "--format", "csv"]
    head, code, err = _read_then_close(args, 4, src_env())
    assert head[0] == b"gamma,beta1,beta0,sse,root_residual\n"
    gammas = [float(line.split(b",")[0]) for line in head[1:]]
    assert gammas == [0.0, float(_ref_fmt(1 / (2**63 - 2))), float(_ref_fmt(2 / (2**63 - 2)))]
    assert (code, err) == (EXIT_OK, b"")

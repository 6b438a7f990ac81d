"""The three workloads.

Each is a closed loop: the next operation starts when the previous one has
ended, one at a time, for ``--seconds`` seconds of whole rounds.  A round is
the same list of operations every time, so a run's share of failed
operations does not depend on its length or its seed.

Every operation is timed once per round, and its time in a run is the
fastest of those: load from other tenants of a shared host only ever adds
time, in phases of several seconds, and a median over all samples drifts by
tens of percent from one run to the next.  ``latency_ms`` is the median of
the per-operation times and ``ops_per_s`` the number of operations divided
by their sum.

With ``--trace 1`` a workload runs untraced rounds for half the time and
traced rounds for the other half; the per-layer metrics come from the traced
half and ``trace.overhead_s`` is the difference in mean round time.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import dualfit
import inputs
import layers
import reference as ref
from spans import Totals, Tracer, load, peak_rss_mb
from spawn import Spawner

BENCH = Path(__file__).resolve().parent
SETUP_RUNS = 11  # set-ups timed for the median setup_s and the startup layer
SWEEP_STEPS = 10001
# small-file passes per cli-calls round, so that the short calls get more
# repetitions in a run than the sweep
SMALL_PASSES = 2


@dataclass
class Context:
    spawner: Spawner
    work: Path  # scratch files, removed when the run ends
    traces: Path  # spans of traced runs, kept after the run
    seed: int
    seconds: float
    trace: bool
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    totals: Totals = field(default_factory=Totals)
    best: dict = field(default_factory=dict)  # operation -> fastest time, s
    peak_rss_mb: float = 0.0
    cli_calls: int = 0
    emitted_bytes: int = 0
    _checked: dict = field(default_factory=dict)  # key -> last output checked

    def timed(self, key, seconds: float) -> None:
        self.best[key] = min(seconds, self.best.get(key, math.inf))

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        times = list(self.best.values())
        return {
            "setup_s": setup_s,
            "latency_ms": statistics.median(times) * 1e3,
            "ops_per_s": len(times) / math.fsum(times),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def check(self, key, output, checker: Callable[[], list[str]]) -> None:
        """Run ``checker`` unless this exact ``output`` was already checked for ``key``."""
        if key in self._checked and self._checked[key] == output:
            return
        self._checked[key] = output
        try:
            problems = checker()
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"output could not be read: {type(exc).__name__}: {exc}"]
        self.errors += [f"{key}: {problem}" for problem in problems]


def _loop(seconds: float, one_round: Callable[[], None]) -> list[float]:
    """Whole rounds until ``seconds`` have passed; at least one."""
    start = time.perf_counter()
    times = []
    while not times or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        one_round()
        times.append(time.perf_counter() - t0)
    return times


def _phases(ctx: Context, untraced: Callable, traced: Callable) -> tuple[int, float]:
    """Run the rounds; returns (traced rounds, trace overhead per round in s)."""
    if not ctx.trace:
        _loop(ctx.seconds, untraced)
        return 0, 0.0
    plain = _loop(ctx.seconds / 2.0, untraced)
    with_spans = _loop(ctx.seconds / 2.0, traced)
    return len(with_spans), statistics.fmean(with_spans) - statistics.fmean(plain)


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def _python(ctx: Context, code: str) -> tuple[float, str]:
    out, err = ctx.work / "py.out", ctx.work / "py.err"
    child = ctx.spawner.run([sys.executable, "-c", code], str(out), str(err))
    if child.returncode != 0:
        raise RuntimeError(f"python -c {code!r} failed: {err.read_text()}")
    return child.wall_s, out.read_text()


def import_seconds(ctx: Context) -> float:
    """Median wall time of a fresh interpreter that imports dualfit."""
    _python(ctx, "import dualfit.__main__")  # writes the bytecode caches once
    return statistics.median(_python(ctx, "import dualfit")[0] for _ in range(SETUP_RUNS))


_TIMED_IMPORTS = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import dualfit\n"
    "print(t1 - t0, time.perf_counter() - t1)\n"
)


def startup_metrics(ctx: Context) -> dict[str, float]:
    bare = statistics.median(_python(ctx, "pass")[0] for _ in range(SETUP_RUNS))
    splits = [tuple(map(float, _python(ctx, _TIMED_IMPORTS)[1].split())) for _ in range(SETUP_RUNS)]
    return {
        "startup.python_s": bare,
        "startup.import_numpy_s": statistics.median(s[0] for s in splits),
        "startup.import_dualfit_s": statistics.median(s[1] for s in splits),
    }


@dataclass(frozen=True)
class Call:
    ok: bool
    stdout: bytes


def cli_call(ctx: Context, args: list[str], traced: bool) -> Call:
    """One ``dualfit`` process, measured on its own; untraced calls are timed."""
    out, err = ctx.work / "cli.out", ctx.work / "cli.err"
    if traced:
        spans_path = ctx.traces / f"{ctx.cli_calls:05d}-{args[0]}"
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), "--", *args]
    else:
        argv = [sys.executable, "-m", "dualfit", *args]
    child = ctx.spawner.run(argv, str(out), str(err))
    stdout = out.read_bytes()
    ctx.attempted += 1
    ok = child.returncode == 0
    if not ok:
        ctx.failed += 1
        print(f"dualfit {' '.join(args)} exited {child.returncode}: {err.read_text()}", file=sys.stderr)
    if traced:
        spans, meta = load(spans_path)
        ctx.totals.add(spans, meta["names"], meta["counters"], meta["peaks"])
        ctx.cli_calls += 1
        ctx.emitted_bytes += len(stdout)
    elif ok:
        ctx.timed(args[0], child.wall_s)
        ctx.peak_rss_mb = max(ctx.peak_rss_mb, child.peak_rss_kb / 1024.0)
    return Call(ok, stdout)


# ---------------------------------------------------------------------------
# checks of CLI output
# ---------------------------------------------------------------------------


def _fit_problems(fields: dict, st: ref.Stats, gamma: float) -> list[str]:
    problems = ref.check_stats(fields, st)
    if not ref.close(fields["gamma"], gamma):
        problems.append(f"gamma {fields['gamma']!r} != {gamma!r}")
    beta0, beta1 = fields["beta0"], fields["beta1"]
    problems += ref.check_line(st, gamma, beta0, beta1)
    lower, upper = ref.bounds(st)
    if not (ref.close(fields["bound_lower"], lower) and ref.close(fields["bound_upper"], upper)):
        problems.append(f"bounds {fields['bound_lower']!r}, {fields['bound_upper']!r} != {lower!r}, {upper!r}")
    if not ref.close(fields["sse"], ref.profile_sse(st, beta1, gamma)):
        problems.append(f"sse {fields['sse']!r} != reference")
    # a diagnostic the program may drop; checked while it is there
    if "candidate_roots" in fields and beta1 not in fields["candidate_roots"]:
        problems.append(f"slope {beta1!r} not among candidate roots {fields['candidate_roots']}")
    return problems


def _json(stdout: bytes) -> dict:
    return json.loads(stdout.decode("utf-8"))


# ---------------------------------------------------------------------------
# ingest-250k
# ---------------------------------------------------------------------------


def ingest_250k(ctx: Context) -> dict[str, float]:
    """One ``dualfit fit --format json`` process on a 2.5*10^5-row CSV per round."""
    data = inputs.ingest_input(ctx.seed)
    path = ctx.work / "ingest.csv"
    path.write_text(data.text)
    st = ref.stats(data.x, data.y)
    gamma = data.gamma
    del data  # the program reads the file; the reference keeps only statistics
    setup_s = import_seconds(ctx)
    startup = startup_metrics(ctx) if ctx.trace else {}
    args = ["fit", "--input", str(path), "--gamma", repr(gamma), "--format", "json"]

    def one_round(traced: bool) -> None:
        call = cli_call(ctx, args, traced)
        if call.ok:
            ctx.check("ingest-fit", call.stdout, lambda: _fit_problems(_json(call.stdout), st, gamma))

    rounds, overhead = _phases(ctx, lambda: one_round(False), lambda: one_round(True))
    if ctx.trace:
        return layers.layer_metrics(ctx.totals, rounds, startup, ctx.cli_calls, ctx.emitted_bytes, overhead)
    return ctx.end_to_end(setup_s)


# ---------------------------------------------------------------------------
# cli-calls
# ---------------------------------------------------------------------------


def _sweep_problems(stdout: bytes, st: ref.Stats, x: np.ndarray, y: np.ndarray) -> list[str]:
    lines = stdout.decode("utf-8").splitlines()
    names = lines[0].split(",")
    wanted = ("gamma", "beta1", "beta0", "sse")
    if not set(wanted) <= set(names):
        return [f"sweep header {lines[0]!r} lacks one of {wanted}"]
    rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if rows.shape != (SWEEP_STEPS, len(names)):
        return [f"sweep has shape {rows.shape}"]
    gamma, beta1, beta0, sse = (rows[:, names.index(name)] for name in wanted)
    tol = ref.REL_TOL
    grid = np.linspace(0.0, 1.0, SWEEP_STEPS)
    expected = np.array([ref.slope(st, float(g)) for g in grid])
    problems = []
    if not np.all(np.abs(gamma - grid) <= tol * np.maximum(grid, 1e-300)):
        problems.append("gamma column is not the uniform grid")
    if np.any(np.diff(beta1) > 0.0):
        problems.append("slope increases with gamma")
    if not ref.close(beta1[0], st.s_yy / st.s_xy):
        problems.append(f"gamma=0 slope {beta1[0]!r} != S_yy/S_xy")
    if not (ref.close(beta1[-1], st.s_xy / st.s_xx) and ref.close(beta1[-1], ref.polyfit_slope(x, y))):
        problems.append(f"gamma=1 slope {beta1[-1]!r} != S_xy/S_xx or the least-squares slope")
    bad = np.flatnonzero(np.abs(beta1 - expected) > tol * np.abs(expected))
    if bad.size:
        problems.append(f"{bad.size} slopes differ from the reference, first at gamma={grid[bad[0]]!r}")
    lower, upper = ref.bounds(st)
    if np.any(beta1 < lower * (1 - tol)) or np.any(beta1 > upper * (1 + tol)):
        problems.append("a slope lies outside the bracket")
    centroid = st.y_bar - beta1 * st.x_bar
    scale = abs(st.y_bar) + np.abs(beta1 * st.x_bar)
    if np.any(np.abs(beta0 - centroid) > tol * scale):
        problems.append("an intercept is not y_bar - beta1*x_bar")
    vertical = st.s_yy - 2.0 * beta1 * st.s_xy + beta1 * beta1 * st.s_xx
    objective = gamma * vertical + (1.0 - gamma) * vertical / (beta1 * beta1)
    if np.any(np.abs(sse - objective) > tol * objective):
        problems.append("an sse differs from the reference objective")
    for i in (0, SWEEP_STEPS // 3, SWEEP_STEPS // 2, SWEEP_STEPS - 1):
        problems += ref.check_line(st, float(grid[i]), float(beta0[i]), float(beta1[i]))
    return problems


def cli_calls(ctx: Context) -> dict[str, float]:
    """Small-file calls of each command, then a 10001-step sweep, per round."""
    data = inputs.cli_input(ctx.seed)
    small, sweep = ctx.work / "small.csv", ctx.work / "sweep.csv"
    small.write_text(inputs.csv_text(data.small_x, data.small_y))
    sweep.write_text(inputs.csv_text(data.sweep_x, data.sweep_y))
    st = ref.stats(data.small_x, data.small_y)
    sweep_st = ref.stats(data.sweep_x, data.sweep_y)
    gamma = data.gamma
    beta1 = ref.slope(st, gamma)
    beta0 = st.y_bar - beta1 * st.x_bar
    setup_s = import_seconds(ctx)
    startup = startup_metrics(ctx) if ctx.trace else {}

    g = repr(gamma)
    common = ["--input", str(small), "--format", "json"]

    def predict_problems(out: dict) -> list[str]:
        v = data.predict_at
        expected = beta0 + beta1 * v
        ok = ref.close(out["value"], expected, abs(beta0) + abs(beta1 * v))
        return [] if ok else [f"predict({v!r}) = {out['value']!r}, reference {expected!r}"]

    def inverse_problems(out: dict) -> list[str]:
        w, u = data.inverse_at, out["value"]
        expected = (w - beta0) / beta1
        problems = []
        if not ref.close(u, expected, abs(w / beta1) + abs(beta0 / beta1)):
            problems.append(f"inverse({w!r}) = {u!r}, reference {expected!r}")
        if not ref.close(beta0 + beta1 * u, w, abs(beta0) + abs(beta1 * u)):
            problems.append(f"predict(inverse({w!r})) = {beta0 + beta1 * u!r}")
        return problems

    def verify_problems(out: dict) -> list[str]:
        problems = [] if out["status"] == "ok" else ["status is not ok"]
        if not ref.close(out["quartic_slope"], beta1):
            problems.append(f"quartic slope {out['quartic_slope']!r} != reference {beta1!r}")
        return problems + ref.check_verify(
            st, gamma, out["quartic_slope"], out["oracle_slope"], out["gradient_max_rel_err"]
        )

    commands = [
        (["fit", "--gamma", g, *common], lambda out: _fit_problems(out, st, gamma)),
        (["verify", "--gamma", g, *common], verify_problems),
        (["stats", *common], lambda out: ref.check_stats(out, st)),
        (["predict", "--gamma", g, "--value", repr(data.predict_at), *common], predict_problems),
        (["inverse", "--gamma", g, "--value", repr(data.inverse_at), *common], inverse_problems),
    ]
    sweep_args = ["sweep", "--input", str(sweep), "--steps", str(SWEEP_STEPS), "--format", "csv"]

    def one_round(traced: bool) -> None:
        for args, problems in commands * SMALL_PASSES:
            call = cli_call(ctx, args, traced)
            if call.ok:
                ctx.check(args[0], call.stdout, lambda: problems(_json(call.stdout)))
        call = cli_call(ctx, sweep_args, traced)
        if call.ok:
            ctx.check(
                "sweep", call.stdout, lambda: _sweep_problems(call.stdout, sweep_st, data.sweep_x, data.sweep_y)
            )

    rounds, overhead = _phases(ctx, lambda: one_round(False), lambda: one_round(True))
    if ctx.trace:
        return layers.layer_metrics(ctx.totals, rounds, startup, ctx.cli_calls, ctx.emitted_bytes, overhead)
    return ctx.end_to_end(setup_s)


# ---------------------------------------------------------------------------
# lib-fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Prepared:
    case: inputs.LibCase
    data: dualfit.Dataset
    config: dualfit.FitConfig
    stats: dualfit.SufficientStats | None  # the program's, for verify_fit
    ref: ref.Stats


def _prepare(cases: list[inputs.LibCase], datasets: list) -> list[_Prepared]:
    return [
        _Prepared(
            case,
            data,
            dualfit.FitConfig(
                gamma=case.gamma, negative_correlation_policy="reflect" if case.reflect else "error"
            ),
            dualfit.compute_stats(data) if case.verify else None,
            ref.stats(case.x, case.y),
        )
        for case, data in zip(cases, datasets)
    ]


def _gate(report) -> str | None:
    """The failure ``dualfit verify`` would report, or None if it passes."""
    if report.abs_gap > ref.VERIFY_GAP * (1.0 + abs(report.quartic_slope)):
        return "slope gap"
    if report.gradient_max_rel_err > ref.VERIFY_GRADIENT:
        return "gradient gate"
    return None


def _lib_problems(p: _Prepared, line, report) -> list[str]:
    st, gamma = p.ref, p.case.gamma
    problems = ref.check_line(st, gamma, line.beta0, line.beta1)
    reflected = st.reflected() if st.s_xy < 0.0 else st
    if not ref.close(line.sse, ref.profile_sse(reflected, abs(line.beta1), gamma)):
        problems.append(f"sse {line.sse!r} != reference")
    if gamma == 1.0 and not ref.close(line.beta1, ref.polyfit_slope(p.case.x, p.case.y)):
        problems.append(f"slope {line.beta1!r} != least-squares slope")
    if report is not None:
        if report.quartic_slope != line.beta1:
            problems.append("verify report is not about the fitted slope")
        problems += ref.check_verify(
            st, gamma, line.beta1, report.oracle_slope, report.gradient_max_rel_err
        )
    return problems


def lib_fits(ctx: Context) -> dict[str, float]:
    """``fit`` then ``verify_fit`` on each dataset of a seeded stream, per round."""
    stream = inputs.lib_stream(ctx.seed)
    scaled = inputs.scaled_slice()
    setup_s = import_seconds(ctx)
    startup = startup_metrics(ctx) if ctx.trace else {}
    tracer = Tracer()

    make_dataset = tracer.wrap(dualfit.Dataset, "core.dataset") if ctx.trace else dualfit.Dataset
    builds = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        datasets = [make_dataset(case.x, case.y) for case in stream]
        builds.append(time.perf_counter() - start)
    setup_s += statistics.median(builds)
    prepared = _prepare(stream, datasets)
    faults = _prepare(scaled, [dualfit.Dataset(case.x, case.y) for case in scaled])

    def benign(i: int, p: _Prepared, fit, verify_fit, timed: bool) -> None:
        ctx.attempted += 1
        try:
            t0 = time.perf_counter()
            line = fit(p.data, p.config)
            report = verify_fit(p.stats, line, p.config) if p.case.verify else None
            elapsed = time.perf_counter() - t0
        except dualfit.DualFitError as exc:
            ctx.failed += 1
            print(f"{p.case.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return
        gate = _gate(report) if report is not None else None
        if gate is not None:
            ctx.failed += 1
            print(f"{p.case.name}: verify fails its {gate}", file=sys.stderr)
            return
        if timed:
            ctx.timed(i, elapsed)
        key = (line.beta0, line.beta1, line.sse) + (
            (report.oracle_slope, report.gradient_max_rel_err) if report else ()
        )
        ctx.check(p.case.name, key, lambda: _lib_problems(p, line, report))

    def fault(p: _Prepared) -> None:
        ctx.attempted += 1
        try:
            line = dualfit.fit(p.data, p.config)
            report = dualfit.verify_fit(p.stats, line, p.config)
            outcome = _gate(report)
        except dualfit.DualFitError as exc:
            outcome = type(exc).__name__
        if outcome is None:
            ctx.check(p.case.name, (line.beta0, line.beta1), lambda: _lib_problems(p, line, report))
            return
        ctx.failed += 1
        if outcome != p.case.expected_failure:
            print(f"{p.case.name}: failed with {outcome}, expected {p.case.expected_failure}", file=sys.stderr)

    def one_round(fit, verify_fit, timed: bool) -> None:
        for i, p in enumerate(prepared):
            benign(i, p, fit, verify_fit, timed)

    def plain_round() -> None:
        one_round(dualfit.fit, dualfit.verify_fit, True)
        for p in faults:
            fault(p)

    def traced_round() -> None:
        fit, verify_fit, undo = layers.install_lib(tracer)
        try:
            one_round(fit, verify_fit, False)
        finally:
            undo()
        for p in faults:
            fault(p)

    rounds, overhead = _phases(ctx, plain_round, traced_round)
    if ctx.trace:
        ctx.totals.add_tracer(tracer)
        tracer.save(ctx.traces / "lib")
        return layers.layer_metrics(ctx.totals, rounds, startup, 0, 0, overhead)
    ctx.peak_rss_mb = peak_rss_mb()
    return ctx.end_to_end(setup_s)

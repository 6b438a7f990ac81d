"""Where the spans go, and how they become the per-layer metrics.

Layers are the package's modules plus process start:

- ``startup``: interpreter start and ``import dualfit`` (numpy included);
- ``cli``: ``parse_csv``, then argument handling and output (``main``);
- ``core``: ``Dataset``, ``compute_stats`` and ``fit_stats`` (the solve);
- ``oracle``: ``verify_fit``, ``check_gradient`` and the ``sse`` calls.

A metric of a layer that a workload does not exercise reads 0 there.
"""

from __future__ import annotations

import dualfit
import dualfit.cli
import dualfit.core
import dualfit.oracle
from spans import Tracer, Totals, peak_rss_mb

SOLVE_KINDS = ("core.solve.interior", "core.solve.endpoint", "core.solve.reflect")


def _solve_name(stats, config) -> str:
    if stats.rho < 0.0:
        return "core.solve.reflect"
    if 0.0 < config.gamma < 1.0:
        return "core.solve.interior"
    return "core.solve.endpoint"


def _hooks(tracer: Tracer):
    def after_parse(name, args, dataset):
        source = args[0]
        tracer.count("cli.parse.bytes", len(source) if isinstance(source, (bytes, str)) else 0)
        tracer.count("cli.parse.rows", len(dataset))
        tracer.peak("cli.parse.peak_mb", peak_rss_mb())

    def after_stats(name, args, stats):
        tracer.count("core.stats.rows", stats.n)

    def after_solve(name, args, line):
        if name == "core.solve.interior":
            tracer.count("core.solve.interior_done")
            tracer.count("core.solve.candidate_roots", len(getattr(line, "candidate_roots", ())))

    def after_verify(name, args, report):
        if 0.0 < args[1].gamma < 1.0:
            tracer.count("oracle.interior_done")
            tracer.count("oracle.profile_evals", report.profile_evals)

    return after_parse, after_stats, after_solve, after_verify


def install_cli(tracer: Tracer):
    """Spans on the attributes ``dualfit.cli`` looks up; returns the undo."""
    after_parse, after_stats, after_solve, after_verify = _hooks(tracer)
    return tracer.install(
        [
            (dualfit.cli, "parse_csv", "cli.parse", after_parse),
            (dualfit.cli, "Dataset", "core.dataset", None),
            (dualfit.cli, "compute_stats", "core.stats", after_stats),
            (dualfit.cli, "fit_stats", _solve_name, after_solve),
            (dualfit.cli, "verify_fit", "oracle.verify", after_verify),
            (dualfit.oracle, "check_gradient", "oracle.gradient", None),
            (dualfit.oracle, "sse", "oracle.sse", None),
        ]
    )


def install_lib(tracer: Tracer):
    """Spans for in-process use; returns ``(fit, verify_fit, undo)``.

    ``dualfit.fit`` looks up ``compute_stats`` and ``fit_stats`` in
    ``dualfit.core``; the oracle looks up ``check_gradient`` and ``sse`` in
    ``dualfit.oracle``.  The benchmark calls ``fit`` and ``verify_fit``
    through the two traced functions returned.
    """
    _, after_stats, after_solve, after_verify = _hooks(tracer)
    undo = tracer.install(
        [
            (dualfit.core, "compute_stats", "core.stats", after_stats),
            (dualfit.core, "fit_stats", _solve_name, after_solve),
            (dualfit.oracle, "check_gradient", "oracle.gradient", None),
            (dualfit.oracle, "sse", "oracle.sse", None),
        ]
    )
    fit = tracer.wrap(dualfit.fit, "lib.fit")
    verify_fit = tracer.wrap(dualfit.verify_fit, "oracle.verify", after_verify)
    return fit, verify_fit, undo


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "startup.python_s": "s",
    "startup.import_numpy_s": "s",
    "startup.import_dualfit_s": "s",
    "cli.parse.s": "s",
    "cli.parse.mb_per_s": "MB/s",
    "cli.parse.rows": "count",
    "cli.parse.peak_mb": "MB",
    "core.dataset.s": "s",
    "core.stats.ns_per_row": "ns",
    "core.solve.us_interior": "us",
    "core.solve.us_endpoint": "us",
    "core.solve.us_reflect": "us",
    "core.solve.calls": "count",
    "core.solve.candidate_roots": "count",
    "oracle.verify.us": "us",
    "oracle.gradient.us": "us",
    "oracle.profile_evals": "count",
    "oracle.sse_calls": "count",
    "cli.self_s": "s",
    "cli.emit.bytes": "bytes",
    "trace.overhead_s": "s",
}


def layer_metrics(
    t: Totals,
    rounds: int,
    startup: dict[str, float],
    cli_calls: int,
    emitted_bytes: int,
    overhead_s: float,
) -> dict[str, float]:
    """Per-layer metrics from the traced rounds.

    Times of a span are per call: ``cli.parse.s`` and ``cli.self_s`` are self
    times, the others include their child spans.  ``core.solve.calls`` is per
    round; ``oracle.gradient.us`` and ``oracle.sse_calls`` are per
    ``verify_fit`` call; ``core.solve.candidate_roots`` and
    ``oracle.profile_evals`` are per interior fit or verify.
    """
    c = t.counters
    verifies = t.count["oracle.verify"]
    values = dict(startup)
    values.update(
        {
            "cli.parse.s": t.mean("cli.parse", self_only=True),
            "cli.parse.mb_per_s": _ratio(c["cli.parse.bytes"] / 1e6, t.self_time["cli.parse"]),
            "cli.parse.rows": _ratio(c["cli.parse.rows"], t.count["cli.parse"]),
            "cli.parse.peak_mb": t.peaks.get("cli.parse.peak_mb", 0.0),
            "core.dataset.s": t.mean("core.dataset"),
            "core.stats.ns_per_row": _ratio(t.total["core.stats"] * 1e9, c["core.stats.rows"]),
            "core.solve.us_interior": t.mean("core.solve.interior") * 1e6,
            "core.solve.us_endpoint": t.mean("core.solve.endpoint") * 1e6,
            "core.solve.us_reflect": t.mean("core.solve.reflect") * 1e6,
            "core.solve.calls": _ratio(sum(t.count[k] for k in SOLVE_KINDS), rounds),
            "core.solve.candidate_roots": _ratio(
                c["core.solve.candidate_roots"], c["core.solve.interior_done"]
            ),
            "oracle.verify.us": t.mean("oracle.verify") * 1e6,
            "oracle.gradient.us": _ratio(t.total["oracle.gradient"] * 1e6, verifies),
            "oracle.profile_evals": _ratio(c["oracle.profile_evals"], c["oracle.interior_done"]),
            "oracle.sse_calls": _ratio(t.count["oracle.sse"], verifies),
            "cli.self_s": t.mean("cli.main", self_only=True),
            "cli.emit.bytes": _ratio(emitted_bytes, cli_calls),
            "trace.overhead_s": overhead_s,
        }
    )
    return {name: values[name] for name in UNITS}

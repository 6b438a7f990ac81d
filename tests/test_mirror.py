"""Mirroring the data to ``(x, -y)`` mirrors the fit, bit for bit.

The slope quartic obeys ``Q(-b; -s_xy) = Q(b; s_xy)`` and both endpoint
slopes are odd in y, so under the reflect policy the fit of ``(x, -y)`` is
the fit of ``(x, y)`` with the slope and the intercept negated, the same
bits for the objective and the quartic's residual.  The slope solve rests on
this: it solves a negative correlation at ``|rho|`` on the data's own
statistics.  ``verify_fit`` mirrors too: its oracle slope and bracket are
negated, and so are its gradient probes, so its gradient error keeps its bits.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import subprocess
import sys

import numpy as np

from dualfit import Dataset, FitConfig, SufficientStats, compute_stats, fit, fit_stats, verify_fit
from dualfit import cli

from conftest import reflected, src_env

NOTE = "fitted on (x, -y) and negated the slope"


def _pairs():
    """Seeded noisy lines of positive slope and their mirrors, n 10..2e4, with a weight."""
    rng = np.random.default_rng(20261018)
    for case in range(300):
        n = int(np.exp(rng.uniform(np.log(10.0), np.log(2e4))))
        x = rng.normal(rng.uniform(-5.0, 5.0), rng.uniform(0.2, 3.0), n)
        slope = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        y = rng.uniform(-5.0, 5.0) + slope * x + rng.normal(0.0, rng.uniform(0.05, 2.0), n)
        gamma = (0.0, 1.0, float(rng.uniform(0.02, 0.98)))[case % 3]
        yield Dataset(x, y), Dataset(x, -y), gamma


def test_mirrored_data_fit_and_verify_bit_for_bit():
    for data, mirror, gamma in _pairs():
        stats, mirror_stats = compute_stats(data), compute_stats(mirror)
        assert repr(mirror_stats) == repr(reflected(stats))
        config = FitConfig(gamma, "reflect")
        line, mirrored = fit(data, config), fit(mirror, config)
        # the noisiest draws are negatively correlated, and then the mirror is not
        notes = () if line.notes else (NOTE,)
        expected = dataclasses.replace(line, beta0=-line.beta0, beta1=-line.beta1, notes=notes)
        assert repr(mirrored) == repr(expected), gamma

        report = verify_fit(stats, line, config)
        mirrored_report = verify_fit(mirror_stats, mirrored, config)
        assert repr(mirrored_report.oracle_slope) == repr(-report.oracle_slope)
        assert repr(mirrored_report.bracket) == repr((-report.bracket[1], -report.bracket[0]))
        assert mirrored_report.profile_evals == report.profile_evals
        assert repr(mirrored_report.gradient_max_rel_err) == repr(report.gradient_max_rel_err)


def test_cli_prints_the_mirrored_slope_negated(tmp_path):
    rng = np.random.default_rng(5)
    n = 2 * cli._RUN_ROWS + 100  # three runs, merged
    x = rng.normal(3.0, 2.0, n)
    y = 1.0 + 0.7 * x + rng.normal(0.0, 0.5, n)
    printed = []
    for name, ys in (("straight", y), ("mirror", -y)):
        path = tmp_path / f"{name}.csv"
        path.write_text("x,y\n" + "".join(map("{!r},{!r}\n".format, x.tolist(), ys.tolist())))
        result = subprocess.run(
            [sys.executable, "-m", "dualfit", "fit", "--reflect-negative", "--format", "json"]
            + ["--input", str(path)],
            capture_output=True,
            env=src_env(),
            timeout=60,
        )
        assert (result.returncode, result.stderr) == (0, b"")
        printed.append(json.loads(result.stdout))
    straight, mirror = printed
    for key in ("y_bar", "s_xy", "rho", "beta0", "beta1"):
        assert mirror[key] == -straight[key], key
    for key in ("n", "x_bar", "s_xx", "s_yy", "gamma", "sse", "root_residual"):
        assert mirror[key] == straight[key], key
    assert (mirror["bound_lower"], mirror["bound_upper"]) == (
        -straight["bound_upper"],
        -straight["bound_lower"],
    )


def test_reflect_policy_builds_no_statistics(monkeypatch):
    # the fit, verify_fit and the CLI's fit read the bounds of a negative
    # correlation off the data's own statistics, never off reflected() ones
    _, mirror, _ = next(_pairs())
    stats = compute_stats(mirror)
    assert stats.rho < 0.0
    built = []
    real_post_init = SufficientStats.__post_init__

    def counting_post_init(self):
        built.append(self)
        real_post_init(self)

    monkeypatch.setattr(SufficientStats, "__post_init__", counting_post_init)
    for gamma in (0.0, 0.5, 1.0):
        config = FitConfig(gamma, "reflect")
        line = fit(mirror, config)
        assert line == fit_stats(stats, config)
        verify_fit(stats, line, config)
        args = argparse.Namespace(gamma=gamma, policy="reflect", format="json")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli._fit(args, stats) == cli.EXIT_OK
        assert json.loads(out.getvalue())["bound_upper"] < 0.0
    assert built == []

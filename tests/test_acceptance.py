"""Acceptance gate: one test per shipping criterion.

Run with -s to see the per-criterion PASS lines and measured numbers.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dualfit import (
    Dataset,
    FitConfig,
    OracleReport,
    compute_stats,
    fit,
    fit_stats,
    slope_bounds,
    sse,
    verify_fit,
)
from dualfit.cli import EXIT_VERIFY, main

from conftest import random_dataset, rel_err, sse_per_point, src_env

HERE = Path(__file__).parent
REFERENCE_CSV = HERE / "data" / "reference.csv"
GOLDEN = HERE / "golden"


def test_criterion_1_reference_fit(reference_data):
    start = time.perf_counter()
    line = fit(reference_data, FitConfig(gamma=0.9))
    elapsed = time.perf_counter() - start
    assert line.beta1 == pytest.approx(0.6612, abs=5e-4)
    assert line.beta0 == pytest.approx(-0.0806, abs=5e-4)
    assert elapsed < 1.0
    print(
        f"PASS criterion 1: beta1={line.beta1:.10f}, beta0={line.beta0:.10f}, "
        f"fit took {elapsed * 1e3:.2f} ms"
    )


def test_criterion_2_reference_statistics(reference_stats):
    assert reference_stats.x_bar == pytest.approx(0.5, abs=1e-4)
    assert reference_stats.y_bar == pytest.approx(0.25, abs=1e-4)
    assert reference_stats.s_xx == pytest.approx(1.0, abs=1e-4)
    assert reference_stats.s_yy == pytest.approx(0.75, abs=1e-4)
    assert reference_stats.rho == pytest.approx(0.5774, abs=1e-4)
    print(
        f"PASS criterion 2: x_bar={reference_stats.x_bar}, y_bar={reference_stats.y_bar}, "
        f"s_xx={reference_stats.s_xx}, s_yy={reference_stats.s_yy}, "
        f"rho={reference_stats.rho:.10f}"
    )


def test_criterion_3_bounds_contain_every_fit(reference_stats):
    lower, upper = slope_bounds(reference_stats)
    assert lower == pytest.approx(0.5, abs=1e-12)
    assert upper == pytest.approx(1.5, abs=1e-12)
    pad = 1e-8 * upper
    worst = 0.0
    for gamma in np.linspace(0.01, 0.99, 99):
        beta1 = fit_stats(reference_stats, FitConfig(gamma=float(gamma))).beta1
        assert lower - pad <= beta1 <= upper + pad
        worst = max(worst, lower - beta1, beta1 - upper)
    print(
        f"PASS criterion 3: bounds=({lower}, {upper}), 99 fitted slopes inside "
        f"(worst overshoot {worst:.3e})"
    )


def test_criterion_4_endpoint_slopes(reference_stats):
    ols = fit_stats(reference_stats, FitConfig(gamma=1.0)).beta1
    inverse = fit_stats(reference_stats, FitConfig(gamma=0.0)).beta1
    assert ols == pytest.approx(0.5, abs=1e-12)
    assert inverse == pytest.approx(1.5, abs=1e-12)
    print(f"PASS criterion 4: gamma=1 slope {ols}, gamma=0 slope {inverse}")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(20260816)
    gammas = [round(0.1 * k, 1) for k in range(1, 10)]
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        stats = compute_stats(random_dataset(rng))
        for gamma in gammas:
            config = FitConfig(gamma=gamma)
            report = verify_fit(stats, fit_stats(stats, config), config)
            assert report.certified
            assert report.gradient_max_rel_err <= 1e-14
            worst = max(worst, report.gradient_max_rel_err)
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    print(
        f"PASS criterion 5: 500 datasets x 9 weights certified, max exact gradient "
        f"{worst:.3e}, {elapsed:.1f} s"
    )


def test_criterion_6_gradient_suite():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(10):
        stats = compute_stats(random_dataset(rng))
        for _ in range(10):
            config = FitConfig(gamma=float(rng.uniform(0.05, 0.95)))
            report = verify_fit(stats, fit_stats(stats, config), config)
            assert report.certified
            assert report.gradient_max_rel_err <= 1e-14
            worst = max(worst, report.gradient_max_rel_err)
    print(f"PASS criterion 6: 100 certified fits, max exact gradient {worst:.3e}")


def test_criterion_7_property_suite():
    trials = 100

    rng = np.random.default_rng(7001)
    for _ in range(trials):
        data = random_dataset(rng)
        gamma = float(rng.uniform(0.05, 0.95))
        a, b = rng.uniform(-50.0, 50.0, 2)
        line = fit(data, FitConfig(gamma=gamma))
        moved = fit(Dataset(data.x + a, data.y + b), FitConfig(gamma=gamma))
        assert abs(moved.beta1 - line.beta1) <= 1e-10 * (1.0 + abs(line.beta1))

    rng = np.random.default_rng(7002)
    for _ in range(trials):
        data = random_dataset(rng)
        gamma = float(rng.uniform(0.05, 0.95))
        c = float(rng.uniform(0.1, 100.0))
        line = fit(data, FitConfig(gamma=gamma))
        scaled = fit(Dataset(c * data.x, c * data.y), FitConfig(gamma=gamma))
        assert abs(scaled.beta1 - line.beta1) <= 1e-10 * (1.0 + abs(line.beta1))
        assert rel_err(scaled.beta0, c * line.beta0) <= 1e-9

    rng = np.random.default_rng(7003)
    for _ in range(trials):
        data = random_dataset(rng)
        gamma = float(rng.uniform(0.05, 0.95))
        line = fit(data, FitConfig(gamma=gamma))
        mirrored = fit(
            Dataset(data.x, -data.y),
            FitConfig(gamma=gamma, negative_correlation_policy="reflect"),
        )
        assert mirrored.beta1 == -line.beta1

    rng = np.random.default_rng(7004)
    for _ in range(trials):
        stats = compute_stats(random_dataset(rng))
        gamma = float(rng.uniform(0.05, 0.95))
        line = fit_stats(stats, FitConfig(gamma=gamma))
        assert line.beta0 == stats.y_bar - line.beta1 * stats.x_bar

    rng = np.random.default_rng(7005)
    for _ in range(trials):
        data = random_dataset(rng)
        stats = compute_stats(data)
        gamma = float(rng.uniform(0.0, 1.0))
        beta0 = float(rng.uniform(-3.0, 3.0))
        beta1 = float(rng.uniform(0.1, 3.0)) * float(rng.choice([-1.0, 1.0]))
        assert rel_err(sse(stats, beta0, beta1, gamma), sse_per_point(data, beta0, beta1, gamma)) <= 1e-10

    print(f"PASS criterion 7: five invariance properties, {trials} trials each")


def _cli(*args, stdin: bytes | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "dualfit", *args],
        input=stdin,
        capture_output=True,
        env=src_env(),
        timeout=120,
    )


def test_criterion_8_cli_golden_files(monkeypatch, capsys):
    ref = str(REFERENCE_CSV)
    checks = [
        (("fit", "--input", ref, "--gamma", "0.9", "--format", "json"), "fit.json"),
        (("sweep", "--input", ref, "--steps", "11", "--format", "csv"), "sweep.csv"),
        (("verify", "--input", ref, "--gamma", "0.9", "--format", "json"), "verify.json"),
    ]
    for args, name in checks:
        result = _cli(*args)
        assert result.returncode == 0, result.stderr.decode()
        golden = (GOLDEN / name).read_bytes()
        assert result.stdout == golden, f"{name} drifted from committed output"

    missing = _cli("fit", "--input", str(HERE / "data" / "no-such-file.csv"))
    assert missing.returncode == 2

    degenerate = _cli("fit", "--input", "-", stdin=b"x,y\n1,0\n1,1\n1,2\n")
    assert degenerate.returncode == 3

    doctored = OracleReport(
        oracle_slope=1.5,
        quartic_slope=0.5,
        abs_gap=abs(1.5 - 0.5),
        profile_evals=12,
        bracket=(0.4, 1.6),
        gradient_max_rel_err=0.5,
    )
    # the command reads the certificate's fields, as the report holds them
    monkeypatch.setattr("dualfit.oracle.certify", lambda *args: dataclasses.astuple(doctored))
    code = main(["verify", "--input", ref, "--gamma", "0.9", "--format", "json"])
    capsys.readouterr()
    assert code == EXIT_VERIFY

    print(
        "PASS criterion 8: fit/sweep/verify match committed golden bytes; "
        "exit codes 2, 3, 4 exercised"
    )

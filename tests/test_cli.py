"""CSV parsing, subcommands, output formats, and exit codes."""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dualfit import Dataset, FitConfig, OracleReport, fit
from dualfit.cli import (
    EXIT_FIT,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY,
    CliConfig,
    main,
    parse_csv,
    run_fit,
    run_inverse,
    run_predict,
    run_stats,
    run_sweep,
    run_verify,
)
from dualfit.errors import InvalidInput, ParseError

from conftest import random_dataset, src_env

REFERENCE_CSV = Path(__file__).parent / "data" / "reference.csv"

PERFECT_CSV = "x,y\n0,1\n1,3\n2,5\n"


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---- parse_csv ---------------------------------------------------------------


def test_parse_with_header():
    data = parse_csv(REFERENCE_CSV.read_text())
    assert data.x.tolist() == [0.0, 0.0, 1.0, 1.0]
    assert data.y.tolist() == [0.0, 0.0, 0.0, 1.0]


def test_parse_headerless():
    data = parse_csv("0,0\n1,1\n")
    assert data.x.tolist() == [0.0, 1.0]
    assert data.y.tolist() == [0.0, 1.0]


def test_parse_crlf_and_blank_lines():
    data = parse_csv("x,y\r\n\r\n0,0\r\n1,2\r\n\r\n")
    assert data.x.tolist() == [0.0, 1.0]
    assert data.y.tolist() == [0.0, 2.0]


def test_parse_bad_cell_reports_line():
    with pytest.raises(ParseError) as excinfo:
        parse_csv("x,y\n0,0\n1,abc\n2,2\n")
    assert excinfo.value.line == 3
    assert "line 3" in str(excinfo.value)


def test_parse_short_row_reports_line():
    with pytest.raises(ParseError) as excinfo:
        parse_csv("x,y\n0,0\n1\n")
    assert excinfo.value.line == 3


def test_parse_missing_named_column():
    with pytest.raises(InvalidInput):
        parse_csv("x,y\n0,0\n1,1\n", x_column="weight")


def test_parse_index_out_of_range():
    with pytest.raises(InvalidInput):
        parse_csv("0,0\n1,1\n", y_column="5")


def test_parse_too_few_rows():
    with pytest.raises(InvalidInput):
        parse_csv("x,y\n1,1\n")
    with pytest.raises(InvalidInput):
        parse_csv("")


def test_parse_columns_by_name_and_index():
    text = "time,reading,flag\n0,0,a\n1,2,b\n"
    named = parse_csv(text, x_column="time", y_column="reading")
    indexed = parse_csv(text, x_column="0", y_column="1")
    assert named.x.tolist() == indexed.x.tolist() == [0.0, 1.0]
    assert named.y.tolist() == indexed.y.tolist() == [0.0, 2.0]


def test_parse_swapped_default_names():
    # header drives the defaults, not column order
    data = parse_csv("y,x\n0,1\n2,3\n")
    assert data.x.tolist() == [1.0, 3.0]
    assert data.y.tolist() == [0.0, 2.0]


def test_parse_rejects_non_utf8_bytes():
    with pytest.raises(InvalidInput):
        parse_csv(b"\xff\xfe\x00bad")


def test_parse_header_only_and_empty_raise_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for source in ("x,y\n", "x,y\n\n\n", "x,y", b"x,y\r\n", "", "\n", b""):
            with pytest.raises(InvalidInput, match="got 0"):
                parse_csv(source)


def test_parse_bare_carriage_return_reports_line():
    with pytest.raises(ParseError) as excinfo:
        parse_csv("x,y\n0,0\n1,1\r2,2\n")
    assert excinfo.value.line == 3
    assert str(excinfo.value).startswith("line 3: new-line character seen")


def test_parse_overlong_field_reports_line():
    long_cell = "4" * (csv.field_size_limit() + 1)
    with pytest.raises(ParseError) as excinfo:
        parse_csv(f"x,{long_cell}\n1,2\n3,4\n")
    assert excinfo.value.line == 1
    # the whitespace-only row sends the text to the row loop
    with pytest.raises(ParseError) as excinfo:
        parse_csv(f"x,y\n1,2\n \n3,{long_cell}\n5,6\n")
    assert excinfo.value.line == 4
    assert "field larger than field limit" in str(excinfo.value)


@pytest.mark.parametrize("extra_row", ["", " \n"])
def test_cli_overlong_field_exits_2_without_traceback(extra_row):
    text = "x,y\n1,2\n" + extra_row + "3," + "4" * 200_000 + "\n5,6\n"
    result = subprocess.run(
        [sys.executable, "-m", "dualfit", "fit"],
        input=text.encode(),
        capture_output=True,
        env=src_env(),
        timeout=60,
    )
    assert result.returncode == EXIT_INPUT
    err = result.stderr.decode()
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


# ---- fit / stats -------------------------------------------------------------


def _run_json(runner, config, capsys):
    code = runner(config)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_run_fit_reference(capsys):
    config = CliConfig(
        command="fit", input_path=str(REFERENCE_CSV), gamma=0.9, output_format="json"
    )
    code, report = _run_json(run_fit, config, capsys)
    assert code == EXIT_OK
    assert report["beta1"] == pytest.approx(0.6612, abs=5e-4)
    assert report["beta0"] == pytest.approx(-0.0806, abs=5e-4)
    assert report["bound_lower"] == pytest.approx(0.5, abs=1e-9)
    assert report["bound_upper"] == pytest.approx(1.5, abs=1e-9)
    assert "candidate_roots" not in report
    assert report["rho"] == pytest.approx(0.5773502692, abs=1e-9)


def test_run_fit_perfect_line(tmp_path, capsys):
    config = CliConfig(
        command="fit",
        input_path=_write(tmp_path, PERFECT_CSV),
        gamma=0.3,
        output_format="json",
    )
    code, report = _run_json(run_fit, config, capsys)
    assert code == EXIT_OK
    assert report["beta1"] == pytest.approx(2.0, abs=1e-9)
    assert report["beta0"] == pytest.approx(1.0, abs=1e-9)
    assert report["sse"] == pytest.approx(0.0, abs=1e-15)


def test_run_stats_csv_shape(capsys):
    config = CliConfig(
        command="stats", input_path=str(REFERENCE_CSV), output_format="csv"
    )
    code = run_stats(config)
    assert code == EXIT_OK
    header, values = capsys.readouterr().out.splitlines()
    assert header == "n,x_bar,y_bar,s_xx,s_yy,s_xy,rho"
    cells = values.split(",")
    assert cells[0] == "4"
    assert cells[6] == "0.5773502692"


def test_run_fit_degenerate_exits_3(tmp_path, capsys):
    config = CliConfig(
        command="fit", input_path=_write(tmp_path, "x,y\n1,0\n1,1\n1,2\n")
    )
    assert run_fit(config) == EXIT_FIT
    assert "DegenerateData" in capsys.readouterr().err


def test_run_fit_missing_file_exits_2(tmp_path, capsys):
    config = CliConfig(command="fit", input_path=str(tmp_path / "nope.csv"))
    assert run_fit(config) == EXIT_INPUT
    assert "FileNotFoundError" in capsys.readouterr().err


def test_run_fit_malformed_exits_2(tmp_path, capsys):
    config = CliConfig(
        command="fit", input_path=_write(tmp_path, "x,y\n0,0\n1,abc\n")
    )
    assert run_fit(config) == EXIT_INPUT
    assert "ParseError" in capsys.readouterr().err


def test_output_is_deterministic(capsys):
    config = CliConfig(
        command="fit", input_path=str(REFERENCE_CSV), gamma=0.37, output_format="json"
    )
    assert run_fit(config) == EXIT_OK
    first = capsys.readouterr().out
    assert run_fit(config) == EXIT_OK
    assert capsys.readouterr().out == first


# ---- sweep ---------------------------------------------------------------------


def test_run_sweep_three_steps(capsys):
    config = CliConfig(
        command="sweep",
        input_path=str(REFERENCE_CSV),
        gamma_steps=3,
        output_format="json",
    )
    code, payload = _run_json(run_sweep, config, capsys)
    assert code == EXIT_OK
    rows = payload["rows"]
    assert [row["gamma"] for row in rows] == [0.0, 0.5, 1.0]
    assert rows[0]["beta1"] == 1.5
    assert rows[1]["beta1"] == pytest.approx(0.9037934218529561, abs=1e-6)
    assert rows[2]["beta1"] == 0.5


def test_run_sweep_perfect_line_constant(tmp_path, capsys):
    config = CliConfig(
        command="sweep",
        input_path=_write(tmp_path, PERFECT_CSV),
        gamma_steps=5,
        output_format="json",
    )
    code, payload = _run_json(run_sweep, config, capsys)
    assert code == EXIT_OK
    for row in payload["rows"]:
        assert row["beta1"] == pytest.approx(2.0, abs=1e-9)


def test_run_sweep_stays_inside_bounds(capsys):
    config = CliConfig(
        command="sweep",
        input_path=str(REFERENCE_CSV),
        gamma_steps=101,
        output_format="json",
    )
    code, payload = _run_json(run_sweep, config, capsys)
    assert code == EXIT_OK
    slopes = [row["beta1"] for row in payload["rows"]]
    assert len(slopes) == 101
    assert slopes[0] == 1.5 and slopes[-1] == 0.5
    for beta1 in slopes:
        assert 0.5 * (1.0 - 1e-6) <= beta1 <= 1.5 * (1.0 + 1e-6)


# ---- predict / inverse ----------------------------------------------------------


def test_predict_inverse_round_trip(capsys):
    base = dict(input_path=str(REFERENCE_CSV), gamma=0.9, output_format="json")
    code = run_predict(CliConfig(command="predict", **base), 2.0)
    assert code == EXIT_OK
    y = json.loads(capsys.readouterr().out)["value"]
    code = run_inverse(CliConfig(command="inverse", **base), y)
    assert code == EXIT_OK
    x = json.loads(capsys.readouterr().out)["value"]
    # both legs print at 10 significant digits, so allow a few quanta
    assert x == pytest.approx(2.0, abs=5e-9)


def test_inverse_at_intercept_is_zero(capsys):
    line = fit(parse_csv(REFERENCE_CSV.read_text()), FitConfig(gamma=0.9))
    config = CliConfig(
        command="inverse", input_path=str(REFERENCE_CSV), gamma=0.9, output_format="json"
    )
    assert run_inverse(config, line.beta0) == EXIT_OK
    x = json.loads(capsys.readouterr().out)["value"]
    assert x == pytest.approx(0.0, abs=1e-9)


# ---- verify ----------------------------------------------------------------------


def test_run_verify_reference(capsys):
    config = CliConfig(
        command="verify", input_path=str(REFERENCE_CSV), gamma=0.9, output_format="json"
    )
    code, report = _run_json(run_verify, config, capsys)
    assert code == EXIT_OK
    assert report["status"] == "ok"
    assert report["abs_gap"] <= 1e-6 * (1.0 + abs(report["quartic_slope"]))
    assert report["gradient_max_rel_err"] <= 1e-6


def test_run_verify_perfect_line(tmp_path, capsys):
    config = CliConfig(
        command="verify", input_path=_write(tmp_path, PERFECT_CSV), gamma=0.5
    )
    assert run_verify(config) == EXIT_OK


def test_run_verify_random_csv(tmp_path, capsys):
    rng = np.random.default_rng(1234)
    data = random_dataset(rng, n=60)
    lines = ["x,y"] + [f"{float(x)!r},{float(y)!r}" for x, y in zip(data.x, data.y)]
    config = CliConfig(
        command="verify",
        input_path=_write(tmp_path, "\n".join(lines) + "\n"),
        gamma=0.37,
        output_format="json",
    )
    code, report = _run_json(run_verify, config, capsys)
    assert code == EXIT_OK
    assert report["status"] == "ok"


def test_run_verify_reflect_negative(tmp_path, capsys):
    path = _write(tmp_path, "x,y\n0,4.1\n1,2.9\n2,2.2\n3,0.8\n4,0.1\n")
    code = main(["verify", "--input", path, "--reflect-negative", "--format", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    report = json.loads(captured.out)
    assert report["status"] == "ok"
    assert report["quartic_slope"] < 0.0
    assert report["bracket_lower"] < report["quartic_slope"] < report["bracket_upper"]


def test_run_verify_failure_exits_4(monkeypatch, capsys):
    doctored = OracleReport(
        oracle_slope=1.5,
        quartic_slope=0.5,
        abs_gap=abs(1.5 - 0.5),
        profile_evals=12,
        bracket=(0.4, 1.6),
        gradient_max_rel_err=0.5,
    )
    monkeypatch.setattr("dualfit.cli.verify_fit", lambda stats, line, cfg: doctored)
    config = CliConfig(
        command="verify", input_path=str(REFERENCE_CSV), gamma=0.9, output_format="json"
    )
    assert run_verify(config) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "fail"
    assert "0.5" in captured.err and "1.5" in captured.err
    assert "VerificationFailure" in captured.err


# ---- argument handling ------------------------------------------------------------


def test_cli_config_validation():
    with pytest.raises(InvalidInput):
        CliConfig(command="teleport")
    with pytest.raises(InvalidInput):
        CliConfig(command="fit", gamma=1.5)
    with pytest.raises(InvalidInput):
        CliConfig(command="sweep", gamma_steps=1)
    with pytest.raises(InvalidInput):
        CliConfig(command="fit", output_format="yaml")


def test_main_predict_requires_value(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["predict", "--input", str(REFERENCE_CSV)])
    assert excinfo.value.code == 2


def test_main_rejects_out_of_range_gamma(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fit", "--input", str(REFERENCE_CSV), "--gamma", "1.5"])
    assert excinfo.value.code == 2


def test_main_rejects_non_finite_value(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["predict", "--input", str(REFERENCE_CSV), "--value", "inf"])
    assert excinfo.value.code == 2


def test_main_dispatches_fit(capsys):
    code = main(["fit", "--input", str(REFERENCE_CSV), "--gamma", "0.9", "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["beta1"] == pytest.approx(0.6612, abs=5e-4)


def test_module_entry_point_reads_stdin():
    result = subprocess.run(
        [sys.executable, "-m", "dualfit", "stats", "--format", "csv"],
        input=REFERENCE_CSV.read_bytes(),
        capture_output=True,
        env=src_env(),
        timeout=60,
    )
    assert result.returncode == 0
    out = result.stdout.decode()
    assert out.splitlines()[0] == "n,x_bar,y_bar,s_xx,s_yy,s_xy,rho"
    assert "0.5773502692" in out

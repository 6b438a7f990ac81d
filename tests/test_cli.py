"""CSV parsing, subcommands, output formats, and exit codes."""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dualfit import Dataset, FitConfig, OracleReport, SufficientStats, compute_stats, fit
from dualfit import cli
from dualfit.cli import EXIT_FIT, EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main, parse_csv
from dualfit.errors import InvalidInput, ParseError

from conftest import dualfit_peak_mb, random_dataset, src_env

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


def test_parse_rejects_a_source_that_is_not_text_bytes_or_a_file():
    with pytest.raises(InvalidInput, match="^unsupported CSV source type int$"):
        parse_csv(123)


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


def test_cli_reads_a_pipe_named_by_input():
    # a pipe cannot seek; it is read forward in blocks, as any input is
    result = subprocess.run(
        [sys.executable, "-m", "dualfit", "stats", "--input", "/dev/stdin"],
        input=PERFECT_CSV.encode(),
        capture_output=True,
        env=src_env(),
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (EXIT_OK, b"")
    assert result.stdout.splitlines()[0].split() == [b"n", b"3"]


# ---- fit / stats -------------------------------------------------------------


def _run_json(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_run_fit_reference(capsys):
    argv = ["fit", "--input", str(REFERENCE_CSV), "--gamma", "0.9", "--format", "json"]
    code, report = _run_json(argv, capsys)
    assert code == EXIT_OK
    assert report["beta1"] == pytest.approx(0.6612, abs=5e-4)
    assert report["beta0"] == pytest.approx(-0.0806, abs=5e-4)
    assert report["bound_lower"] == pytest.approx(0.5, abs=1e-9)
    assert report["bound_upper"] == pytest.approx(1.5, abs=1e-9)
    assert "candidate_roots" not in report
    assert report["rho"] == pytest.approx(0.5773502692, abs=1e-9)


def test_run_fit_perfect_line(tmp_path, capsys):
    argv = ["fit", "--input", _write(tmp_path, PERFECT_CSV), "--gamma", "0.3", "--format", "json"]
    code, report = _run_json(argv, capsys)
    assert code == EXIT_OK
    assert report["beta1"] == pytest.approx(2.0, abs=1e-9)
    assert report["beta0"] == pytest.approx(1.0, abs=1e-9)
    assert report["sse"] == pytest.approx(0.0, abs=1e-15)


def test_run_stats_csv_shape(capsys):
    code = main(["stats", "--input", str(REFERENCE_CSV), "--format", "csv"])
    assert code == EXIT_OK
    header, values = capsys.readouterr().out.splitlines()
    assert header == "n,x_bar,y_bar,s_xx,s_yy,s_xy,rho"
    cells = values.split(",")
    assert cells[0] == "4"
    assert cells[6] == "0.5773502692"


def test_run_fit_degenerate_exits_3(tmp_path, capsys):
    assert main(["fit", "--input", _write(tmp_path, "x,y\n1,0\n1,1\n1,2\n")]) == EXIT_FIT
    assert "DegenerateData" in capsys.readouterr().err


def test_run_fit_missing_file_exits_2(tmp_path, capsys):
    assert main(["fit", "--input", str(tmp_path / "nope.csv")]) == EXIT_INPUT
    assert "FileNotFoundError" in capsys.readouterr().err


def test_run_fit_malformed_exits_2(tmp_path, capsys):
    assert main(["fit", "--input", _write(tmp_path, "x,y\n0,0\n1,abc\n")]) == EXIT_INPUT
    assert "ParseError" in capsys.readouterr().err


def test_output_is_deterministic(capsys):
    argv = ["fit", "--input", str(REFERENCE_CSV), "--gamma", "0.37", "--format", "json"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first


# ---- sweep ---------------------------------------------------------------------


def test_run_sweep_three_steps(capsys):
    argv = ["sweep", "--input", str(REFERENCE_CSV), "--steps", "3", "--format", "json"]
    code, payload = _run_json(argv, capsys)
    assert code == EXIT_OK
    rows = payload["rows"]
    assert [row["gamma"] for row in rows] == [0.0, 0.5, 1.0]
    assert rows[0]["beta1"] == 1.5
    assert rows[1]["beta1"] == pytest.approx(0.9037934218529561, abs=1e-6)
    assert rows[2]["beta1"] == 0.5


def test_run_sweep_perfect_line_constant(tmp_path, capsys):
    argv = ["sweep", "--input", _write(tmp_path, PERFECT_CSV), "--steps", "5", "--format", "json"]
    code, payload = _run_json(argv, capsys)
    assert code == EXIT_OK
    for row in payload["rows"]:
        assert row["beta1"] == pytest.approx(2.0, abs=1e-9)


def test_run_sweep_stays_inside_bounds(capsys):
    argv = ["sweep", "--input", str(REFERENCE_CSV), "--steps", "101", "--format", "json"]
    code, payload = _run_json(argv, capsys)
    assert code == EXIT_OK
    slopes = [row["beta1"] for row in payload["rows"]]
    assert len(slopes) == 101
    assert slopes[0] == 1.5 and slopes[-1] == 0.5
    for beta1 in slopes:
        assert 0.5 * (1.0 - 1e-6) <= beta1 <= 1.5 * (1.0 + 1e-6)
    # and they fall as gamma rises
    assert all(a >= b for a, b in zip(slopes, slopes[1:]))


# ---- predict / inverse ----------------------------------------------------------


def test_predict_inverse_round_trip(capsys):
    base = ["--input", str(REFERENCE_CSV), "--gamma", "0.9", "--format", "json"]
    code = main(["predict", *base, "--value", "2.0"])
    assert code == EXIT_OK
    y = json.loads(capsys.readouterr().out)["value"]
    code = main(["inverse", *base, f"--value={y!r}"])
    assert code == EXIT_OK
    x = json.loads(capsys.readouterr().out)["value"]
    # both legs print at 10 significant digits, so allow a few quanta
    assert x == pytest.approx(2.0, abs=5e-9)


def test_inverse_at_intercept_is_zero(capsys):
    line = fit(parse_csv(REFERENCE_CSV.read_text()), FitConfig(gamma=0.9))
    argv = ["inverse", "--input", str(REFERENCE_CSV), "--gamma", "0.9", "--format", "json"]
    assert main([*argv, f"--value={line.beta0!r}"]) == EXIT_OK
    x = json.loads(capsys.readouterr().out)["value"]
    assert x == pytest.approx(0.0, abs=1e-9)


# a slope of about 1.04, and one of about 1e-10
SLOPED_CSV = "x,y\n0,0\n1,1.1\n2,2\n3,3.2\n"
FLAT_CSV = "x,y\n0,0\n1,1e-10\n2,3e-10\n3,2e-10\n"


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize(
    "command, text, value",
    [
        ("predict", SLOPED_CSV, "1.79e308"),
        ("predict", SLOPED_CSV, "-1.79e308"),
        ("inverse", FLAT_CSV, "1e306"),
        ("inverse", FLAT_CSV, "-1e306"),
    ],
)
def test_non_finite_result_exits_3(tmp_path, capsys, command, text, value, fmt):
    argv = [command, "--input", _write(tmp_path, text), f"--value={value}", "--format", fmt]
    assert main(argv) == EXIT_FIT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("OutOfRange: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("text, value", [("-1e3", -1e3), ("-2.5e-3", -2.5e-3), ("-2.5", -2.5)])
def test_value_takes_a_negative_number_in_any_form(capsys, text, value):
    base = ["--input", str(REFERENCE_CSV), "--gamma", "0.9", "--format", "json"]
    assert main(["predict", *base, "--value", text]) == EXIT_OK
    got = json.loads(capsys.readouterr().out)["value"]
    assert main(["predict", *base, f"--value={value!r}"]) == EXIT_OK
    assert got == json.loads(capsys.readouterr().out)["value"]


def test_value_without_its_argument_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["predict", "--input", str(REFERENCE_CSV), "--value", "--format", "json"])
    assert excinfo.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


# ---- verify ----------------------------------------------------------------------


def test_run_verify_reference(capsys):
    argv = ["verify", "--input", str(REFERENCE_CSV), "--gamma", "0.9", "--format", "json"]
    code, report = _run_json(argv, capsys)
    assert code == EXIT_OK
    assert report["status"] == "ok"
    assert report["abs_gap"] <= 1e-6 * (1.0 + abs(report["quartic_slope"]))
    assert report["gradient_max_rel_err"] <= 1e-6


def test_run_verify_perfect_line(tmp_path, capsys):
    assert main(["verify", "--input", _write(tmp_path, PERFECT_CSV), "--gamma", "0.5"]) == EXIT_OK


def test_run_verify_random_csv(tmp_path, capsys):
    rng = np.random.default_rng(1234)
    data = random_dataset(rng, n=60)
    lines = ["x,y"] + [f"{float(x)!r},{float(y)!r}" for x, y in zip(data.x, data.y)]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    argv = ["verify", "--input", path, "--gamma", "0.37", "--format", "json"]
    code, report = _run_json(argv, capsys)
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
    # the bracket is a few ulps either side, so at 10 digits its ends print as the slope
    assert report["bracket_lower"] <= report["quartic_slope"] <= report["bracket_upper"]


def test_run_verify_failure_exits_4(monkeypatch, capsys):
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
    argv = ["verify", "--input", str(REFERENCE_CSV), "--gamma", "0.9", "--format", "json"]
    assert main(argv) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "fail"
    assert "0.5" in captured.err and "1.5" in captured.err
    assert "VerificationFailure" in captured.err


# ---- the names the benchmark traces ------------------------------------------------


def test_commands_look_up_the_traced_names(monkeypatch, tmp_path, capsys):
    # bench/layers.py spans module globals of dualfit.cli.  The commands run
    # on the kernel, so its spans on cli.fit_stats and cli.verify_fit find
    # no call; every command still looks up the kernel's solver, and verify
    # the certificate, through their modules at call time
    from dualfit import oracle

    assert not hasattr(cli, "fit_stats") and not hasattr(cli, "verify_fit")
    calls = dict.fromkeys(["parse_csv", "_solver", "certify"], 0)

    def counting(module, name):
        original = getattr(module, name)

        def stand_in(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return stand_in

    for name in calls:
        module = oracle if name == "certify" else cli
        monkeypatch.setattr(module, name, counting(module, name))
    built = []
    real_post_init = Dataset.__post_init__

    def counting_post_init(self):
        built.append(self)
        real_post_init(self)

    monkeypatch.setattr(Dataset, "__post_init__", counting_post_init)
    ref = str(REFERENCE_CSV)
    for argv in (
        ["fit", "--input", ref],
        ["verify", "--input", ref],
        ["predict", "--input", ref, "--value", "2"],
        ["inverse", "--input", ref, "--value", "0.25"],
    ):
        assert main(argv) == EXIT_OK, argv
    capsys.readouterr()
    assert calls["_solver"] == 4 and calls["certify"] == 1
    # a row wider than the rest leaves its block to the row parse, and the
    # command reads that block row by row itself, building no Dataset
    rows = "".join(f"{i},{i % 7}\n" for i in range(cli._RUN_ROWS))
    text = "x,y\n" + rows + "1,1,z\n"
    assert main(["stats", "--input", _write(tmp_path, text)]) == EXIT_OK
    n = cli._RUN_ROWS + 1
    assert capsys.readouterr().out.splitlines()[0].split() == ["n", str(n)]
    assert calls["parse_csv"] == len(built) == 0


# ---- no command imports numpy -------------------------------------------------------

# runs dualfit in a fresh process and reports whether numpy was imported;
# with "without-numpy" first, importing numpy raises ImportError
_MAIN_REPORTING_NUMPY = """
import sys
if sys.argv[1] == "without-numpy":
    sys.modules["numpy"] = None
from dualfit.cli import main
code = main(sys.argv[2:])
sys.stdout.flush()
sys.stderr.write(f"numpy imported: {sys.modules.get('numpy') is not None}\\n")
sys.exit(code)
"""


def _main_reporting_numpy(mode: str, *args: str, stdin: bytes | None = None):
    return subprocess.run(
        [sys.executable, "-c", _MAIN_REPORTING_NUMPY, mode, *args],
        input=stdin,
        capture_output=True,
        env=src_env(),
        timeout=120,
    )


def _table(n: int) -> str:
    # a noisy line of slope about 1/2 through about (0, 0), small enough for
    # the verify gate; the first n of the same rows for every n
    return "x,y\n" + "".join(
        f"{(i % 211 - 105) / 7000!r},{(i % 211 - 105) / 14000 + (i * 37 % 101 - 50) / 1300000!r}\n"
        for i in range(n)
    )


_COMMANDS = [
    ["fit"],
    ["verify"],
    ["stats"],
    ["predict", "--value", "2"],
    ["inverse", "--value", "2"],
    ["sweep", "--steps", "10001"],
]


def test_help_runs_without_numpy():
    result = _main_reporting_numpy("without-numpy", "--help")
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout.startswith(b"usage: dualfit")


@pytest.mark.parametrize("source", ["2 rows", "one block", "one block from a pipe"])
@pytest.mark.parametrize("command", _COMMANDS, ids=lambda command: command[0])
def test_one_block_of_input_runs_without_numpy(tmp_path, command, source):
    # "one block" is one run of the statistics, read in blocks of fewer lines
    text = _table(2 if source == "2 rows" else cli._RUN_ROWS)
    if source.endswith("pipe"):
        result = _main_reporting_numpy("without-numpy", *command, stdin=text.encode())
    else:
        path = _write(tmp_path, text)
        result = _main_reporting_numpy("without-numpy", *command, "--input", path)
    assert (result.returncode, result.stderr) == (0, b"numpy imported: False\n")
    assert result.stdout


# runs "import dualfit", then a command, in a fresh process, and reports
# whether the oracle was imported after each
_MAIN_REPORTING_ORACLE = """
import sys
import dualfit
after_import = "dualfit.oracle" in sys.modules
from dualfit.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
after_command = "dualfit.oracle" in sys.modules
sys.stderr.write(f"oracle imported: {after_import} {after_command}\\n")
sys.exit(code)
"""


@pytest.mark.parametrize("command, imported", [("fit", False), ("verify", True)])
def test_only_verify_imports_the_oracle(command, imported):
    result = subprocess.run(
        [sys.executable, "-c", _MAIN_REPORTING_ORACLE, command, "--input", str(REFERENCE_CSV)],
        capture_output=True,
        env=src_env(),
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stderr == f"oracle imported: False {imported}\n".encode()


# ---- no records, dataclasses or typing on the command's path ----------------------

# runs dualfit in a fresh process in which importing dataclasses raises ImportError
_MAIN_WITHOUT_DATACLASSES = """
import sys
sys.modules["dataclasses"] = None
from dualfit.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
sys.exit(code)
"""


@pytest.mark.parametrize("source", ["2 rows", "one block", "one block from a pipe"])
@pytest.mark.parametrize("command", _COMMANDS, ids=lambda command: command[0])
def test_every_command_runs_without_dataclasses(tmp_path, capsys, command, source):
    text = _table(2 if source == "2 rows" else cli._RUN_ROWS)
    path = _write(tmp_path, text)
    assert main([*command, "--input", path]) == EXIT_OK
    printed = capsys.readouterr().out
    argv = [sys.executable, "-c", _MAIN_WITHOUT_DATACLASSES, *command]
    if source.endswith("pipe"):
        stdin = text.encode()
    else:
        argv, stdin = [*argv, "--input", path], None
    result = subprocess.run(argv, input=stdin, capture_output=True, env=src_env(), timeout=120)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout.decode() == printed


# imports dualfit in a fresh process, reports which of these modules that
# loaded, then resolves public names the three ways a caller can
_IMPORT_REPORTING_MODULES = """
import sys
import dualfit
print(sorted(m for m in ("dataclasses", "dualfit.core", "dualfit.oracle") if m in sys.modules))
print(dualfit.fit.__module__, dualfit.FittedLine.__module__)
from dualfit import *
print(all(name in globals() for name in dualfit.__all__))
print(set(dualfit.__all__) <= set(dir(dualfit)))
"""


def test_import_dualfit_loads_no_records_until_a_name_is_used():
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_REPORTING_MODULES],
        capture_output=True,
        env=src_env(),
        timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout.decode().splitlines() == [
        "[]",
        "dualfit.core dualfit.core",
        "True",
        "True",
    ]


def test_a_name_dualfit_does_not_export_is_an_attribute_error():
    import dualfit

    with pytest.raises(AttributeError) as excinfo:
        dualfit.nope
    assert str(excinfo.value) == "module 'dualfit' has no attribute 'nope'"
    assert not hasattr(dualfit, "nope")


def test_dir_dualfit_is_sorted_and_lists_every_public_name():
    import dualfit

    names = dir(dualfit)
    assert names == sorted(names)
    assert set(dualfit.__all__) <= set(names)


# runs dualfit under python -S, which imports no site module: a .pth file
# in site-packages may import typing itself
_MAIN_REPORTING_TYPING = """
import sys
from dualfit.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(f"typing imported: {'typing' in sys.modules}\\n")
sys.exit(code)
"""


def test_a_one_block_fit_imports_no_typing(tmp_path):
    path = _write(tmp_path, _table(cli._RUN_ROWS))
    result = subprocess.run(
        [sys.executable, "-S", "-c", _MAIN_REPORTING_TYPING, "fit", "--input", path],
        capture_output=True,
        env=src_env(),
        timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, b"typing imported: False\n")
    assert result.stdout.startswith(b"n ")


# the statistics and output of _table(8193), read as a run of 8192 rows and
# one of 1: each mean is within 0.2 ulps of the largest |x| or |y| of its
# exact value, s_xx and s_yy are 1 ulp below theirs and s_xy is exact
_TWO_BLOCK_STATS = (
    "SufficientStats(n=8193, x_bar=-5.492493592090782e-05, y_bar=-2.7469697396464004e-05, "
    "s_xx=0.617323855207407, s_yy=0.1543344560765797, s_xy=0.30866129819661114, "
    "rho=0.999986646829223)"
)
_TWO_BLOCK_FIT = """{
  "n": 8193,
  "x_bar": -5.492493592e-05,
  "y_bar": -2.74696974e-05,
  "s_xx": 0.6173238552,
  "s_yy": 0.1543344561,
  "s_xy": 0.3086612982,
  "rho": 0.9999866468,
  "gamma": 0.5,
  "beta0": -6.698694871e-09,
  "beta1": 0.500009663,
  "sse": 1.030406045e-05,
  "bound_lower": 0.4999989804,
  "bound_upper": 0.5000123338,
  "root_residual": 2.597286512e-17
}
"""


def test_input_longer_than_one_block_keeps_its_bits_without_numpy(tmp_path):
    assert cli._RUN_ROWS + 1 == 8193
    path = _write(tmp_path, _table(cli._RUN_ROWS + 1))
    with open(path, "rb") as fh:
        assert repr(SufficientStats(*cli._read_stats(fh, None, None)())) == _TWO_BLOCK_STATS
    result = _main_reporting_numpy("with-numpy", "fit", "--input", path, "--format", "json")
    assert (result.returncode, result.stderr) == (0, b"numpy imported: False\n")
    assert result.stdout.decode() == _TWO_BLOCK_FIT


@pytest.mark.parametrize("source", ["file", "pipe"])
@pytest.mark.parametrize(
    "command", [["fit"], ["stats"], ["sweep", "--steps", "101"]], ids=lambda command: command[0]
)
def test_three_blocks_run_without_numpy(tmp_path, command, source):
    text = _table(2 * cli._RUN_ROWS + 100)  # three runs
    modes = ("without-numpy", "with-numpy")
    if source == "pipe":
        runs = [_main_reporting_numpy(mode, *command, stdin=text.encode()) for mode in modes]
    else:
        path = _write(tmp_path, text)
        runs = [_main_reporting_numpy(mode, *command, "--input", path) for mode in modes]
    for result in runs:
        assert (result.returncode, result.stderr) == (0, b"numpy imported: False\n")
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout


def test_each_row_is_parsed_once(monkeypatch, tmp_path, capsys):
    # the csv module reads the header and the first data row; the split path
    # reads the rest
    parsed = {"csv": 0, "split": 0}
    real_reader, real_block_columns = csv.reader, cli._block_columns

    class CountingReader:
        def __init__(self, *args, **kwargs):
            self._reader = real_reader(*args, **kwargs)

        def __iter__(self):
            return self

        def __next__(self):
            row = next(self._reader)
            parsed["csv"] += 1
            return row

        @property
        def line_num(self):
            return self._reader.line_num

    def counting_block_columns(*args):
        values = real_block_columns(*args)
        parsed["split"] += 0 if values is None else len(values[0])
        return values

    monkeypatch.setattr(csv, "reader", CountingReader)
    monkeypatch.setattr(cli, "_block_columns", counting_block_columns)
    n = 2 * cli._RUN_ROWS + 100  # three runs, in many blocks
    assert main(["stats", "--input", _write(tmp_path, _table(n))]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0].split() == ["n", str(n)]
    assert parsed == {"csv": 2, "split": n - 1}, parsed
    # an input error in the last row of the last block: the split path
    # refuses that block alone, and the rows before the error are not read
    # again to find an error the text holds before it
    parsed.update(csv=0, split=0)
    n = 8001
    text = _table(n - 1) + "1,abc\n"
    assert main(["stats", "--input", _write(tmp_path, text)]) == EXIT_INPUT
    error = f"ParseError: line {n + 1}: could not parse 'abc' as a number\n"
    assert capsys.readouterr().err == error
    last = (n - 1) % cli._BLOCK_LINES or cli._BLOCK_LINES  # the lines of the last block
    assert parsed == {"csv": last + 2, "split": n - 1 - last}, parsed
    # a block the split path refuses, for a row wider than the rest, is read
    # by the row parse alone: the split path reads the blocks around it
    parsed.update(csv=0, split=0)
    n = 4 * cli._RUN_ROWS
    lines = _table(n).splitlines(keepends=True)
    lines[9000] = "1,3,z\n"  # data row 9000, inside a block after the first
    assert main(["stats", "--input", _write(tmp_path, "".join(lines))]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0].split() == ["n", str(n)]
    assert parsed == {"csv": cli._BLOCK_LINES + 2, "split": n - cli._BLOCK_LINES - 1}, parsed


# ---- argument handling ------------------------------------------------------------


def test_cli_config_validation(capsys):
    for argv in (
        ["teleport"],
        ["fit", "--gamma", "1.5"],
        ["sweep", "--steps", "1"],
        ["fit", "--format", "yaml"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--input", str(REFERENCE_CSV)])
        assert excinfo.value.code == 2, argv


def test_main_predict_requires_value(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["predict", "--input", str(REFERENCE_CSV)])
    assert excinfo.value.code == 2


def test_main_rejects_out_of_range_gamma(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fit", "--input", str(REFERENCE_CSV), "--gamma", "1.5"])
    assert excinfo.value.code == 2


def test_main_rejects_a_gamma_that_is_not_a_number(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fit", "--input", str(REFERENCE_CSV), "--gamma", "abc"])
    assert excinfo.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.endswith(": error: argument --gamma: gamma must be a number, got 'abc'")


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


# ---- standard input and output -------------------------------------------------------


def _shell(command: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``sh -c command`` where ``"$@"`` is ``python -m dualfit ARGS``."""
    return subprocess.run(
        ["sh", "-c", command, "sh", sys.executable, "-m", "dualfit", *args],
        capture_output=True,
        env=src_env(),
        timeout=60,
    )


def _rows_csv(path: Path, n: int, seed: int) -> Path:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-5.0, 5.0, n)
    y = 2.0 * x + rng.standard_normal(n)
    path.write_text("x,y\n" + "".join(map("{!r},{!r}\n".format, x.tolist(), y.tolist())))
    return path


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_standard_input_from_a_file_is_read_in_blocks(tmp_path):
    # read whole, the 2e5 rows (8 MB of text) would stay in memory
    small_csv = _rows_csv(tmp_path / "small.csv", 20_000, 1)
    code, small = dualfit_peak_mb("stats", "--input", str(small_csv))
    assert code == EXIT_OK
    large_csv = _rows_csv(tmp_path / "large.csv", 200_000, 2)
    with open(large_csv, "rb") as fh:
        code, large = dualfit_peak_mb("stats", stdin=fh)
    assert code == EXIT_OK
    assert large - small <= 2.0, (small, large)
    # a pipe, which cannot seek, is read in the same blocks
    writer = subprocess.Popen(["cat", str(large_csv)], stdout=subprocess.PIPE)
    with writer:
        code, piped = dualfit_peak_mb("stats", stdin=writer.stdout)
    assert (code, writer.returncode) == (EXIT_OK, 0)
    assert piped - small <= 2.0, (small, piped)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_invalid_utf8_in_the_last_row_is_placed_in_flat_memory(tmp_path):
    # the error names the byte's position in the whole text, which is not
    # decoded whole to find it
    clean_csv = _rows_csv(tmp_path / "large.csv", 200_000, 2)
    raw = clean_csv.read_bytes()
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_bytes(raw[:-2] + b"\xff\n")  # the last digit of the last row
    with pytest.raises(UnicodeDecodeError) as excinfo:
        bad_csv.read_bytes().decode("utf-8")
    assert excinfo.value.start == len(raw) - 2
    args = [sys.executable, "-m", "dualfit", "stats", "--input", str(bad_csv)]
    result = subprocess.run(args, capture_output=True, env=src_env(), timeout=120)
    assert result.returncode == EXIT_INPUT
    assert result.stderr.decode() == f"InvalidInput: input is not valid UTF-8: {excinfo.value}\n"
    code, clean = dualfit_peak_mb("stats", "--input", str(clean_csv))
    assert code == EXIT_OK
    code, bad = dualfit_peak_mb("stats", "--input", str(bad_csv))
    assert code == EXIT_INPUT
    assert bad - clean <= 2.0, (clean, bad)


@pytest.mark.parametrize("header", ["", "x,y\n"])
# a row wider than the rest leaves its block to the row parse
@pytest.mark.parametrize("cell", ["3", "1_0", "4,z"])
def test_standard_input_is_read_from_its_offset(tmp_path, header, cell):
    # rows before the offset would change every statistic if they were read
    skipped = "50,-50\n" * 3
    rest = header + f"0,1\n1,3\n2,{cell}\n3,4.5\n"
    whole = tmp_path / "whole.csv"
    whole.write_text(skipped + rest)
    args = [sys.executable, "-m", "dualfit", "stats", "--format", "json"]
    with open(whole, "rb") as fh:
        fh.seek(len(skipped))
        from_offset = subprocess.run(
            args, stdin=fh, capture_output=True, env=src_env(), timeout=60
        )
    alone = subprocess.run(
        [*args, "--input", _write(tmp_path, rest, "rest.csv")],
        capture_output=True,
        env=src_env(),
        timeout=60,
    )
    assert (from_offset.returncode, from_offset.stderr) == (EXIT_OK, b"")
    assert from_offset.stdout == alone.stdout
    assert json.loads(from_offset.stdout)["n"] == 4


def test_refused_block_is_read_again_from_the_offset(tmp_path):
    # a row wider than the rest leaves the last block to the row parse,
    # which reads it from the block's text, read from the offset: to the
    # statistics of the block the split path reads when the row is as wide
    # as the rest, its x written 10 or 1_0
    skipped = "50,-50\n" * 3
    stats = {}
    for row in ("10,5,z", "1_0,5", "10,5"):
        whole = tmp_path / "whole.csv"
        whole.write_text(skipped + _table(cli._RUN_ROWS) + f"{row}\n")
        with open(whole, "rb") as fh:
            fh.seek(len(skipped))
            stats[row] = cli._read_stats(fh, None, None)()
    assert stats["10,5,z"] == stats["1_0,5"] == stats["10,5"]
    assert stats["10,5"].n == cli._RUN_ROWS + 1


def test_line_numbers_carry_across_a_refused_block(tmp_path, capsys):
    # the split path refuses the block of data row 9000 (a row wider than
    # the rest) and that of data row 20000 (a blank line), whose \r\n row
    # and quoted line break the line count must take in; the row parse finds
    # abc in a later block
    lines = _table(40_000).splitlines(keepends=True)
    lines[9000] = "1_0,3,z\n"
    lines[20_000] = "5,6\r\n"
    lines[20_001] = "\n" + lines[20_001]
    lines[20_002] = '7,8,"multi\nline"\n'
    lines[30_000] = "abc,1\n"
    text = "".join(lines)
    with pytest.raises(ParseError) as excinfo:
        parse_csv(text)
    assert excinfo.value.line == 30_003
    assert main(["stats", "--input", _write(tmp_path, text)]) == EXIT_INPUT
    error = "ParseError: line 30003: could not parse 'abc' as a number\n"
    assert capsys.readouterr().err == error


@pytest.mark.skipif(not hasattr(os, "openpty"), reason="needs a pseudo-terminal")
def test_a_terminal_is_read_to_its_one_end_of_input():
    # a terminal ends its input once, at a ^D typed at the start of a line;
    # a read past it would wait for the user again
    controller, terminal = os.openpty()
    args = [sys.executable, "-m", "dualfit", "stats", "--format", "csv"]
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    with subprocess.Popen(args, stdin=terminal, env=src_env(), **pipes) as proc:
        os.close(terminal)
        try:
            os.write(controller, b"x,y\n0,0\n1,2\n2,3\n\x04")
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
            os.close(controller)
    assert (proc.returncode, err) == (EXIT_OK, b"")
    assert out.decode().splitlines()[1].startswith("3,1,1.666666667,2,")


def test_closed_standard_input_exits_2_with_one_line():
    result = _shell('exec "$@" <&-', "stats")
    assert result.returncode == EXIT_INPUT
    assert result.stderr.decode().splitlines() == ["OSError: standard input is closed"]


@pytest.mark.parametrize(
    "args", [["fit"], ["sweep"], ["sweep", "--steps", "10001", "--format", "csv"]]
)
@pytest.mark.parametrize("redirect", [">&-", ">/dev/full"])
def test_unwritable_standard_output_exits_2_with_one_line(args, redirect):
    if redirect == ">/dev/full" and not Path("/dev/full").exists():
        pytest.skip("no /dev/full")
    result = _shell(f'exec "$@" {redirect}', *args, "--input", str(REFERENCE_CSV))
    assert result.returncode == EXIT_INPUT
    lines = result.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("OSError: "), lines

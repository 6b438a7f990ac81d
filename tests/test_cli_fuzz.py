"""``dualfit`` keeps its exit-code contract on drawn arguments and input bytes.

Every run ends in exit 0, 2, 3 or 4, with no traceback and no warning.  A
run that fails says why in one line on standard error; when argparse
refuses the arguments, that line follows argparse's usage text.  A run
that succeeds prints nothing there.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
import warnings

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from dualfit.cli import main

_JUNK = st.sampled_from(["", "x", "1_0", "0x1p-3", " 2 ", "1e400", "5e-324", "nan", "-inf", '"'])
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True).map(repr)
_PLAIN_FLOAT = st.floats(-1e6, 1e6).map(repr)
_CELL = st.one_of(_PLAIN_FLOAT, _ANY_FLOAT, _JUNK)


def _often(common, rare):
    """``common`` three times in four, else ``rare``."""
    return st.integers(0, 3).flatmap(lambda k: rare if k == 3 else common)


_HEADER = st.lists(st.sampled_from(["x,y", "a,b", "x", '"x","y"', "y,x,z"]), max_size=1)
# clean rows of two numbers, which get as far as a fit, or rows of any cells
_ROWS = _often(
    st.lists(st.tuples(_PLAIN_FLOAT, _PLAIN_FLOAT).map(",".join), min_size=2, max_size=12),
    st.lists(st.lists(_CELL, max_size=3).map(",".join), max_size=12),
)
_CSV_TEXT = st.builds(lambda header, rows: "".join(f"{r}\n" for r in header + rows), _HEADER, _ROWS)
_INPUT = _often(_CSV_TEXT.map(str.encode), st.binary(max_size=120))


@st.composite
def _argv(draw) -> list[str]:
    def value(valid, invalid):
        # one value in ten is one argparse may refuse
        return draw(invalid if draw(st.integers(0, 9)) == 9 else valid)

    command = draw(st.sampled_from(["fit", "sweep", "predict", "inverse", "stats", "verify"]))
    argv = [command]
    bad_number = st.one_of(_ANY_FLOAT, _JUNK)
    if draw(st.booleans()):
        argv.append(f"--gamma={value(st.floats(0.0, 1.0).map(repr), bad_number)}")
    if draw(st.booleans()):
        argv.append(f"--steps={value(st.integers(2, 40).map(str), st.sampled_from(['1', '2.5']))}")
    if command in ("predict", "inverse") or draw(st.booleans()):
        argv.append(f"--value={value(_PLAIN_FLOAT, bad_number)}")
    if draw(st.booleans()):
        argv.append(f"--format={draw(st.sampled_from(['table', 'json', 'csv']))}")
    if draw(st.integers(0, 4)) == 4:
        argv.append(f"--x-col={draw(st.sampled_from(['x', 'y', '0', '1', '2', 'z']))}")
    if draw(st.booleans()):
        argv.append("--reflect-negative")
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv(), data=_INPUT)
def test_every_run_keeps_the_exit_code_contract(argv, data):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "input.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        with warnings.catch_warnings(), contextlib.redirect_stdout(out):
            warnings.simplefilter("error")  # a warning is raised, and fails the run
            try:
                with contextlib.redirect_stderr(err):
                    code = main([*argv, "--input", path])
            except SystemExit as exc:  # argparse refused the arguments
                event("argparse refused")
                assert exc.code == 2
                assert err.getvalue().splitlines()[-1].startswith("dualfit: error: ")
                return
    event(f"exit {code}")
    assert code in (0, 2, 3, 4)
    message = err.getvalue()
    assert "Traceback" not in message
    if code == 0:
        assert message == ""
    else:
        assert message.count("\n") == 1 and message.endswith("\n"), message

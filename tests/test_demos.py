"""Every demo script runs to completion against the package in ``src``, and
README's library example shows what its lines give."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script, tmp_path):
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=src_env(),
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert b"Traceback" not in result.stderr


def _library_use_blocks() -> list[str]:
    """The python blocks of README's "Library use" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```", section, flags=re.DOTALL | re.MULTILINE)


def test_readme_library_example_prints_what_it_says():
    # each line `expr  # <value>` shows repr(expr), a number or True/False
    blocks = _library_use_blocks()
    assert blocks
    namespace: dict = {}
    checked = 0
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
        for line in block.splitlines():
            expr, _, comment = line.partition("  #")
            shown = re.match(r"\s*(-?\d[\w.+-]*|True|False)\b", comment)
            if shown:
                assert repr(eval(expr, namespace)) == shown.group(1), line
                checked += 1
    assert checked >= 3

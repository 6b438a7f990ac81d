"""One ``dualfit`` CLI call with spans on each layer.

Usage: ``python3 bench/traced_cli.py SPANS -- ARGS...`` runs
``dualfit ARGS...`` as ``python -m dualfit`` would, with a ``cli.main`` span
around ``dualfit.cli.main`` and spans on the functions it calls, and writes
the spans to ``SPANS.npz`` and ``SPANS.json`` when the call ends.
"""

from __future__ import annotations

import sys
from pathlib import Path

import dualfit.cli
from layers import install_cli
from spans import Tracer


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer()
    install_cli(tracer)
    try:
        return tracer.span("cli.main", dualfit.cli.main, sys.argv[3:])
    finally:
        sys.stdout.flush()
        tracer.save(Path(sys.argv[1]))


if __name__ == "__main__":
    raise SystemExit(main())

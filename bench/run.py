"""dualfit benchmark.

Usage, from the root of the repository:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ingest-250k, cli-calls, lib-fits (see README.md).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The program is taken from ``src/`` of
this checkout, never from an installed copy.
"""

from __future__ import annotations

import os
import sys

# pin BLAS threads before numpy is imported, here and in every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import tempfile
from pathlib import Path

from spawn import Spawner

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {"setup_s": "s", "latency_ms": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def _args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ingest-250k", "cli-calls", "lib-fits"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _import_program() -> None:
    sys.path.insert(0, str(SRC))
    import dualfit

    if Path(dualfit.__file__).resolve().parent != SRC / "dualfit":
        sys.exit(f"imported dualfit from {dualfit.__file__}, not from {SRC}")


def main() -> int:
    args = _args()
    if args.seconds <= 0:
        sys.exit("--seconds must be positive")
    if not (SRC / "dualfit" / "__init__.py").is_file():
        sys.exit(f"no dualfit package under {SRC}")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # the helper starts while this process is small: see spawn.py
    with Spawner(env, str(ROOT)) as spawner, tempfile.TemporaryDirectory(
        prefix=".work-", dir=BENCH
    ) as work:
        _import_program()  # numpy and dualfit load only once the helper is up
        import workloads

        traces = BENCH / ".traces" / args.workload
        if args.trace:
            shutil.rmtree(traces, ignore_errors=True)
            traces.mkdir(parents=True)
        ctx = workloads.Context(
            spawner=spawner,
            work=Path(work),
            traces=traces,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
        )
        run = {
            "ingest-250k": workloads.ingest_250k,
            "cli-calls": workloads.cli_calls,
            "lib-fits": workloads.lib_fits,
        }[args.workload]
        values = run(ctx)

    units = workloads.layers.UNITS if args.trace else END_TO_END_UNITS
    for error in ctx.errors:
        print(f"WRONG {error}", file=sys.stderr)
    result = {
        "correct": not ctx.errors,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Run program processes one at a time and measure each on its own.

Linux folds the parent's resident-memory high-water mark into a child's
``ru_maxrss`` when the child is started by ``vfork``/``posix_spawn`` (which
``subprocess`` uses) and then calls ``exec``: a 30 MB ``dualfit`` call
started by a benchmark that holds a 250 MB input reads 250 MB.  So the
benchmark starts this small helper first, before it imports numpy or builds
any input, and every program process is started from here.  A child's
``ru_maxrss`` then carries at most this helper's own few megabytes as a
floor.  ``RUSAGE_CHILDREN`` is not used either: its maximum carries over
from one child to the next.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "stdout": path, "stderr": path}``; one JSON reply per line
on stdout, ``{"wall_s": float, "peak_rss_kb": int, "returncode": int}``.
Children inherit this helper's environment and working directory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

# a child still running after this long is killed and reported as failed
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class ChildResult:
    wall_s: float
    peak_rss_kb: int
    returncode: int


def _serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        # wait4 reaped the child; tell Popen so it does not wait again
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "peak_rss_kb": usage.ru_maxrss, "returncode": proc.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class Spawner:
    """Client side: owns the helper process and sends it one command at a time."""

    def __init__(self, env: dict[str, str], cwd: str):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=cwd,
            text=True,
        )

    def run(self, argv: list[str], stdout: str, stderr: str) -> ChildResult:
        request = {"argv": argv, "stdout": stdout, "stderr": stderr}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("process helper exited unexpectedly")
        return ChildResult(**json.loads(reply))

    def close(self) -> None:
        if self._proc.stdin and not self._proc.stdin.closed:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CHILD_TIMEOUT_S + 10.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    _serve()

"""Spans and counters recorded around the program's public functions.

A span is a name, a parent span, a start and an end.  Spans go on the module
attributes the program's callers look up (``dualfit.cli.parse_csv`` and the
like), so the program itself is not edited.  They are kept in memory, in flat
arrays so that a few million fit in tens of megabytes, and written out when
the run ends.  A span's self time is its duration minus the time its direct
child spans cover; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import resource
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = {}
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(value, self.peaks.get(name, value))

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        after: Callable | None = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``name`` may be a function of the call's arguments.  ``after`` is
        called as ``after(name, args, result)`` once a call returns, outside
        the span, to record counters.
        """
        perf_counter = time.perf_counter
        stack, name_ids, parents, t0, t1 = self._stack, self.name_id, self.parent, self.t0, self.t1
        fixed = None if callable(name) else self._id(name)

        def traced(*args, **kwargs):
            span_name = name if fixed is not None else name(*args, **kwargs)
            idx = len(t0)
            name_ids.append(fixed if fixed is not None else self._id(span_name))
            parents.append(stack[-1])
            t0.append(0.0)
            t1.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[idx] = perf_counter()
                t0[idx] = start
                stack.pop()
            if after is not None:
                after(span_name, args, result)
            return result

        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` under a span named ``name``."""
        return self.wrap(fn, name)(*args, **kwargs)

    def install(self, targets: list[tuple[object, str, object, Callable | None]]) -> Callable:
        """Replace module attributes by traced versions; returns the undo.

        An attribute the module no longer has is skipped, so a program that
        drops a function loses that span, not the traced run.
        """
        saved = []
        for module, attr, name, after in targets:
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, after))

        def restore():
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return restore

    # -- output ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "t0": np.frombuffer(self.t0, dtype=float).copy(),
            "t1": np.frombuffer(self.t1, dtype=float).copy(),
        }

    def save(self, path: Path) -> None:
        """Write spans to ``<path>.npz`` and names and counters to ``<path>.json``."""
        np.savez(str(path) + ".npz", **self.arrays())
        meta = {"names": self.names, "counters": dict(self.counters), "peaks": self.peaks}
        Path(str(path) + ".json").write_text(json.dumps(meta))


def load(path: Path) -> tuple[dict[str, np.ndarray], dict]:
    with np.load(str(path) + ".npz") as data:
        spans = {key: data[key] for key in data.files}
    meta = json.loads(Path(str(path) + ".json").read_text())
    return spans, meta


def peak_rss_mb() -> float:
    """This process's resident-memory high-water mark so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


class Totals:
    """Per-name span count, total duration and total self time, plus counters."""

    def __init__(self):
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = {}

    def add(self, spans: dict[str, np.ndarray], names: list[str], counters: dict, peaks: dict):
        duration = spans["t1"] - spans["t0"]
        parent = spans["parent"]
        covered = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        self_time = duration - covered
        ids = spans["name_id"]
        for nid, name in enumerate(names):
            mask = ids == nid
            self.count[name] += int(mask.sum())
            self.total[name] += float(duration[mask].sum())
            self.self_time[name] += float(self_time[mask].sum())
        for key, value in counters.items():
            self.counters[key] += value
        for key, value in peaks.items():
            self.peaks[key] = max(value, self.peaks.get(key, value))

    def add_tracer(self, tracer: Tracer) -> None:
        self.add(tracer.arrays(), tracer.names, tracer.counters, tracer.peaks)

    def mean(self, name: str, self_only: bool = False) -> float:
        n = self.count[name]
        if n == 0:
            return 0.0
        return (self.self_time if self_only else self.total)[name] / n

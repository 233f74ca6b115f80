"""Shared harness pieces: span recorder, statistics, registry reads.

Stdlib only and free of ``repro`` imports, so the worker can time
``import repro`` as part of ``setup_s``.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

SPINE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SPINE_DIR.parents[1]
RESULTS_DIR = SPINE_DIR / "results"
WORK_DIR = SPINE_DIR / ".work"


class Tracer:
    """Benchmark-side span recorder (name, start, end, parent, run id).

    Spans are kept in memory and written once at exit.  Disabled, every
    call is a no-op so the untraced run pays nothing but a branch.
    Nesting is tracked per thread; spans whose lifetimes interleave
    (outstanding requests of a closed loop) are added with
    :meth:`record` under an explicit parent.
    """

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def record(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        if not self.enabled:
            return -1
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                {"id": span_id, "run": self.run_id, "name": name,
                 "start": start, "end": end, "parent": parent}
            )
        return span_id

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = self.record(name, time.perf_counter(), 0.0, self.current())
        stack.append(span_id)
        try:
            yield
        finally:
            stack.pop()
            self.spans[span_id]["end"] = time.perf_counter()

    def wrap(self, name: str, fn):
        """``fn`` with a span around each call (identity when disabled)."""
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> dict[str, float]:
        """Self seconds by span name: duration minus the part of the
        interval covered by child spans (children may overlap)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append((span["start"], span["end"]))
        totals: dict[str, float] = {}
        for span in self.spans:
            covered, edge = 0.0, span["start"]
            for start, end in sorted(children.get(span["id"], ())):
                start, end = max(start, edge), min(end, span["end"])
                if end > start:
                    covered += end - start
                    edge = end
            duration = span["end"] - span["start"]
            totals[span["name"]] = totals.get(span["name"], 0.0) + duration - covered
        return totals

    def write(self, path: Path) -> None:
        if not self.enabled:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def layer_of(span_name: str) -> str:
    """``features:extract_feature_vecs`` -> ``features``."""
    return span_name.split(":", 1)[0]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def counter_total(registry, name: str, **labels: str) -> float:
    """Sum of a ``repro.obs`` counter over every label set matching ``labels``."""
    wanted = set(labels.items())
    return sum(
        value
        for (counter_name, labelset), value in registry.counters().items()
        if counter_name == name and wanted <= set(labelset)
    )


def steady_rate(started: float, finished: list[float], chunks: int = 10) -> float:
    """Completions per second as the median over equal chunks of a
    phase, so a burst of machine noise inside one chunk is discarded."""
    size = max(1, len(finished) // chunks)
    edges = [started] + [finished[i - 1] for i in range(size, len(finished) + 1, size)]
    return size / median([end - start for start, end in zip(edges, edges[1:])])

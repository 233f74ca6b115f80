"""Metric primitives and the registry that owns them.

Three instrument kinds, modeled on the Prometheus data model:

* :class:`Counter` — a monotonically increasing total (events, pairs,
  questions).  Decrementing is a programming error.
* :class:`Gauge` — a point-in-time value that moves both ways (queue
  depth, survival ratio).
* :class:`Histogram` — observations bucketed against *fixed* boundaries
  chosen at creation, plus a running sum and count; ``time()`` is the
  timer context manager used for node and join latencies.

A :class:`MetricsRegistry` interns one instrument per ``(name, labels)``
pair, so hot paths can call ``registry.counter("x", k="v").inc()``
repeatedly and always hit the same object.  Instruments of one name must
all be the same kind; labels are stringified and order-insensitive.

Process model: the registry is process-local.  A forked worker of
:func:`repro.perf.parallel.run_sharded` — a partition of a partition
map or of a ``CheckpointedRun`` — returns its counter increments with its
result, and they are added to the parent's counters; its histogram
observations and gauge settings die with the worker.

Thread model: interning and every update (``inc``/``set``/``observe``)
are guarded by locks, so concurrent threads — the :mod:`repro.serve`
workers, or any caller's thread pool — never lose updates or observe a
half-written histogram.  ``value += amount`` is a read-modify-write; two
unsynchronized threads interleaving it silently drop increments.

``get_registry()`` returns the process default; ``use_registry`` swaps in
a fresh (or given) registry for a ``with`` block, which is how tests and
the CLI isolate a run's snapshot.  A path that updates the same
instruments on every call binds them with :func:`per_registry` instead
of interning them per update: it resolves them once per default
registry and again after a swap.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Callable, Iterator, TypeVar

from repro.exceptions import ConfigurationError

T = TypeVar("T")

# (sorted (key, value) pairs) — the canonical, hashable label identity.
LabelSet = tuple[tuple[str, str], ...]

# Latencies in this codebase span sub-millisecond kernel calls to
# multi-second benchmark joins; the default boundaries cover that range.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _labelset(labels: dict[str, Any]) -> LabelSet:
    if len(labels) == 1:  # the common case on hot paths: nothing to sort
        [(key, value)] = labels.items()
        return ((str(key), str(value)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """State shared by every metric kind: identity, label set, and the
    lock that makes updates atomic under concurrent threads."""

    kind = "abstract"

    def __init__(self, name: str, labels: LabelSet):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()

    @property
    def label_dict(self) -> dict[str, str]:
        return dict(self.labels)

    def to_dict(self) -> dict[str, Any]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} {dict(self.labels)}>"


class Counter(_Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet = ()):
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        with self._lock:
            self.value += amount

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name, "kind": self.kind,
            "labels": self.label_dict, "value": self.value,
        }


class Gauge(_Instrument):
    """A point-in-time value that can move both ways."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet = ()):
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name, "kind": self.kind,
            "labels": self.label_dict, "value": self.value,
        }


class Histogram(_Instrument):
    """Observations against fixed bucket boundaries, plus sum and count.

    ``bucket_counts[i]`` counts observations ``v`` with
    ``buckets[i-1] < v <= buckets[i]`` (the first bucket has no lower
    bound); one extra overflow slot catches everything above the last
    boundary.  Cumulative (Prometheus ``le``) views are derived at export
    time by :meth:`cumulative`.
    """

    kind = "histogram"

    def __init__(
        self, name: str, labels: LabelSet = (), buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ):
        super().__init__(name, labels)
        buckets = tuple(float(b) for b in buckets)
        if not buckets:
            raise ConfigurationError(f"histogram {self.name!r} needs >= 1 bucket boundary")
        if list(buckets) != sorted(set(buckets)):
            raise ConfigurationError(
                f"histogram {self.name!r} boundaries must be strictly increasing: {buckets}"
            )
        self.buckets = buckets
        self.bucket_counts = [0] * (len(buckets) + 1)  # + overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.sum += value
            self.count += 1
            self.bucket_counts[bisect_left(self.buckets, value)] += 1

    def time(self) -> "_Timer":
        """Observe the wall seconds spent inside the ``with`` block."""
        return _Timer(self)

    def cumulative(self) -> list[tuple[float, int]]:
        """Prometheus-style ``(le, cumulative_count)`` pairs, ending at +Inf."""
        with self._lock:
            counts, total = list(self.bucket_counts), self.count
        out, running = [], 0
        for boundary, n in zip(self.buckets, counts):
            running += n
            out.append((boundary, running))
        out.append((float("inf"), total))
        return out

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0 < q <= 1) from the bucket counts.

        Prometheus-style linear interpolation within the bucket that
        contains the target rank (the first bucket interpolates from 0);
        observations above the last boundary clamp to that boundary.
        Returns 0.0 when nothing has been observed.
        """
        if not 0.0 < q <= 1.0:
            raise ConfigurationError(f"quantile must be in (0, 1], got {q}")
        with self._lock:
            counts, total = list(self.bucket_counts), self.count
        if total == 0:
            return 0.0
        rank = q * total
        running = 0
        for i, n in enumerate(counts[:-1]):
            previous = running
            running += n
            if running >= rank:
                hi = self.buckets[i]
                lo = self.buckets[i - 1] if i else 0.0
                return lo + (hi - lo) * ((rank - previous) / n)
        # Target rank falls in the overflow bucket: no upper boundary to
        # interpolate toward, so report the last finite boundary.
        return self.buckets[-1]

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            return {
                "name": self.name, "kind": self.kind, "labels": self.label_dict,
                "sum": self.sum, "count": self.count,
                "buckets": list(self.buckets), "bucket_counts": list(self.bucket_counts),
            }


class _Timer:
    """The context manager of :meth:`Histogram.time` (a class, not a
    generator: hot paths time every call)."""

    __slots__ = ("histogram", "started")

    def __init__(self, histogram: Histogram):
        self.histogram = histogram

    def __enter__(self) -> None:
        self.started = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        self.histogram.observe(time.perf_counter() - self.started)


class MetricsRegistry:
    """Interns and owns every instrument created through it.

    One instrument exists per ``(name, labels)``; a name is permanently
    bound to the kind it was first created as, and to its bucket
    boundaries for histograms (mixing kinds or boundaries under one name
    would make the exported series unreadable).
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelSet], _Instrument] = {}
        self._kinds: dict[str, str] = {}
        self._lock = threading.Lock()

    # -- get-or-create -------------------------------------------------
    def _intern(self, cls, name: str, labels: dict, **kwargs) -> _Instrument:
        key = (name, _labelset(labels))
        instrument = self._instruments.get(key)
        if instrument is not None and instrument.kind == cls.kind:
            # Instruments are never removed, so a hit needs no lock.
            return instrument
        # Interning must be atomic: two threads racing the get/create for
        # one key would each hold a different instrument, and increments
        # on the loser would vanish from every later lookup and export.
        with self._lock:
            bound = self._kinds.setdefault(name, cls.kind)
            if bound != cls.kind:
                raise ConfigurationError(
                    f"metric {name!r} is registered as a {bound}, "
                    f"cannot be used as a {cls.kind}"
                )
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = self._instruments[key] = cls(name, key[1], **kwargs)
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._intern(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._intern(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: Any
    ) -> Histogram:
        return self._intern(
            Histogram, name, labels, buckets=buckets if buckets is not None else DEFAULT_BUCKETS
        )

    def timer(self, name: str, **labels: Any):
        """Shorthand: a timing context manager on the named histogram."""
        return self.histogram(name, **labels).time()

    # -- introspection -------------------------------------------------
    def instruments(self) -> list[_Instrument]:
        """Every instrument, sorted by (name, labels) for stable export."""
        with self._lock:
            keys = sorted(self._instruments)
            return [self._instruments[key] for key in keys]

    def get(self, name: str, **labels: Any) -> _Instrument | None:
        """The instrument for (name, labels), or None if never created."""
        with self._lock:
            return self._instruments.get((name, _labelset(labels)))

    def snapshot(self) -> list[dict[str, Any]]:
        """A JSON-ready list of every instrument's current state."""
        return [instrument.to_dict() for instrument in self.instruments()]

    def counters(self) -> dict[tuple[str, LabelSet], float]:
        """Flat ``(name, labels) -> value`` view of every counter."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {
            key: instrument.value
            for key, instrument in items
            if instrument.kind == "counter"
        }

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry {len(self)} instruments>"


# -- the process-default registry --------------------------------------
_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry all instrumentation writes to."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the default registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Swap in a fresh (or given) default registry for a ``with`` block."""
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def per_registry(resolve: Callable[[MetricsRegistry], T]) -> Callable[[], T]:
    """A getter for ``resolve(get_registry())`` that calls ``resolve`` once
    per default registry.

    Hot paths bind their instruments through it rather than interning
    each one on every update (a lookup builds a label tuple and hashes
    it).  After :func:`set_registry` / :func:`use_registry` swap the
    default, the next call resolves against the new registry, so updates
    follow the swap exactly as ``get_registry().counter(...)`` would.
    The registry and what was resolved against it are stored as one
    tuple, so a racing thread reads a matching pair; two threads that
    both miss resolve the same interned instruments.
    """
    bound: tuple[Any, Any] = (None, None)

    def instruments() -> T:
        nonlocal bound
        registry, resolved = bound
        if registry is not _default_registry:
            registry = _default_registry
            resolved = resolve(registry)
            bound = (registry, resolved)
        return resolved

    return instruments

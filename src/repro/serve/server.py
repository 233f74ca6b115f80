"""The resident match server: point queries against a live corpus index.

A :class:`MatchServer` is the online half of the batch substrate.  At
startup it builds a :class:`repro.index.LiveIndex` over one corpus
column — its base segment runs the :class:`repro.index.IndexStore`
chain (records → tokens per value → a corpus
:class:`~repro.perf.tokens.TokenUniverse` and CSR encoding → the
probe-ready ``ArrayIndex``), shared by fingerprint with any batch
self-join over the same content — then answers ``match(entity)`` point
queries for as long as the process lives.  Queries are tokenized,
encoded against the live token ordering (out-of-vocabulary tokens are
dropped losslessly), and probed by the live index's one filter-verify
routine, a lone request as a batch of one and a micro-batch in one
call, so a served result is byte-identical to the matching rows of
``set_sim_join(queries, corpus, ...)``.

Because the index is live, the corpus is no longer frozen at startup:
:meth:`MatchServer.upsert` and :meth:`MatchServer.delete` mutate the
delta segment, every query admitted afterwards sees the change, and
:meth:`MatchServer.compact` folds the delta into a fresh base without
blocking readers (the rebuild runs outside the index lock; see
:mod:`repro.index.delta`).

Request flow, modeled on the cloud metamanager's engine/queue scheduler
(:mod:`repro.cloud.engines`) translated from simulated to wall-clock
time:

* **admission** — a request is rejected *before* queuing when the queue
  is at ``max_queue_depth`` (:class:`BackpressureError`) or its tenant
  is at its in-flight quota (:class:`QuotaExceededError`); rejections
  are counted in ``serve_rejections_total{reason,tenant}``;
* **micro-batching** — a worker takes whatever is queued, up to
  ``max_batch``, the moment it is free: batches form while the worker
  is busy with the previous one, so concurrent callers coalesce onto
  one pass over the shared index and a lone caller never waits;
* **observability** — ``serve_request_seconds`` (queue wait + service)
  and ``serve_batch_size`` histograms, the ``serve_queue_depth`` gauge,
  and per-tenant request/rejection counters, all on the process
  registry, with p50/p99 summaries via :meth:`Histogram.quantile` in
  :meth:`MatchServer.stats`; a ``serve_batch`` span per micro-batch
  when a tracer is installed (:func:`repro.obs.use_tracer`).

A served request pays for its probe, not its bookkeeping: it completes
on one lock the caller blocks on (acquired at admission, released by
the worker), and the instruments it updates are resolved once per
registry (:func:`repro.obs.per_registry`) instead of interned on every
update.

The server's shared state is only safe because of the thread-safety
contracts underneath it: the IndexStore's locked memory tier, the
registry's atomic counters, and the tracer's atomic span ids.
"""

from __future__ import annotations

import ctypes
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.exceptions import (
    BackpressureError,
    ConfigurationError,
    QuotaExceededError,
    ServiceError,
)
from repro.index.delta import LiveIndex
from repro.index.store import IndexStore, get_index_store
from repro.obs import Counter, MetricsRegistry, get_registry, per_registry, trace_span
from repro.simjoin.filters import validate_measure, validate_threshold
from repro.table.table import Table
from repro.text.tokenizers import Tokenizer, WhitespaceTokenizer


#: glibc's ``mallopt`` option number for ``M_ARENA_MAX``.
_M_ARENA_MAX = -8


def _share_one_malloc_arena() -> None:
    """Have threads that get a glibc malloc arena from now on share the main one.

    With an arena per thread, the base a compaction drops is freed into
    another heap than the one the next fold allocates from, so peak RSS
    follows heap layout rather than live data ("Serving: one malloc
    arena" in ``docs/PERFORMANCE.md``).  The setting lasts the process.
    """
    if sys.platform.startswith("linux"):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_ARENA_MAX, 1)


def _require_at_least(name: str, value: Any, least: int, optional: bool = False) -> None:
    """Raise :class:`ConfigurationError` unless ``value >= least`` (or
    ``value`` is ``None``, where ``optional``)."""
    if value is None and optional:
        return
    if value is None or value < least:
        allowed = f"None or >= {least}" if optional else f">= {least}"
        raise ConfigurationError(f"{name} must be {allowed}, got {value!r}")


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs for a :class:`MatchServer`.

    ``workers=0`` starts no threads: requests queue on :meth:`submit`
    and are served synchronously by :meth:`MatchServer.process_pending`
    — the deterministic mode used by tests and single-threaded
    embeddings.  ``tenant_quotas`` maps tenant name to its max in-flight
    requests; tenants not listed get ``default_tenant_quota`` (``None``
    means unlimited).  Construction raises :class:`ConfigurationError`
    unless ``max_batch`` and ``max_queue_depth`` are >= 1, ``workers`` is
    >= 0, ``top_k`` is ``None`` or >= 0 and every quota ``None`` or >= 1.
    """

    measure: str = "jaccard"
    threshold: float = 0.7
    top_k: int | None = 10
    max_batch: int = 64
    max_queue_depth: int = 256
    default_tenant_quota: int | None = 64
    tenant_quotas: dict[str, int] = field(default_factory=dict)
    workers: int = 1

    def __post_init__(self) -> None:
        for name, least in (("max_batch", 1), ("max_queue_depth", 1), ("workers", 0)):
            _require_at_least(name, getattr(self, name), least)
        _require_at_least("top_k", self.top_k, 0, optional=True)
        _require_at_least("default_tenant_quota", self.default_tenant_quota, 1, optional=True)
        for tenant, quota in self.tenant_quotas.items():
            _require_at_least(f"quota of tenant {tenant!r}", quota, 1, optional=True)

    def quota(self, tenant: str) -> int | None:
        return self.tenant_quotas.get(tenant, self.default_tenant_quota)


@dataclass
class MatchResult:
    """Ranked candidates for one served query.

    ``candidates`` holds ``(corpus key, score)`` pairs ranked by
    descending score, ties broken by corpus position — the scores are
    bit-identical to the batch join's.  ``seconds`` is the request's
    full latency (queue wait + service); ``batch_size`` is how many
    requests shared its micro-batch.
    """

    query: Any
    tenant: str
    candidates: list[tuple[Any, float]]
    n_candidates: int = 0
    seconds: float = 0.0
    batch_size: int = 1


class _Instruments:
    """Every instrument the request path updates, for one registry.

    Bound through :func:`per_registry` (``_instruments()`` below), so a
    request reads attributes instead of interning names.  Each
    instrument is resolved on first use, as the per-update lookups
    were, so a registry holds exactly the instruments they created.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._requests: dict[str, Counter] = {}

    @cached_property
    def queue_depth(self):
        return self.registry.gauge("serve_queue_depth")

    @cached_property
    def batch_size(self):
        return self.registry.histogram(
            "serve_batch_size", buckets=(1, 2, 4, 8, 16, 32, 64, 128)
        )

    @cached_property
    def batches(self):
        return self.registry.counter("serve_batches_total")

    @cached_property
    def request_seconds(self):
        return self.registry.histogram("serve_request_seconds")

    @cached_property
    def candidates(self):
        return self.registry.counter("serve_candidates_total")

    def requests(self, tenant: str) -> Counter:
        """``serve_requests_total{tenant}``."""
        counter = self._requests.get(tenant)
        if counter is None:
            counter = self._requests[tenant] = self.registry.counter(
                "serve_requests_total", tenant=tenant
            )
        return counter


_instruments = per_registry(_Instruments)


class _Request:
    """One admitted query.  ``done`` is acquired at admission and
    released once, by whoever completes the request (a worker, or
    :meth:`MatchServer.stop` failing it)."""

    __slots__ = ("value", "tenant", "top_k", "enqueued", "done", "result", "error")

    def __init__(self, value: Any, tenant: str, top_k: int | None):
        self.value = value
        self.tenant = tenant
        self.top_k = top_k
        self.enqueued = time.perf_counter()
        self.done = threading.Lock()
        self.done.acquire()
        self.result: MatchResult | None = None
        self.error: BaseException | None = None


class PendingMatch:
    """Future-like handle for a submitted query."""

    def __init__(self, request: _Request):
        self._request = request

    def result(self, timeout: float | None = None) -> MatchResult:
        """Block until the request is served; raises what the server raised.

        Every call after the first returns (or raises) the same outcome
        at once; ``timeout`` is in seconds, ``None`` waits for good.
        """
        request = self._request
        if timeout is None:
            served = request.done.acquire()
        elif timeout > 0:
            served = request.done.acquire(timeout=timeout)
        else:
            served = request.done.acquire(blocking=False)
        if not served:
            raise TimeoutError(
                f"match request for {request.value!r} not served in {timeout}s"
            )
        # Released again straight away: the lock stays open for every
        # later (or concurrent) caller.
        request.done.release()
        if request.error is not None:
            raise request.error
        return request.result


class MatchServer:
    """Long-lived ``match(entity) -> ranked candidates`` service.

    Usage::

        server = MatchServer(corpus, key="id", column="name",
                             config=ServeConfig(threshold=0.4))
        with server:                      # start() .. stop()
            result = server.match("dave smith", tenant="alice")
            for r_id, score in result.candidates:
                ...

    One server serves one ``(corpus, column, tokenizer, measure,
    threshold)`` configuration; run several servers over one shared
    :class:`IndexStore` to multiplex corpora — artifacts dedupe by
    content fingerprint.
    """

    def __init__(
        self,
        corpus: Table,
        key: str,
        column: str,
        tokenizer: Tokenizer | None = None,
        config: ServeConfig | None = None,
        store: IndexStore | None = None,
    ):
        self.config = config if config is not None else ServeConfig()
        measure = validate_measure(self.config.measure)
        validate_threshold(measure, self.config.threshold)
        corpus.require_columns([key, column])
        self.corpus = corpus
        self.key = key
        self.column = column
        self.tokenizer = (
            tokenizer if tokenizer is not None else WhitespaceTokenizer(return_set=True)
        )
        self._measure = measure
        self._store = store if store is not None else get_index_store()

        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._queue: deque[_Request] = deque()
        self._inflight: dict[str, int] = {}
        self._threads: list[threading.Thread] = []
        self._running = False
        self._stopping = False
        self._live: LiveIndex | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MatchServer":
        """Load the corpus index artifacts and start the worker threads."""
        if self._running:
            raise ServiceError("MatchServer is already running")
        _share_one_malloc_arena()
        registry = get_registry()
        with trace_span("serve_warmup", column=self.column, measure=self._measure):
            with registry.timer("serve_warmup_seconds"):
                self._load_artifacts()
        self._stopping = False
        self._running = True
        for i in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"match-serve-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def _load_artifacts(self) -> None:
        """Build the live index whose base segment covers the corpus.

        The base artifacts come from the shared :class:`IndexStore`
        chain (the corpus self-paired through ``pair_encoding(tc, tc)``,
        which preserves the frequency-then-lexical ranking), so a batch
        self-join over the same corpus content shares its records,
        tokens, encoding and ``arrayindex``: warm-up after one
        builds nothing.
        """
        self._live = LiveIndex.from_table(
            self.corpus,
            self.key,
            self.column,
            tokenizer=self.tokenizer,
            measure=self._measure,
            threshold=self.config.threshold,
            store=self._store,
            name=f"serve-{self.column}",
        )

    def stop(self) -> None:
        """Drain the queue, stop the workers, and refuse new requests."""
        with self._lock:
            if not self._running:
                return
            self._stopping = True
            self._not_empty.notify_all()
        for thread in self._threads:
            thread.join()
        self._threads.clear()
        if self.config.workers == 0:
            self.process_pending()
        with self._lock:
            self._running = False
            # Anything still queued (stop raced an admission) fails fast
            # rather than hanging its caller forever.
            while self._queue:
                request = self._queue.popleft()
                request.error = ServiceError("MatchServer stopped before serving")
                request.done.release()

    def __enter__(self) -> "MatchServer":
        if not self._running:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(
        self, value: Any, tenant: str = "default", top_k: int | None = None
    ) -> PendingMatch:
        """Admit one query; returns a handle to wait on.

        Raises :class:`BackpressureError` (queue full) or
        :class:`QuotaExceededError` (tenant at its in-flight quota)
        *before* queuing — a rejected request did no work; a negative
        ``top_k`` raises :class:`ConfigurationError`.
        """
        _require_at_least("top_k", top_k, 0, optional=True)
        request = _Request(value, tenant, top_k if top_k is not None else self.config.top_k)
        with self._lock:
            if not self._running or self._stopping:
                raise ServiceError("MatchServer is not running")
            if len(self._queue) >= self.config.max_queue_depth:
                get_registry().counter(
                    "serve_rejections_total", reason="backpressure", tenant=tenant
                ).inc()
                raise BackpressureError(
                    f"serving queue at capacity ({self.config.max_queue_depth})"
                )
            quota = self.config.quota(tenant)
            inflight = self._inflight.get(tenant, 0)
            if quota is not None and inflight >= quota:
                get_registry().counter(
                    "serve_rejections_total", reason="quota", tenant=tenant
                ).inc()
                raise QuotaExceededError(
                    f"tenant {tenant!r} at its in-flight quota ({quota})"
                )
            self._inflight[tenant] = inflight + 1
            self._queue.append(request)
            _instruments().queue_depth.set(len(self._queue))
            self._not_empty.notify()
        return PendingMatch(request)

    def match(
        self,
        value: Any,
        tenant: str = "default",
        top_k: int | None = None,
        timeout: float | None = None,
    ) -> MatchResult:
        """Submit one query and block until its ranked candidates arrive."""
        return self.submit(value, tenant, top_k).result(timeout)

    # ------------------------------------------------------------------
    # Batch workers
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            self._process_batch(batch)

    def _take_batch(self) -> list[_Request] | None:
        with self._not_empty:
            while not self._queue and not self._stopping:
                self._not_empty.wait()
            if not self._queue:
                return None  # stopping and drained
            batch = [
                self._queue.popleft()
                for _ in range(min(len(self._queue), self.config.max_batch))
            ]
            _instruments().queue_depth.set(len(self._queue))
        return batch

    def process_pending(self) -> int:
        """Serve everything queued right now on the calling thread.

        The synchronous drain used with ``workers=0``; returns the
        number of requests served.
        """
        with self._lock:
            batch = list(self._queue)
            self._queue.clear()
            _instruments().queue_depth.set(0)
        served = 0
        while batch:
            self._process_batch(batch[: self.config.max_batch])
            served += len(batch[: self.config.max_batch])
            batch = batch[self.config.max_batch :]
        return served

    def _process_batch(self, batch: list[_Request]) -> None:
        metrics = _instruments()
        metrics.batch_size.observe(len(batch))
        metrics.batches.inc()
        with trace_span("serve_batch", size=len(batch)):
            # One probe call for the whole micro-batch: this is the
            # payoff of the batching queue — each segment is probed
            # once, columnar, for every request in the batch.
            # Per-request error isolation is preserved by falling back
            # to one probe per request if the batched call fails; every
            # such fallback is counted by exception class.
            searched = None
            if len(batch) > 1:
                try:
                    searched = self._live.search_batch(
                        [request.value for request in batch]
                    )
                except Exception as exc:
                    get_registry().counter(
                        "serve_batch_fallbacks_total", error=type(exc).__name__
                    ).inc()
            for position, request in enumerate(batch):
                try:
                    if searched is not None:
                        matches, n_candidates = searched[position]
                        candidates, n_candidates = self._rank(
                            matches, n_candidates, request.top_k
                        )
                    else:
                        candidates, n_candidates = self._match_one(
                            request.value, request.top_k
                        )
                    request.result = MatchResult(
                        query=request.value,
                        tenant=request.tenant,
                        candidates=candidates,
                        n_candidates=n_candidates,
                        seconds=time.perf_counter() - request.enqueued,
                        batch_size=len(batch),
                    )
                except BaseException as exc:
                    request.error = exc
                finally:
                    metrics.request_seconds.observe(time.perf_counter() - request.enqueued)
                    metrics.requests(request.tenant).inc()
                    with self._lock:
                        self._inflight[request.tenant] -= 1
                    request.done.release()

    def _match_one(
        self, value: Any, top_k: int | None
    ) -> tuple[list[tuple[Any, float]], int]:
        """One point query through the live index's filter-verify routine."""
        matches, n_candidates = self._live.search(value)
        return self._rank(matches, n_candidates, top_k)

    def _rank(
        self,
        matches: list[tuple[Any, float]],
        n_candidates: int,
        top_k: int | None,
    ) -> tuple[list[tuple[Any, float]], int]:
        _instruments().candidates.inc(n_candidates)
        # The live index emits survivors in canonical record order; a
        # stable sort on descending score keeps that order among ties,
        # so the ranking is fully deterministic.
        ranked = sorted(matches, key=lambda pair: -pair[1])
        if top_k is not None:
            ranked = ranked[:top_k]
        return ranked, n_candidates

    # ------------------------------------------------------------------
    # Live mutation
    # ------------------------------------------------------------------
    def upsert(self, row_key: Any, value: Any, tenant: str = "default") -> bool:
        """Insert or replace one corpus record in the live index.

        Every query admitted after this call returns sees the new
        record — no restart, no rebuild.  Returns whether the record was
        indexed (a missing value degenerates to a delete).
        """
        return self.upsert_many([(row_key, value)], tenant) == 1

    def upsert_many(self, items, tenant: str = "default") -> int:
        """Insert or replace ``(row_key, value)`` records in order, under
        one index lock; returns the number indexed."""
        registry = get_registry()
        with self._lock:
            if not self._running or self._stopping:
                raise ServiceError("MatchServer is not running")
        items = list(items)
        registry.counter("serve_upserts_total", tenant=tenant).inc(len(items))
        return self._live.upsert_many(items)

    def delete(self, row_key: Any, tenant: str = "default") -> bool:
        """Tombstone one corpus record; returns whether it was present."""
        return self.delete_many([row_key], tenant) == 1

    def delete_many(self, row_keys, tenant: str = "default") -> int:
        """Tombstone records under one index lock; returns how many existed."""
        registry = get_registry()
        with self._lock:
            if not self._running or self._stopping:
                raise ServiceError("MatchServer is not running")
        row_keys = list(row_keys)
        registry.counter("serve_deletes_total", tenant=tenant).inc(len(row_keys))
        return self._live.delete_many(row_keys)

    def compact(self) -> dict[str, Any]:
        """Fold the live index's delta into a new base segment.

        The fold runs outside the index lock and costs what the delta
        costs, so queries (and further upserts) proceed concurrently;
        only the final swap synchronizes.  Returns the post-compaction
        index stats.
        """
        if self._live is None:
            raise ServiceError("MatchServer has not been started")
        return self._live.compact()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Point-in-time serving stats: depth, totals, p50/p99 latency."""
        registry = get_registry()
        latency = registry.histogram("serve_request_seconds")
        with self._lock:
            queue_depth = len(self._queue)
            inflight = {t: n for t, n in self._inflight.items() if n}
        rejections = sum(
            value
            for (name, _), value in registry.counters().items()
            if name == "serve_rejections_total"
        )
        requests = sum(
            value
            for (name, _), value in registry.counters().items()
            if name == "serve_requests_total"
        )
        index_stats = self._live.stats() if self._live is not None else {}
        return {
            "running": self._running,
            "queue_depth": queue_depth,
            "inflight": inflight,
            "corpus_rows": index_stats.get("live_rows", 0),
            "universe_size": index_stats.get("universe_size", 0),
            "generation": index_stats.get("generation", 0),
            "delta_rows": index_stats.get("delta_rows", 0),
            "tombstones": index_stats.get("tombstones", 0),
            "compactions": index_stats.get("compactions", 0),
            "requests_total": requests,
            "rejections_total": rejections,
            "latency_p50_s": latency.quantile(0.5),
            "latency_p99_s": latency.quantile(0.99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self._running else "stopped"
        return (
            f"<MatchServer {state} column={self.column!r} "
            f"measure={self._measure} threshold={self.config.threshold}>"
        )

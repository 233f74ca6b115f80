"""Tests for repro.serve: the resident match server.

The load-bearing assertion is batch/online equivalence: every query
served by a :class:`MatchServer` — serially or from many concurrent
threads across tenants — returns candidates byte-identical (same ids,
same float scores, same order) to the corresponding rows of the batch
``set_sim_join`` over the same corpus.  The rest covers the scheduler
(micro-batching, per-tenant quotas, queue-depth backpressure, metrics)
and the live-index surface: upserts/deletes visible to the very next
query, compaction that never blocks serving.  Three classes pin the
request path's bookkeeping: no span kept without an installed tracer,
every instrument's exact value (following a registry swap), and the
completion contract of :class:`PendingMatch`.  The last checks that
threads started after a server share one malloc arena, so the base a
compaction drops is reusable whichever thread frees it.
"""

import os
import platform
import random
import subprocess
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exceptions import (
    BackpressureError,
    ConfigurationError,
    QuotaExceededError,
    ServiceError,
)
from repro.index import IndexStore, LiveIndex, use_index_store
from repro.obs import get_tracer, use_registry, use_tracer
from repro.runtime import chain_graph, run_graph
from repro.serve import MatchServer, ServeConfig
from repro.simjoin import set_sim_join
from repro.table import Table
from repro.text.tokenizers import QgramTokenizer, WhitespaceTokenizer


def make_corpus(n: int = 200, seed: int = 0) -> Table:
    rng = random.Random(seed)
    first = ["dave", "dan", "joe", "mary", "ann", "sue", "zed", "kim"]
    last = ["smith", "wilson", "jones", "miller", "chen"]
    return Table(
        {
            "id": [f"b{i}" for i in range(n)],
            "v": [f"{rng.choice(first)} {rng.choice(last)}" for _ in range(n)],
        }
    )


def make_queries(n: int = 40, seed: int = 1) -> list[str]:
    rng = random.Random(seed)
    first = ["dave", "dan", "joe", "mary", "ann", "sue", "zed", "kim"]
    last = ["smith", "wilson", "jones", "miller", "chen"]
    queries = [f"{rng.choice(first)} {rng.choice(last)}" for _ in range(n)]
    queries += ["outofvocab tokens only", "", "dave"]
    return queries


def batch_reference(
    corpus: Table, queries: list[str], tokenizer, measure: str, threshold: float
) -> list[list[tuple]]:
    """Per-query ranked candidates derived from the batch join path."""
    query_table = Table(
        {"id": [f"q{i}" for i in range(len(queries))], "v": list(queries)}
    )
    joined = set_sim_join(
        query_table, corpus, "id", "id", "v", "v", tokenizer, measure, threshold
    )
    by_query: dict[str, list[tuple]] = {}
    for l_id, r_id, score in zip(
        joined.column("l_id"), joined.column("r_id"), joined.column("score")
    ):
        by_query.setdefault(l_id, []).append((r_id, score))
    # The join emits candidates in corpus-position order per query; the
    # server ranks by descending score with position-order ties — derive
    # the same ranking with a stable sort.
    return [
        sorted(by_query.get(f"q{i}", []), key=lambda pair: -pair[1])
        for i in range(len(queries))
    ]


class TestServedEqualsBatch:
    @pytest.mark.parametrize(
        "tokenizer,measure,threshold",
        [
            (WhitespaceTokenizer(return_set=True), "jaccard", 0.4),
            (QgramTokenizer(q=3, return_set=True), "cosine", 0.6),
            (WhitespaceTokenizer(return_set=True), "overlap", 1),
        ],
    )
    def test_serial_queries_byte_identical(self, tokenizer, measure, threshold):
        corpus = make_corpus()
        queries = make_queries()
        with use_index_store():
            server = MatchServer(
                corpus, "id", "v", tokenizer=tokenizer,
                config=ServeConfig(measure=measure, threshold=threshold, top_k=None),
            )
            with server:
                served = [server.match(q).candidates for q in queries]
            expected = batch_reference(corpus, queries, tokenizer, measure, threshold)
        assert served == expected

    def test_top_k_truncates_ranking(self):
        corpus = make_corpus()
        tokenizer = WhitespaceTokenizer(return_set=True)
        with use_index_store():
            config = ServeConfig(threshold=0.2, top_k=3)
            with MatchServer(corpus, "id", "v", tokenizer=tokenizer, config=config) as s:
                full = s.match("dave smith", top_k=10 ** 6).candidates
                top = s.match("dave smith").candidates
        assert top == full[:3]
        assert all(a[1] >= b[1] for a, b in zip(full, full[1:]))

    def test_concurrent_two_tenants_byte_identical(self):
        corpus = make_corpus(300)
        queries = make_queries(60)
        tokenizer = WhitespaceTokenizer(return_set=True)
        with use_registry() as registry, use_index_store():
            expected = batch_reference(corpus, queries, tokenizer, "jaccard", 0.4)
            config = ServeConfig(
                threshold=0.4, top_k=None, workers=2, max_batch=8,
                default_tenant_quota=None,
            )
            server = MatchServer(corpus, "id", "v", tokenizer=tokenizer, config=config)
            with server:
                def ask(item):
                    i, query = item
                    tenant = "alice" if i % 2 else "bob"
                    return server.match(query, tenant=tenant, timeout=30)

                with ThreadPoolExecutor(max_workers=16) as pool:
                    results = list(pool.map(ask, enumerate(queries)))
            assert [r.candidates for r in results] == expected
            served = sum(
                value
                for (name, _), value in registry.counters().items()
                if name == "serve_requests_total"
            )
            assert served == len(queries)
            assert registry.histogram("serve_request_seconds").count == len(queries)
            # Micro-batching actually coalesced at least some requests.
            assert registry.histogram("serve_batch_size").count <= len(queries)
            assert registry.gauge("serve_queue_depth").value == 0


class TestScheduler:
    def test_quota_rejection_is_deterministic_and_counted(self):
        corpus = make_corpus(50)
        with use_registry() as registry, use_index_store():
            config = ServeConfig(
                threshold=0.4, workers=0, tenant_quotas={"alice": 1},
                default_tenant_quota=2,
            )
            server = MatchServer(corpus, "id", "v", config=config).start()
            first = server.submit("dave smith", tenant="alice")
            with pytest.raises(QuotaExceededError):
                server.submit("ann chen", tenant="alice")
            # Another tenant is not throttled by alice's quota.
            other = server.submit("ann chen", tenant="bob")
            server.process_pending()
            assert first.result(1).candidates is not None
            assert other.result(1).candidates is not None
            rejected = registry.get(
                "serve_rejections_total", reason="quota", tenant="alice"
            )
            assert rejected is not None and rejected.value == 1
            server.stop()

    def test_backpressure_rejection_is_deterministic_and_counted(self):
        corpus = make_corpus(50)
        with use_registry() as registry, use_index_store():
            config = ServeConfig(
                threshold=0.4, workers=0, max_queue_depth=2,
                default_tenant_quota=None,
            )
            server = MatchServer(corpus, "id", "v", config=config).start()
            pending = [server.submit(f"dave smith {i}") for i in range(2)]
            with pytest.raises(BackpressureError):
                server.submit("one too many")
            assert server.process_pending() == 2
            for handle in pending:
                handle.result(1)
            rejected = registry.get(
                "serve_rejections_total", reason="backpressure", tenant="default"
            )
            assert rejected is not None and rejected.value == 1
            server.stop()

    def test_quota_released_after_completion(self):
        corpus = make_corpus(50)
        with use_registry(), use_index_store():
            config = ServeConfig(threshold=0.4, workers=0, default_tenant_quota=1)
            server = MatchServer(corpus, "id", "v", config=config).start()
            first = server.submit("dave smith")
            server.process_pending()
            first.result(1)
            # The slot freed by completion admits the next request.
            second = server.submit("ann chen")
            server.process_pending()
            second.result(1)
            server.stop()

    def test_match_after_stop_raises(self):
        corpus = make_corpus(20)
        with use_registry(), use_index_store():
            server = MatchServer(
                corpus, "id", "v", config=ServeConfig(threshold=0.4)
            ).start()
            server.stop()
            with pytest.raises(ServiceError):
                server.match("dave smith")

    def test_match_before_start_raises(self):
        with use_registry(), use_index_store():
            server = MatchServer(
                make_corpus(20), "id", "v", config=ServeConfig(threshold=0.4)
            )
            with pytest.raises(ServiceError):
                server.match("dave smith")

    def test_invalid_config_rejected_at_construction(self):
        corpus = make_corpus(10)
        with pytest.raises(ConfigurationError):
            MatchServer(corpus, "id", "v", config=ServeConfig(threshold=1.5))
        with pytest.raises(ConfigurationError):
            MatchServer(corpus, "id", "v", config=ServeConfig(measure="nope"))
        with pytest.raises(ConfigurationError):
            MatchServer(
                corpus, "id", "v", config=ServeConfig(measure="overlap", threshold=0.5)
            )
        # `repro serve --measure overlap --threshold nan` lands here.
        for not_finite in (float("nan"), float("inf")):
            config = ServeConfig(measure="overlap", threshold=not_finite)
            with pytest.raises(ConfigurationError):
                MatchServer(corpus, "id", "v", config=config)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_batch", 0),
            ("max_batch", -1),
            ("max_queue_depth", 0),
            ("workers", -1),
            ("top_k", -1),
            ("default_tenant_quota", 0),
        ],
    )
    def test_bad_scheduler_value_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ServeConfig(**{field: value})

    def test_bad_tenant_quota_rejected(self):
        with pytest.raises(ConfigurationError, match="alice"):
            ServeConfig(tenant_quotas={"alice": 0})

    def test_edge_values_accepted(self):
        config = ServeConfig(
            max_batch=1, max_queue_depth=1, workers=0, top_k=0,
            default_tenant_quota=None, tenant_quotas={"alice": None, "bob": 1},
        )
        assert config.quota("alice") is None and config.quota("bob") == 1
        assert ServeConfig(top_k=None).top_k is None

    def test_negative_top_k_on_submit_rejected_before_queuing(self):
        with use_registry(), use_index_store():
            config = ServeConfig(threshold=0.4, workers=0, default_tenant_quota=1)
            with MatchServer(make_corpus(20), "id", "v", config=config) as server:
                with pytest.raises(ConfigurationError, match="top_k"):
                    server.submit("dave smith", top_k=-1)
                assert server.stats()["queue_depth"] == 0
                # No quota slot leaked: the tenant's one slot still admits.
                pending = server.submit("dave smith", top_k=0)
                assert server.process_pending() == 1
                assert pending.result(1).candidates == []

    def test_workers_zero_drain_terminates(self):
        with use_registry(), use_index_store():
            config = ServeConfig(
                threshold=0.4, workers=0, max_batch=1, default_tenant_quota=None
            )
            server = MatchServer(make_corpus(20), "id", "v", config=config).start()
            pending = [server.submit(f"dave smith {i}") for i in range(5)]
            drain = threading.Thread(target=server.process_pending)
            drain.start()
            drain.join(10)
            assert not drain.is_alive()
            assert all(handle.result(0).batch_size == 1 for handle in pending)
            server.stop()

    def test_stats_reports_latency_quantiles(self):
        corpus = make_corpus(50)
        with use_registry(), use_index_store():
            server = MatchServer(
                corpus, "id", "v", config=ServeConfig(threshold=0.4)
            )
            with server:
                for _ in range(5):
                    server.match("dave smith")
                stats = server.stats()
            assert stats["requests_total"] == 5
            assert stats["corpus_rows"] == 50
            assert 0 <= stats["latency_p50_s"] <= stats["latency_p99_s"]

    def test_failed_batched_probe_falls_back_and_is_counted(self, monkeypatch):
        corpus = make_corpus(80)
        queries = make_queries(6)
        tokenizer = WhitespaceTokenizer(return_set=True)

        def broken(self, values):
            raise RuntimeError("batched probe broke")

        with use_registry() as registry, use_index_store():
            expected = batch_reference(corpus, queries, tokenizer, "jaccard", 0.4)
            monkeypatch.setattr(LiveIndex, "search_batch", broken)
            config = ServeConfig(threshold=0.4, top_k=None, workers=0)
            with MatchServer(corpus, "id", "v", config=config) as server:
                pending = [server.submit(query) for query in queries]
                assert server.process_pending() == len(queries)
                for i, handle in enumerate(pending):
                    result = handle.result(1)
                    assert result.batch_size == len(queries)
                    assert result.candidates == expected[i]
            fallbacks = registry.get(
                "serve_batch_fallbacks_total", error="RuntimeError"
            )
            assert fallbacks is not None and fallbacks.value == 1

    def test_poison_request_is_isolated_inside_a_good_batch(self):
        """One request that cannot be probed fails the batched call; the
        fallback answers every other request as it is answered alone and
        hands the poison request its own error."""

        class Poison:
            def __str__(self):
                raise ValueError("unprintable query")

        corpus = make_corpus(80)
        queries = make_queries(20)
        poison_at = 7
        with use_registry() as registry, use_index_store():
            config = ServeConfig(threshold=0.4, top_k=None, workers=0, max_batch=64)
            with MatchServer(corpus, "id", "v", config=config) as server:
                pending = [server.submit(query) for query in queries]
                pending.insert(poison_at, server.submit(Poison()))
                assert server.process_pending() == len(queries) + 1
                alone = []
                for query in queries:
                    handle = server.submit(query)
                    server.process_pending()
                    alone.append(handle.result(1))
            poisoned = pending.pop(poison_at)
            with pytest.raises(ValueError, match="unprintable query"):
                poisoned.result(1)
            for handle, expected in zip(pending, alone):
                result = handle.result(1)
                assert result.batch_size == len(queries) + 1
                assert (result.candidates, result.n_candidates) == (
                    expected.candidates, expected.n_candidates,
                )
            fallbacks = registry.get("serve_batch_fallbacks_total", error="ValueError")
            assert fallbacks is not None and fallbacks.value == 1
            assert registry.counter("serve_batches_total").value == len(queries) + 1


class TestWarmStart:
    def test_two_servers_share_store_artifacts(self):
        corpus = make_corpus(100)
        with use_registry() as registry, use_index_store(IndexStore()) as store:
            with MatchServer(
                corpus, "id", "v", store=store, config=ServeConfig(threshold=0.4)
            ) as first:
                first.match("dave smith")
            reuses_before = sum(
                value
                for (name, _), value in registry.counters().items()
                if name == "index_reuses_total"
            )
            with MatchServer(
                corpus, "id", "v", store=store, config=ServeConfig(threshold=0.4)
            ) as second:
                second.match("dave smith")
            reuses_after = sum(
                value
                for (name, _), value in registry.counters().items()
                if name == "index_reuses_total"
            )
        assert reuses_after > reuses_before

    def test_server_shares_artifacts_with_batch_self_join(self):
        corpus = make_corpus(100)
        tokenizer = WhitespaceTokenizer(return_set=True)
        with use_registry() as registry, use_index_store():
            def builds() -> dict[str, int]:
                return {
                    dict(labels)["kind"]: value
                    for (name, labels), value in registry.counters().items()
                    if name == "index_builds_total"
                }

            set_sim_join(
                corpus, corpus, "id", "id", "v", "v", tokenizer, "jaccard", 0.4
            )
            builds_before = builds()
            with MatchServer(
                corpus, "id", "v", tokenizer=tokenizer,
                config=ServeConfig(threshold=0.4),
            ) as server:
                server.match("dave smith")
            built_by_warmup = {
                kind: count - builds_before.get(kind, 0)
                for kind, count in builds().items()
                if count != builds_before.get(kind, 0)
            }
        # Warmup found records/tokens/encoding and the arrayindex the
        # probe reads in the store — the batch self-join built them — and
        # built nothing.
        assert {"records", "tokens", "encoding", "arrayindex"} <= set(builds_before)
        assert built_by_warmup == {}


class TestLiveMutation:
    def test_upsert_visible_to_next_query(self):
        corpus = make_corpus(50)
        with use_registry(), use_index_store():
            config = ServeConfig(threshold=0.4, top_k=None)
            with MatchServer(corpus, "id", "v", config=config) as server:
                before = server.match("zelda zimmerman").candidates
                assert before == []
                assert server.upsert("z1", "zelda zimmerman") is True
                after = server.match("zelda zimmerman").candidates
                assert after == [("z1", 1.0)]

    def test_upsert_equals_restarted_server(self):
        # A query after N upserts answers exactly like a server freshly
        # started over the grown corpus.
        corpus = make_corpus(80)
        queries = make_queries(15)
        extra = [(f"n{i}", f"dave smith {i}") for i in range(10)]
        tokenizer = WhitespaceTokenizer(return_set=True)
        with use_registry(), use_index_store():
            config = ServeConfig(threshold=0.4, top_k=None)
            with MatchServer(corpus, "id", "v", tokenizer=tokenizer, config=config) as live:
                for key, value in extra:
                    live.upsert(key, value)
                live.delete("b0")
                served = [live.match(q).candidates for q in queries]
            grown = Table(
                {
                    "id": corpus.column("id")[1:] + [k for k, _ in extra],
                    "v": corpus.column("v")[1:] + [v for _, v in extra],
                }
            )
            with use_index_store():
                with MatchServer(
                    grown, "id", "v", tokenizer=tokenizer, config=config
                ) as fresh:
                    expected = [fresh.match(q).candidates for q in queries]
        assert served == expected

    def test_delete_removes_from_results(self):
        corpus = make_corpus(50)
        with use_registry(), use_index_store():
            config = ServeConfig(threshold=0.4, top_k=None)
            with MatchServer(corpus, "id", "v", config=config) as server:
                hits = server.match(corpus.column("v")[0]).candidates
                assert any(key == "b0" for key, _ in hits)
                assert server.delete("b0") is True
                hits = server.match(corpus.column("v")[0]).candidates
                assert not any(key == "b0" for key, _ in hits)

    def test_mutation_requires_running_server(self):
        corpus = make_corpus(10)
        with use_registry(), use_index_store():
            server = MatchServer(corpus, "id", "v", config=ServeConfig(threshold=0.4))
            with pytest.raises(ServiceError):
                server.upsert("x", "dave smith")
            with pytest.raises(ServiceError):
                server.delete("b0")
            with pytest.raises(ServiceError):
                server.compact()

    def test_stats_reports_live_index_state(self):
        corpus = make_corpus(30)
        with use_registry(), use_index_store():
            config = ServeConfig(threshold=0.4)
            with MatchServer(corpus, "id", "v", config=config) as server:
                server.upsert("n1", "dave smith")
                server.upsert("n2", "ann chen")
                server.delete("b0")
                stats = server.stats()
                assert stats["corpus_rows"] == 31
                assert stats["delta_rows"] == 2
                assert stats["tombstones"] == 1
                assert stats["generation"] == 3
                server.compact()
                stats = server.stats()
                assert stats["compactions"] == 1
                assert stats["delta_rows"] == 0
                assert stats["tombstones"] == 0

    def test_queries_served_during_compaction(self):
        """Compaction's fold must not block the serving path: queries
        issued while the fold is parked return correct, current
        results, and an upsert racing the compaction survives the swap."""
        corpus = make_corpus(60)
        with use_registry(), use_index_store():
            config = ServeConfig(threshold=0.4, top_k=None)
            with MatchServer(corpus, "id", "v", config=config) as server:
                server.upsert("z1", "zelda zimmerman")
                expected = server.match("zelda zimmerman").candidates
                in_build = threading.Event()
                release = threading.Event()
                original = LiveIndex._fold_base

                def slow_fold(self, *snapshot):
                    segment = original(self, *snapshot)
                    in_build.set()
                    release.wait(5)
                    return segment

                LiveIndex._fold_base = slow_fold
                try:
                    compactor = threading.Thread(target=server.compact)
                    compactor.start()
                    assert in_build.wait(5)
                    # Mid-compaction: queries answer from the old
                    # segments, and mutations still land.
                    assert server.match("zelda zimmerman").candidates == expected
                    server.upsert("z2", "zelda q zimmerman")
                    mid = server.match("zelda zimmerman").candidates
                    assert [key for key, _ in mid] == ["z1", "z2"]
                finally:
                    release.set()
                    compactor.join(10)
                    LiveIndex._fold_base = original
                # After the swap: both records present, compaction counted.
                after = server.match("zelda zimmerman").candidates
                assert [key for key, _ in after] == [key for key, _ in mid]
                assert server.stats()["compactions"] == 1


class TestSpanRetention:
    N_REQUESTS = 2000

    def _serve(self, server) -> None:
        queries = make_queries(20)
        for i in range(self.N_REQUESTS):
            server.match(queries[i % len(queries)], tenant=("alice", "bob")[i % 2])

    def test_default_tracer_keeps_no_span(self):
        with use_registry(), use_index_store():
            config = ServeConfig(threshold=0.4, default_tenant_quota=None)
            with MatchServer(make_corpus(50), "id", "v", config=config) as server:
                self._serve(server)
        assert len(get_tracer().spans) == 0

    def test_installed_tracer_records_one_span_per_batch(self):
        with use_registry() as registry, use_index_store(), use_tracer() as tracer:
            config = ServeConfig(threshold=0.4, default_tenant_quota=None)
            with MatchServer(make_corpus(50), "id", "v", config=config) as server:
                self._serve(server)
            batches = [span for span in tracer.spans if span.name == "serve_batch"]
            assert len(batches) == registry.counter("serve_batches_total").value
            assert sum(int(span.labels["size"]) for span in batches) == self.N_REQUESTS
            assert [span.name for span in tracer.spans].count("serve_warmup") == 1

    def test_graph_run_spans_record_on_installed_tracer_only(self):
        graph = chain_graph("g", [("n", lambda s: None), ("m", lambda s: 1 / 0)])
        with use_tracer() as tracer:
            with pytest.raises(ZeroDivisionError):
                run_graph(graph)
        assert [span.name for span in tracer.spans] == ["g/n", "g/m", "g"]
        assert "ZeroDivisionError" in tracer.spans[1].error
        with pytest.raises(ZeroDivisionError):
            run_graph(graph)  # the process default again
        assert len(get_tracer().spans) == 0


class TestMetricParity:
    """Every instrument the request path updates, at its exact value.

    The script: four W=1 matches alternating two tenants, an upsert (so
    later probes cover a delta segment), one 8-request micro-batch and
    one quota rejection.  The figures are what per-update interning
    recorded for the same script.
    """

    CONFIG = ServeConfig(threshold=0.6, workers=0, tenant_quotas={"bob": 1})

    def _script(self, server) -> None:
        queries = make_queries(12)
        for i, query in enumerate(queries[:4]):
            handle = server.submit(query, tenant=("alice", "bob")[i % 2])
            server.process_pending()
            handle.result(0)
        server.upsert("new1", "dave smith jones")
        batch = [server.submit(query, tenant="alice") for query in queries[4:12]]
        assert server.process_pending() == 8
        assert {handle.result(0).batch_size for handle in batch} == {8}
        server.submit(queries[0], tenant="bob")
        with pytest.raises(QuotaExceededError):
            server.submit(queries[1], tenant="bob")
        server.process_pending()

    @staticmethod
    def _values(registry) -> dict:
        values = {}
        for row in registry.snapshot():
            name, labels = row["name"], row["labels"]
            if name.startswith("kernel_batch_") and labels.get("op") != "live_search":
                continue
            if not name.startswith(("serve_", "kernel_batch_", "index_delta_probe")):
                continue
            key = (name,) + tuple(sorted(labels.items()))
            if row["kind"] != "histogram":
                values[key] = row["value"]
            elif name == "serve_batch_size":
                values[key] = (row["count"], row["sum"], row["bucket_counts"])
            else:
                values[key] = row["count"]  # seconds: only the count is exact
        return values

    def test_every_instrument_exact(self):
        live = ("op", "live_search")
        with use_registry() as registry, use_index_store():
            server = MatchServer(make_corpus(80), "id", "v", config=self.CONFIG).start()
            self._script(server)
            server.stop()
        assert self._values(registry) == {
            ("serve_warmup_seconds",): 1,
            ("serve_queue_depth",): 0.0,
            ("serve_batch_size",): (6, 13.0, [5, 0, 0, 1, 0, 0, 0, 0, 0]),
            ("serve_batches_total",): 6.0,
            ("serve_request_seconds",): 13,
            ("serve_requests_total", ("tenant", "alice")): 10.0,
            ("serve_requests_total", ("tenant", "bob")): 3.0,
            ("serve_candidates_total",): 106.0,
            ("serve_rejections_total", ("reason", "quota"), ("tenant", "bob")): 1.0,
            ("serve_upserts_total", ("tenant", "default")): 1.0,
            ("kernel_batch_seconds", live): 6,
            ("kernel_batch_calls_total", live): 6.0,
            ("kernel_batch_rows_total", live): 13.0,
            ("kernel_batch_candidates_total", live): 106.0,
            ("kernel_batch_verified_total", live): 29.0,
            ("index_delta_probe_seconds",): 2,
        }

    def test_registry_swapped_after_start_gets_every_later_update(self):
        with use_registry() as first, use_index_store():
            server = MatchServer(make_corpus(80), "id", "v", config=self.CONFIG).start()
            handle = server.submit("dave smith")  # binds the first registry's
            server.process_pending()                # instruments
            handle.result(0)
            before = self._values(first)
            with use_registry() as second:
                self._script(server)
            assert self._values(first) == before
            after = self._values(second)
            assert after[("serve_batches_total",)] == 6.0
            assert after[("serve_requests_total", ("tenant", "alice"))] == 10.0
            assert after[("kernel_batch_calls_total", ("op", "live_search"))] == 6.0
            # Back on the first registry once the swap ends.
            handle = server.submit("dave smith")
            server.process_pending()
            handle.result(0)
            assert self._values(first)[("serve_batches_total",)] == (
                before[("serve_batches_total",)] + 1
            )
            server.stop()


    def test_no_update_lost_under_thread_contention(self):
        """More workers and callers than cores, a short switch interval:
        the bound instruments (and the per-tenant cache filled by
        racing first requests) must count every request exactly once."""
        import sys

        tenants = [f"t{i}" for i in range(6)]
        n_per_caller, callers = 50, 12
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use_registry() as registry, use_index_store():
                config = ServeConfig(
                    threshold=0.4, workers=4, max_batch=4, default_tenant_quota=None
                )
                with MatchServer(make_corpus(50), "id", "v", config=config) as server:
                    def ask(caller: int) -> int:
                        for i in range(n_per_caller):
                            server.match("dave smith", tenant=tenants[(caller + i) % 6], timeout=30)
                        return n_per_caller

                    with ThreadPoolExecutor(max_workers=callers) as pool:
                        assert sum(pool.map(ask, range(callers))) == n_per_caller * callers
                values = self._values(registry)
        finally:
            sys.setswitchinterval(interval)
        total = n_per_caller * callers
        per_tenant = [values[("serve_requests_total", ("tenant", t))] for t in tenants]
        assert per_tenant == [total / len(tenants)] * len(tenants)
        assert values[("serve_request_seconds",)] == total
        assert values[("serve_batch_size",)][1] == total
        assert values[("kernel_batch_rows_total", ("op", "live_search"))] == total
        calls = values[("kernel_batch_calls_total", ("op", "live_search"))]
        assert values[("serve_batches_total",)] == calls


class TestCompletionContract:
    def test_second_result_returns_the_same_match(self):
        with use_registry(), use_index_store():
            config = ServeConfig(threshold=0.4)
            with MatchServer(make_corpus(50), "id", "v", config=config) as server:
                handle = server.submit("dave smith")
                first = handle.result(5)
                assert handle.result() is first
                assert handle.result(0) is first

    def test_timeout_while_the_worker_is_held(self):
        with use_registry(), use_index_store():
            config = ServeConfig(threshold=0.4, top_k=None)
            with MatchServer(make_corpus(50), "id", "v", config=config) as server:
                expected = server.match("dave smith").candidates
                with server._live._lock:  # the worker blocks inside its probe
                    handle = server.submit("dave smith")
                    with pytest.raises(TimeoutError):
                        handle.result(timeout=0.01)
                    with pytest.raises(TimeoutError):
                        handle.result(timeout=0)
                assert handle.result().candidates == expected

    def test_concurrent_waiters_all_get_the_result(self):
        with use_registry(), use_index_store():
            config = ServeConfig(threshold=0.4)
            with MatchServer(make_corpus(50), "id", "v", config=config) as server:
                with ThreadPoolExecutor(max_workers=4) as pool:
                    with server._live._lock:
                        handle = server.submit("dave smith")
                        waiting = [pool.submit(handle.result, 10) for _ in range(4)]
                    results = [future.result() for future in waiting]
                assert all(result is results[0] for result in results)

    def test_request_still_queued_at_stop_raises(self):
        with use_registry(), use_index_store():
            config = ServeConfig(threshold=0.4, workers=0)
            server = MatchServer(make_corpus(20), "id", "v", config=config).start()
            handle = server.submit("dave smith")
            # A drain that never ran: stop() must fail what it left queued.
            server.process_pending = lambda: 0
            server.stop()
            for _ in range(2):
                with pytest.raises(ServiceError, match="stopped before serving"):
                    handle.result(1)


class TestOneMallocArena:
    """A started server's threads share glibc's main malloc arena.

    By default a new thread gets an arena of its own, in an mmapped heap
    above the program break; after :meth:`MatchServer.start` it
    allocates from the main arena, below the break, so a block any
    thread frees is reusable by all.  Each side runs in a fresh
    interpreter, since the setting lasts the process.
    """

    SCRIPT = textwrap.dedent(
        """
        import ctypes, sys, threading

        libc = ctypes.CDLL(None)
        libc.malloc.argtypes, libc.malloc.restype = (ctypes.c_size_t,), ctypes.c_void_p
        libc.free.argtypes, libc.free.restype = (ctypes.c_void_p,), None
        libc.sbrk.argtypes, libc.sbrk.restype = (ctypes.c_ssize_t,), ctypes.c_void_p
        if sys.argv[1] == "start":
            from repro.serve import MatchServer, ServeConfig
            from repro.table import Table
            corpus = Table({"id": ["a", "b"], "v": ["x y", "y z"]})
            MatchServer(corpus, "id", "v", config=ServeConfig(workers=0)).start().stop()
        below_break = []

        def allocate():
            block = libc.malloc(4096)
            below_break.append(block < libc.sbrk(0))
            libc.free(block)

        thread = threading.Thread(target=allocate)
        thread.start()
        thread.join(60)
        print(int(below_break[0]))
        """
    )

    def _thread_allocates_in_main_arena(self, mode: str) -> bool:
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path for path in sys.path if path)}
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, mode],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip() == "1"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc arenas")
    def test_a_thread_started_after_the_server_allocates_in_the_main_arena(self):
        assert not self._thread_allocates_in_main_arena("none")
        assert self._thread_allocates_in_main_arena("start")

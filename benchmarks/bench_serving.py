"""Sustained-qps benchmark for the online match-serving layer.

The millions-of-users story the ROADMAP asks for, measured: a resident
:class:`repro.serve.MatchServer` loads one corpus index at startup and
answers point queries from concurrent client threads through the
micro-batching queue.  Reported per workload: sustained qps and exact
p50/p99 request latency (queue wait + service), against the offline
``set_sim_join`` run over the same queries as the batch baseline.

Correctness bar, asserted on every run: the served candidates of every
query are byte-identical (ids, float scores, order) to the batch join's
rows for that query.

``test_serving_smoke`` is the CI-scale variant; its archived
``serving_smoke.metrics.jsonl`` snapshot carries the
``serve_requests_total`` / ``serve_request_seconds`` /
``serve_batch_size`` series CI inspects.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor

from _report import format_table, report
from conftest import once

from repro.datasets.vocab import CITIES, FIRST_NAMES, LAST_NAMES
from repro.index import use_index_store
from repro.serve import MatchServer, ServeConfig
from repro.simjoin import set_sim_join
from repro.table import Table
from repro.text.tokenizers import WhitespaceTokenizer

THRESHOLD = 0.5
TENANTS = ("alice", "bob", "carol", "dan")


def make_name(rng: random.Random) -> str:
    return f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)} {rng.choice(CITIES)}"


def make_corpus(n: int, seed: int = 0) -> Table:
    rng = random.Random(seed)
    return Table(
        {"id": [f"b{i}" for i in range(n)], "v": [make_name(rng) for _ in range(n)]}
    )


def make_queries(n: int, seed: int = 1) -> list[str]:
    rng = random.Random(seed)
    return [make_name(rng) for _ in range(n)]


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def batch_reference(
    corpus: Table, queries: list[str], tokenizer
) -> tuple[list[list[tuple]], float]:
    """Per-query ranked candidates from the batch join, plus its seconds."""
    query_table = Table(
        {"id": [f"q{i}" for i in range(len(queries))], "v": list(queries)}
    )
    started = time.perf_counter()
    joined = set_sim_join(
        query_table, corpus, "id", "id", "v", "v", tokenizer, "jaccard", THRESHOLD
    )
    seconds = time.perf_counter() - started
    by_query: dict[str, list[tuple]] = {}
    for l_id, r_id, score in zip(
        joined.column("l_id"), joined.column("r_id"), joined.column("score")
    ):
        by_query.setdefault(l_id, []).append((r_id, score))
    expected = [
        sorted(by_query.get(f"q{i}", []), key=lambda pair: -pair[1])
        for i in range(len(queries))
    ]
    return expected, seconds


def drive(server: MatchServer, queries: list[str], client_threads: int):
    """Fire every query from a client pool; returns (results, latencies, wall)."""

    def ask(item):
        i, query = item
        return server.match(query, tenant=TENANTS[i % len(TENANTS)], timeout=60)

    started = time.perf_counter()
    if client_threads == 1:
        results = [ask(item) for item in enumerate(queries)]
    else:
        with ThreadPoolExecutor(max_workers=client_threads) as pool:
            results = list(pool.map(ask, enumerate(queries)))
    wall = time.perf_counter() - started
    return results, [r.seconds for r in results], wall


def _run_serving_suite(
    n_corpus: int, n_queries: int, client_threads: int = 16
) -> list[dict]:
    corpus = make_corpus(n_corpus)
    queries = make_queries(n_queries)
    tokenizer = WhitespaceTokenizer(return_set=True)
    rows: list[dict] = []

    with use_index_store():
        expected, batch_seconds = batch_reference(corpus, queries, tokenizer)
        rows.append(
            {
                "workload": f"batch set_sim_join ({n_queries} queries x {n_corpus} rows)",
                "clients": "-",
                "qps": f"{n_queries / batch_seconds:.0f}",
                "p50": "-",
                "p99": "-",
                "batch": n_queries,
            }
        )

        config = ServeConfig(
            threshold=THRESHOLD, top_k=None, workers=2, max_batch=64,
            max_queue_depth=1024, default_tenant_quota=None,
        )
        server = MatchServer(corpus, "id", "v", tokenizer=tokenizer, config=config)
        warm_started = time.perf_counter()
        server.start()
        warmup_seconds = time.perf_counter() - warm_started
        try:
            for label, threads in (("serial client", 1), (f"{client_threads} clients", client_threads)):
                results, latencies, wall = drive(server, queries, threads)
                served = [r.candidates for r in results]
                assert served == expected, "served candidates differ from batch join"
                rows.append(
                    {
                        "workload": f"MatchServer {label}",
                        "clients": threads,
                        "qps": f"{len(queries) / wall:.0f}",
                        "p50": f"{percentile(latencies, 0.5) * 1000:.2f}ms",
                        "p99": f"{percentile(latencies, 0.99) * 1000:.2f}ms",
                        "batch": f"{max(r.batch_size for r in results)} max",
                    }
                )
        finally:
            server.stop()
        rows.append(
            {
                "workload": "  server warmup (index load)",
                "clients": "-",
                "qps": "-",
                "p50": f"{warmup_seconds * 1000:.0f}ms",
                "p99": "-",
                "batch": "-",
            }
        )
    return rows


def test_serving(benchmark):
    """Full-scale sustained-qps run (archived as ``serving``)."""
    rows = once(benchmark, lambda: _run_serving_suite(n_corpus=20000, n_queries=2000))
    report(
        "serving",
        "Online match serving: resident MatchServer vs batch join",
        format_table(rows, ["workload", "clients", "qps", "p50", "p99", "batch"]),
    )


def test_serving_smoke():
    """CI-scale version: byte-identity + metrics snapshot, light load."""
    rows = _run_serving_suite(n_corpus=1500, n_queries=300, client_threads=8)
    report(
        "serving_smoke",
        "Online match serving smoke (small scale factor)",
        format_table(rows, ["workload", "clients", "qps", "p50", "p99", "batch"]),
    )
    from repro.obs import get_registry

    registry = get_registry()
    served = sum(
        value
        for (name, _), value in registry.counters().items()
        if name == "serve_requests_total"
    )
    # Serial pass + concurrent pass over the query set.
    assert served >= 2 * 300
    assert registry.histogram("serve_request_seconds").count >= 2 * 300

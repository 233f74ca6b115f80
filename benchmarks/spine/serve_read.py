"""serve_read: a resident MatchServer over a sparse corpus, read-only.

Three phases from one generator thread through ``submit()`` /
``PendingMatch.result()``: a closed loop with 1 outstanding request
(scalar probe + queue + linger), a closed loop with 32 outstanding
(8 per tenant; the micro-batched path), and an open loop at fixed
rates where every request is timed from its *due* time.  ``serve`` and
the ``index.delta`` read path do the work, ``features``/``matchers``
none; W=1 vs W=32 separates queue/linger overhead from kernel cost,
and the open loop is how independent users actually arrive.
"""

from __future__ import annotations

import time
from collections import deque

import gen
from common import counter_total, median, percentile, steady_rate

from repro.exceptions import BackpressureError, QuotaExceededError
from repro.index import IndexStore, LiveIndex, use_index_store
from repro.obs import get_registry
from repro.serve import MatchServer, ServeConfig
from repro.simjoin import set_sim_join
from repro.table import Table
from repro.text.tokenizers import WhitespaceTokenizer

THRESHOLD = 0.6
DEADLINE_MS = 10.0
OPEN_RATES = (150, 300, 600)
GUARDED_RATE = 300
BACKLOG_LIMIT = 8


def sizes(scale: float, rows: int | None = None) -> dict:
    return {
        "rows": rows or max(1000, int(50000 * scale)),
        "queries": max(200, int(4000 * scale)),
        "closed_requests": max(200, int(5000 * scale)),
        "warmup": max(50, int(500 * scale)),
        "open_seconds": max(0.5, 5.0 * scale),
    }


def generate(seed: int, sz: dict) -> dict:
    return gen.serve_read_inputs(seed, sz["rows"], sz["queries"])


def tenant(i: int) -> str:
    return gen.TENANTS[i % len(gen.TENANTS)]


def start_server(inputs: dict, warmup_values: list[str], tracer) -> dict:
    """Tables + ``MatchServer.start()`` on a cold store + warm-up."""
    with tracer.span("table:build"):
        corpus = Table({"id": inputs["id"], "value": inputs["value"]})
    store = IndexStore()
    server = MatchServer(
        corpus, "id", "value",
        config=ServeConfig(threshold=THRESHOLD, workers=1), store=store,
    )
    with tracer.span("serve:start"):
        started = time.perf_counter()
        server.start()
        warmup_s = time.perf_counter() - started
    with tracer.span("serve:warmup_requests"):
        for i, value in enumerate(warmup_values):
            server.match(value, tenant=tenant(i))
    return {"corpus": corpus, "store": store, "server": server, "warmup_s": warmup_s}


def setup(inputs: dict, sz: dict, tracer) -> dict:
    return start_server(inputs, inputs["queries"][: sz["warmup"]], tracer)


def teardown(state: dict) -> None:
    state["server"].stop()


def closed_loop(server, queries, n: int, window: int, offset: int, tracer=None):
    """``n`` requests with ``window`` outstanding; returns the steady
    completion rate and one ``(query index, client seconds,
    MatchResult)`` per request.  With a tracer, each request becomes a
    span under the current one."""
    parent = tracer.current() if tracer else None
    pending: deque = deque()
    done, finish_times = [], []
    sent = 0
    started = time.perf_counter()
    while sent < n or pending:
        while sent < n and len(pending) < window:
            index = (offset + sent) % len(queries)
            pending.append((index, time.perf_counter(), server.submit(queries[index], tenant=tenant(sent))))
            sent += 1
        index, submitted, handle = pending.popleft()
        result = handle.result()
        finished = time.perf_counter()
        done.append((index, finished - submitted, result))
        finish_times.append(finished)
        if tracer:
            tracer.record("serve:request", submitted, finished, parent)
    return steady_rate(started, finish_times), done


def open_loop(server, queries, rate: int, seconds: float, offset: int) -> dict:
    """Fixed-rate arrivals; every request is timed from its due time."""
    n = max(1, int(rate * seconds))
    sent = []
    first_due = time.perf_counter() + 0.005
    for i in range(n):
        due = first_due + i / rate
        now = time.perf_counter()
        while now < due:
            time.sleep(due - now)
            now = time.perf_counter()
        index = (offset + i) % len(queries)
        try:
            handle = server.submit(queries[index], tenant=tenant(i))
        except (BackpressureError, QuotaExceededError):
            handle = None
        sent.append((index, now - due, handle))
    # Queued when the schedule ends: a server keeping up holds a couple
    # of requests, a growing backlog holds many.
    backlog = server.stats()["queue_depth"]
    answers = []
    for index, late, handle in sent:
        if handle is None:
            answers.append((index, late, None, None))
            continue
        result = handle.result()
        answers.append((index, late, (late + result.seconds) * 1000.0, result))
    return {"sent": n, "backlog": backlog, "answers": answers}


def run(state: dict, inputs: dict, sz: dict, tracer) -> dict:
    server, queries = state["server"], inputs["queries"]
    registry = get_registry()
    rejections0 = counter_total(registry, "serve_rejections_total")
    n, warmup = sz["closed_requests"], sz["warmup"]
    phases = {}
    for name, window in (("closed_w1", 1), ("closed_w32", 32)):
        closed_loop(server, queries, warmup, window, 0)
        with tracer.span(f"serve:{name}"):
            phases[name] = closed_loop(
                server, queries, n, window, warmup, tracer if tracer.enabled else None
            )
    rates = OPEN_RATES if tracer.enabled else (GUARDED_RATE,)
    opened = {}
    for rate in rates:
        open_loop(server, queries, rate, min(0.5, sz["open_seconds"]), 0)
        with tracer.span(f"serve:open_r{rate}"):
            opened[rate] = open_loop(server, queries, rate, sz["open_seconds"], warmup)
    rejections = counter_total(registry, "serve_rejections_total") - rejections0

    w1_qps, w1 = phases["closed_w1"]
    w32_qps, w32 = phases["closed_w32"]
    w1_client_ms = median([seconds for _, seconds, _ in w1]) * 1000.0
    w1_server_ms = median([result.seconds for _, _, result in w1]) * 1000.0
    return {
        "native": {"closed_w1_qps": w1_qps, "closed_w32_qps": w32_qps},
        "work_s": n / w1_qps + n / w32_qps,
        "layers": {
            "serve.warmup_s": state["warmup_s"],
            "serve.closed_w1_p50_ms": w1_client_ms,
            "serve.closed_w32_p50_ms": median([seconds for _, seconds, _ in w32]) * 1000.0,
            "serve.mean_batch_w32": sum(result.batch_size for _, _, result in w32) / len(w32),
            "serve.candidates_per_query": sum(result.n_candidates for _, _, result in w1) / len(w1),
            "serve.rejections": rejections,
        },
        "accounted": {"closed_w1_latency": w1_server_ms / w1_client_ms},
        "counts": {
            "closed_requests": 2 * n,
            "open_requests": sum(phase["sent"] for phase in opened.values()),
            "w1_candidates": sum(result.n_candidates for _, _, result in w1),
        },
        "_closed": w1 + w32,
        "_open": opened,
    }


def layers(state: dict, inputs: dict, sz: dict, tracer, result: dict) -> dict:
    """The probe kernel without the server around it: direct
    ``LiveIndex.search`` / ``search_batch`` over the same store."""
    queries = inputs["queries"]
    live = LiveIndex.from_table(
        state["corpus"], "id", "value", threshold=THRESHOLD, store=state["store"], name="spine-probe"
    )
    sample = queries[: min(len(queries), 2000)]
    for value in sample[:100]:
        live.search(value)
    scalar = []
    with tracer.span("index.delta:search"):
        for value in sample:
            started = time.perf_counter()
            live.search(value)
            scalar.append(time.perf_counter() - started)
    search_p50_us = median(scalar) * 1e6
    layer = {
        "index.delta.search_p50_us": search_p50_us,
        "serve.queue_overhead_ms": result["layers"]["serve.closed_w1_p50_ms"] - search_p50_us / 1000.0,
    }
    for batch in (8, 64):
        live.search_batch(sample[:batch])
        per_query = []
        with tracer.span(f"index.delta:search_batch{batch}"):
            for start in range(0, len(sample) - batch + 1, batch):
                started = time.perf_counter()
                live.search_batch(sample[start : start + batch])
                per_query.append((time.perf_counter() - started) / batch)
        layer[f"index.delta.search_batch{batch}_per_q_us"] = median(per_query) * 1e6
    return {"layers": layer}


def reference_answers(queries: list[str], corpus: Table, top_k: int | None) -> list[list[tuple]]:
    """Ranked matches per query from the batch join, the serving
    contract's reference: descending score, ties by corpus position."""
    probe = Table({"id": list(range(len(queries))), "value": queries})
    with use_index_store(IndexStore()):
        joined = set_sim_join(
            probe, corpus, "id", "id", "value", "value",
            WhitespaceTokenizer(return_set=True), measure="jaccard", threshold=THRESHOLD,
        )
    position = {key: i for i, key in enumerate(corpus["id"])}
    answers: list[list[tuple]] = [[] for _ in queries]
    for query_id, key, score in zip(joined["l_id"], joined["r_id"], joined["score"]):
        answers[query_id].append((key, score))
    for ranked in answers:
        ranked.sort(key=lambda pair: (-pair[1], position[pair[0]]))
        if top_k is not None:
            del ranked[top_k:]
    return answers


def check(state: dict, inputs: dict, sz: dict, result: dict) -> dict:
    """Every answer equals the ``set_sim_join(queries, corpus)`` reference;
    open-loop requests also have to land within the deadline."""
    expected = reference_answers(inputs["queries"], state["corpus"], top_k=10)
    attempted, failed, failures = 0, 0, []
    for index, _, answer in result["_closed"]:
        attempted += 1
        if answer.candidates != expected[index]:
            failed += 1
            failures.append(f"closed-loop answer for query {index} differs from the join")
    layer, native = {}, {}
    ok_rates = []
    for rate, phase in result["_open"].items():
        latencies, ok, late = [], 0, []
        for index, lateness, latency_ms, answer in phase["answers"]:
            attempted += 1
            late.append(lateness * 1000.0)
            if answer is None:
                continue  # rejected: a miss, not a wrong answer
            latencies.append(latency_ms)
            if answer.candidates != expected[index]:
                failed += 1
                failures.append(f"open-loop r{rate} answer for query {index} differs from the join")
            elif latency_ms <= DEADLINE_MS:
                ok += 1
        ok_share = ok / phase["sent"]
        if ok_share >= 0.99 and phase["backlog"] <= BACKLOG_LIMIT:
            ok_rates.append(rate)
        if rate == GUARDED_RATE:
            native["open_r300_ok_share"] = ok_share
            layer["serve.open_r300_p50_ms"] = median(latencies)
            layer["serve.gen_late_p99_ms"] = percentile(late, 0.99)
        if rate == 600:
            layer["serve.open_r600_ok_share"] = ok_share
        layer[f"serve.open_r{rate}_p99_ms"] = percentile(latencies, 0.99) if latencies else 0.0
    layer["serve.open_max_ok_rate"] = max(ok_rates, default=0)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "native": native,
        "quality": native["open_r300_ok_share"],
        "layers": layer,
    }

"""serve_churn: the same server and corpus with writes beside reads.

A closed loop (1 outstanding) of 80 % ``match`` / 15 % ``upsert`` (half
new keys, half replacements) / 5 % ``delete``, with ``compact()`` fired
from a second thread every N writes while reads continue.  It uses
``index.delta`` the other way from ``serve_read`` - delta postings,
tombstones, base+delta merge, compaction - so a read-path gain bought
with slower upserts, slower compaction, or stalled readers shows here
and not there.
"""

from __future__ import annotations

import shutil
import threading
import time

import gen
from common import WORK_DIR, median, percentile
from serve_read import THRESHOLD, reference_answers, start_server, teardown, tenant  # noqa: F401

from repro.index import IndexStore, LiveIndex
from repro.table import Table

#: Probe requests ask for every match, so the post-run comparison does
#: not depend on how ties order at a top-k cut.
PROBE_TOP_K = 1000000


def sizes(scale: float, rows: int | None = None) -> dict:
    ops = max(600, int(10000 * scale))
    return {
        "rows": rows or max(1000, int(50000 * scale)),
        "ops": ops,
        # ~20 % of ops are writes, so five triggers and four full cycles.
        "compact_every": max(20, ops // 26),
        "warmup": max(50, int(300 * scale)),
        "probes": 500,
        "bulk": max(100, int(2000 * scale)),
    }


def generate(seed: int, sz: dict) -> dict:
    return gen.serve_churn_inputs(seed, sz["rows"], sz["ops"], sz["probes"], sz["bulk"])


def setup(inputs: dict, sz: dict, tracer) -> dict:
    return start_server(inputs, inputs["probes"][: sz["warmup"]], tracer)


class Compactor(threading.Thread):
    """The second generator thread: runs ``server.compact()`` each time
    the op loop asks, recording how long it took and how much delta and
    tombstone state had built up."""

    def __init__(self, server, tracer):
        super().__init__(name="spine-compactor")
        self.server, self.tracer = server, tracer
        self.wanted = threading.Event()
        self.finished = threading.Event()
        self.running = threading.Event()
        self.seconds: list[float] = []
        self.delta_rows: list[int] = []
        self.tombstones: list[int] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            while True:
                self.wanted.wait()
                self.wanted.clear()
                if self.finished.is_set():
                    return
                stats = self.server.stats()
                self.delta_rows.append(stats["delta_rows"])
                self.tombstones.append(stats["tombstones"])
                self.running.set()
                with self.tracer.span("index.delta:compact_under_load"):
                    started = time.perf_counter()
                    self.server.compact()
                    self.seconds.append(time.perf_counter() - started)
                self.running.clear()
        except BaseException as exc:  # re-raised by close() on the op thread
            self.error = exc
            self.running.clear()

    def close(self) -> None:
        self.finished.set()
        self.wanted.set()
        self.join()
        if self.error is not None:
            raise self.error


def run(state: dict, inputs: dict, sz: dict, tracer) -> dict:
    server = state["server"]
    shadow = dict(zip(inputs["id"], inputs["value"]))
    latency = {"match": [], "upsert": [], "delete": []}
    reads_during_compact = []
    compactor = Compactor(server, tracer)
    compactor.start()
    writes = 0
    # One cycle = the ops between two compaction triggers: each holds
    # one compaction and the quiet stretch after it, so cycles are
    # alike and their median rate discards a noisy one.
    cycle_rates, cycle_started, cycle_ops = [], 0.0, 0
    try:
        with tracer.span("serve:mixed_ops"):
            for i, op in enumerate(inputs["ops"]):
                op_started = time.perf_counter()
                if op[0] == "match":
                    server.submit(op[1], tenant=tenant(i)).result()
                    seconds = time.perf_counter() - op_started
                    if compactor.running.is_set():
                        reads_during_compact.append(seconds)
                else:
                    if op[0] == "upsert":
                        server.upsert(op[1], op[2], tenant=tenant(i))
                        seconds = time.perf_counter() - op_started
                        shadow[op[1]] = op[2]
                    else:
                        server.delete(op[1], tenant=tenant(i))
                        seconds = time.perf_counter() - op_started
                        shadow.pop(op[1], None)
                    writes += 1
                    if writes % sz["compact_every"] == 0:
                        now = time.perf_counter()
                        if cycle_started:
                            cycle_rates.append((i - cycle_ops) / (now - cycle_started))
                        cycle_started, cycle_ops = now, i
                        compactor.wanted.set()
                latency[op[0]].append(seconds)
    finally:
        compactor.close()

    ops_per_s = median(cycle_rates)
    return {
        "native": {
            "mixed_ops_per_s": ops_per_s,
            "read_p50_ms": median(latency["match"]) * 1000.0,
            "upsert_p50_us": median(latency["upsert"]) * 1e6,
            "compact_s": median(compactor.seconds),
        },
        "work_s": len(inputs["ops"]) / ops_per_s,
        "layers": {
            "index.delta.delete_p50_us": median(latency["delete"]) * 1e6,
            "index.delta.delta_rows_max": max(compactor.delta_rows, default=0),
            "index.delta.tombstones_max": max(compactor.tombstones, default=0),
            "serve.read_during_compact_p50_ms": median(reads_during_compact) * 1000.0,
            "serve.read_p99_ms": percentile(latency["match"], 0.99) * 1000.0,
        },
        "counts": {
            "ops": len(inputs["ops"]),
            "reads": len(latency["match"]),
            "upserts": len(latency["upsert"]),
            "deletes": len(latency["delete"]),
            "compactions": len(compactor.seconds),
            "cycles": len(cycle_rates),
            "live_rows": len(shadow),
        },
        "_reads_during_compact": len(reads_during_compact),
        "_shadow": shadow,
    }


def layers(state: dict, inputs: dict, sz: dict, tracer, result: dict) -> dict:
    """``index.delta`` without the server: bulk upsert, a compaction
    with no readers beside it, and save/load through a disk store."""
    cache_dir = WORK_DIR / f"churn-live-{time.time_ns()}"
    try:
        live = LiveIndex.from_table(
            state["corpus"], "id", "value", threshold=THRESHOLD,
            store=IndexStore(cache_dir=cache_dir), name="spine-churn",
        )
        with tracer.span("index.delta:upsert_many"):
            started = time.perf_counter()
            live.upsert_many([tuple(item) for item in inputs["bulk"]])
            bulk_s = time.perf_counter() - started
        with tracer.span("index.delta:save"):
            started = time.perf_counter()
            saved = live.save()
            save_s = time.perf_counter() - started
        saved_bytes = saved.stat().st_size
        with tracer.span("index.delta:load"):
            started = time.perf_counter()
            LiveIndex.load("spine-churn", store=IndexStore(cache_dir=cache_dir))
            load_s = time.perf_counter() - started
        with tracer.span("index.delta:compact"):
            started = time.perf_counter()
            live.compact()
            compact_s = time.perf_counter() - started
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "layers": {
            "index.delta.upsert_many_per_s": len(inputs["bulk"]) / bulk_s,
            "index.delta.compact_s": compact_s,
            "index.delta.save_s": save_s,
            "index.delta.load_s": load_s,
            "index.delta.saved_bytes": saved_bytes,
        }
    }


def check(state: dict, inputs: dict, sz: dict, result: dict) -> dict:
    """Probe answers after the churn equal a ``set_sim_join`` against a
    table rebuilt from the harness's own shadow copy of the corpus."""
    server, shadow = state["server"], result["_shadow"]
    probes = inputs["probes"]
    rebuilt = Table({"id": list(shadow), "value": list(shadow.values())})
    expected = reference_answers(probes, rebuilt, top_k=None)
    failures = []
    for i, value in enumerate(probes):
        answer = server.match(value, tenant=tenant(i), top_k=PROBE_TOP_K)
        if dict(answer.candidates) != dict(expected[i]):
            failures.append(f"probe {i} differs from the join over the shadow corpus")
    if result["counts"]["compactions"] < 3:
        failures.append(f"only {result['counts']['compactions']} compactions ran (need 3)")
    if not result["_reads_during_compact"]:
        failures.append("no read was served while a compaction ran")
    return {
        "attempted": len(probes) + 2,
        "failed": len(failures),
        "failures": failures[:10],
        "layers": {},
    }

"""The names every later performance claim uses.

One registry, three tiers:

* ``CONTRACT`` - the ``end_to_end`` block of ``BENCHMARK.json``.  The
  driver wants every workload to report every end-to-end metric, so
  these four are defined on all four workloads (``work_s`` and
  ``quality`` resolve to a workload's own headline numbers).
* ``NATIVE`` - the workload-specific end-to-end metrics (with
  ``setup_s`` and ``peak_rss_mb`` they are the issue's 15 names),
  measured with tracing off, each with its own regression bound;
  ``compare.py`` guards them.  ``BENCHMARK.json`` lists them under
  ``per_layer`` (the traced run re-measures them as root spans) because
  a workload cannot report another workload's number.
* ``LAYER`` - per-layer metrics recorded by the traced run, with the
  end-to-end metric each should move.

Tuples are ``(name, unit, better, bound, bound_kind, why)`` for the
first two tiers and ``(name, unit, better, moves)`` for ``LAYER``.
"""

from __future__ import annotations

WORKLOADS = {
    "guide_batch": "the batch user's whole job: features + matchers dominate, simjoin/index do almost nothing",
    "join_batch": "string join alone, sparse vs dense vocabulary, cold vs disk-warm: simjoin/perf/index.store only",
    "serve_read": "resident server, read-only: queue/linger (W=1) vs batched kernel (W=32) vs open-loop arrivals",
    "serve_churn": "same server with upserts, deletes and compaction beside reads: index.delta write path",
}

CONTRACT = [
    ("work_s", "s", "lower", 0.25, "rel",
     "wall seconds of the workload's fixed amount of timed work"),
    ("quality", "ratio", "higher", 0.05, "rel",
     "answer quality: f1, oracle agreement share, or in-deadline correct share"),
    ("peak_rss_mb", "MB", "lower", 0.10, "rel",
     "ru_maxrss of the workload subprocess before the off-clock checks"),
    ("setup_s", "s", "lower", 0.25, "rel",
     "import repro + build Tables + catalog keys (+ server start on a cold store + warm-up)"),
]

NATIVE = {
    "guide_batch": [
        ("workflow_s", "s", "lower", 0.10, "rel", "wall of MagellanWorkflow.run()"),
        ("f1", "ratio", "higher", 0.005, "abs", "predicted vs gold pairs; repeats exactly for a seed"),
    ],
    "join_batch": [
        ("sparse_cold_s", "s", "lower", 0.10, "rel", "set_sim_join into an empty IndexStore, open vocabulary"),
        ("sparse_diskwarm_s", "s", "lower", 0.10, "rel", "same join from a new IndexStore on the same cache_dir"),
        ("dense_cold_s", "s", "lower", 0.10, "rel", "set_sim_join into an empty IndexStore, closed vocabulary"),
        ("dense_diskwarm_s", "s", "lower", 0.10, "rel", "same join from a new IndexStore on the same cache_dir"),
    ],
    "serve_read": [
        ("closed_w1_qps", "1/s", "higher", 0.10, "rel", "closed loop, 1 outstanding request"),
        ("closed_w32_qps", "1/s", "higher", 0.10, "rel", "closed loop, 32 outstanding (8 per tenant)"),
        ("open_r300_ok_share", "ratio", "higher", 0.05, "abs",
         "share of requests sent at 300 req/s answered correctly within 10 ms of their due time"),
    ],
    "serve_churn": [
        ("mixed_ops_per_s", "1/s", "higher", 0.10, "rel", "closed loop of 80/15/5 match/upsert/delete"),
        ("read_p50_ms", "ms", "lower", 0.10, "rel", "median match latency inside the mixed stream"),
        ("upsert_p50_us", "us", "lower", 0.10, "rel", "median upsert latency inside the mixed stream"),
        ("compact_s", "s", "lower", 0.10, "rel", "median compact() wall while reads continue"),
    ],
}

_JOIN_LAYERS = [
    ("index.store.tokenize_s", "s", "lower", "{r}_cold_s"),
    ("index.store.encode_s", "s", "lower", "{r}_cold_s"),
    ("index.store.build_s", "s", "lower", "{r}_cold_s"),
    ("simjoin.probe_s", "s", "lower", "{r}_cold_s, {r}_diskwarm_s; blocking.block_s on guide_batch"),
    ("simjoin.candidates", "count", "lower", "{r}_cold_s"),
    ("simjoin.survivors", "count", "higher", "{r}_cold_s"),
    ("simjoin.survival_ratio", "ratio", "higher", "{r}_cold_s"),
    ("simjoin.rows_out", "count", "higher", "{r}_cold_s"),
    ("index.store.disk_load_s", "s", "lower", "{r}_diskwarm_s"),
    ("index.store.disk_bytes", "bytes", "lower", "{r}_diskwarm_s"),
    ("index.store.disk_bytes_per_input_byte", "ratio", "lower", "{r}_diskwarm_s"),
    ("index.store.builds", "count", "lower", "{r}_cold_s"),
    ("index.store.reuses_disk", "count", "higher", "{r}_diskwarm_s"),
]

LAYER = {
    "guide_batch": [
        ("table.build_s", "s", "lower", "setup_s"),
        ("blocking.block_s", "s", "lower", "workflow_s"),
        ("blocking.candidates", "count", "lower", "workflow_s"),
        ("blocking.gold_recall", "ratio", "higher", "f1"),
        ("sampling.sample_s", "s", "lower", "workflow_s"),
        ("labeling.label_s", "s", "lower", "workflow_s"),
        ("features.generate_s", "s", "lower", "workflow_s"),
        ("features.extract_sample_s", "s", "lower", "workflow_s"),
        ("features.extract_all_s", "s", "lower", "workflow_s"),
        ("features.pairs_per_s", "1/s", "higher", "workflow_s"),
        ("features.cache_hit_ratio", "ratio", "higher", "workflow_s"),
        ("matchers.select_s", "s", "lower", "workflow_s"),
        ("matchers.predict_s", "s", "lower", "workflow_s"),
        ("matchers.predict_pairs_per_s", "1/s", "higher", "workflow_s"),
        ("postprocess.cluster_s", "s", "lower", "workflow_s"),
        ("pipeline.overhead_s", "s", "lower", "workflow_s"),
    ],
    "join_batch": [
        (f"{name}.{regime}", unit, better, moves.format(r=regime))
        for regime in ("sparse", "dense")
        for name, unit, better, moves in _JOIN_LAYERS
    ],
    "serve_read": [
        ("serve.warmup_s", "s", "lower", "setup_s"),
        ("index.delta.search_p50_us", "us", "lower", "closed_w1_qps"),
        ("serve.queue_overhead_ms", "ms", "lower", "closed_w1_qps"),
        ("index.delta.search_batch8_per_q_us", "us", "lower", "closed_w32_qps, open_r300_ok_share"),
        ("index.delta.search_batch64_per_q_us", "us", "lower", "closed_w32_qps, open_r300_ok_share"),
        ("serve.closed_w1_p50_ms", "ms", "lower", "closed_w1_qps"),
        ("serve.closed_w32_p50_ms", "ms", "lower", "closed_w32_qps"),
        ("serve.mean_batch_w32", "count", "higher", "closed_w32_qps"),
        ("serve.candidates_per_query", "count", "lower", "closed_w1_qps"),
        ("serve.rejections", "count", "lower", "open_r300_ok_share"),
        ("serve.open_r150_p99_ms", "ms", "lower", "open_r300_ok_share"),
        ("serve.open_r300_p50_ms", "ms", "lower", "open_r300_ok_share"),
        ("serve.open_r300_p99_ms", "ms", "lower", "open_r300_ok_share"),
        ("serve.open_r600_p99_ms", "ms", "lower", "open_r300_ok_share"),
        ("serve.open_r600_ok_share", "ratio", "higher", "open_r300_ok_share"),
        ("serve.open_max_ok_rate", "1/s", "higher", "open_r300_ok_share"),
        ("serve.gen_late_p99_ms", "ms", "lower", "(generator health, not the program)"),
    ],
    "serve_churn": [
        ("index.delta.delete_p50_us", "us", "lower", "mixed_ops_per_s"),
        ("index.delta.upsert_many_per_s", "1/s", "higher", "mixed_ops_per_s"),
        ("index.delta.compact_s", "s", "lower", "compact_s"),
        ("index.delta.delta_rows_max", "count", "lower", "read_p50_ms"),
        ("index.delta.tombstones_max", "count", "lower", "read_p50_ms"),
        ("serve.read_during_compact_p50_ms", "ms", "lower", "read_p50_ms"),
        ("serve.read_p99_ms", "ms", "lower", "read_p50_ms"),
        ("index.delta.save_s", "s", "lower", "(none yet: baseline for pickle-free artifacts)"),
        ("index.delta.load_s", "s", "lower", "(none yet: baseline for pickle-free artifacts)"),
        ("index.delta.saved_bytes", "bytes", "lower", "(none yet: baseline for pickle-free artifacts)"),
    ],
}

def contract_names() -> list[str]:
    return [row[0] for row in CONTRACT]


def native_names(workload: str) -> list[str]:
    return [row[0] for row in NATIVE[workload]]


def layer_names(workload: str) -> list[str]:
    return [row[0] for row in LAYER[workload]]


def per_layer_block() -> list[dict]:
    """``per_layer`` of ``BENCHMARK.json``: layer metrics, then the
    workload-native end-to-end metrics as root spans."""
    rows = []
    for workload in WORKLOADS:
        rows += [{"name": n, "unit": u, "better": b} for n, u, b, _ in LAYER[workload]]
    for workload in WORKLOADS:
        rows += [{"name": n, "unit": u, "better": b} for n, u, b, *_ in NATIVE[workload]]
    return rows


def end_to_end_block() -> list[dict]:
    return [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound, *_ in CONTRACT]


def bounds() -> dict[str, tuple[str, float, str]]:
    """name -> (better, bound, 'rel' | 'abs') for every guarded metric."""
    guarded = {n: (b, bound, kind) for n, _, b, bound, kind, _ in CONTRACT}
    for rows in NATIVE.values():
        guarded.update({n: (b, bound, kind) for n, _, b, bound, kind, _ in rows})
    return guarded


def units() -> dict[str, str]:
    table = {row[0]: row[1] for row in CONTRACT}
    for rows in list(NATIVE.values()) + list(LAYER.values()):
        table.update({row[0]: row[1] for row in rows})
    return table

"""Build-once/probe-many: what the IndexStore saves on repeated runs.

Every join used to rebuild its tokenization, ``TokenUniverse`` encoding,
and prefix index from scratch — including Falcon re-running its fallback
blocker and Smurf sweeping thresholds over the same pair of tables.
This bench measures the amortization the :class:`repro.index.IndexStore`
buys:

* a *warm* ``set_sim_join`` / ``OverlapBlocker`` run (store already
  holds the artifacts) against a *cold* one, asserting byte-identical
  output serial and parallel;
* a warm-from-disk run (fresh process-equivalent: fresh store pointed at
  a persisted cache directory);
* the cold ``pair_encoding`` (``encode_s``), asserted equal to the scalar
  chain it replaced: ``TokenUniverse`` over both sides, ``encode`` per
  record;
* feature extraction with global (l_value, r_value) dedup against naive
  per-pair evaluation;
* a repeated Falcon run, asserting ``index_reuses_total`` grows.

The archived ``index_reuse.metrics.jsonl`` snapshot carries the
``index_builds_total`` / ``index_reuses_total`` counters CI inspects.
"""

from __future__ import annotations

import random
import tempfile
import time

from _report import format_table, report
from conftest import once

from repro.blocking import OverlapBlocker
from repro.datasets import DirtinessConfig, make_em_dataset
from repro.datasets.entities import restaurant
from repro.datasets.vocab import CITIES, FIRST_NAMES, LAST_NAMES
from repro.falcon import FalconConfig, run_falcon
from repro.features import extract_feature_vecs, get_features_for_matching
from repro.index import IndexStore, use_index_store
from repro.labeling import LabelingSession, OracleLabeler
from repro.obs import get_registry
from repro.perf.arrays import record_tuples
from repro.perf.tokens import TokenUniverse
from repro.simjoin import set_sim_join
from repro.table import Table
from repro.text.tokenizers import QgramTokenizer

N_JOBS = 4


def make_tables(n: int, seed: int = 0) -> tuple[Table, Table]:
    rng = random.Random(seed)

    def name() -> str:
        return f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)} {rng.choice(CITIES)}"

    ltable = Table({"id": [f"a{i}" for i in range(n)], "v": [name() for _ in range(n)]})
    rtable = Table({"id": [f"b{i}" for i in range(n)], "v": [name() for _ in range(n)]})
    return ltable, rtable


def _columns(table: Table) -> list[list]:
    return [table.column(name) for name in table.columns]


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _counter_total(name: str) -> float:
    return sum(
        value
        for (metric, _), value in get_registry().counters().items()
        if metric == name
    )


def _join(ltable: Table, rtable: Table, n_jobs: int = 1) -> Table:
    # A fresh tokenizer per call: its tokenize_cached memo must not leak
    # warmth into a run meant to be cold.  A tight threshold keeps the
    # probe phase short, so the timing contrast isolates what the store
    # amortizes: tokenize + universe encode + prefix-index build.
    return set_sim_join(
        ltable, rtable, "id", "id", "v", "v",
        QgramTokenizer(q=3, return_set=True), "jaccard", 0.9, n_jobs=n_jobs,
    )


def _run_reuse_suite(n: int, falcon_size: int, falcon_budget: int) -> list[dict]:
    rows: list[dict] = []
    ltable, rtable = make_tables(n)

    # -- join: cold vs warm (memory tier), serial and parallel ---------
    with use_index_store():
        cold, cold_seconds = _timed(lambda: _join(ltable, rtable))
        warm, warm_seconds = _timed(lambda: _join(ltable, rtable))
        warm_parallel, warm_parallel_seconds = _timed(
            lambda: _join(ltable, rtable, n_jobs=N_JOBS)
        )
    assert _columns(warm) == _columns(cold), "warm join output differs from cold"
    assert _columns(warm_parallel) == _columns(cold), "parallel warm output differs"
    rows.append(
        {
            "workload": f"set_sim_join jaccard 0.9 ({n}x{n})",
            "cold": f"{cold_seconds * 1000:.0f}ms",
            "warm": f"{warm_seconds * 1000:.0f}ms",
            "speedup": f"{cold_seconds / warm_seconds:.1f}x",
            "output": cold.num_rows,
        }
    )
    rows.append(
        {
            "workload": f"  warm + n_jobs={N_JOBS}",
            "cold": "-",
            "warm": f"{warm_parallel_seconds * 1000:.0f}ms",
            "speedup": f"{cold_seconds / warm_parallel_seconds:.1f}x",
            "output": warm_parallel.num_rows,
        }
    )

    # -- join: warm from disk (fresh store = fresh process) ------------
    with tempfile.TemporaryDirectory() as cache_dir:
        with use_index_store(IndexStore(cache_dir=cache_dir)):
            _, build_seconds = _timed(lambda: _join(ltable, rtable))
        with use_index_store(IndexStore(cache_dir=cache_dir)):
            disk_warm, disk_seconds = _timed(lambda: _join(ltable, rtable))
    assert _columns(disk_warm) == _columns(cold), "disk-warm join output differs"
    rows.append(
        {
            "workload": "  warm from disk cache",
            "cold": f"{build_seconds * 1000:.0f}ms",
            "warm": f"{disk_seconds * 1000:.0f}ms",
            "speedup": f"{build_seconds / disk_seconds:.1f}x",
            "output": disk_warm.num_rows,
        }
    )

    # -- encoding: the array build against the scalar chain ------------
    store = IndexStore()
    tokenizer = QgramTokenizer(q=3, return_set=True)
    columns = [store.tokenized_column(t, "id", "v", tokenizer) for t in (ltable, rtable)]
    encoding, encode_seconds = _timed(lambda: store.pair_encoding(*columns))
    oracle = TokenUniverse(
        column.token_sets[value] for column in columns for _, value in column.records
    )
    n_tokens = len(oracle)
    assert encoding.universe.decode(range(n_tokens)) == oracle.decode(range(n_tokens))
    for side, column in zip((encoding.left, encoding.right), columns):
        assert record_tuples(side) == [
            (row_key, oracle.encode(column.token_sets[value]))
            for row_key, value in column.records
        ], "array encoding differs from the scalar chain"
    rows.append(
        {
            "workload": f"  pair_encoding, encode_s ({n_tokens} tokens)",
            "cold": f"{encode_seconds * 1000:.0f}ms",
            "warm": "-",
            "speedup": "-",
            "output": len(encoding.left.keys) + len(encoding.right.keys),
        }
    )

    # -- blocker: cold vs warm -----------------------------------------
    blocker = OverlapBlocker("v", overlap_size=2)
    with use_index_store():
        cold_block, cold_block_seconds = _timed(
            lambda: blocker.block_tables(ltable, rtable, "id", "id")
        )
        warm_block, warm_block_seconds = _timed(
            lambda: blocker.block_tables(ltable, rtable, "id", "id")
        )
    assert _columns(warm_block) == _columns(cold_block)
    rows.append(
        {
            "workload": f"OverlapBlocker size=2 ({n}x{n})",
            "cold": f"{cold_block_seconds * 1000:.0f}ms",
            "warm": f"{warm_block_seconds * 1000:.0f}ms",
            "speedup": f"{cold_block_seconds / warm_block_seconds:.1f}x",
            "output": cold_block.num_rows,
        }
    )

    # -- feature extraction: global dedup vs naive per-pair ------------
    # Real candidate sets repeat attribute-value pairs heavily (city,
    # state, brand columns), so this workload draws values from a small
    # pool: duplicate pairs land in every shard and the global dedup
    # evaluates each distinct pair once.
    pool = [f"{f} {c}" for f in FIRST_NAMES[:8] for c in CITIES[:4]]
    n_dup = min(n, 600)  # quadratic-ish candset on a 32-value pool; cap it
    rng = random.Random(1)
    dup_l = Table(
        {"id": [f"a{i}" for i in range(n_dup)], "v": [rng.choice(pool) for _ in range(n_dup)]}
    )
    dup_r = Table(
        {"id": [f"b{i}" for i in range(n_dup)], "v": [rng.choice(pool) for _ in range(n_dup)]}
    )
    candset = OverlapBlocker("v", overlap_size=2).block_tables(dup_l, dup_r, "id", "id")
    features = get_features_for_matching(dup_l, dup_r, "id", "id")
    hits_before = _counter_total("feature_cache_hits_total")
    misses_before = _counter_total("feature_cache_misses_total")
    fv, dedup_seconds = _timed(lambda: extract_feature_vecs(candset, features))
    hits = _counter_total("feature_cache_hits_total") - hits_before
    misses = _counter_total("feature_cache_misses_total") - misses_before

    def naive_extract() -> dict[str, list]:
        l_index = dup_l.index_by("id")
        r_index = dup_r.index_by("id")
        columns: dict[str, list] = {f.name: [] for f in features}
        for l_id, r_id in zip(candset.column("ltable_id"), candset.column("rtable_id")):
            l_row, r_row = l_index[l_id], r_index[r_id]
            for feature in features:
                columns[feature.name].append(
                    feature(l_row[feature.l_attr], r_row[feature.r_attr])
                )
        return columns

    naive_columns, naive_seconds = _timed(naive_extract)
    for feature in features:
        assert fv.column(feature.name) == naive_columns[feature.name], (
            f"dedup extraction differs from naive for {feature.name}"
        )
    rows.append(
        {
            "workload": f"extract_feature_vecs ({candset.num_rows} pairs, "
            f"{misses:.0f} distinct evals, {hits:.0f} dedup hits)",
            "cold": f"{naive_seconds * 1000:.0f}ms",
            "warm": f"{dedup_seconds * 1000:.0f}ms",
            "speedup": f"{naive_seconds / dedup_seconds:.1f}x",
            "output": fv.num_rows,
        }
    )

    # -- Falcon, run twice: second run reuses the first run's indexes --
    dataset = make_em_dataset(
        restaurant, falcon_size, falcon_size, match_fraction=0.5,
        dirtiness=DirtinessConfig.light(), seed=7, name="index-reuse",
    )
    config = FalconConfig(
        sample_size=min(4 * falcon_size, 700),
        blocking_budget=falcon_budget // 3,
        matching_budget=falcon_budget,
        random_state=0,
    )

    def falcon_once() -> float:
        session = LabelingSession(OracleLabeler(dataset.gold_pairs), budget=falcon_budget)
        result = run_falcon(dataset, session, config)
        return result.machine_seconds

    with use_index_store():
        first_seconds = falcon_once()
        reuses_before = _counter_total("index_reuses_total")
        second_seconds = falcon_once()
        falcon_reuses = _counter_total("index_reuses_total") - reuses_before
    assert falcon_reuses > 0, "repeated Falcon run reused no index artifacts"
    rows.append(
        {
            "workload": f"run_falcon twice ({falcon_size}x{falcon_size}, "
            f"{falcon_reuses:.0f} artifact reuses in run 2)",
            "cold": f"{first_seconds:.2f}s",
            "warm": f"{second_seconds:.2f}s",
            "speedup": f"{first_seconds / second_seconds:.1f}x",
            "output": "-",
        }
    )
    return rows


def test_index_reuse(benchmark):
    """Full-scale warm-vs-cold comparison (archived as ``index_reuse``)."""
    rows = once(benchmark, lambda: _run_reuse_suite(n=2500, falcon_size=200, falcon_budget=240))
    report(
        "index_reuse",
        "IndexStore: build-once/probe-many vs per-call index rebuilds",
        format_table(rows, ["workload", "cold", "warm", "speedup", "output"]),
    )
    # The acceptance bar: a warm store makes repeated joins >= 2x faster.
    warm_speedup = float(rows[0]["speedup"].rstrip("x"))
    assert warm_speedup >= 2.0, f"warm join only {warm_speedup}x faster than cold"


def test_index_reuse_smoke():
    """CI-scale version: correctness of reuse, no timing assertions."""
    rows = _run_reuse_suite(n=300, falcon_size=100, falcon_budget=120)
    report(
        "index_reuse_smoke",
        "IndexStore reuse smoke (small scale factor)",
        format_table(rows, ["workload", "cold", "warm", "speedup", "output"]),
    )
    assert _counter_total("index_reuses_total") > 0
    assert _counter_total("index_builds_total") > 0

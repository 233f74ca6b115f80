"""join_batch: the blocking/string-join step alone, in two regimes.

**sparse** (open vocabulary proportional to rows, short posting lists)
and **dense** (closed ~400-token vocabulary, long posting lists) are
where the dict and array kernels each win, so a crossover or
path-collapse change that helps one and hurts the other shows in the
same run.  Each pair joins cold into an empty ``IndexStore(cache_dir)``
and again from a *new* store on the same directory (disk-warm) - the
number pickle-free artifacts must move - ``REPEATS`` times over.  ``simjoin``/``perf``/
``index.store`` do all the work; ``features``/``matchers`` none.
"""

from __future__ import annotations

import random
import shutil
import time

import gen
from common import WORK_DIR, counter_total, median

from repro.index import IndexStore, use_index_store
from repro.obs import get_registry
from repro.simjoin import set_sim_join
from repro.table import Table
from repro.text.tokenizers import WhitespaceTokenizer

REGIMES = ("sparse", "dense")
#: Cold + disk-warm rounds per regime, each on a fresh cache directory;
#: every reported time is the median over them.
REPEATS = 3
THRESHOLD = 0.6
SCORE_TOLERANCE = 1e-12


def sizes(scale: float, rows: int | None = None) -> dict:
    return {
        "sparse_rows": rows or max(400, int(10000 * scale)),
        "dense_rows": rows or max(600, int(16000 * scale)),
        "oracle_rows": 200,
    }


def generate(seed: int, sz: dict) -> dict:
    return gen.join_inputs(seed, sz["sparse_rows"], sz["dense_rows"])


def setup(inputs: dict, sz: dict, tracer) -> dict:
    with tracer.span("table:build"):
        return {
            regime: (
                Table({"id": inputs[regime]["l_id"], "value": inputs[regime]["l_value"]}),
                Table({"id": inputs[regime]["r_id"], "value": inputs[regime]["r_value"]}),
            )
            for regime in REGIMES
        }


def teardown(state: dict) -> None:
    pass


def _join(tables, store: IndexStore) -> tuple[Table, float]:
    """One timed ``set_sim_join`` against ``store``.  A fresh tokenizer
    per call keeps its per-instance memo from warming the next call."""
    left, right = tables
    tokenizer = WhitespaceTokenizer(return_set=True)
    with use_index_store(store):
        started = time.perf_counter()
        joined = set_sim_join(
            left, right, "id", "id", "value", "value", tokenizer,
            measure="jaccard", threshold=THRESHOLD, n_jobs=1, kernel="auto",
        )
        return joined, time.perf_counter() - started


def _rows(joined: Table) -> list[tuple]:
    return list(zip(joined["l_id"], joined["r_id"], joined["score"]))


def run(state: dict, inputs: dict, sz: dict, tracer) -> dict:
    registry = get_registry()
    native, layer, counts, outputs = {}, {}, {}, {}
    for regime in REGIMES:
        cold_s, warm_s, tables = [], [], []
        for _ in range(REPEATS):
            cache_dir = WORK_DIR / f"join-{regime}-{time.time_ns()}"
            try:
                builds0 = counter_total(registry, "index_builds_total")
                candidates0 = counter_total(registry, "simjoin_candidates_total")
                survivors0 = counter_total(registry, "simjoin_survivors_total")
                with tracer.span(f"simjoin:set_sim_join.cold.{regime}"):
                    cold, seconds = _join(state[regime], IndexStore(cache_dir=cache_dir))
                cold_s.append(seconds)
                builds = counter_total(registry, "index_builds_total") - builds0
                candidates = counter_total(registry, "simjoin_candidates_total") - candidates0
                survivors = counter_total(registry, "simjoin_survivors_total") - survivors0

                reuses0 = counter_total(registry, "index_reuses_total", tier="disk")
                warm_store = IndexStore(cache_dir=cache_dir)
                with tracer.span(f"simjoin:set_sim_join.diskwarm.{regime}"):
                    warm, seconds = _join(state[regime], warm_store)
                warm_s.append(seconds)
                reuses = counter_total(registry, "index_reuses_total", tier="disk") - reuses0
                disk_bytes = sum(row["bytes"] for row in warm_store.disk_artifacts())
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
            tables += [_rows(cold), _rows(warm)]

        pair = inputs[regime]
        input_bytes = sum(len(v.encode()) for v in pair["l_value"] + pair["r_value"])
        native[f"{regime}_cold_s"] = median(cold_s)
        native[f"{regime}_diskwarm_s"] = median(warm_s)
        layer.update(
            {
                f"simjoin.candidates.{regime}": candidates,
                f"simjoin.survivors.{regime}": survivors,
                f"simjoin.survival_ratio.{regime}": survivors / candidates if candidates else 0.0,
                f"simjoin.rows_out.{regime}": cold.num_rows,
                f"index.store.disk_bytes.{regime}": disk_bytes,
                f"index.store.disk_bytes_per_input_byte.{regime}": disk_bytes / input_bytes,
                f"index.store.builds.{regime}": builds,
                f"index.store.reuses_disk.{regime}": reuses,
            }
        )
        counts[f"{regime}_rows_out"] = cold.num_rows
        counts[f"{regime}_candidates"] = int(candidates)
        outputs[regime] = tables
    return {
        "native": native,
        "work_s": sum(native.values()),
        "layers": layer,
        "counts": counts,
        "_outputs": outputs,
    }


def layers(state: dict, inputs: dict, sz: dict, tracer, result: dict) -> dict:
    """Stage times by differencing public calls on one in-memory store:
    tokenize -> encode -> first join (index build + probe) -> second
    join (probe only).  No private kernel-selection API is touched."""
    layer, accounted = {}, {}
    for regime in REGIMES:
        left, right = state[regime]
        store = IndexStore()
        tokenizer = WhitespaceTokenizer(return_set=True)
        with tracer.span(f"index.store:tokenized_column.{regime}"):
            started = time.perf_counter()
            left_tokens = store.tokenized_column(left, "id", "value", tokenizer)
            right_tokens = store.tokenized_column(right, "id", "value", tokenizer)
            tokenize_s = time.perf_counter() - started
        with tracer.span(f"index.store:pair_encoding.{regime}"):
            started = time.perf_counter()
            store.pair_encoding(left_tokens, right_tokens)
            encode_s = time.perf_counter() - started
        with tracer.span(f"simjoin:set_sim_join.build_and_probe.{regime}"):
            _, first_s = _join(state[regime], store)
        with tracer.span(f"simjoin:set_sim_join.probe.{regime}"):
            _, probe_s = _join(state[regime], store)
        build_s = max(0.0, first_s - probe_s)
        layer.update(
            {
                f"index.store.tokenize_s.{regime}": tokenize_s,
                f"index.store.encode_s.{regime}": encode_s,
                f"index.store.build_s.{regime}": build_s,
                f"simjoin.probe_s.{regime}": probe_s,
                f"index.store.disk_load_s.{regime}": max(
                    0.0, result["native"][f"{regime}_diskwarm_s"] - probe_s
                ),
            }
        )
        accounted[f"{regime}_cold_s"] = (
            tokenize_s + encode_s + build_s + probe_s
        ) / result["native"][f"{regime}_cold_s"]
    return {"layers": layer, "accounted": accounted}


def _brute_force(left_tokens: set, right_sets: list, right_ids: list) -> dict:
    """Benchmark-side jaccard of one left record against every right row."""
    matches = {}
    for r_id, right_tokens in zip(right_ids, right_sets):
        shared = len(left_tokens & right_tokens)
        if shared:
            score = shared / (len(left_tokens) + len(right_tokens) - shared)
            if score >= THRESHOLD:
                matches[r_id] = score
    return matches


def check(state: dict, inputs: dict, sz: dict, result: dict) -> dict:
    """Sampled left rows against a brute-force jaccard over all right
    rows (ids exact, scores within 1e-12); cold == disk-warm row for row."""
    attempted, failures = 0, []
    for regime in REGIMES:
        pair = inputs[regime]
        cold_rows, *others = result["_outputs"][regime]
        attempted += 1
        if any(rows != cold_rows for rows in others):
            failures.append(f"{regime}: cold and disk-warm rows differ")
        by_left: dict = {}
        for l_id, r_id, score in cold_rows:
            by_left.setdefault(l_id, {})[r_id] = score
        right_sets = [set(value.split()) for value in pair["r_value"]]
        rng = random.Random(f"oracle:{regime}:{len(pair['l_id'])}")
        for position in rng.sample(range(len(pair["l_id"])), min(sz["oracle_rows"], len(pair["l_id"]))):
            attempted += 1
            l_id = pair["l_id"][position]
            expected = _brute_force(set(pair["l_value"][position].split()), right_sets, pair["r_id"])
            got = by_left.get(l_id, {})
            if got.keys() != expected.keys() or any(
                abs(got[r_id] - score) > SCORE_TOLERANCE for r_id, score in expected.items()
            ):
                failures.append(f"{regime}: rows for {l_id} differ from brute force")
    return {"attempted": attempted, "failed": len(failures), "failures": failures[:10], "layers": {}}

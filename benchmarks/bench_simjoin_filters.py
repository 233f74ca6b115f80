"""Micro-benchmark — why py_stringsimjoin exists: filtered vs naive joins.

Table 3's blocking step ships ``py_stringsimjoin`` because naive string
joins over two tables are quadratic.  This bench joins two name tables at
increasing sizes with the filter-based join and the brute-force reference
and reports the speedup (and verifies identical output).  These are also
the proper pytest-benchmark micro-measurements of the suite (multiple
rounds, statistics).

``test_simjoin_kernel_speedup`` additionally pits the integer-kernel join
(:mod:`repro.perf`) against a faithful copy of the original string-set
implementation (``_seed_set_sim_join`` below), serial and as a
``WORKERS``-worker partition map over the left table, and archives the
numbers as ``simjoin_kernels``.
"""

from __future__ import annotations

import importlib.util
import os
import random
import time
from collections import defaultdict
from pathlib import Path

from _report import format_table, report

from repro.datasets import DirtinessConfig, make_em_dataset
from repro.datasets.entities import restaurant
from repro.datasets.vocab import CITIES, FIRST_NAMES, LAST_NAMES
from repro.index import IndexStore, LiveIndex, use_index_store
from repro.obs import use_registry, use_tracer
from repro.perf import parallel_map_partitions
from repro.perf.kernels import BOUND_EPS
from repro.simjoin import edit_distance_join, naive_set_sim_join, set_sim_join
from repro.simjoin.filters import (
    TokenOrder,
    overlap_lower_bound,
    prefix_length,
    similarity,
    size_bounds,
)
from repro.table import Table
from repro.table.schema import is_missing
from repro.text.sim import Levenshtein
from repro.text.tokenizers import QgramTokenizer, Tokenizer, WhitespaceTokenizer

TOKENIZER = QgramTokenizer(q=3, return_set=True)
WORKERS = 2


def make_tables(n: int, seed: int = 0):
    rng = random.Random(seed)

    def name():
        return f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)} {rng.choice(CITIES)}"

    ltable = Table({"id": [f"a{i}" for i in range(n)], "v": [name() for _ in range(n)]})
    rtable = Table({"id": [f"b{i}" for i in range(n)], "v": [name() for _ in range(n)]})
    return ltable, rtable


def _pairs(result: Table) -> set:
    return set(zip(result["l_id"], result["r_id"]))


def _join_rows(result: Table) -> list:
    """A join's ``(l_id, r_id, score)`` rows: a partition map restarts ``_id``."""
    return list(zip(result["l_id"], result["r_id"], result["score"]))


def _partition_join(ltable: Table, rtable: Table) -> Table:
    """The q-gram Jaccard 0.6 join as a partition map over ``ltable``."""
    return parallel_map_partitions(
        ltable,
        lambda part: set_sim_join(part, rtable, "id", "id", "v", "v", TOKENIZER, "jaccard", 0.6),
        n_workers=WORKERS,
    )


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def _seed_set_sim_join(
    ltable: Table,
    rtable: Table,
    tokenizer: Tokenizer,
    measure: str,
    threshold: float,
) -> Table:
    """The original string-set filtered join, kept verbatim as baseline.

    This is the pre-kernel implementation of ``set_sim_join``: token sets
    stay Python string sets, the prefix is a keyed sort per record, the
    size filter is checked posting-by-posting, and every candidate pays an
    ``overlap_lower_bound`` call plus a ``set &`` intersection.  It calls
    today's (float-guarded) bound functions so its output stays comparable.
    """
    left_records = [
        (row_key, set(tokenizer.tokenize(str(value))))
        for row_key, value in zip(ltable["id"], ltable["v"])
    ]
    right_records = [
        (row_key, set(tokenizer.tokenize(str(value))))
        for row_key, value in zip(rtable["id"], rtable["v"])
    ]
    order = TokenOrder([tokens for _, tokens in left_records + right_records])

    right_sets = [tokens for _, tokens in right_records]
    index: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for position, tokens in enumerate(right_sets):
        ordered = order.order(tokens)
        for token in ordered[: prefix_length(measure, threshold, len(ordered))]:
            index[token].append((position, len(tokens)))

    results: list[tuple] = []
    for l_id, left_tokens in left_records:
        if not left_tokens:
            continue
        lower, upper = size_bounds(measure, threshold, len(left_tokens))
        upper += BOUND_EPS
        ordered = order.order(left_tokens)
        candidates: set[int] = set()
        for token in ordered[: prefix_length(measure, threshold, len(ordered))]:
            for position, size in index.get(token, ()):
                if lower <= size <= upper:
                    candidates.add(position)
        for position in candidates:
            right_tokens = right_sets[position]
            needed = overlap_lower_bound(
                measure, threshold, len(left_tokens), len(right_tokens)
            )
            if len(left_tokens & right_tokens) < needed:
                continue
            score = similarity(measure, left_tokens, right_tokens)
            if score >= threshold:
                results.append((l_id, right_records[position][0], score))
    return Table.from_rows(
        (
            {"_id": i, "l_id": l_id, "r_id": r_id, "score": score}
            for i, (l_id, r_id, score) in enumerate(results)
        ),
        columns=["_id", "l_id", "r_id", "score"],
    )


def test_simjoin_filtered_join_speed(benchmark):
    ltable, rtable = make_tables(800)
    result = benchmark(
        set_sim_join, ltable, rtable, "id", "id", "v", "v", TOKENIZER, "jaccard", 0.6
    )
    assert result.num_rows >= 0


def test_simjoin_speedup_over_naive(benchmark):
    rows = []

    def run_sweep():
        rows.clear()
        for n in (200, 400, 800):
            ltable, rtable = make_tables(n)
            started = time.perf_counter()
            fast = set_sim_join(
                ltable, rtable, "id", "id", "v", "v", TOKENIZER, "jaccard", 0.6
            )
            fast_seconds = time.perf_counter() - started
            started = time.perf_counter()
            slow = naive_set_sim_join(
                ltable, rtable, "id", "id", "v", "v", TOKENIZER, "jaccard", 0.6
            )
            slow_seconds = time.perf_counter() - started
            assert set(zip(fast["l_id"], fast["r_id"])) == set(
                zip(slow["l_id"], slow["r_id"])
            )
            rows.append(
                {
                    "n per side": n,
                    "filtered join": f"{fast_seconds * 1000:.0f}ms",
                    "naive join": f"{slow_seconds * 1000:.0f}ms",
                    "speedup": f"{slow_seconds / fast_seconds:.1f}x",
                    "output pairs": fast.num_rows,
                    "_speedup": slow_seconds / fast_seconds,
                }
            )
        return rows

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    display = [{k: v for k, v in row.items() if not k.startswith("_")} for row in rows]
    report(
        "simjoin_filters",
        "Filtered set-similarity join vs naive quadratic join",
        format_table(display)
        + "\n\nExpected shape: identical outputs; the filter-based join's"
          "\nadvantage grows with table size.",
    )
    assert rows[-1]["_speedup"] > 3.0
    assert rows[-1]["_speedup"] >= rows[0]["_speedup"] * 0.8


def test_simjoin_kernel_speedup(benchmark):
    """Integer-kernel join vs the original string-set join, serial and as a
    partition map."""
    rows = []

    def run_sweep():
        rows.clear()
        for n in (800, 1600, 3200):
            ltable, rtable = make_tables(n)
            seed_result, seed_seconds = _timed(
                _seed_set_sim_join, ltable, rtable, TOKENIZER, "jaccard", 0.6
            )
            kernel_result, kernel_seconds = _timed(
                set_sim_join,
                ltable, rtable, "id", "id", "v", "v", TOKENIZER, "jaccard", 0.6,
            )
            parallel_result, parallel_seconds = _timed(_partition_join, ltable, rtable)
            assert _pairs(kernel_result) == _pairs(seed_result)
            assert _join_rows(parallel_result) == _join_rows(kernel_result)
            rows.append(
                {
                    "n per side": n,
                    "string-set join": f"{seed_seconds * 1000:.0f}ms",
                    "int-kernel join": f"{kernel_seconds * 1000:.0f}ms",
                    f"partition map {WORKERS}w": f"{parallel_seconds * 1000:.0f}ms",
                    "kernel speedup": f"{seed_seconds / kernel_seconds:.1f}x",
                    "parallel speedup": f"{kernel_seconds / parallel_seconds:.1f}x",
                    "output pairs": kernel_result.num_rows,
                    "_kernel_speedup": seed_seconds / kernel_seconds,
                    "_parallel_speedup": kernel_seconds / parallel_seconds,
                }
            )
        return rows

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    display = [{k: v for k, v in row.items() if not k.startswith("_")} for row in rows]
    report(
        "simjoin_kernels",
        "Integer token-id kernels vs string-set join (+ multicore fan-out)",
        format_table(display)
        + f"\n\nRun on {os.cpu_count() or 1} CPU(s).  Expected shape: identical"
          "\noutputs; the int-kernel join holds >= 2x over the string-set join"
          "\nat the largest size, and a partition map adds on top given spare cores.",
    )
    assert rows[-1]["_kernel_speedup"] >= 2.0
    # Real parallel gains need spare cores; without them only require that
    # fork/merge overhead stays bounded once the work amortizes it.
    if (os.cpu_count() or 1) >= 4:
        for row in rows:
            assert row["_parallel_speedup"] > 0.9
        assert rows[-1]["_parallel_speedup"] > 1.2
    else:
        assert rows[-1]["_parallel_speedup"] > 0.7


def test_simjoin_kernels_smoke():
    """Fast CI check: the join agrees with the seed join and with a forked
    partition map over the left table."""
    ltable, rtable = make_tables(200)
    baseline = _seed_set_sim_join(ltable, rtable, TOKENIZER, "jaccard", 0.6)
    serial = set_sim_join(
        ltable, rtable, "id", "id", "v", "v", TOKENIZER, "jaccard", 0.6
    )
    assert _pairs(serial) == _pairs(baseline)
    assert _join_rows(_partition_join(ltable, rtable)) == _join_rows(serial)


def make_dense_tables(n: int, seed: int = 0):
    """Closed 40-token vocabulary, 6-10 tokens a record: nearly every
    pair shares a prefix token, so candidates dwarf the output."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(40)]

    def side(prefix: str) -> Table:
        values = [" ".join(rng.sample(vocab, rng.randint(6, 10))) for _ in range(n)]
        return Table({"id": [f"{prefix}{i}" for i in range(n)], "v": values})

    return side("a"), side("b")


def make_long_row_tables(n: int, seed: int = 10):
    """Restaurant name + street + city as one value: about 36 distinct
    3-grams a row set about half the bits of a 64-bit row word, so the
    bitmap filter keeps a fifth of the candidates and the positional
    bound prunes most of those."""
    dataset = make_em_dataset(restaurant, n, n, dirtiness=DirtinessConfig.light(), seed=seed)

    def concat(table: Table) -> Table:
        values = [
            " ".join(str(v) for v in cells if not is_missing(v))
            for cells in zip(table["name"], table["street"], table["city"])
        ]
        return Table({"id": list(table["id"]), "v": values})

    return concat(dataset.ltable), concat(dataset.rtable)


def _funnel_row(registry, case: str, measure: str, joined: Table) -> dict:
    labels = {"join": "set_sim", "measure": measure}
    candidates, kept, verified = (
        int(registry.get(name, **labels).value)
        for name in (
            "simjoin_candidates_total", "simjoin_bitmap_kept_total", "simjoin_verified_total"
        )
    )
    return {
        "case": case,
        "candidates": candidates,
        "bitmap kept": kept,
        "verified": verified,
        "output pairs": joined.num_rows,
    }


def test_dense_filter_funnel_smoke():
    """Fast CI check: the filter funnel candidates -> bitmap kept ->
    verified -> output, with each join equal to the brute-force one.  On
    the dense closed-vocabulary pair the bitmap filter sends only a
    sliver of the candidates to verification; on long q-gram rows the
    row words fill up and the positional bound still prunes."""
    rows = []
    ltable, rtable = make_dense_tables(400)
    tokenizer = WhitespaceTokenizer(return_set=True)
    for measure, threshold in (("jaccard", 0.6), ("cosine", 0.7), ("dice", 0.8)):
        with use_registry() as registry:
            joined = set_sim_join(
                ltable, rtable, "id", "id", "v", "v", tokenizer, measure, threshold
            )
            row = _funnel_row(registry, f"dense 400², {measure} {threshold}", measure, joined)
        assert joined == naive_set_sim_join(
            ltable, rtable, "id", "id", "v", "v", tokenizer, measure, threshold
        )
        assert row["verified"] <= row["bitmap kept"] <= 0.1 * row["candidates"]
        rows.append(row)

    ltable, rtable = make_long_row_tables(1000)
    with use_registry() as registry:
        joined = set_sim_join(ltable, rtable, "id", "id", "v", "v", TOKENIZER, "jaccard", 0.5)
        row = _funnel_row(registry, "long rows 1k², q3 jaccard 0.5", "jaccard", joined)
    assert joined == naive_set_sim_join(
        ltable, rtable, "id", "id", "v", "v", TOKENIZER, "jaccard", 0.5
    )
    assert joined.num_rows <= row["verified"] < row["bitmap kept"] <= row["candidates"]
    rows.append(row)
    report(
        "simjoin_funnel_smoke",
        "Filter funnel: candidates -> bitmap kept -> verified -> output",
        format_table(rows),
    )


def test_edit_distance_join_smoke():
    """Fast CI check: on a small restaurant pair the edit-distance join
    equals brute-force Levenshtein over A x B, and the count and length
    filters send fewer pairs to verification than the kernel admits."""
    dataset = make_em_dataset(restaurant, 150, 150, dirtiness=DirtinessConfig.light(), seed=10)
    levenshtein = Levenshtein()
    labels = {"join": "edit_distance", "measure": "levenshtein"}
    rows = []
    for column in ("name", "street"):
        with use_registry() as registry:
            joined = edit_distance_join(
                dataset.ltable, dataset.rtable, "id", "id", column, column, threshold=2, q=2
            )
            candidates = registry.get("simjoin_candidates_total", **labels).value
            verified = registry.get("simjoin_verified_total", **labels).value
        left, right = (
            [(key, value) for key, value in zip(t["id"], t[column]) if not is_missing(value)]
            for t in (dataset.ltable, dataset.rtable)
        )
        pairs = [
            (l_id, r_id, distance)
            for l_id, l_value in left
            for r_id, r_value in right
            if (distance := levenshtein.get_raw_score(l_value, r_value)) <= 2
        ]
        assert joined["_id"] == list(range(len(pairs)))
        assert list(zip(joined["l_id"], joined["r_id"], joined["score"])) == pairs
        assert joined.num_rows <= verified < candidates
        rows.append(
            {
                "column": column,
                "candidates": int(candidates),
                "verified": int(verified),
                "output pairs": joined.num_rows,
            }
        )
    report(
        "simjoin_edit_distance_smoke",
        "Edit-distance join (q=2, d=2): candidates vs pairs verified",
        format_table(rows),
    )


def _spine_join_inputs(seed: int, rows: int) -> dict:
    """The spine's ``join_batch`` table pairs (sparse and dense), ``rows``
    a side, from its stdlib-only generator."""
    path = Path(__file__).parent / "spine" / "gen.py"
    spec = importlib.util.spec_from_file_location("spine_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.join_inputs(seed, rows, rows)


def _best_of(runs: int, fn, *args):
    """``fn(*args)`` and the fastest of ``runs`` timed calls."""
    seconds = []
    for _ in range(runs):
        started = time.perf_counter()
        result = fn(*args)
        seconds.append(time.perf_counter() - started)
    return result, min(seconds)


def test_live_join_table_smoke():
    """Fast CI check: on both spine join regimes (about 600 rows a side)
    ``LiveIndex.join_table`` equals a warm ``set_sim_join``, and over the
    same content (a self-join, so one token order) both count the same
    candidates; the time ratio is archived."""
    tokenizer = WhitespaceTokenizer(return_set=True)
    rows = []
    for regime, pair in _spine_join_inputs(1, 600).items():
        left = Table({"id": pair["l_id"], "v": pair["l_value"]})
        values = list(dict.fromkeys(pair["r_value"]))  # one probe per value either way
        right = Table({"id": [f"r{i}" for i in range(len(values))], "v": values})
        with use_index_store(IndexStore()), use_registry() as registry:
            live = LiveIndex.from_table(right, "id", "v", threshold=0.6)
            joined, join_s = _best_of(3, set_sim_join, left, right, "id", "id", "v", "v",
                                      tokenizer, "jaccard", 0.6)
            served, live_s = _best_of(3, live.join_table, left, "id", "v")
            assert served == joined
            labels = {"join": "set_sim", "measure": "jaccard"}
            before = (registry.get("simjoin_candidates_total", **labels).value,
                      registry.get("kernel_batch_candidates_total", op="live_search").value)
            assert live.join_table(right, "id", "v") == set_sim_join(
                right, right, "id", "id", "v", "v", tokenizer, "jaccard", 0.6
            )
            candidates = (
                registry.get("simjoin_candidates_total", **labels).value - before[0],
                registry.get("kernel_batch_candidates_total", op="live_search").value - before[1],
            )
        assert candidates[0] == candidates[1] > 0
        rows.append({
            "regime": regime,
            "rows out": joined.num_rows,
            "self-join candidates": int(candidates[0]),
            "set_sim_join s": f"{join_s:.4f}",
            "join_table s": f"{live_s:.4f}",
            "ratio": f"{live_s / join_s:.2f}",
        })
    report(
        "simjoin_live_join_smoke",
        "LiveIndex.join_table vs warm set_sim_join (spine regimes, 600 rows a side)",
        format_table(rows),
    )


def test_disk_warm_join_smoke(tmp_path):
    """Fast CI check: on both spine join regimes (about 600 rows a side)
    a join from a new store on a populated cache directory equals the
    cold join and reads only ``encoding`` and ``arrayindex`` from disk:
    no ``tokens`` or ``records``.  The cold and warm seconds are
    archived."""
    tokenizer = WhitespaceTokenizer(return_set=True)
    rows = []
    for regime, pair in _spine_join_inputs(1, 600).items():
        left = Table({"id": pair["l_id"], "v": pair["l_value"]})
        right = Table({"id": pair["r_id"], "v": pair["r_value"]})
        args = (left, right, "id", "id", "v", "v", tokenizer, "jaccard", 0.6)
        cache_dir = tmp_path / regime
        with use_index_store(IndexStore(cache_dir=cache_dir)):
            cold, cold_s = _timed(set_sim_join, *args)
        with use_registry(), use_tracer() as tracer:
            with use_index_store(IndexStore(cache_dir=cache_dir)):
                warm, warm_s = _timed(set_sim_join, *args)
        assert warm == cold and cold.num_rows > 0
        served = [(span.labels["kind"], span.labels["tier"])
                  for span in tracer.spans if span.name == "index_get"]
        assert served == [("encoding", "disk"), ("arrayindex", "disk")]
        rows.append({
            "regime": regime,
            "rows out": cold.num_rows,
            "cold s": f"{cold_s:.4f}",
            "disk-warm s": f"{warm_s:.4f}",
            "artifacts read": ", ".join(kind for kind, _ in served),
        })
        print(f"{regime}: cold {cold_s:.4f}s, disk-warm {warm_s:.4f}s")
    report(
        "simjoin_disk_warm_smoke",
        "Cold vs disk-warm set_sim_join (spine regimes, 600 rows a side)",
        format_table(rows),
    )

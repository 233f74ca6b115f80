"""Section 4.1 (production stage) — multicore partition parallelism.

PyMatcher's production guide scales the captured workflow over multiple
cores (there via Dask; here via the process-pool executor).  This bench
partitions a feature-extraction + prediction workload and reports the
speedup at 1, 2, and 4 workers.
"""

from __future__ import annotations

import time

from _report import format_table, report
from conftest import once

from repro.blocking import OverlapBlocker
from repro.datasets import DirtinessConfig, make_em_dataset
from repro.datasets.entities import person
from repro.features import extract_feature_vecs, get_features_for_matching
from repro.pipeline import parallel_map_partitions

DATASET = make_em_dataset(
    person, 900, 900, match_fraction=0.5,
    dirtiness=DirtinessConfig.light(), seed=21, name="prod-scaling",
)
FEATURES = get_features_for_matching(DATASET.ltable, DATASET.rtable)


def extract_partition(candset_part):
    """The per-partition workload: a partition keeps its candset's catalog
    entry, so it goes straight into extraction."""
    return extract_feature_vecs(candset_part, FEATURES)


def sweep():
    candset = OverlapBlocker("name", overlap_size=1).block_tables(
        DATASET.ltable, DATASET.rtable, "id", "id"
    )
    rows = []
    baseline = None
    for workers in (1, 2, 4):
        started = time.perf_counter()
        result = parallel_map_partitions(
            candset, extract_partition, n_workers=workers, n_partitions=8
        )
        elapsed = time.perf_counter() - started
        if baseline is None:
            baseline = elapsed
        rows.append(
            {
                "workers": workers,
                "wall seconds": f"{elapsed:.2f}",
                "speedup": f"{baseline / elapsed:.2f}x",
                "rows": result.num_rows,
                "_speedup": baseline / elapsed,
                "_rows": result.num_rows,
            }
        )
    return candset.num_rows, rows


def test_production_partition_scaling(benchmark):
    import os

    cores = len(os.sched_getaffinity(0))
    total_pairs, rows = once(benchmark, sweep)
    display = [{k: v for k, v in row.items() if not k.startswith("_")} for row in rows]
    report(
        "production_scaling",
        "Production stage: partition-parallel execution (Dask substitute)",
        format_table(display)
        + f"\n\nWorkload: feature extraction over {total_pairs} candidate"
          f"\npairs on a machine with {cores} usable core(s)."
          "\nExpected shape: speedup approaching the core count; on a"
          "\nsingle-core machine the speedup column is necessarily ~1x and"
          "\nthe bench verifies correctness + bounded pool overhead instead.",
    )
    assert all(row["_rows"] == total_pairs for row in rows)
    if cores >= 2:
        assert rows[-1]["_speedup"] > 1.3  # parallel beats serial
    else:
        # One core: the pool cannot win, but must not collapse either.
        assert rows[-1]["_speedup"] > 0.4

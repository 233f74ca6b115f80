"""Runtime micro-benchmark — operator-DAG execution: chain vs branchy DAG.

The ``repro.runtime`` core now carries all three workflow stacks, so its
scheduling overhead and its parallel executor matter.  This bench runs a
CPU-bound workload twice shaped two ways — as a pure chain (no available
parallelism) and as a branchy fan-out DAG — on the serial and the
fork-parallel executor.  The shape to reproduce: parallel execution of
the chain is no faster (nothing independent to run), while the branchy
DAG speeds up with workers; scheduling overhead per node stays tiny.

The second half benchmarks the :mod:`repro.plan` cost-based optimizer on
the multi-blocker pipeline: a cold run (no statistics — the planner is a
no-op) executes the user's filter order, a stats-warmed run reorders the
commuting filter chain most-selective-first.  The full-scale variant
asserts the >= 1.3x warm win and archives the numbers as
``benchmarks/results/BENCH_plan.json`` — the repo's tracked perf
trajectory for the planner.
"""

from __future__ import annotations

import json
import pickle
import random
import time

from _report import RESULTS_DIR, format_table, report
from conftest import once

from repro.blocking import AttrEquivalenceBlocker, BlackBoxBlocker, OverlapBlocker
from repro.plan import StatsStore, execute_plan, multi_blocker_graph, plan_graph
from repro.runtime import OperatorGraph, ParallelExecutor, SerialExecutor, run_graph
from repro.table import Table

WORK_ITERATIONS = 600_000  # ~30-50ms per node: dwarfs fork/scheduling overhead
BRANCHES = 8


def _burn(iterations: int) -> float:
    total = 0.0
    for i in range(iterations):
        total += (i % 97) * 0.5
    return total


def chain_dag() -> OperatorGraph:
    """8 dependent nodes: no two can ever run concurrently."""
    graph = OperatorGraph("chain")
    previous = ()
    for i in range(BRANCHES):
        def node(store, i=i):
            return {f"c{i}": _burn(WORK_ITERATIONS)}

        graph.add(f"n{i}", node, deps=previous, outputs=(f"c{i}",), isolated=True)
        previous = (f"n{i}",)
    return graph


def branchy_dag() -> OperatorGraph:
    """source -> 8 independent branches -> sink: embarrassingly parallel middle."""
    graph = OperatorGraph("branchy")
    graph.add("source", lambda s: {"seed": 1}, outputs=("seed",))
    for i in range(BRANCHES):
        def node(store, i=i):
            return {f"b{i}": _burn(WORK_ITERATIONS)}

        graph.add(f"branch{i}", node, deps=("source",), outputs=(f"b{i}",), isolated=True)
    graph.add(
        "sink",
        lambda s: {"total": sum(s[f"b{i}"] for i in range(BRANCHES))},
        deps=tuple(f"branch{i}" for i in range(BRANCHES)),
        outputs=("total",),
    )
    return graph


def time_run(make_graph, executor) -> float:
    started = time.perf_counter()
    result = run_graph(make_graph(), executor=executor)
    assert result.ok
    return time.perf_counter() - started


def run_matrix():
    rows = []
    for shape, make_graph in (("chain", chain_dag), ("branchy", branchy_dag)):
        serial = time_run(make_graph, SerialExecutor())
        parallel = time_run(make_graph, ParallelExecutor(n_jobs=4))
        rows.append(
            {
                "DAG shape": shape,
                "Nodes": len(make_graph()),
                "Serial": f"{serial * 1000:.0f}ms",
                "Parallel (4 jobs)": f"{parallel * 1000:.0f}ms",
                "Speedup": f"{serial / parallel:.2f}x",
                "_shape": shape,
                "_speedup": serial / parallel,
            }
        )
    return rows


def test_runtime_dag_executors_smoke(benchmark):
    rows = once(benchmark, run_matrix)
    display = [{k: v for k, v in row.items() if not k.startswith("_")} for row in rows]
    report(
        "runtime_dag",
        "Operator-DAG runtime: chain vs branchy DAG, serial vs parallel",
        format_table(display)
        + "\n\nExpected shape: the chain gains nothing from the parallel"
          "\nexecutor (every node depends on the previous one), while the"
          "\nbranchy DAG's independent branches speed up with workers.",
    )
    by_shape = {row["_shape"]: row["_speedup"] for row in rows}
    # A chain has no exploitable parallelism; allow fork/scheduling noise.
    assert by_shape["chain"] < 1.5
    # The branchy DAG must actually exploit its independent branches —
    # where there are cores to give them.  ``cpu_count`` reports the
    # host's cores, not the ones this process may run on; with 4 jobs on
    # 2 usable cores the measured speedup is ~1.
    import os
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 4:
        assert by_shape["branchy"] > 1.2


# ----------------------------------------------------------------------
# Cost-based planner: cold (no stats, no-op plan) vs stats-warmed run of
# the multi-blocker pipeline, where reordering the commuting filter chain
# most-selective-first shrinks the expensive filter's input.

PAIR_BURN_ITERATIONS = 120  # per-pair cost of the "expensive" filter
CATEGORIES = 8  # the cheap equality filter keeps ~1/8 of pairs


def _plan_tables(n_rows: int, seed: int = 7) -> tuple[Table, Table]:
    rng = random.Random(seed)
    words = ["red", "blue", "green", "ultra", "mega", "widget", "gadget", "gizmo"]

    def make(offset: int) -> Table:
        return Table(
            {
                "id": list(range(offset, offset + n_rows)),
                "name": [
                    " ".join(rng.choice(words) for _ in range(3))
                    for _ in range(n_rows)
                ],
                "cat": [f"c{rng.randrange(CATEGORIES)}" for _ in range(n_rows)],
            }
        )

    return make(0), make(n_rows)


def _expensive_permissive_filter() -> BlackBoxBlocker:
    """A per-pair predicate that burns CPU and drops (almost) nothing."""

    def drop(l_row, r_row) -> bool:
        return _burn(PAIR_BURN_ITERATIONS) < 0  # always False: keep the pair

    return BlackBoxBlocker(drop)


def _plan_pipeline(ltable: Table, rtable: Table, salt: str):
    return multi_blocker_graph(
        "bench_plan",
        ltable,
        rtable,
        OverlapBlocker("name", overlap_size=1),
        [
            # User's order: expensive-but-permissive first — exactly the
            # mistake the cost-based optimizer exists to undo.
            ("expensive_permissive", _expensive_permissive_filter()),
            ("cheap_selective", AttrEquivalenceBlocker("cat")),
        ],
        key_salt=salt,
    )


def _candset_bytes(candset: Table) -> bytes:
    return pickle.dumps({c: candset.column(c) for c in candset.columns})


def _run_plan_suite(n_rows: int) -> dict:
    ltable, rtable = _plan_tables(n_rows)
    salt = f"bench-{n_rows}"
    stats = StatsStore()

    # Cold: no statistics, so planning must be a cheap explicit no-op.
    plan_started = time.perf_counter()
    cold_plan = plan_graph(_plan_pipeline(ltable, rtable, salt), stats=stats)
    cold_plan_seconds = time.perf_counter() - plan_started
    assert not cold_plan.optimized
    run_started = time.perf_counter()
    cold_result = execute_plan(cold_plan, stats=stats, record=True)
    cold_seconds = time.perf_counter() - run_started

    # Warm: the recorded selectivities put the cheap filter first.
    plan_started = time.perf_counter()
    warm_plan = plan_graph(_plan_pipeline(ltable, rtable, salt), stats=stats)
    warm_plan_seconds = time.perf_counter() - plan_started
    run_started = time.perf_counter()
    warm_result = execute_plan(warm_plan, stats=stats, record=True)
    warm_seconds = time.perf_counter() - run_started

    identical = _candset_bytes(warm_result.store["candset"]) == _candset_bytes(
        cold_result.store["candset"]
    )
    return {
        "n_rows": n_rows,
        "base_pairs": cold_result.store["candset"].num_rows,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds else 0.0,
        "cold_plan_seconds": cold_plan_seconds,
        "warm_plan_seconds": warm_plan_seconds,
        "cold_plan_overhead_fraction": (
            cold_plan_seconds / cold_seconds if cold_seconds else 0.0
        ),
        "reorders": warm_plan.reorders,
        "moved_nodes": warm_plan.moved_nodes,
        "byte_identical": identical,
    }


def _plan_rows(suite: dict) -> list[dict]:
    return [
        {
            "workload": f"multi-blocker pipeline ({suite['n_rows']}x{suite['n_rows']} rows)",
            "cold (user order)": f"{suite['cold_seconds'] * 1000:.0f}ms",
            "warm (planned)": f"{suite['warm_seconds'] * 1000:.0f}ms",
            "speedup": f"{suite['speedup']:.2f}x",
            "plan overhead": f"{suite['cold_plan_seconds'] * 1000:.2f}ms "
            f"({suite['cold_plan_overhead_fraction']:.2%} of cold run)",
            "identical": "yes" if suite["byte_identical"] else "NO",
        }
    ]


def test_runtime_dag_plan(benchmark):
    """Full-scale planner comparison; archives ``BENCH_plan.json``."""
    suite = once(benchmark, lambda: _run_plan_suite(n_rows=220))
    report(
        "runtime_dag_plan",
        "Cost-based planner: cold vs stats-warmed multi-blocker pipeline",
        format_table(_plan_rows(suite))
        + "\n\nThe cold run executes the user's order (expensive permissive"
          "\nfilter over the full candidate set); the warm run plans from the"
          "\nrecorded statistics and runs the selective equality filter first.",
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_plan.json").write_text(
        json.dumps({"experiment": "runtime_dag_plan", **suite}, indent=2) + "\n",
        encoding="utf-8",
    )
    assert suite["byte_identical"], "optimized run changed the candidate set"
    assert suite["reorders"] >= 1, "planner failed to reorder the filter chain"
    assert suite["speedup"] >= 1.3, (
        f"warm planner run only {suite['speedup']:.2f}x faster than cold"
    )
    assert suite["cold_plan_overhead_fraction"] < 0.01, (
        "cold planning overhead exceeds 1% of the run"
    )


def test_runtime_dag_plan_smoke():
    """CI-scale version: reorder + byte-identity, no timing assertions."""
    suite = _run_plan_suite(n_rows=60)
    report(
        "runtime_dag_plan_smoke",
        "Cost-based planner smoke (small scale factor)",
        format_table(_plan_rows(suite)),
    )
    assert suite["byte_identical"], "optimized run changed the candidate set"
    assert suite["reorders"] >= 1, "planner failed to reorder the filter chain"

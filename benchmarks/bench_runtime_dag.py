"""Runtime micro-benchmark — operator-DAG execution: chain vs branchy DAG.

The ``repro.runtime`` core now carries all three workflow stacks, so its
scheduling overhead and its parallel executor matter.  This bench runs a
CPU-bound workload twice shaped two ways — as a pure chain (no available
parallelism) and as a branchy fan-out DAG — on the serial and the
fork-parallel executor.  The shape to reproduce: parallel execution of
the chain is no faster (nothing independent to run), while the branchy
DAG speeds up with workers; scheduling overhead per node stays tiny.
"""

from __future__ import annotations

import time

from _report import format_table, report
from conftest import once

from repro.runtime import OperatorGraph, ParallelExecutor, SerialExecutor, run_graph

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

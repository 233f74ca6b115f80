"""One workload, one process: generate, set up, measure, check, report.

Spawned by ``run.py`` so every workload starts from a cold interpreter
(``import repro`` is part of ``setup_s`` and ``ru_maxrss`` belongs to
this workload alone).  Writes one JSON document to ``--out``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

SPINE_DIR = Path(__file__).resolve().parent
SRC_DIR = SPINE_DIR.parents[1] / "src"
sys.path.insert(0, str(SPINE_DIR))
sys.path.insert(0, str(SRC_DIR))

import gen  # noqa: E402
import metrics  # noqa: E402
from common import RESULTS_DIR, Tracer, layer_of, median  # noqa: E402

#: Set-ups per run: ``setup_s`` is the median import plus the median
#: set-up, so one slow start does not move the metric.
SETUPS = 3
_TIMED_IMPORT = (
    "import importlib, sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
    "importlib.import_module(sys.argv[3]); print(time.perf_counter() - t)"
)


def import_seconds(workload: str) -> float:
    """The workload module's import (it pulls in ``repro``) timed in a
    fresh interpreter: an import can only be cold once per process."""
    done = subprocess.run(
        [sys.executable, "-c", _TIMED_IMPORT, str(SPINE_DIR), str(SRC_DIR), workload],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(done.stdout)


def measure(workload: str, seed: int, scale: float, trace: bool, rows: int | None) -> dict:
    tracer = Tracer(trace, run_id=f"{workload}-seed{seed}")

    # The module's own imports pull in ``repro``: that is the import
    # cost a user pays, so it is timed here and counted in ``setup_s``.
    started = time.perf_counter()
    module = importlib.import_module(workload)
    import_times = [time.perf_counter() - started]
    import_times += [import_seconds(workload) for _ in range(SETUPS - 1)]
    import_s = median(import_times)

    sz = module.sizes(scale, rows)
    started = time.perf_counter()
    inputs = module.generate(seed, sz)
    gen_s = time.perf_counter() - started
    digest = gen.digest(inputs)

    setup_times, state = [], None
    for _ in range(SETUPS):
        if state is not None:
            module.teardown(state)
        started = time.perf_counter()
        with tracer.span("harness:setup"):
            state = module.setup(inputs, sz, tracer)
        setup_times.append(time.perf_counter() - started)

    try:
        result = module.run(state, inputs, sz, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        extra = module.layers(state, inputs, sz, tracer, result) if trace else {}
        checked = module.check(state, inputs, sz, result)
    finally:
        module.teardown(state)

    native = {**result["native"], **checked.get("native", {})}
    attempted, failed = checked["attempted"], checked["failed"]
    end_to_end = {
        "work_s": result["work_s"],
        "quality": checked.get("quality", result.get("quality", (attempted - failed) / attempted)),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": import_s + median(setup_times),
    }
    layer = {**result["layers"], **extra.get("layers", {}), **checked["layers"]}
    document = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "traced": trace,
        "sizes": sz,
        "input_digest": digest,
        "harness": {"gen_s": gen_s, "import_runs_s": import_times, "setup_runs_s": setup_times},
        "end_to_end": end_to_end,
        "native": native,
        "per_layer": layer if trace else {},
        "counts": result["counts"],
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failures": checked["failures"],
    }
    if trace:
        self_times = tracer.self_times()
        by_layer: dict[str, float] = {}
        for name, seconds in self_times.items():
            by_layer[layer_of(name)] = by_layer.get(layer_of(name), 0.0) + seconds
        document["trace"] = {
            "spans": len(tracer.spans),
            "self_s_by_span": self_times,
            "self_s_by_layer": by_layer,
            "accounted_share": {**result.get("accounted", {}), **extra.get("accounted", {})},
        }
        tracer.write(RESULTS_DIR / f"trace-{workload}.jsonl")
    return document


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=list(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--rows", type=int, default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    document = measure(args.workload, args.seed, args.scale, bool(args.trace), args.rows)
    args.out.write_text(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of spine result files, metric by metric.

    python3 benchmarks/spine/compare.py A.json B.json
    python3 benchmarks/spine/compare.py A1.json,A2.json B1.json,B2.json

Each side is one result file written by ``run.py --label`` or several,
comma-separated (more runs of the same code).  Per (workload, metric)
row: both medians, the ratio B/A with its base, and a verdict against
the metric's bound - ``regressed`` when B's median is worse than A's by
more than the bound; ``unresolved`` when it is not but either side's
run-to-run spread is wider than the bound (unless every B run beats
every A run); ``ok`` otherwise.  With one file per side no spread is
known, so the verdict is ``ok`` or ``regressed`` only.  Exits 1 when
any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402


def load(side: str) -> list[dict]:
    return [json.loads(Path(path).read_text()) for path in side.split(",")]


def spread(values: list[float]) -> float:
    """Run-to-run spread: interquartile range from four runs up,
    otherwise the full range."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        return max(values) - min(values)
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def verdict(a: list[float], b: list[float], better: str, bound: float, kind: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    scale = abs(base) if kind == "rel" else 1.0
    if sign * (statistics.median(b) - base) > bound * scale:
        return "regressed"
    b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound * scale and not b_always_better:
        return "unresolved"
    return "ok"


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    side_a, side_b = load(sys.argv[1]), load(sys.argv[2])
    bounds, units = metrics.bounds(), metrics.units()
    regressed = 0
    print(f"{'workload':<12} {'metric':<20} {'A':>12} {'B':>12} {'B/A':>8}  unit   bound      verdict")
    for workload in metrics.WORKLOADS:
        runs_a = [doc["workloads"][workload] for doc in side_a if workload in doc["workloads"]]
        runs_b = [doc["workloads"][workload] for doc in side_b if workload in doc["workloads"]]
        if not runs_a or not runs_b:
            continue
        for name in metrics.contract_names() + metrics.native_names(workload):
            a = [run["end_to_end"][name] for run in runs_a if name in run["end_to_end"]]
            b = [run["end_to_end"][name] for run in runs_b if name in run["end_to_end"]]
            if not a or not b:
                continue
            better, bound, kind = bounds[name]
            result = verdict(a, b, better, bound, kind)
            regressed += result == "regressed"
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(
                f"{workload:<12} {name:<20} {med_a:>12.6g} {med_b:>12.6g} "
                f"{med_b / med_a:>8.3f}  {units[name]:<6} {bound:g} {kind}  {result}"
                f"  (base A={med_a:.6g}, n={len(a)}/{len(b)})"
            )
        for label, runs in (("A", runs_a), ("B", runs_b)):
            attempted = sum(run["ops_attempted"] for run in runs)
            failed = sum(run["ops_failed"] for run in runs)
            print(f"{workload:<12} failed-operation share {label}: {failed}/{attempted} = {failed / attempted:.4f}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

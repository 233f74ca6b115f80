"""The measurement spine: one command, every metric by name.

    python3 benchmarks/spine/run.py                      # all four workloads, tracing off
    python3 benchmarks/spine/run.py --trace              # ... plus a traced repeat and trace_overhead
    python3 benchmarks/spine/run.py --workload join_batch --seed 7 --label mine
    python3 benchmarks/spine/run.py --smoke --check      # seconds-long scale, validates the report

Each workload runs in a fresh subprocess (``worker.py``) on inputs made
from ``--seed``; its outputs are checked against an oracle and a failed
check makes this program exit non-zero.  ``--trace 0`` / ``--trace 1``
with ``--workload`` is the driver protocol of ``BENCHMARK.json``: one
run, and the last line of standard output is one JSON object holding
the end-to-end (0) or per-layer (1) metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from importlib import metadata
from pathlib import Path

SPINE_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(SPINE_DIR))

import metrics  # noqa: E402
from common import REPO_ROOT, RESULTS_DIR, WORK_DIR  # noqa: E402

BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
SMOKE_SCALE = 0.06
WORKER_TIMEOUT_S = 170
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BOTH = 2


def run_worker(workload: str, seed: int, scale: float, trace: bool, rows: int | None) -> dict:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    out = WORK_DIR / f"result-{workload}-{os.getpid()}.json"
    command = [
        sys.executable, str(SPINE_DIR / "worker.py"), workload,
        "--seed", str(seed), "--scale", repr(scale), "--trace", str(int(trace)), "--out", str(out),
    ]
    if rows is not None:
        command += ["--rows", str(rows)]
    # Set iteration order over strings (candidate-set unions, token sets)
    # follows the hash seed; pinning it makes counts and f1 repeat exactly.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    try:
        subprocess.run(command, check=True, timeout=WORKER_TIMEOUT_S, env=env)
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def environment(seed: int) -> dict:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": sha,
        "seed": seed,
    }


def trace_overhead(untraced: dict, traced: dict) -> dict:
    """traced - untraced for every end-to-end time of one workload."""
    pairs = {**untraced["native"], "work_s": untraced["end_to_end"]["work_s"]}
    other = {**traced["native"], "work_s": traced["end_to_end"]["work_s"]}
    units = metrics.units()
    return {
        name: other[name] - value
        for name, value in pairs.items()
        if units[name] == "s"
    }


def print_block(title: str, values: dict, units: dict) -> None:
    print(f"  {title}")
    for name, value in values.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"    {name:<48} {shown:>14} {units.get(name, '')}")


def print_report(workload: str, runs: dict) -> None:
    units = metrics.units()
    first = runs.get(0) or runs[1]
    print(f"== {workload}  seed={first['seed']} scale={first['scale']:.3g} "
          f"sizes={first['sizes']} digest={first['input_digest'][:16]}")
    print(f"   why: {metrics.WORKLOADS[workload]}")
    if 0 in runs:
        print_block("end-to-end (tracing off)", {**runs[0]["end_to_end"], **runs[0]["native"]}, units)
    if 1 in runs:
        print_block("per-layer (traced run)", {**runs[1]["per_layer"], **runs[1]["native"]}, units)
        print_block("self seconds by layer (traced run)", runs[1]["trace"]["self_s_by_layer"], {})
        print_block("accounted share of wall", runs[1]["trace"]["accounted_share"], {})
    if 0 in runs and 1 in runs:
        print_block("trace_overhead (traced - untraced)", trace_overhead(runs[0], runs[1]),
                    dict.fromkeys(units, "s"))
    for kind, run in runs.items():
        label = "traced" if kind else "untraced"
        print(f"  checks ({label}): ops_attempted={run['ops_attempted']} ops_failed={run['ops_failed']}"
              f"  counts={run['counts']}")
        for failure in run["failures"]:
            print(f"    FAILED: {failure}")


def contract_line(workload: str, run: dict, traced: bool) -> str:
    """The driver's last line: every end-to-end metric (tracing off) or
    every per-layer metric (traced; other workloads' layers read 0)."""
    units = metrics.units()
    if traced:
        measured = {**run["per_layer"], **run["native"]}
        values = {row["name"]: measured.get(row["name"], 0.0) for row in metrics.per_layer_block()}
    else:
        values = run["end_to_end"]
    return json.dumps(
        {
            "correct": run["ops_failed"] == 0,
            "attempted": run["ops_attempted"],
            "failed": run["ops_failed"],
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        }
    )


def validate(results: dict) -> list[str]:
    """``--check``: the printed report, the registry, ``BENCHMARK.json``
    and the README name the same metrics, within the contract's limits."""
    problems = []
    spec = json.loads(BENCHMARK_JSON.read_text())
    readme = (SPINE_DIR / "README.md").read_text()
    if spec["paths"] != ["benchmarks/spine"]:
        problems.append(f"paths is {spec['paths']}")
    if [w["name"] for w in spec["workloads"]] != list(metrics.WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from the registry")
    if spec["end_to_end"] != metrics.end_to_end_block():
        problems.append("end_to_end in BENCHMARK.json differs from the registry")
    if spec["per_layer"] != metrics.per_layer_block():
        problems.append("per_layer in BENCHMARK.json differs from the registry")
    for block, limit in (("workloads", 8), ("end_to_end", 16), ("per_layer", 128)):
        names = [row["name"] for row in spec[block]]
        if len(names) > limit or len(set(names)) != len(names):
            problems.append(f"{block}: {len(names)} names (limit {limit}) or a duplicate")
        problems += [f"{block}: bad name {name!r}" for name in names if not NAME_PATTERN.match(name)]
        problems += [
            f"README.md does not mention {name}"
            for name in names
            if name.removesuffix(".sparse").removesuffix(".dense") not in readme
        ]
    for row in spec["end_to_end"]:
        if not row.get("unit") or not 0 < row.get("bound", 0) <= 0.25:
            problems.append(f"end_to_end {row['name']}: needs a unit and a bound in (0, 0.25]")
    printed_layers: set[str] = set()
    for workload, runs in results.items():
        if set(runs[0]["end_to_end"]) != set(metrics.contract_names()):
            problems.append(f"{workload}: printed end-to-end names differ from BENCHMARK.json")
        if set(runs[0]["native"]) != set(metrics.native_names(workload)):
            problems.append(f"{workload}: printed native names differ from the registry")
        if set(runs[1]["per_layer"]) != set(metrics.layer_names(workload)):
            missing = set(metrics.layer_names(workload)) ^ set(runs[1]["per_layer"])
            problems.append(f"{workload}: per-layer names differ from the registry: {sorted(missing)}")
        printed_layers |= set(runs[1]["per_layer"]) | set(runs[1]["native"])
        for value in {**runs[0]["end_to_end"], **runs[0]["native"]}.values():
            if not value > 0:
                problems.append(f"{workload}: an end-to-end metric is not positive")
    if set(results) == set(metrics.WORKLOADS) and printed_layers != {
        row["name"] for row in spec["per_layer"]
    }:
        problems.append("per_layer in BENCHMARK.json is not exactly what the traced runs printed")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS), help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed work per run; sizes scale with it (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=BOTH, default=0, choices=(0, 1, BOTH),
                        help="0: tracing off; 1: traced run only; bare --trace: both, with trace_overhead")
    parser.add_argument("--rows", type=int, default=None,
                        help="off-contract: override the primary row count (the ROADMAP 100k rung)")
    parser.add_argument("--smoke", action="store_true", help="seconds-long scale, every oracle on")
    parser.add_argument("--check", action="store_true", help="validate the report against BENCHMARK.json")
    parser.add_argument("--label", help="write results/<label>.json")
    args = parser.parse_args()

    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {REPO_ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    run_seconds = json.loads(BENCHMARK_JSON.read_text())["run_seconds"]
    scale = SMOKE_SCALE if args.smoke else (args.seconds or run_seconds) / run_seconds
    kinds = (0, 1) if args.check or args.trace == BOTH else (args.trace,)
    workloads = [args.workload] if args.workload else list(metrics.WORKLOADS)

    results: dict[str, dict] = {}
    for workload in workloads:
        try:
            results[workload] = {
                kind: run_worker(workload, args.seed, scale, bool(kind), args.rows) for kind in kinds
            }
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"{workload}: worker failed: {exc}", file=sys.stderr)
            return 1
        print_report(workload, results[workload])

    failed = sum(run["ops_failed"] for runs in results.values() for run in runs.values())
    problems = validate(results) if args.check else []
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if args.label:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        document = {
            "schema": 1,
            "claim": None,
            "env": {
                **environment(args.seed),
                "scale": scale,
                "input_digests": {w: next(iter(r.values()))["input_digest"] for w, r in results.items()},
                "rows": {w: next(iter(r.values()))["sizes"] for w, r in results.items()},
            },
            "workloads": {
                workload: {
                    "end_to_end": {**runs[0]["end_to_end"], **runs[0]["native"]} if 0 in runs else {},
                    "per_layer": {**runs[1]["per_layer"], **runs[1]["native"]} if 1 in runs else {},
                    "trace": runs[1]["trace"] if 1 in runs else {},
                    "trace_overhead": trace_overhead(runs[0], runs[1]) if len(runs) == 2 else {},
                    "counts": next(iter(runs.values()))["counts"],
                    "harness": next(iter(runs.values()))["harness"],
                    "ops_attempted": sum(run["ops_attempted"] for run in runs.values()),
                    "ops_failed": sum(run["ops_failed"] for run in runs.values()),
                }
                for workload, runs in results.items()
            },
        }
        path = RESULTS_DIR / f"{args.label}.json"
        path.write_text(json.dumps(document, indent=1) + "\n")
        print(f"wrote {path.relative_to(REPO_ROOT)}")
    if args.check and not problems:
        print("check: report, registry, BENCHMARK.json and README agree")
    if args.workload and len(kinds) == 1:
        print(contract_line(args.workload, results[args.workload][kinds[0]], bool(kinds[0])))
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Memory of a live index's cold base build, stage by stage.

A resident matcher (``MatchServer``, CloudMatcher's services) keeps its
corpus's artifacts for its whole life, and builds a new set at every
start and every re-ranking compaction.  This bench builds the base of a
50k-row ``LiveIndex`` over the ``serve_read`` spine workload's corpus
(seed 1) and reports, per store artifact (``records`` -> ``tokens`` ->
``encoding`` -> ``arrayindex``, the chain ``LiveIndex._build_base``
runs):

* the transient peak: how far traced memory rose above its level at the
  stage's start while the stage ran (``tracemalloc``);
* the live bytes the stage left behind, and their sum per corpus row;

then what a ``LiveIndex`` over those artifacts keeps beyond them (its
base segment: the tombstone mask, and no key -> position map until a
mutation asks for one), and, from a build with tracing off, how far the
resident set rose: held after the build, and at its peak.  That build
runs in a forked child, whose high-water mark starts at its resident set
at the fork, so the peak is the build's own and not the corpus
generation's before it; the resident set and its high-water mark are
read together from ``/proc/self/status`` (``VmRSS``, ``VmHWM``): the
high-water mark is at least the resident set within one read, while
``ru_maxrss`` and ``statm`` are separate reads of per-CPU-batched
counts that can disagree by a few hundred KB.  It asserts that the
peak rise is at least the held one, that building ``tokens`` peaks
under ``TOKENS_PEAK_BOUND`` and building ``encoding`` under
``ENCODING_PEAK_BOUND`` times the bytes the artifact keeps, and writes
``benchmarks/results/build_memory.txt``.

Run: ``PYTHONPATH=src python benchmarks/bench_build_memory.py`` (~4 s;
the RSS figures need Linux's ``/proc/self/status`` and ``os.fork``).
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR / "spine"))

import gen  # noqa: E402
from _report import format_table, report  # noqa: E402

from repro.index import IndexStore, LiveIndex  # noqa: E402
from repro.obs import use_registry  # noqa: E402
from repro.table import Table  # noqa: E402
from repro.text.tokenizers import WhitespaceTokenizer  # noqa: E402

ROWS = 50_000
SEED = 1
MEASURE, THRESHOLD = "jaccard", 0.6
#: Building ``tokens`` may peak at most this many times the bytes the
#: artifact keeps (its records, which the ``records`` stage already
#: holds, are not counted).
TOKENS_PEAK_BOUND = 3.0
#: Building ``encoding`` may peak at most this many times the bytes it
#: keeps (its universe and the CSR rows; the record keys it shares with
#: ``records`` are not counted).
ENCODING_PEAK_BOUND = 2.5
MB = 1 << 20
#: The last stage: what a live index keeps beyond the four artifacts.
LIVE_STAGE = "LiveIndex beyond them"


def corpus(rows: int = ROWS, seed: int = SEED) -> Table:
    inputs = gen.serve_read_inputs(seed, rows, 1)
    return Table({"id": inputs["id"], "value": inputs["value"]})


def _rss_bytes() -> tuple[int, int]:
    """The resident set now and its high-water mark, from one read
    (Linux), else zeros."""
    try:
        with open("/proc/self/status") as handle:
            fields = dict(line.split(":", 1) for line in handle if ":" in line)
        return int(fields["VmRSS"].split()[0]) * 1024, int(fields["VmHWM"].split()[0]) * 1024
    except (OSError, KeyError):
        return 0, 0


def _build_rss(table: Table) -> dict:
    """Time a ``LiveIndex.from_table`` on a fresh store, tracing off, and
    measure the RSS it left held and the rise of the process's peak."""
    gc.collect()
    before, _ = _rss_bytes()
    started = time.perf_counter()
    live = LiveIndex.from_table(
        table, "id", "value", threshold=THRESHOLD, measure=MEASURE, store=IndexStore()
    )
    seconds = time.perf_counter() - started
    rss, high_water = _rss_bytes()
    del live
    return {"build_s": seconds, "held": rss - before, "peak": high_water - before}


def rss_rise(table: Table) -> dict:
    """:func:`_build_rss` in a forked child, whose high-water mark starts
    at its RSS at the fork rather than at the parent's earlier peak."""
    gc.collect()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            os.write(write_end, json.dumps(_build_rss(table)).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as handle:
        payload = handle.read()
    _, status = os.waitpid(pid, 0)
    assert status == 0 and payload, f"the build child exited with status {status}"
    return json.loads(payload)


def stage_memory(table: Table) -> list[dict]:
    """One row per artifact of the base chain, built in order on a fresh
    store under ``tracemalloc``, and one for a ``LiveIndex`` over them:
    transient peak and live bytes kept."""
    store = IndexStore()
    tokenizer = WhitespaceTokenizer(return_set=True)
    built: dict = {}
    stages = (
        ("records", lambda: store.record_columns(table, "id", "value")),
        ("tokens", lambda: store.tokenized_column(table, "id", "value", tokenizer)),
        ("encoding", lambda: store.pair_encoding(built["tokens"], built["tokens"])),
        ("arrayindex", lambda: store.array_index(built["encoding"], MEASURE, THRESHOLD)),
        # The stages are the base chain: the live index builds nothing more.
        (LIVE_STAGE, lambda: LiveIndex.from_table(
            table, "id", "value", threshold=THRESHOLD, measure=MEASURE, store=store
        )),
    )
    rows = []
    gc.collect()
    tracemalloc.start()
    try:
        for name, build in stages:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            with use_registry() as registry:
                built[name] = build()
            gc.collect()
            current, peak = tracemalloc.get_traced_memory()
            rows.append({"stage": name, "peak": peak - start, "live": current - start})
    finally:
        tracemalloc.stop()
    # The last stage's registry: what the live index built.
    builds = sum(v for (name, _), v in registry.counters().items() if name == "index_builds_total")
    assert builds == 0, f"LiveIndex built {builds} artifacts the stages did not"
    return rows


def main() -> dict:
    table = corpus()
    rss = rss_rise(table)
    stages = stage_memory(table)
    live_total = sum(row["live"] for row in stages if row["stage"] != LIVE_STAGE)
    rendered = [
        {
            "stage": row["stage"],
            "transient peak (MB)": f"{row['peak'] / MB:.1f}",
            "live kept (MB)": f"{row['live'] / MB:.1f}",
            "peak / live": f"{row['peak'] / max(row['live'], 1):.2f}",
        }
        for row in stages
    ]
    body = "\n".join([
        f"LiveIndex base over the serve_read corpus: {ROWS:,} rows (seed {SEED}), "
        f"whitespace tokens, {MEASURE} >= {THRESHOLD}",
        "",
        format_table(rendered),
        "",
        f"live bytes per row (all four artifacts): {live_total / ROWS:.0f}",
        f"RSS rise of a traced-off build: held {rss['held'] / MB:.1f} MB, "
        f"peak {rss['peak'] / MB:.1f} MB ({rss['build_s']:.2f} s)",
        f"bounds: tokens peak <= {TOKENS_PEAK_BOUND} x tokens live, "
        f"encoding peak <= {ENCODING_PEAK_BOUND} x encoding live",
    ])
    report("build_memory", "Memory of a 50k-row live-index base build, per stage", body)
    assert rss["peak"] >= rss["held"], (
        f"the build's peak RSS rise ({rss['peak'] / MB:.1f} MB) is under what it "
        f"held ({rss['held'] / MB:.1f} MB): the peak is not the build's"
    )
    for stage, bound in (("tokens", TOKENS_PEAK_BOUND), ("encoding", ENCODING_PEAK_BOUND)):
        row = next(row for row in stages if row["stage"] == stage)
        assert row["peak"] <= bound * row["live"], (
            f"building {stage} peaked at {row['peak'] / MB:.1f} MB over "
            f"{row['live'] / MB:.1f} MB kept (bound {bound}x)"
        )
    return {"stages": stages, "rss": rss, "live_bytes_per_row": live_total / ROWS}


def test_build_memory():
    main()


if __name__ == "__main__":
    main()

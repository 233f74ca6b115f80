"""Candidate-set filters: ``block_candset`` next to ``block_tables``.

PyMatcher chains blockers with ``block_candset`` (paper Table 3,
Figure 2).  Each filter runs the blocker's one decision,
``Blocker.keep``, once over the candidate set's row positions.  This
bench builds restaurant 3000 x 3000 (light dirt, seed 10) and the
candidate set of ``OverlapBlocker("name", overlap_size=1)`` over it
(1,501,217 pairs), then reports, per filter (overlap on ``street``,
attribute equivalence on ``city``, a two-rule ``RuleBasedBlocker`` and
a ``VectorBlocker`` on ``name``):

* ``block_candset`` of that candidate set, median of ``REPEATS`` runs,
  each on a fresh index store;
* where that time goes: the median seconds of its three steps run apart
  (resolving the candidate set's keys and FKs to rows, ``keep``, and the
  take plus registration of the kept pairs), checked to give
  ``block_candset``'s result;
* the same blocker's ``block_tables`` over all of A x B;
* the pairs each keeps, and a digest of the filtered candidate set's
  foreign keys in order, so two trees compare by their output files.

A sparse case follows: 1,000 pairs of restaurant 100,000 x 100,000 drawn
at random, filtered by the overlap, equality and rule filters on a fresh
store, with no ``block_tables`` run before, so nothing is encoded yet;
its three steps are timed apart too.
A filter reads only the rows the pairs reference there (under a quarter
of each table), so its cost follows the candidate set, not the tables.

A pair-local filter keeps exactly the pairs of the candidate set that
``block_tables`` keeps, in the candidate set's order: checked for every
filter but the vector one, whose ``block_tables`` is an approximate
search.  It then re-runs the chain table of "Candidate-set filter
chains" in ``docs/PERFORMANCE.md`` in both orders (three
``gen.guide_inputs(1, 2000, 3)`` jobs, base ``OverlapBlocker("title",
overlap_size=1)``), checks that both orders give ``==`` candidate sets,
asserts the time bars and writes ``benchmarks/results/block_candset.txt``.

Run: ``PYTHONPATH=src python benchmarks/bench_block_candset.py`` (~45 s
on 2 cores).  ``--smoke`` runs restaurant 300 x 300, 100 pairs of
3,000 x 3,000 and one 300-row job without the time bars, into the
untracked ``block_candset_smoke.txt``.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR / "spine"))

import gen  # noqa: E402
import numpy as np  # noqa: E402
from _report import format_table, report  # noqa: E402

from repro.blocking import (  # noqa: E402
    AttrEquivalenceBlocker,
    OverlapBlocker,
    RuleBasedBlocker,
    VectorBlocker,
    candset_pairs,
    make_candset,
)
from repro.blocking.base import CANDSET_ID  # noqa: E402
from repro.catalog import get_catalog  # noqa: E402
from repro.catalog.checks import resolve_candset  # noqa: E402
from repro.datasets import DirtinessConfig, make_em_dataset  # noqa: E402
from repro.datasets.entities import restaurant  # noqa: E402
from repro.features import get_features_for_blocking  # noqa: E402
from repro.index import use_index_store  # noqa: E402
from repro.table import Table  # noqa: E402

SEED = 10
REPEATS = 3
#: Median ``block_candset`` seconds over the full-size candidate set.
OVERLAP_BAR = 1.0
EQUALITY_BAR = 0.3
SIZES = {"full": {"rows": 3000, "job_rows": 2000, "jobs": 3,
                  "sparse_rows": 100_000, "sparse_pairs": 1000},
         "smoke": {"rows": 300, "job_rows": 300, "jobs": 1,
                   "sparse_rows": 3000, "sparse_pairs": 100}}


def digest(candset: Table) -> str:
    """The candidate set's foreign-key pairs, in order, as 16 hex digits."""
    return hashlib.sha256(repr(candset_pairs(candset)).encode()).hexdigest()[:16]


def timed(call, repeats: int = REPEATS) -> tuple[object, list[float]]:
    """``call()``'s last result and its wall seconds per run, each run on
    a fresh index store."""
    seconds = []
    for _ in range(repeats):
        with use_index_store():
            started = time.perf_counter()
            result = call()
            seconds.append(time.perf_counter() - started)
    return result, seconds


def spread(seconds: list[float]) -> str:
    return f"{statistics.median(seconds):.3f} [{min(seconds):.3f}-{max(seconds):.3f}]"


def steps(blocker, candset: Table) -> tuple[Table, str]:
    """``blocker.block_candset(candset)`` as its three steps, each timed:
    the result and ``"resolve / keep / take"``, the median seconds of each
    step over ``REPEATS`` runs, each run on a fresh index store."""
    cat = get_catalog()
    runs = []
    for _ in range(REPEATS):
        with use_index_store():
            started = time.perf_counter()
            meta, l_pos, r_pos = resolve_candset(candset, cat)
            resolved = time.perf_counter()
            keep = np.flatnonzero(blocker.keep(meta.ltable, meta.rtable, l_pos, r_pos)).tolist()
            kept = time.perf_counter()
            result = candset.take(keep)
            result.add_column(CANDSET_ID, list(range(len(keep))))
            cat.set_candset_metadata(
                result, meta.key, meta.fk_ltable, meta.fk_rtable, meta.ltable, meta.rtable
            )
            runs.append((resolved - started, kept - resolved, time.perf_counter() - kept))
    return result, " / ".join(f"{statistics.median(step):.3f}" for step in zip(*runs))


def filters(ltable: Table, rtable: Table) -> list[tuple[str, object, bool]]:
    """``(label, blocker, exact)``: ``exact`` when ``block_tables`` is
    the filter's own decision over A x B."""
    rules = RuleBasedBlocker()
    features = get_features_for_blocking(ltable, rtable)
    rules.add_rule("name_jaccard_qgm3 < 0.3", features)
    rules.add_rule("city_exact <= 0.5", features)
    return [
        ('OverlapBlocker("street", overlap_size=1)', OverlapBlocker("street", overlap_size=1),
         True),
        ('AttrEquivalenceBlocker("city")', AttrEquivalenceBlocker("city"), True),
        ("RuleBasedBlocker(name_jaccard_qgm3 < 0.3; city_exact <= 0.5)", rules, True),
        ('VectorBlocker("name", threshold=0.5)', VectorBlocker("name", threshold=0.5), False),
    ]


def filter_rows(size: dict) -> tuple[int, list[dict], dict]:
    ds = make_em_dataset(
        restaurant, size["rows"], size["rows"], dirtiness=DirtinessConfig.light(), seed=SEED
    )
    ltable, rtable = ds.ltable, ds.rtable
    base = OverlapBlocker("name", overlap_size=1).block_tables(ltable, rtable)
    rows, medians = [], {}
    for label, blocker, exact in filters(ltable, rtable):
        kept, filter_s = timed(lambda: blocker.block_candset(base))
        stepped, step_s = steps(blocker, base)
        assert digest(stepped) == digest(kept), label
        blocked, tables_s = timed(lambda: blocker.block_tables(ltable, rtable), repeats=1)
        if exact:
            survivors = set(candset_pairs(blocked))
            assert candset_pairs(kept) == [p for p in candset_pairs(base) if p in survivors], label
        meta = get_catalog().get_candset_metadata(kept)
        assert meta.ltable is ltable and meta.rtable is rtable
        medians[label] = statistics.median(filter_s)
        rows.append({
            "filter": label,
            "pairs kept": f"{kept.num_rows:,}",
            "block_candset s": spread(filter_s),
            "resolve / keep / take s": step_s,
            "block_tables s (A x B)": f"{tables_s[0]:.3f}",
            "block_tables pairs": f"{blocked.num_rows:,}",
            "digest": digest(kept),
        })
    return base.num_rows, rows, medians


def sparse_rows(size: dict) -> list[dict]:
    """The pair-local filters over a small random candset of large tables."""
    n, rng = size["sparse_rows"], random.Random(SEED)
    ds = make_em_dataset(restaurant, n, n, dirtiness=DirtinessConfig.light(), seed=SEED)
    ltable, rtable = ds.ltable, ds.rtable
    l_ids, r_ids = ltable.column("id"), rtable.column("id")
    pairs = sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(size["sparse_pairs"])})
    candset = make_candset([(l_ids[l], r_ids[r]) for l, r in pairs], ltable, rtable, "id", "id")
    rows = []
    for label, blocker, _ in filters(ltable, rtable)[:3]:
        kept, seconds = timed(lambda: blocker.block_candset(candset))
        stepped, step_s = steps(blocker, candset)
        assert digest(stepped) == digest(kept), label
        rows.append({
            "filter": label,
            "pairs in -> kept": f"{candset.num_rows:,} -> {kept.num_rows:,}",
            "block_candset s": spread(seconds),
            "resolve / keep / take s": step_s,
            "digest": digest(kept),
        })
    return rows


def chain_rows(size: dict) -> list[dict]:
    """Both orders of the two-filter chain, summed over the jobs."""
    jobs = []
    for job in gen.guide_inputs(1, size["job_rows"], size["jobs"]):
        ltable, rtable = Table(job["A"]), Table(job["B"])
        base = OverlapBlocker("title", overlap_size=1).block_tables(ltable, rtable)
        jobs.append(base)
    title = ('OverlapBlocker("title", overlap_size=2)', OverlapBlocker("title", overlap_size=2))
    category = ('AttrEquivalenceBlocker("category")', AttrEquivalenceBlocker("category"))
    rows, results = [], []
    for chain in ((title, category), (category, title)):
        steps = [{"in": 0, "out": 0, "seconds": [0.0] * REPEATS} for _ in chain]
        finals = []
        for base in jobs:
            candset = base
            for step, (_, blocker) in zip(steps, chain):
                step["in"] += candset.num_rows
                candset, seconds = timed(lambda: blocker.block_candset(candset))
                step["out"] += candset.num_rows
                step["seconds"] = [a + b for a, b in zip(step["seconds"], seconds)]
            finals.append(candset)
        results.append(finals)
        both = [a + b for a, b in zip(*(step["seconds"] for step in steps))]
        row = {"written order": " -> ".join(label for label, _ in chain)}
        for name, step in zip(("first filter", "second filter"), steps):
            per_pair = statistics.median(step["seconds"]) / max(step["in"], 1) * 1e6
            row[name] = (f"{step['in']:,} -> {step['out']:,} pairs, "
                         f"{spread(step['seconds'])} s ({per_pair:.2f} us/pair)")
        row["both s"] = spread(both)
        rows.append(row)
    for forward, backward in zip(*results):
        assert forward.columns == backward.columns
        assert [forward.column(c) for c in forward.columns] == [
            backward.column(c) for c in backward.columns
        ]
    return rows


def main(smoke: bool = False) -> dict:
    size = SIZES["smoke" if smoke else "full"]
    n_base, rows, medians = filter_rows(size)
    sparse = sparse_rows(size)
    chains = chain_rows(size)
    n = size["rows"]
    body = "\n".join([
        f"restaurant {n} x {n} (light, seed {SEED}); base OverlapBlocker(\"name\", "
        f"overlap_size=1): {n_base:,} pairs.  block_candset: median [min-max] of "
        f"{REPEATS} runs, each on a fresh index store; resolve / keep / take: the medians of "
        f"its three steps run apart; block_tables: one run over A x B.",
        "",
        format_table(rows),
        "",
        f"Sparse: {size['sparse_pairs']:,} random pairs of restaurant {size['sparse_rows']:,} x "
        f"{size['sparse_rows']:,} (light, seed {SEED}), no block_tables run before; "
        f"median [min-max] of {REPEATS} runs, each on a fresh index store.",
        "",
        format_table(sparse),
        "",
        f"Filter chains: {size['jobs']} gen.guide_inputs(1, {size['job_rows']}, "
        f"{size['jobs']}) job(s), base OverlapBlocker(\"title\", overlap_size=1), "
        f"summed over the jobs; both orders give == candidate sets.",
        "",
        format_table(chains),
        "",
        "bars (full size): OverlapBlocker median <= "
        f"{OVERLAP_BAR} s, AttrEquivalenceBlocker median <= {EQUALITY_BAR} s",
    ])
    report("block_candset_smoke" if smoke else "block_candset",
           "block_candset filters next to block_tables", body)
    if not smoke:
        overlap, equality = (medians[r["filter"]] for r in rows[:2])
        assert overlap <= OVERLAP_BAR, f"overlap filter took {overlap:.3f} s"
        assert equality <= EQUALITY_BAR, f"equality filter took {equality:.3f} s"
    return {"rows": rows, "sparse": sparse, "chains": chains}


def test_block_candset_smoke():
    main(smoke=True)


if __name__ == "__main__":
    main(smoke="--smoke" in sys.argv[1:])

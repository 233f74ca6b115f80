"""Edit kernels: the batch forms of Levenshtein, Jaro-Winkler and
Monge-Elkan next to their scalar forms.

Feature extraction scores every candidate pair of the how-to guide with
these three measures (paper Fig. 2, "extract feature vectors").  This
bench builds the guide's seeded tables (``gen.guide_inputs(1, 2000, 3)``,
the spine's ``guide_batch`` inputs), blocks each job with
``OverlapBlocker("title", overlap_size=2)`` and reads the candidate
pairs' lowercased values, then per kernel and column:

* times the batch form over all jobs' pairs, median of ``REPEATS`` runs;
* times the scalar form once, pair by pair;
* checks the batch form ``==`` the scalar form, value for value and
  type for type.

Levenshtein runs ``batch_sim_score`` on ``title`` and ``code``,
Jaro-Winkler on ``code`` and ``category``, Monge-Elkan ``batch_raw_score``
on the whitespace tokens of ``title`` (as the generated
``title_monge_elkan`` feature does).  It writes
``benchmarks/results/string_kernels.txt``.

Run: ``PYTHONPATH=src python benchmarks/bench_string_kernels.py`` (~15 s
on 2 cores).  ``--smoke`` runs one 300-row job into the untracked
``string_kernels_smoke.txt``.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR / "spine"))

import gen  # noqa: E402
from _report import format_table, report  # noqa: E402

from repro.blocking import OverlapBlocker  # noqa: E402
from repro.catalog import get_catalog  # noqa: E402
from repro.table import Table  # noqa: E402
from repro.text.sim import JaroWinkler, Levenshtein, MongeElkan  # noqa: E402
from repro.text.tokenizers import WhitespaceTokenizer  # noqa: E402

SEED = 1
REPEATS = 5
SIZES = {"full": {"rows": 2000, "jobs": 3}, "smoke": {"rows": 300, "jobs": 1}}


def candidate_values(size: dict) -> dict[str, tuple[list, list]]:
    """Per column, the lowercased left and right values of every job's
    candidate pairs, jobs back to back."""
    values: dict[str, tuple[list, list]] = {}
    for job in gen.guide_inputs(SEED, size["rows"], size["jobs"]):
        ltable, rtable = Table(job["A"]), Table(job["B"])
        get_catalog().set_key(ltable, "id")
        get_catalog().set_key(rtable, "id")
        candset = OverlapBlocker("title", overlap_size=2).block_tables(ltable, rtable)
        l_row, r_row = ltable.index_by("id"), rtable.index_by("id")
        pairs = list(zip(candset["ltable_id"], candset["rtable_id"]))
        for column in ("title", "code", "category"):
            lefts, rights = values.setdefault(column, ([], []))
            lefts.extend(l_row[l][column].lower() for l, _ in pairs)
            rights.extend(r_row[r][column].lower() for _, r in pairs)
    return values


def kernels(values: dict) -> list[tuple[str, str, object, list, list]]:
    """``(kernel, column, batch form, scalar form, lefts, rights)``."""
    tokenize = WhitespaceTokenizer().tokenize
    title_bags = [[tokenize(text) for text in side] for side in values["title"]]
    levenshtein, jaro_winkler, monge_elkan = Levenshtein(), JaroWinkler(), MongeElkan()
    rows = [
        ("Levenshtein", column, levenshtein.batch_sim_score, levenshtein.get_sim_score,
         *values[column])
        for column in ("title", "code")
    ]
    rows += [
        ("Jaro-Winkler", column, jaro_winkler.batch_sim_score, jaro_winkler.get_sim_score,
         *values[column])
        for column in ("code", "category")
    ]
    rows.append(("Monge-Elkan", "title tokens", monge_elkan.batch_raw_score,
                 monge_elkan.get_raw_score, *title_bags))
    return rows


def main(smoke: bool = False) -> list[dict]:
    size = SIZES["smoke" if smoke else "full"]
    rows = []
    for kernel, column, batch, scalar, lefts, rights in kernels(candidate_values(size)):
        started = time.perf_counter()
        expected = [scalar(l, r) for l, r in zip(lefts, rights)]
        scalar_s = time.perf_counter() - started
        seconds = []
        for _ in range(REPEATS):
            started = time.perf_counter()
            got = batch(lefts, rights).tolist()
            seconds.append(time.perf_counter() - started)
        assert got == expected, (kernel, column)
        assert all(type(a) is type(b) for a, b in zip(got, expected)), (kernel, column)
        batch_s = statistics.median(seconds)
        rows.append({
            "kernel": kernel,
            "column": column,
            "pairs": f"{len(lefts):,}",
            "batch s (median)": f"{batch_s:.4f} [{min(seconds):.4f}-{max(seconds):.4f}]",
            "scalar s": f"{scalar_s:.3f}",
            "batch / scalar": f"{scalar_s / batch_s:.1f}x",
            "== scalar": "yes",
        })
    body = "\n".join([
        f"gen.guide_inputs({SEED}, {size['rows']}, {size['jobs']}): the candidate pairs of "
        f'OverlapBlocker("title", overlap_size=2) per job, lowercased values. Batch: median '
        f"[min-max] of {REPEATS} runs over all jobs' pairs; scalar: one pair-by-pair run.",
        "",
        format_table(rows),
    ])
    name = "string_kernels_smoke" if smoke else "string_kernels"
    report(name, "Edit kernels: batch forms vs scalar forms on the guide's columns", body)
    return rows


if __name__ == "__main__":
    main(smoke="--smoke" in sys.argv[1:])

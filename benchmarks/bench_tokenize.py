"""Text to token codes: the store's ``tokens`` build per tokenizer.

Every join, token feature, sampler and the blocking debugger reads text
as token codes through one step, the index store's ``tokens`` artifact
(paper Table 3: the tool stack shares one tokenizer package).  That
build runs ``Tokenizer.token_codes``, a few C-level or numpy passes per
step of values.  This bench times it against the per-value path it
replaced (``tokenize`` per value, each token numbered in a Python dict,
which is also its oracle), per tokenizer:

* whitespace as a set and as a bag, 2-grams and 3-grams (padded, the
  feature generator's and blockers' form) and a delimiter tokenizer;
* over the row texts (``sampling.row_text_view``: every attribute,
  lowercased and joined) of ``make_em_dataset(person, n, n, seed=3)``'s
  left table, at n = 10k and 100k rows;
* the whole build: median [min-max] of ``REPEATS``, each from a fresh
  ``IndexStore`` whose ``records`` are built first and not timed (the
  build fingerprints the column and numbers its values too);
* ``token_codes`` alone over the column's distinct values, median
  [min-max] of ``REPEATS``;
* per value: one run of the oracle over the same values.

It asserts each artifact's distinct tokens, codes and per-value counts
``==`` the oracle's, then times ``down_sample`` 100k -> 10k cold (a
fresh store per call, median of ``REPEATS``), and writes
``benchmarks/results/tokenize.txt``.  The ratio column is where a
q-gram tokenizing speedup shows: the spine's joins tokenize on
whitespace only.

Run: ``PYTHONPATH=src python benchmarks/bench_tokenize.py`` (~10 s on
2 cores).  ``--smoke`` runs 1k and 3k rows and ``down_sample`` 3k -> 300
into the untracked ``tokenize_smoke.txt``.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from _report import format_table, report  # noqa: E402

from repro.blocking.base import TEXT  # noqa: E402
from repro.datasets import make_em_dataset  # noqa: E402
from repro.datasets.entities import person  # noqa: E402
from repro.index import IndexStore, use_index_store  # noqa: E402
from repro.sampling import down_sample  # noqa: E402
from repro.sampling.down_sample import row_text_view  # noqa: E402
from repro.text.tokenizers import (  # noqa: E402
    DelimiterTokenizer,
    QgramTokenizer,
    WhitespaceTokenizer,
)

SEED = 3
REPEATS = 3
SIZES = {"full": (10_000, 100_000), "smoke": (1_000, 3_000)}
SAMPLE = {"full": (100_000, 10_000), "smoke": (3_000, 300)}
TOKENIZERS = {
    "whitespace set": WhitespaceTokenizer(return_set=True),
    "whitespace bag": WhitespaceTokenizer(),
    "2-gram": QgramTokenizer(q=2),
    "3-gram": QgramTokenizer(q=3),
    "delimiter": DelimiterTokenizer({" ", ",", "-"}, return_set=True),
}


def per_value(values: list[str], tokenizer) -> tuple[list[str], list[int], list[int]]:
    """The per-value path and oracle: ``tokenize`` each value, number each
    of its distinct tokens on first sight."""
    numbers: dict[str, int] = {}
    codes, lengths = [], []
    for value in values:
        tokens = list(dict.fromkeys(tokenizer.tokenize(value)))
        lengths.append(len(tokens))
        codes += [numbers.setdefault(token, len(numbers)) for token in tokens]
    return list(numbers), codes, lengths


def tokens_build(view, tokenizer):
    """One timed ``tokens`` build from a fresh store; ``records`` untimed."""
    store = IndexStore()
    store.record_columns(view, "id", TEXT)
    started = time.perf_counter()
    column = store.tokenized_column(view, "id", TEXT, tokenizer)
    return column, time.perf_counter() - started


def spread(seconds: list[float]) -> str:
    return f"{statistics.median(seconds):.4f} [{min(seconds):.4f}-{max(seconds):.4f}]"


def main(smoke: bool = False) -> list[dict]:
    mode = "smoke" if smoke else "full"
    rows = []
    largest = max(SIZES[mode] + SAMPLE[mode][:1])
    dataset = make_em_dataset(person, largest, largest, seed=SEED)
    for n in SIZES[mode]:
        view = row_text_view(dataset.ltable.take(list(range(n))), "id")
        for name, tokenizer in TOKENIZERS.items():
            build_s = [tokens_build(view, tokenizer)[1] for _ in range(REPEATS)]
            column = tokens_build(view, tokenizer)[0]
            bulk_s = []
            for _ in range(REPEATS):
                started = time.perf_counter()
                tokenizer.token_codes(column.values)
                bulk_s.append(time.perf_counter() - started)
            started = time.perf_counter()
            expected = per_value(column.values, tokenizer)
            oracle_s = time.perf_counter() - started
            got = (column.distinct, column.codes.tolist(), column.lengths.tolist())
            assert got == expected, (name, n)
            rows.append({
                "tokenizer": name,
                "rows": f"{n:,}",
                "values": f"{len(column.values):,}",
                "codes": f"{len(column.codes):,}",
                "tokens build s": spread(build_s),
                "token_codes s": spread(bulk_s),
                "per-value s": f"{oracle_s:.4f}",
                "per-value / token_codes": f"{oracle_s / statistics.median(bulk_s):.1f}x",
                "== per-value": "yes",
            })
    full, size = SAMPLE[mode]
    ltable, rtable = dataset.ltable.take(list(range(full))), dataset.rtable.take(list(range(full)))
    sample_s = []
    for _ in range(REPEATS):
        with use_index_store(IndexStore()):
            started = time.perf_counter()
            down_sample(ltable, rtable, size, seed=0)
            sample_s.append(time.perf_counter() - started)
    body = "\n".join([
        f"make_em_dataset(person, n, n, seed={SEED}): the left table's row texts "
        f"(every attribute, lowercased, joined), median [min-max] of {REPEATS}. Tokens "
        "build: IndexStore.tokenized_column from a fresh store whose records are built "
        "first, untimed (it fingerprints the column, numbers the values and runs "
        "token_codes); token_codes: Tokenizer.token_codes over the distinct values; "
        "per-value: tokenize + a dict numbering per token over them, once.",
        "",
        format_table(rows),
        "",
        f"down_sample {full:,} -> {size:,}, cold store: "
        f"{statistics.median(sample_s):.3f} s median [{min(sample_s):.3f}-{max(sample_s):.3f}] "
        f"of {REPEATS}",
    ])
    report("tokenize_smoke" if smoke else "tokenize",
           "Text to token codes: the tokens build per tokenizer", body)
    return rows


if __name__ == "__main__":
    main(smoke="--smoke" in sys.argv[1:])

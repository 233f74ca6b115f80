"""The ``tokens`` artifact as codes into its distinct tokens.

:class:`repro.index.store.TokenizedColumn` keeps each column's distinct
tokens once (``distinct``, first-seen order) and each value's tokens as
int32 ``codes`` into them, built a bounded chunk of values at a time.
The oracles below are the flat layout it replaced: one Python string
per token occurrence, every value's tokens held at once, and the pair
encoding ranked over that flat list.  Everything the encoding derives
must be ``==`` theirs.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from itertools import accumulate, chain
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.index import IndexStore, fingerprints
from repro.perf import arrays
from repro.perf.tokens import TokenUniverse
from repro.table import Table
from repro.table.schema import is_missing
from repro.text import tokenizers
from repro.text.tokenizers import (
    DelimiterTokenizer,
    QgramBagTokenizer,
    QgramTokenizer,
    WhitespaceTokenizer,
)

TOKENIZERS = [
    WhitespaceTokenizer(return_set=True),
    WhitespaceTokenizer(),  # a bag: repeated tokens are deduped per value
    QgramTokenizer(q=2, return_set=True),
    QgramTokenizer(q=2, padding=False),
    QgramTokenizer(q=3),
    QgramTokenizer(q=3, padding=False, return_set=True),
    DelimiterTokenizer({",", ";"}, return_set=True),
    # q = 1..3 padded and unpadded (the numpy path), q = 4 and tagged
    # grams (the per-value path)
    QgramTokenizer(q=1),
    QgramTokenizer(q=1, padding=False, return_set=True),
    QgramTokenizer(q=2),
    QgramTokenizer(q=3, return_set=True),
    QgramTokenizer(q=2, padding=True, prefix_pad="a", suffix_pad="\U0001F600"),
    QgramTokenizer(q=4),
    QgramBagTokenizer(q=2),
]


def oracle_tokenized(records: list[tuple], tokenizer) -> SimpleNamespace:
    """The flat layout: each value's distinct tokens laid end to end as
    strings (``lengths[j]`` of them for value *j*)."""
    values = list(dict.fromkeys(value for _, value in records))
    ids = dict(zip(values, range(len(values))))
    value_rows = np.fromiter((ids[v] for _, v in records), np.int32, len(records))
    per_value = list(map(tokenizer.tokenize, values))
    if not tokenizer.return_set:
        per_value = [list(dict.fromkeys(tokens)) for tokens in per_value]
    lengths = np.fromiter(map(len, per_value), np.int64, len(per_value))
    tokens = list(chain.from_iterable(per_value))
    return SimpleNamespace(
        records=records, values=values, value_rows=value_rows, tokens=tokens, lengths=lengths
    )


def oracle_token_sets(side: SimpleNamespace) -> dict[str, set[str]]:
    spans = zip(side.values, side.lengths.tolist(), np.cumsum(side.lengths).tolist())
    return {value: set(side.tokens[e - n : e]) for value, n, e in spans}


def oracle_encode_pair(left: SimpleNamespace, right: SimpleNamespace):
    """The encoding ranked over the flat token list: ``(universe,
    left rows, right rows)``."""
    sides = (left,) if left is right else (left, right)
    starts = np.cumsum([0, *(len(side.values) for side in sides)])
    rows = [side.value_rows + start for side, start in zip(sides, starts.tolist())]
    lengths = np.concatenate([side.lengths for side in sides])
    flat = list(chain.from_iterable(side.tokens for side in sides))
    lexical = sorted(set(flat))
    token_ids = dict(zip(lexical, range(len(lexical))))
    tokens = np.fromiter(map(token_ids.__getitem__, flat), dtype=np.int64, count=len(flat))
    value_of_token = np.repeat(np.arange(starts[-1]), lengths)
    records_per_value = np.bincount(np.concatenate(rows), minlength=starts[-1])
    counts = np.bincount(tokens, records_per_value[value_of_token], minlength=len(lexical))
    order = np.argsort(counts, kind="stable")
    universe = TokenUniverse.from_ranked(map(lexical.__getitem__, order.tolist()))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    offsets = value_of_token * len(lexical)
    ids = rank[tokens] + offsets
    ids.sort()
    ids -= offsets
    encoded = [
        arrays.take_rows("oracle", [key for key, _ in side.records], lengths, ids, side_rows,
                         len(universe))
        for side, side_rows in zip(sides, rows)
    ]
    return universe, encoded[0], encoded[-1]


def records_of(table: Table) -> list[tuple]:
    return [(key, str(value)) for key, value in zip(table.column("id"), table.column("v"))
            if not is_missing(value)]


def assert_same_rows(ours, theirs) -> None:
    assert ours.keys == theirs.keys
    assert ours.dim == theirs.dim
    for name in ("indptr", "indices"):
        mine, oracle = getattr(ours, name), getattr(theirs, name)
        assert mine.dtype == oracle.dtype
        assert np.array_equal(mine, oracle)


def assert_like_oracle(ltable: Table, rtable: Table, tokenizer, self_pair: bool) -> None:
    store = IndexStore()
    rtable = ltable if self_pair else rtable
    columns, oracles = [], []
    for table in (ltable, rtable):
        column = store.tokenized_column(table, "id", "v", tokenizer)
        oracle = oracle_tokenized(records_of(table), tokenizer)
        assert column.codes.dtype == np.int32
        assert column.values == oracle.values
        assert np.array_equal(column.value_rows, oracle.value_rows)
        assert np.array_equal(column.lengths, oracle.lengths)
        assert list(map(column.distinct.__getitem__, column.codes.tolist())) == oracle.tokens
        assert column.distinct == list(dict.fromkeys(oracle.tokens))
        assert column.token_sets == oracle_token_sets(oracle)
        columns.append(column)
        oracles.append(oracle)
    encoding = store.join_encoding(ltable, rtable, "id", "id", "v", "v", tokenizer)
    # Equal content (a self-pair, or two empty tables) is one artifact.
    same = columns[0] is columns[1]
    assert (encoding.left is encoding.right) == same
    universe, left, right = oracle_encode_pair(oracles[0], oracles[0] if same else oracles[1])
    ranked = encoding.universe.decode(range(len(encoding.universe)))
    assert ranked == universe.decode(range(len(universe)))
    assert_same_rows(encoding.left, left)
    assert_same_rows(encoding.right, right)


# Pieces that stress the token strings: NUL (``"a\x00"`` is not ``"a"``),
# non-BMP code points and lone surrogates, delimiters, the pad characters
# inside values, and blanks (a value of only blanks is missing: no
# record).  Short draws give empty strings and strings shorter than q.
PIECES = [
    "a", "b", "ab", "\x00", "a\x00", " ", ",", ";", "é", "\U0001F600", "x\U00010348",
    "\ud800", "\udfff", "#", "$", "#$", "aaa",
]
VALUES = st.lists(st.sampled_from(PIECES), max_size=6).map("".join)


@st.composite
def table_pairs(draw):
    pool = draw(st.lists(VALUES, min_size=1, max_size=10))
    shared = st.one_of(st.sampled_from(pool), VALUES)  # values shared across sides
    sides = [draw(st.lists(st.one_of(shared, st.none()), max_size=12)) for _ in range(2)]
    return [Table({"id": [f"{side}{i}" for i in range(len(cells))], "v": cells})
            for side, cells in zip("lr", sides)]


class TestCodesEqualTheFlatLayout:
    @settings(max_examples=120, deadline=None)
    @given(table_pairs(), st.sampled_from(TOKENIZERS), st.booleans(), st.integers(1, 5))
    @example(
        [Table({"id": ["l0", "l1"], "v": ["a\x00 a", "a"]}),
         Table({"id": ["r0", "r1"], "v": ["a", "\U0001F600 a\x00"]})],
        WhitespaceTokenizer(return_set=True), False, 1,
    )
    @example([Table({"id": [], "v": []}), Table({"id": ["r0"], "v": [""]})],
             QgramTokenizer(q=3), False, 4096)
    def test_like_the_flat_layout(self, tables, tokenizer, self_pair, chunk):
        """Chunks of 1..5 values cross a boundary within a dozen rows."""
        with mock.patch.object(fingerprints, "_CHUNK", chunk):
            assert_like_oracle(*tables, tokenizer, self_pair)

    @settings(max_examples=40, deadline=None)
    @given(table_pairs(), st.sampled_from(TOKENIZERS), st.booleans())
    def test_int64_sort_keys(self, tables, tokenizer, self_pair):
        """Past int32, the encoding's value-major sort keys are int64."""
        from repro.index import store as store_module

        with mock.patch.object(store_module, "_INT32_KEYS", 0):
            assert_like_oracle(*tables, tokenizer, self_pair)

    @pytest.mark.parametrize("tokenizer", [TOKENIZERS[0], TOKENIZERS[2], TOKENIZERS[6]])
    def test_columns_past_one_chunk(self, tokenizer):
        """Over 4,096 distinct values per side, some shared, at the real
        chunk size."""
        rng = random.Random(7)

        def value(i: int) -> str:
            return f"w{i} w{rng.randrange(300)},\U0001F600{i % 5} a\x00{i % 3}"

        shared = [value(i) for i in range(600)]
        left = shared + [value(i) for i in range(600, 5000)]
        right = [value(i) for i in range(5000, 9500)] + shared[::-1]
        assert len(set(left)) > fingerprints._CHUNK < len(set(right))
        tables = [Table({"id": [f"{side}{i}" for i in range(len(cells))], "v": cells})
                  for side, cells in (("l", left), ("r", right))]
        assert_like_oracle(*tables, tokenizer, self_pair=False)


class TestBulkTokenCodes:
    """``Tokenizer.token_codes`` against its oracle, ``tokenize`` per value."""

    @staticmethod
    def oracle(tokenizer, values: list[str]):
        numbers: dict[str, int] = {}
        codes, lengths = [], []
        for value in values:
            tokens = list(dict.fromkeys(tokenizer.tokenize(value)))
            lengths.append(len(tokens))
            codes += [numbers.setdefault(token, len(numbers)) for token in tokens]
        return list(numbers), codes, lengths

    @settings(max_examples=150, deadline=None)
    @given(st.lists(VALUES, max_size=12), st.sampled_from(TOKENIZERS), st.integers(1, 30),
           st.integers(0, 2))
    def test_like_tokenize_per_value(self, values, tokenizer, budget, per_value):
        """A budget of 1..30 code points cuts steps mid-column, so grams
        and words first seen in one step recur in later ones."""
        with mock.patch.object(tokenizers, "STEP_POINTS", budget), \
                mock.patch.object(tokenizers, "VALUE_POINTS", per_value):
            distinct, codes, lengths = tokenizer.token_codes(values)
        assert codes.dtype == np.int32 and lengths.dtype == np.int64
        assert (distinct, codes.tolist(), lengths.tolist()) == self.oracle(tokenizer, values)

    def test_a_subclass_that_tokenizes_its_own_way_is_read_per_value(self):
        class Upper(QgramTokenizer):
            def tokenize(self, text):
                return super().tokenize(text.upper())

        distinct, _, _ = Upper(q=2).token_codes(["ab"])
        assert distinct == ["#A", "AB", "B$"]


class TestStepBudget:
    @settings(max_examples=60, deadline=None)
    @given(table_pairs(), st.sampled_from(TOKENIZERS), st.booleans(), st.integers(1, 12))
    def test_a_tiny_budget_splits_a_column(self, tables, tokenizer, self_pair, budget):
        """Steps of a few code points end inside every column."""
        with mock.patch.object(tokenizers, "STEP_POINTS", budget), \
                mock.patch.object(tokenizers, "VALUE_POINTS", 1):
            assert_like_oracle(*tables, tokenizer, self_pair)


#: Building ``tokens`` for a 20k-value column may peak at most this many
#: times the bytes the artifact keeps.  The flat layout peaked at ~5.2x
#: here: every value's token list was held at once.
TOKENS_PEAK_BOUND = 4.0


def test_building_tokens_peaks_within_a_multiple_of_the_artifact():
    rng = random.Random(0)
    words = [f"w{rank}" for rank in range(20_000)]
    weights = list(accumulate(1.0 / (rank + 1) for rank in range(len(words))))
    values = [" ".join(rng.choices(words, cum_weights=weights, k=rng.randint(3, 8)))
              for _ in range(20_000)]
    table = Table({"id": list(range(len(values))), "v": values})
    store = IndexStore()
    store.record_columns(table, "id", "v")  # the records are the records stage's
    gc.collect()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        column = store.tokenized_column(table, "id", "v", WhitespaceTokenizer(return_set=True))
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(column.values) > 19_000
    assert peak - start <= TOKENS_PEAK_BOUND * (kept - start)


def test_building_qgram_tokens_peaks_within_a_multiple_of_the_artifact():
    """Values of 500+ characters: a step is bounded by code points, not
    by a count of values, so the build's transient stays a fraction of
    what it keeps."""
    rng = random.Random(0)
    letters = "abcdefghijklmnopqrstuvwxyz "
    values = ["".join(rng.choices(letters, k=rng.randint(500, 700))) for _ in range(3_000)]
    table = Table({"id": list(range(len(values))), "v": values})
    for tokenizer in (QgramTokenizer(q=3), QgramTokenizer(q=2, return_set=True)):
        store = IndexStore()
        store.record_columns(table, "id", "v")
        gc.collect()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            column = store.tokenized_column(table, "id", "v", tokenizer)
            gc.collect()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(column.values) == len(values)
        assert peak - start <= TOKENS_PEAK_BOUND * (kept - start)

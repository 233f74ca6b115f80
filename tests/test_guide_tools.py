"""Equivalence suite: the guide's token tools against their oracles.

``debug_blocker`` runs a descending-threshold Jaccard join and
``weighted_sample_candset`` a token feature's batch form, both over
:func:`repro.blocking.text_view`.  The oracles below are the pairwise
implementations they replaced — a dict inverted index with per-pair
set arithmetic, and a per-pair scoring loop — kept as the reference.
Hypothesis drives tables with tied similarities, missing / blank /
all-missing rows, int and float cells, duplicate values, renamed and
absent shared attributes, oversized ``output_size`` and candidate sets
that hold every pair; outputs are compared with plain ``==`` (on
floats, bit identity).
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Any

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.blocking import CanopyBlocker, debug_blocker, make_candset, text_view
from repro.blocking.base import TEXT
from repro.catalog import get_catalog, reset_catalog
from repro.catalog.checks import validate_candset
from repro.index.fingerprints import column_fingerprint
from repro.index.store import IndexStore, use_index_store
from repro.sampling import down_sample, weighted_sample_candset
from repro.table.schema import is_missing
from repro.table.table import Table
from repro.text.tokenizers import WhitespaceTokenizer


# ----------------------------------------------------------------------
# Oracles: the pairwise implementations the join and the batch replaced
# ----------------------------------------------------------------------
def _concat_tokens(table: Table, key: str, attrs: list[str]) -> dict[Any, set[str]]:
    tokenizer = WhitespaceTokenizer(return_set=True)
    result: dict[Any, set[str]] = {}
    for row in table.rows():
        tokens: set[str] = set()
        for attr in attrs:
            value = row[attr]
            if not is_missing(value):
                tokens.update(t.lower() for t in tokenizer.tokenize(str(value)))
        result[row[key]] = tokens
    return result


def oracle_debug_blocker(candset, output_size=50, attr_corres=None):
    cat = get_catalog()
    meta = validate_candset(candset, cat)
    ltable, rtable = meta.ltable, meta.rtable
    l_key = cat.get_key(ltable)
    r_key = cat.get_key(rtable)
    if attr_corres is None:
        shared = [
            name
            for name in ltable.columns
            if name in set(rtable.columns) and name not in (l_key, r_key)
        ]
        attr_corres = [(name, name) for name in shared]
    in_candset = set(zip(candset.column(meta.fk_ltable), candset.column(meta.fk_rtable)))
    l_tokens = _concat_tokens(ltable, l_key, [pair[0] for pair in attr_corres])
    r_tokens = _concat_tokens(rtable, r_key, [pair[1] for pair in attr_corres])
    index: dict[str, list[Any]] = defaultdict(list)
    for r_id, tokens in r_tokens.items():
        for token in tokens:
            index[token].append(r_id)
    scored = []
    for l_id, tokens in l_tokens.items():
        candidates: set[Any] = set()
        for token in tokens:
            candidates.update(index.get(token, ()))
        for r_id in candidates:
            if (l_id, r_id) in in_candset:
                continue
            other = r_tokens[r_id]
            union = len(tokens | other)
            similarity = len(tokens & other) / union if union else 0.0
            if similarity > 0.0:
                scored.append((similarity, l_id, r_id))
    scored.sort(key=lambda item: (-item[0], str(item[1]), str(item[2])))
    top = scored[:output_size]
    return Table(
        {
            "l_id": [l_id for _, l_id, _ in top],
            "r_id": [r_id for _, _, r_id in top],
            "similarity": [score for score, _, _ in top],
        }
    )


def oracle_weighted_sample(candset, n, seed=None, top_fraction=0.5):
    if candset.num_rows <= n:
        return candset.copy()
    cat = get_catalog()
    meta = validate_candset(candset, cat)
    l_key = cat.get_key(meta.ltable)
    r_key = cat.get_key(meta.rtable)
    l_tokens = _concat_tokens(meta.ltable, l_key, [c for c in meta.ltable.columns if c != l_key])
    r_tokens = _concat_tokens(meta.rtable, r_key, [c for c in meta.rtable.columns if c != r_key])
    scores = []
    for l_id, r_id in zip(candset.column(meta.fk_ltable), candset.column(meta.fk_rtable)):
        left, right = l_tokens[l_id], r_tokens[r_id]
        union = len(left | right)
        scores.append(len(left & right) / union if union else 0.0)
    order = sorted(range(candset.num_rows), key=lambda i: -scores[i])
    n_top = int(round(n * top_fraction))
    top = order[:n_top]
    rest = order[n_top:]
    random.Random(seed).shuffle(rest)
    return candset.take(sorted(top + rest[: n - len(top)]))


def _oracle_token_lists(table: Table, key: str) -> list[list[str]]:
    """Each row's distinct whitespace tokens of its text over every
    non-key column, in the order they first appear."""
    texts = text_view(table, key, [name for name in table.columns if name != key]).column(TEXT)
    tokenize = WhitespaceTokenizer(return_set=True).tokenize
    return [[] if text is None else tokenize(text) for text in texts]


def _oracle_token_index(table: Table, key: str) -> dict[str, list[int]]:
    index: dict[str, list[int]] = defaultdict(list)
    for position, tokens in enumerate(_oracle_token_lists(table, key)):
        for token in tokens:
            index[token].append(position)
    return index


def oracle_down_sample(ltable, rtable, size, y_param=1, l_key="id", r_key="id", seed=None):
    """The dict-index loop ``down_sample`` ran before it read the store."""
    rng = random.Random(seed)
    r_sample = rtable.sample(min(size, rtable.num_rows), seed=rng.randrange(2**31))
    token_index = _oracle_token_index(ltable, l_key)
    selected: set[int] = set()
    for tokens in _oracle_token_lists(r_sample, r_key):
        postings = sorted((token_index[t] for t in tokens if t in token_index), key=len)
        picked = 0
        for posting in postings:
            for position in posting:
                if position not in selected:
                    selected.add(position)
                    picked += 1
                    if picked >= y_param:
                        break
            if picked >= y_param:
                break
    remaining = [i for i in range(ltable.num_rows) if i not in selected]
    rng.shuffle(remaining)
    for position in remaining:
        if len(selected) >= min(size, ltable.num_rows):
            break
        selected.add(position)
    return ltable.take(sorted(selected)), r_sample


def oracle_sample_pairs(dataset, size, seed, catalog):
    """The counting loop Falcon's ``_sample_pairs`` ran before it read the
    store."""
    rng = np.random.default_rng(seed)
    l_ids = dataset.ltable.column(dataset.l_key)
    r_ids = dataset.rtable.column(dataset.r_key)
    pairs = set()
    index = _oracle_token_index(dataset.ltable, dataset.l_key)
    r_tokens = _oracle_token_lists(dataset.rtable, dataset.r_key)
    for j in rng.permutation(dataset.rtable.num_rows)[: size // 2]:
        counts: dict[int, int] = defaultdict(int)
        for token in r_tokens[j]:
            posting = index.get(token, ())
            if len(posting) <= max(20, dataset.ltable.num_rows // 20):
                for position in posting:
                    counts[position] += 1
        for position in sorted(counts, key=lambda p: (-counts[p], p))[:2]:
            pairs.add((l_ids[position], r_ids[int(j)]))
    need = size - len(pairs)
    for i, j in zip(
        rng.integers(0, len(l_ids), size=max(need * 2, 0)),
        rng.integers(0, len(r_ids), size=max(need * 2, 0)),
    ):
        if len(pairs) >= size:
            break
        pairs.add((l_ids[int(i)], r_ids[int(j)]))
    return make_candset(
        sorted(pairs), dataset.ltable, dataset.rtable, dataset.l_key, dataset.r_key,
        catalog=catalog,
    )


def oracle_canopy_pairs(ltable, rtable, attrs, loose, tight, seed):
    """The set-and-dict loop the canopy blocker ran before it read the
    store: side-tagged token sets, a dict inverted index, Jaccard by set
    arithmetic."""
    records = []
    tokenize = WhitespaceTokenizer(return_set=True).tokenize
    for side, table in (("l", ltable), ("r", rtable)):
        view = text_view(table, "id", attrs)
        for key_value, text in zip(view.column("id"), view.column(TEXT)):
            records.append((side, key_value, frozenset(tokenize(text or ""))))
    index: dict[str, list[int]] = defaultdict(list)
    for position, (_, _, tokens) in enumerate(records):
        for token in tokens:
            index[token].append(position)
    rng = random.Random(seed)
    order = list(range(len(records)))
    rng.shuffle(order)
    center_candidates = set(order)
    canopy_of: dict[int, list[int]] = defaultdict(list)
    canopy_id = 0
    for position in order:
        if position not in center_candidates:
            continue
        center_candidates.discard(position)
        center_tokens = records[position][2]
        members = {position}
        for other in {o for token in center_tokens for o in index[token]}:
            other_tokens = records[other][2]
            similarity = len(center_tokens & other_tokens) / len(center_tokens | other_tokens)
            if similarity >= loose:
                members.add(other)
                if similarity >= tight:
                    center_candidates.discard(other)
        for member in members:
            canopy_of[member].append(canopy_id)
        canopy_id += 1
    by_canopy: dict[int, tuple[list, list]] = defaultdict(lambda: ([], []))
    for position, canopies in canopy_of.items():
        side, key_value, _ = records[position]
        for canopy in canopies:
            by_canopy[canopy][0 if side == "l" else 1].append(key_value)
    pairs = {(left, right) for lefts, rights in by_canopy.values() for left in lefts
             for right in rights}
    return sorted(pairs, key=lambda p: (str(p[0]), str(p[1])))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
# A small mixed-case vocabulary, so rows collide, tie and repeat values.
WORDS = ["Alpha", "alpha", "BETA", "gamma", "delta", "eps", "Zeta"]

cell_strategy = st.one_of(
    st.just(None),
    st.just(float("nan")),
    st.just(""),
    st.just("   "),
    st.integers(-3, 12),
    st.sampled_from([1.5, 2.0, -0.0, 10.25]),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join),
)


@st.composite
def table_pairs(draw):
    """Two keyed tables, the attribute correspondence to debug over (or
    ``None`` for the shared names), and the candidate pairs to start from."""
    n_attrs = draw(st.integers(0, 3))
    renamed = draw(st.booleans())
    l_attrs = [f"c{i}" for i in range(n_attrs)]
    r_attrs = [f"d{i}" for i in range(n_attrs)] if renamed else list(l_attrs)
    int_keys = draw(st.booleans())
    tables = []
    for attrs, prefix in ((l_attrs, "a"), (r_attrs, "b")):
        n_rows = draw(st.integers(0, 12))
        keys = list(range(n_rows)) if int_keys else [f"{prefix}{i}" for i in range(n_rows)]
        columns = {"id": keys}
        for attr in attrs:
            columns[attr] = draw(st.lists(cell_strategy, min_size=n_rows, max_size=n_rows))
        tables.append(Table(columns))
    ltable, rtable = tables
    every = [(l, r) for l in ltable.column("id") for r in rtable.column("id")]
    if every and not draw(st.booleans()):
        every = draw(st.lists(st.sampled_from(every), unique=True))
    # Renamed columns and no correspondence: the tables share no attribute.
    attr_corres = list(zip(l_attrs, r_attrs)) if draw(st.booleans()) else None
    return ltable, rtable, sorted(every, key=str), attr_corres


@st.composite
def sampler_tables(draw):
    """Two keyed tables for the samplers: mixed cells (missing, blank,
    numbers, tied words) in one or two columns, and a column ``s`` whose
    token ``stop`` sits in 18 to 23 left rows, around the likely-match
    sampler's stop-token cap of 20."""
    n_cols = draw(st.integers(1, 2))
    stop = draw(st.integers(18, 23))
    tables = []
    for prefix, n_rows in (("a", draw(st.integers(0, 30))), ("b", draw(st.integers(0, 12)))):
        columns = {"id": [f"{prefix}{i}" for i in range(n_rows)]}
        for column in range(n_cols):
            columns[f"c{column}"] = draw(st.lists(cell_strategy, min_size=n_rows, max_size=n_rows))
        if prefix == "a":
            columns["s"] = ["stop" if i < stop else None for i in range(n_rows)]
        else:
            columns["s"] = draw(st.lists(st.sampled_from(["stop", None, "Stop x"]),
                                         min_size=n_rows, max_size=n_rows))
        tables.append(Table(columns))
    return tables


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
class TestTextView:
    @pytest.mark.parametrize(
        "values",
        [
            ["Foo Bar", None, float("nan"), "", "  ", 3, 2.5, True, "ÄÖ x", "foo bar"],
            [],
        ],
    )
    def test_one_column_is_the_blocker_view(self, values):
        """One column's view is the view the overlap blocker (``_blk``)
        and the rule executor (``_v``) built inline, and fingerprints
        alike, so cached join artifacts keep their keys."""
        table = Table({"id": list(range(len(values))), "v": values})
        old = Table(
            {
                "id": table.column("id"),
                "_blk": [None if is_missing(v) else str(v).lower() for v in values],
            }
        )
        view = text_view(table, "id", ["v"])
        assert view.columns == ["id", TEXT]
        assert view.column("id") == old.column("id")
        assert view.column(TEXT) == old.column("_blk")
        assert column_fingerprint(view, "id", TEXT) == column_fingerprint(old, "id", "_blk")

    def test_columns_join_with_a_space(self):
        table = Table(
            {"id": [1, 2, 3], "a": ["X y", None, ""], "b": [7, float("nan"), "Q"]}
        )
        assert text_view(table, "id", ["a", "b"]).column(TEXT) == ["x y 7", None, "q"]
        assert text_view(table, "id", []).column(TEXT) == [None, None, None]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(cell_strategy, min_size=4, max_size=4), max_size=3))
    def test_equals_the_per_row_join(self, columns):
        """Column by column, the view gives what joining each row's
        present cells did (a ``str`` of a non-``str`` printing blank too)."""

        class Blank:
            def __str__(self):
                return " "

        columns = [[Blank() if i == 1 else v for i, v in enumerate(c)] for c in columns]
        table = Table({"id": list(range(4)), **{f"c{i}": c for i, c in enumerate(columns)}})
        expected = []
        for row in range(4):
            present = [str(c[row]) for c in columns if not is_missing(c[row])]
            expected.append(" ".join(present).lower() if present else None)
        assert text_view(table, "id", list(table.columns)[1:]).column(TEXT) == expected


class TestDebugBlockerOracle:
    @settings(max_examples=150, deadline=None)
    @given(table_pairs(), st.sampled_from([1, 2, 3, 7, 1000]))
    def test_equals_the_pairwise_oracle(self, case, output_size):
        ltable, rtable, pairs, attr_corres = case
        reset_catalog()
        with use_index_store(IndexStore()):
            candset = make_candset(pairs, ltable, rtable, "id", "id")
            expected = oracle_debug_blocker(candset, output_size, attr_corres)
            assert debug_blocker(candset, output_size, attr_corres) == expected

    def test_ties_cut_at_output_size(self):
        """Two pairs tie at 1/2 and two at 1/3; a cut inside a tie keeps the
        str-smallest ids (``"a10" < "a2"``)."""
        ltable = Table({"id": ["a1", "a10", "a2"], "v": ["x y", "x z", "q"]})
        rtable = Table({"id": ["b1", "b2"], "v": ["x w", "x"]})
        candset = make_candset([], ltable, rtable, "id", "id")
        for output_size in (1, 2, 3, 4, 5, 50):
            assert debug_blocker(candset, output_size) == oracle_debug_blocker(
                candset, output_size
            )
        report = debug_blocker(candset, 3)
        assert list(zip(report.column("l_id"), report.column("r_id"))) == [
            ("a1", "b2"), ("a10", "b2"), ("a1", "b1"),
        ]


class TestWeightedSampleOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        table_pairs(),
        st.integers(0, 20),
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        st.integers(0, 3),
    )
    def test_equals_the_per_pair_loop(self, case, n, top_fraction, seed):
        ltable, rtable, pairs, _ = case
        reset_catalog()
        candset = make_candset(pairs, ltable, rtable, "id", "id")
        expected = oracle_weighted_sample(candset, n, seed, top_fraction)
        assert weighted_sample_candset(candset, n, seed, top_fraction) == expected


class TestSamplerOracles:
    @settings(max_examples=150, deadline=None)
    @given(sampler_tables(), st.integers(1, 20), st.integers(1, 4), st.integers(0, 3))
    def test_down_sample_equals_the_dict_index_loop(self, tables, size, y_param, seed):
        ltable, rtable = tables
        with use_index_store(IndexStore()):
            assert down_sample(ltable, rtable, size, y_param, seed=seed) == oracle_down_sample(
                ltable, rtable, size, y_param, seed=seed
            )

    @settings(max_examples=150, deadline=None)
    @given(sampler_tables(), st.integers(0, 40), st.integers(0, 3))
    def test_falcon_sample_pairs_equals_the_counting_loop(self, tables, size, seed):
        from repro.catalog import Catalog
        from repro.datasets.generator import EMDataset
        from repro.falcon.falcon import _sample_pairs

        assume(all(table.num_rows for table in tables))  # empty sides raise in either
        dataset = EMDataset("sampler", *tables, set())
        with use_index_store(IndexStore()):
            catalog = Catalog()
            assert _sample_pairs(dataset, size, seed, catalog) == oracle_sample_pairs(
                dataset, size, seed, catalog
            )


class TestCanopyOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        table_pairs(),
        st.sampled_from([(0.2, 0.6), (0.3, 0.3), (0.5, 1.0), (0.05, 0.9)]),
        st.integers(0, 3),
    )
    def test_equals_the_set_and_dict_loop(self, case, thresholds, seed):
        ltable, rtable, _, _ = case
        attrs = [name for name in ltable.columns if name != "id" and name in rtable.columns]
        assume(attrs)
        loose, tight = thresholds
        reset_catalog()
        with use_index_store(IndexStore()):
            candset = CanopyBlocker(attrs, loose, tight, seed).block_tables(ltable, rtable)
        pairs = list(zip(candset.column("ltable_id"), candset.column("rtable_id")))
        assert pairs == oracle_canopy_pairs(ltable, rtable, attrs, loose, tight, seed)

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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import debug_blocker, make_candset, text_view
from repro.blocking.base import TEXT
from repro.catalog import get_catalog, reset_catalog
from repro.catalog.checks import validate_candset
from repro.index.fingerprints import column_fingerprint
from repro.index.store import IndexStore, use_index_store
from repro.sampling import weighted_sample_candset
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

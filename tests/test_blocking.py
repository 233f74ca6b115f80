"""Tests for blockers, candidate sets, set operations, and the debugger."""

import inspect
import itertools
import math
import threading
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.blocking
from repro.blocking import (
    AttrEquivalenceBlocker,
    BlackBoxBlocker,
    CanopyBlocker,
    HashBlocker,
    OverlapBlocker,
    RuleBasedBlocker,
    SortedNeighborhoodBlocker,
    VectorBlocker,
    blocking_recall,
    candset_difference,
    candset_intersection,
    candset_pairs,
    candset_union,
    debug_blocker,
    execute_rules,
    make_candset,
    parse_rule,
    text_view,
)
from repro.blocking.base import TEXT, Blocker
from repro.blocking.rules import BlockingRule, Predicate
from repro.catalog import get_catalog
from repro.catalog.checks import validate_candset
from repro.exceptions import ConfigurationError, ForeignKeyConstraintError, SchemaError
from repro.features import FeatureTable, get_features_for_blocking
from repro.features.feature import make_exact_feature, make_string_feature, make_token_feature
from repro.index import get_index_store, use_index_store
from repro.obs import use_registry
from repro.simjoin import naive_set_sim_join
from repro.table import Table
from repro.table.schema import is_missing
from repro.text.sim.edit_based import Levenshtein
from repro.text.sim.token_based import Jaccard, OverlapCoefficient
from repro.text.tokenizers import DelimiterTokenizer, QgramTokenizer, WhitespaceTokenizer
from tests.blocking_oracles import pairwise_drops, predicate_holds, rule_drops


def pairs_of(candset):
    return set(candset_pairs(candset))


class TestAttrEquivalence:
    def test_figure1_state_blocking(self, figure1_tables):
        """Figure 1: blocking on state drops the CA person."""
        table_a, table_b, gold = figure1_tables
        blocker = AttrEquivalenceBlocker("state")
        candset = blocker.block_tables(table_a, table_b, "id", "id")
        result = pairs_of(candset)
        assert ("a2", "b1") not in result  # CA vs WI dropped
        assert gold <= result  # all true matches survive

    def test_matches_pairwise_semantics(self, figure1_tables):
        table_a, table_b, _ = figure1_tables
        blocker = AttrEquivalenceBlocker("state")
        expected = {
            (l_row["id"], r_row["id"])
            for l_row in table_a.rows()
            for r_row in table_b.rows()
            if not pairwise_drops(blocker, l_row, r_row)
        }
        assert pairs_of(blocker.block_tables(table_a, table_b, "id", "id")) == expected

    def test_missing_values_never_match(self):
        table_a = Table({"id": [1], "state": [None]})
        table_b = Table({"id": [2], "state": [None]})
        blocker = AttrEquivalenceBlocker("state")
        assert blocker.block_tables(table_a, table_b, "id", "id").num_rows == 0

    def test_different_attr_names(self):
        table_a = Table({"id": [1], "st": ["WI"]})
        table_b = Table({"id": [2], "state": ["WI"]})
        blocker = AttrEquivalenceBlocker("st", "state")
        assert blocker.block_tables(table_a, table_b, "id", "id").num_rows == 1

    def test_output_attrs_copied(self, figure1_tables):
        table_a, table_b, _ = figure1_tables
        blocker = AttrEquivalenceBlocker("state")
        candset = blocker.block_tables(
            table_a, table_b, "id", "id",
            l_output_attrs=["name"], r_output_attrs=["name", "city"],
        )
        assert "ltable_name" in candset.columns
        assert "rtable_city" in candset.columns

    def test_candset_metadata_registered(self, figure1_tables):
        table_a, table_b, _ = figure1_tables
        candset = AttrEquivalenceBlocker("state").block_tables(table_a, table_b, "id", "id")
        meta = get_catalog().get_candset_metadata(candset)
        assert meta.fk_ltable == "ltable_id"
        assert meta.ltable is table_a


class TestHashBlocker:
    def test_computed_key(self, figure1_tables):
        table_a, table_b, gold = figure1_tables
        blocker = HashBlocker(lambda row: row["name"].split()[-1].lower())
        candset = blocker.block_tables(table_a, table_b, "id", "id")
        assert gold <= pairs_of(candset)
        assert ("a2", "b1") not in pairs_of(candset)

    def test_none_bucket_drops(self):
        table = Table({"id": [1], "v": ["x"]})
        blocker = HashBlocker(lambda row: None)
        assert blocker.block_tables(table, table, "id", "id").num_rows == 0


class TestOverlapBlocker:
    def test_word_level(self, figure1_tables):
        table_a, table_b, gold = figure1_tables
        blocker = OverlapBlocker("name", overlap_size=1)
        candset = blocker.block_tables(table_a, table_b, "id", "id")
        assert gold <= pairs_of(candset)

    def test_equivalent_to_pairwise(self, figure1_tables):
        table_a, table_b, _ = figure1_tables
        blocker = OverlapBlocker("name", overlap_size=1)
        expected = {
            (l_row["id"], r_row["id"])
            for l_row in table_a.rows()
            for r_row in table_b.rows()
            if not pairwise_drops(blocker, l_row, r_row)
        }
        assert pairs_of(blocker.block_tables(table_a, table_b, "id", "id")) == expected

    def test_qgram_level(self):
        table_a = Table({"id": [1], "v": ["wisconsin"]})
        table_b = Table({"id": [2, 3], "v": ["wisconsim", "zzzzz"]})
        blocker = OverlapBlocker("v", word_level=False, q=3, overlap_size=3)
        assert pairs_of(blocker.block_tables(table_a, table_b, "id", "id")) == {(1, 2)}

    def test_case_insensitive(self):
        table_a = Table({"id": [1], "v": ["Dave Smith"]})
        table_b = Table({"id": [2], "v": ["dave SMITH"]})
        blocker = OverlapBlocker("v", overlap_size=2)
        assert blocker.block_tables(table_a, table_b, "id", "id").num_rows == 1

    def test_overlap_size_validation(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            OverlapBlocker("v", overlap_size=0)

    def test_block_candset_refines(self, figure1_tables):
        table_a, table_b, _ = figure1_tables
        loose = OverlapBlocker("name", overlap_size=1).block_tables(table_a, table_b, "id", "id")
        tight = OverlapBlocker("name", overlap_size=2).block_candset(loose)
        assert pairs_of(tight) <= pairs_of(loose)


class TestSortedNeighborhood:
    def test_window_pairs(self):
        table_a = Table({"id": ["a1", "a2"], "v": ["apple", "zebra"]})
        table_b = Table({"id": ["b1", "b2"], "v": ["appls", "zebre"]})
        blocker = SortedNeighborhoodBlocker("v", window=2)
        result = pairs_of(blocker.block_tables(table_a, table_b, "id", "id"))
        assert ("a1", "b1") in result
        assert ("a2", "b2") in result
        assert ("a1", "b2") not in result

    def test_block_tuples_undefined(self):
        blocker = SortedNeighborhoodBlocker("v")
        with pytest.raises(NotImplementedError):
            blocker.block_tuples({}, {})

    def test_window_validation(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            SortedNeighborhoodBlocker("v", window=1)

    def test_larger_window_superset(self, small_person_dataset):
        ds = small_person_dataset
        small = SortedNeighborhoodBlocker("name", window=2).block_tables(ds.ltable, ds.rtable)
        large = SortedNeighborhoodBlocker("name", window=5).block_tables(ds.ltable, ds.rtable)
        assert pairs_of(small) <= pairs_of(large)

    def test_oversized_window_is_full_cross_product(self):
        table_a = Table({"id": ["a1", "a2"], "v": ["apple", "zebra"]})
        table_b = Table({"id": ["b1", "b2"], "v": ["appls", None]})
        blocker = SortedNeighborhoodBlocker("v", window=50)
        result = pairs_of(blocker.block_tables(table_a, table_b, "id", "id"))
        # The missing-value row is dropped; everything else cross-pairs.
        assert result == {("a1", "b1"), ("a2", "b1")}

    def test_all_missing_sort_values_empty_candset(self):
        table_a = Table({"id": ["a1", "a2"], "v": [None, None]})
        table_b = Table({"id": ["b1"], "v": [None]})
        candset = SortedNeighborhoodBlocker("v", window=3).block_tables(
            table_a, table_b, "id", "id"
        )
        assert candset.num_rows == 0
        # Still a well-formed, catalog-registered candset.
        assert get_catalog().get_candset_metadata(candset).ltable is table_a


class TestBlackBox:
    def test_arbitrary_predicate(self, figure1_tables):
        table_a, table_b, _ = figure1_tables
        blocker = BlackBoxBlocker(lambda l, r: l["city"] != r["city"])
        result = pairs_of(blocker.block_tables(table_a, table_b, "id", "id"))
        assert result == {("a1", "b1"), ("a3", "b2")}


class TestCandsetFilterChains:
    """``block_candset`` of a pair-local blocker decides each pair on its
    own two rows, so a chain of them is an intersection: any order gives
    the same pairs in the same order.  (What order changes is the cost.)"""

    @pytest.fixture
    def chain_tables(self):
        names = ["red widget", "blue widget", "green gadget", "red gadget",
                 "blue gizmo deluxe", "red widget deluxe"]
        ltable = Table({
            "id": [f"a{i}" for i in range(6)],
            "name": names,
            "cat": ["x", "y", "x", "y", "x", "y"],
            "price": [10, 20, 30, 40, 50, 60],
        })
        rtable = Table({
            "id": [f"b{i}" for i in range(6)],
            "name": names[::-1],
            "cat": ["x", "y", "x", "x", "y", "y"],
            "price": [15, 25, 35, 45, 55, 65],
        })
        every_pair = BlackBoxBlocker(lambda l, r: False).block_tables(ltable, rtable, "id", "id")
        assert every_pair.num_rows == 36
        return ltable, rtable, every_pair

    @staticmethod
    def _run_chain(base, chain):
        candset = base
        for blocker in chain:
            candset = blocker.block_candset(candset)
        return candset

    def test_every_order_of_pair_local_filters_gives_the_same_candset(self, chain_tables):
        ltable, rtable, base = chain_tables
        rules = RuleBasedBlocker()
        rules.add_rule("name_jaccard_ws <= 0.2", get_features_for_blocking(ltable, rtable))
        filters = [
            OverlapBlocker("name", overlap_size=1),
            AttrEquivalenceBlocker("cat"),
            rules,
            BlackBoxBlocker(lambda l, r: abs(l["price"] - r["price"]) > 40),
            VectorBlocker("name", threshold=0.05),
        ]
        with use_index_store():
            results = [
                self._run_chain(base, chain) for chain in itertools.permutations(filters)
            ]
            # Each filter drops something, so the chain is a real intersection.
            assert all(f.block_candset(base).num_rows < base.num_rows for f in filters)
        written = results[0]
        assert 0 < written.num_rows < base.num_rows
        expected = [written.column(c) for c in written.columns]
        for result in results:
            assert result.columns == written.columns
            assert [result.column(c) for c in result.columns] == expected
            meta = get_catalog().get_candset_metadata(result)
            assert meta.is_candset()
            assert meta.ltable is ltable and meta.rtable is rtable

    def test_top_k_vector_filter_depends_on_its_position(self, chain_tables):
        """A ``top_k`` budget ranks a left record's partners against each
        other: filtering before it changes who is left to rank."""
        _, _, base = chain_tables
        top1 = VectorBlocker("name", threshold=0.05, top_k=1)
        by_cat = AttrEquivalenceBlocker("cat")
        with use_index_store():
            top1_first = self._run_chain(base, [top1, by_cat])
            top1_last = self._run_chain(base, [by_cat, top1])
        assert pairs_of(top1_first) < pairs_of(top1_last)

    def test_table_level_blockers_cannot_filter_a_candset(self, chain_tables):
        _, _, base = chain_tables
        for blocker in (SortedNeighborhoodBlocker("name"), CanopyBlocker(["name"])):
            with pytest.raises(NotImplementedError):
                blocker.block_candset(base)


class TestOneBlockerSignature:
    """Every public blocker takes ``keep`` / ``block_tables`` /
    ``block_candset`` arguments exactly as the base class does, so
    generic code can drive any of them."""

    @staticmethod
    def _parameters(method) -> list[tuple]:
        return [
            (p.name, p.kind, p.default) for p in inspect.signature(method).parameters.values()
        ]

    def test_public_blockers_share_the_base_signature(self):
        blockers = [
            value for value in vars(repro.blocking).values()
            if isinstance(value, type) and issubclass(value, Blocker) and value is not Blocker
        ]
        assert {CanopyBlocker, SortedNeighborhoodBlocker, VectorBlocker} <= set(blockers)
        for method in ("keep", "block_tables", "block_candset"):
            expected = self._parameters(getattr(Blocker, method))
            for blocker in blockers:
                assert self._parameters(getattr(blocker, method)) == expected, (blocker, method)


class TestCandsetOps:
    def _two_candsets(self, figure1_tables):
        table_a, table_b, _ = figure1_tables
        by_state = AttrEquivalenceBlocker("state").block_tables(table_a, table_b, "id", "id")
        by_city = AttrEquivalenceBlocker("city").block_tables(table_a, table_b, "id", "id")
        return by_state, by_city

    def test_union(self, figure1_tables):
        a, b = self._two_candsets(figure1_tables)
        union = candset_union(a, b)
        assert pairs_of(union) == pairs_of(a) | pairs_of(b)

    def test_intersection(self, figure1_tables):
        a, b = self._two_candsets(figure1_tables)
        inter = candset_intersection(a, b)
        assert pairs_of(inter) == pairs_of(a) & pairs_of(b)

    def test_difference(self, figure1_tables):
        a, b = self._two_candsets(figure1_tables)
        diff = candset_difference(a, b)
        assert pairs_of(diff) == pairs_of(a) - pairs_of(b)

    def test_result_has_metadata(self, figure1_tables):
        a, b = self._two_candsets(figure1_tables)
        union = candset_union(a, b)
        assert get_catalog().get_candset_metadata(union).is_candset()

    def test_different_bases_rejected(self, figure1_tables):
        table_a, table_b, _ = figure1_tables
        a = AttrEquivalenceBlocker("state").block_tables(table_a, table_b, "id", "id")
        other = Table({"id": ["x1"], "state": ["WI"], "name": ["n"], "city": ["c"]})
        b = AttrEquivalenceBlocker("state").block_tables(other, table_b, "id", "id")
        with pytest.raises(SchemaError, match="different base tables"):
            candset_union(a, b)


class TestDebugger:
    def test_debug_blocker_surfaces_dropped_match(self, figure1_tables):
        table_a, table_b, _ = figure1_tables
        # A terrible blocker that keeps only the CA pair, dropping both
        # true matches.
        candset = make_candset([("a2", "b1")], table_a, table_b, "id", "id")
        report = debug_blocker(candset, output_size=5)
        suggested = set(zip(report.column("l_id"), report.column("r_id")))
        assert ("a1", "b1") in suggested or ("a3", "b2") in suggested
        # sorted by similarity descending
        scores = report.column("similarity")
        assert scores == sorted(scores, reverse=True)

    def test_debug_blocker_excludes_existing_pairs(self, figure1_tables):
        table_a, table_b, _ = figure1_tables
        candset = make_candset(
            [("a1", "b1"), ("a3", "b2")], table_a, table_b, "id", "id"
        )
        report = debug_blocker(candset, output_size=50)
        suggested = set(zip(report.column("l_id"), report.column("r_id")))
        assert ("a1", "b1") not in suggested
        assert ("a3", "b2") not in suggested

    @pytest.mark.parametrize("output_size", [0, -1])
    def test_debug_blocker_rejects_output_size_below_one(self, figure1_tables, output_size):
        table_a, table_b, _ = figure1_tables
        candset = make_candset([("a2", "b1")], table_a, table_b, "id", "id")
        with pytest.raises(ConfigurationError, match="output_size"):
            debug_blocker(candset, output_size=output_size)

    def test_blocking_recall(self, figure1_tables):
        table_a, table_b, gold = figure1_tables
        full = make_candset(sorted(gold), table_a, table_b, "id", "id")
        assert blocking_recall(full, gold) == 1.0
        half = make_candset([("a1", "b1")], table_a, table_b, "id", "id")
        assert blocking_recall(half, gold) == 0.5
        assert blocking_recall(half, set()) == 1.0


# ----------------------------------------------------------------------
# Oracles: the per-pair candidate-set handover the position arrays and
# sorted pair codes replaced — the per-pair make_candset loop, the
# tuple-set algebra, the dict exact join and the two bucket joins.
# ----------------------------------------------------------------------
def oracle_make_candset(pairs, ltable, rtable, l_key, r_key, l_output_attrs=(), r_output_attrs=()):
    fk_l, fk_r = f"ltable_{l_key}", f"rtable_{r_key}"
    l_index = ltable.index_by(l_key) if l_output_attrs else None
    r_index = rtable.index_by(r_key) if r_output_attrs else None
    columns = {"_id": [], fk_l: [], fk_r: []}
    for attr in l_output_attrs:
        columns[f"ltable_{attr}"] = []
    for attr in r_output_attrs:
        columns[f"rtable_{attr}"] = []
    for i, (l_value, r_value) in enumerate(pairs):
        columns["_id"].append(i)
        columns[fk_l].append(l_value)
        columns[fk_r].append(r_value)
        for attr in l_output_attrs:
            columns[f"ltable_{attr}"].append(l_index[l_value][attr])
        for attr in r_output_attrs:
            columns[f"rtable_{attr}"].append(r_index[r_value][attr])
    return Table(columns)


def oracle_attr_equivalence(ltable, rtable, attr):
    buckets = defaultdict(list)
    for key_value, block_value in zip(rtable.column("id"), rtable.column(attr)):
        if not is_missing(block_value):
            buckets[block_value].append(key_value)
    pairs = []
    for key_value, block_value in zip(ltable.column("id"), ltable.column(attr)):
        if is_missing(block_value):
            continue
        for r_key_value in buckets.get(block_value, ()):
            pairs.append((key_value, r_key_value))
    return pairs


def oracle_hash_join(ltable, rtable, l_hash, r_hash):
    buckets = defaultdict(list)
    for r_row in rtable.rows():
        bucket = r_hash(r_row)
        if bucket is not None:
            buckets[bucket].append(r_row["id"])
    pairs = []
    for l_row in ltable.rows():
        bucket = l_hash(l_row)
        if bucket is None:
            continue
        for r_key_value in buckets.get(bucket, ()):
            pairs.append((l_row["id"], r_key_value))
    return pairs


def oracle_sorted_neighborhood(ltable, rtable, attr, window):
    entries = []
    for key_value, value in zip(ltable.column("id"), ltable.column(attr)):
        if not is_missing(value):
            entries.append((str(value).lower(), "l", key_value))
    for key_value, value in zip(rtable.column("id"), rtable.column(attr)):
        if not is_missing(value):
            entries.append((str(value).lower(), "r", key_value))
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    if window >= len(entries):
        l_ids = [key for _, side, key in entries if side == "l"]
        r_ids = [key for _, side, key in entries if side == "r"]
        return sorted({(l_id, r_id) for l_id in l_ids for r_id in r_ids})
    pairs = set()
    for i, (_, side, key_value) in enumerate(entries):
        for j in range(i + 1, min(i + window, len(entries))):
            _, other_side, other_key = entries[j]
            if side == other_side:
                continue
            pairs.add((key_value, other_key) if side == "l" else (other_key, key_value))
    return sorted(pairs)


def oracle_complement(predicate, ltable, rtable):
    complement = predicate.complement()
    feature = predicate.feature
    l_view = text_view(ltable, "id", [feature.l_attr])
    r_view = text_view(rtable, "id", [feature.r_attr])
    if feature.sim_kind == "exact":  # the feature's scalar equality, pair by pair
        return {
            (l_row["id"], r_row["id"])
            for l_row in ltable.rows()
            for r_row in rtable.rows()
            if predicate_holds(complement, l_row, r_row)
        }
    threshold = complement.threshold
    if complement.op == ">":
        threshold = threshold + 1e-9
    threshold = min(max(threshold, 1e-9), 1.0)
    joined = naive_set_sim_join(
        l_view, r_view, "id", "id", TEXT, TEXT, feature.tokenizer,
        measure=feature.measure_name, threshold=threshold,
    )

    def empty(view):  # present texts with no tokens: two of them score 1.0
        return [key for key, text in zip(view.column("id"), view.column(TEXT))
                if text is not None and not feature.tokenizer.tokenize(text)]

    both_empty = {(l, r) for l in empty(l_view) for r in empty(r_view)}
    return set(zip(joined.column("l_id"), joined.column("r_id"))) | both_empty


def oracle_rule_survivors(rule, ltable, rtable):
    survivors = set()
    for predicate in rule.predicates:
        survivors |= oracle_complement(predicate, ltable, rtable)
    return survivors


def oracle_execute_rules(rules, ltable, rtable):
    result = None
    for rule in rules:
        survivors = oracle_rule_survivors(rule, ltable, rtable)
        result = survivors if result is None else (result & survivors)
        if not result:
            break
    return result or set()


def oracle_candset_op(a, b, op):
    cat = get_catalog()
    metas = [validate_candset(candset, cat) for candset in (a, b)]
    pairs_a, pairs_b = (
        set(zip(candset.column(meta.fk_ltable), candset.column(meta.fk_rtable)))
        for candset, meta in zip((a, b), metas)
    )
    return oracle_make_candset(
        sorted(op(pairs_a, pairs_b)), metas[0].ltable, metas[0].rtable, "id", "id"
    )


def assert_same_table(got, expected):
    assert got.columns == expected.columns
    assert got == expected


#: Block values: missing markers (None, NaN, blanks), 1 == 1.0 == True,
#: case variants and repeats.
VALUES = [None, math.nan, "", "  ", 1, 1.0, True, 2, 2.0, "1", "2", "a", "A", "a b", "b c", "x"]
#: "," and ",," have no tokens under a "," delimiter.
TEXTS = [None, "", "a b", "b c", "A B", "a", "c d e", "a b c d", "x y", ",", ",,", "a,b"]
TOKEN = make_token_feature(
    "t_jaccard", "t", "t", WhitespaceTokenizer(return_set=True), Jaccard(), "jaccard"
)
COMMA_TOKEN = make_token_feature(
    "t_jaccard_comma", "t", "t", DelimiterTokenizer({","}, return_set=True), Jaccard(),
    "jaccard",
)
EXACT = make_exact_feature("t_exact", "t", "t")
VALUE_EXACT = make_exact_feature("v_exact", "v", "v")
PREDICATES = [
    Predicate(TOKEN, "<", 0.5),
    Predicate(TOKEN, "<=", 0.5),
    Predicate(TOKEN, "<", 0.2),
    Predicate(TOKEN, "<=", 0.0),
    Predicate(COMMA_TOKEN, "<=", 0.5),
    Predicate(EXACT, "<=", 0.5),
    Predicate(EXACT, "<", 1.0),
    Predicate(VALUE_EXACT, "<=", 0.5),
]
#: Predicates no rule containing them can join: measures the join lacks,
#: and a token predicate whose complement is not "similarity above t".
SCAN_PREDICATES = [
    Predicate(make_token_feature(
        "t_ovc", "t", "t", WhitespaceTokenizer(return_set=True), OverlapCoefficient(),
        "overlap_coeff",
    ), "<", 0.6),
    Predicate(make_string_feature("v_lev", "v", "v", Levenshtein(), "lev_sim"), "<=", 0.5),
    Predicate(make_string_feature("t_lev", "t", "t", Levenshtein(), "lev_sim"), ">", 0.3),
    Predicate(TOKEN, ">=", 0.5),
]
OUTPUT_ATTRS = [(), ("t",), ("v", "t")]


@st.composite
def table_pairs(draw):
    """Two keyed tables of 0-9 rows: int or str keys in no particular
    order, a ``v`` column of mixed block values and a ``t`` text column."""

    def table():
        n = draw(st.integers(0, 9))
        keys = draw(st.lists(st.integers(0, 999), min_size=n, max_size=n, unique=True))
        if draw(st.booleans()):
            keys = [f"k{key}" for key in keys]
        values = draw(st.lists(st.sampled_from(VALUES), min_size=n, max_size=n))
        texts = draw(st.lists(st.sampled_from(TEXTS), min_size=n, max_size=n))
        result = Table({"id": keys, "v": values, "t": texts})
        get_catalog().set_key(result, "id")
        return result

    return table(), table()


class TestCandidateHandoverMatchesTheOracles:
    """Every blocker's candset, every candset_* result and execute_rules'
    set are == the per-pair oracles: same columns, values and order."""

    @settings(max_examples=80, deadline=None)
    @given(
        tables=table_pairs(),
        l_attrs=st.sampled_from(OUTPUT_ATTRS),
        r_attrs=st.sampled_from(OUTPUT_ATTRS),
    )
    def test_attr_equivalence_and_hash_blockers(self, tables, l_attrs, r_attrs):
        ltable, rtable = tables
        got = AttrEquivalenceBlocker("v").block_tables(
            ltable, rtable, "id", "id", l_attrs, r_attrs
        )
        pairs = oracle_attr_equivalence(ltable, rtable, "v")
        assert_same_table(
            got, oracle_make_candset(pairs, ltable, rtable, "id", "id", l_attrs, r_attrs)
        )

        def bucket(row):
            return None if row["t"] is None else row["t"][:1]

        got = HashBlocker(bucket).block_tables(
            ltable, rtable, "id", "id", l_attrs, r_attrs
        )
        pairs = oracle_hash_join(ltable, rtable, bucket, bucket)
        assert_same_table(
            got, oracle_make_candset(pairs, ltable, rtable, "id", "id", l_attrs, r_attrs)
        )

    @settings(max_examples=80, deadline=None)
    @given(
        tables=table_pairs(),
        attr=st.sampled_from(["v", "t"]),
        overlap_size=st.sampled_from([1, 2]),
        word_level=st.booleans(),
        l_attrs=st.sampled_from(OUTPUT_ATTRS),
    )
    def test_overlap_blocker(self, tables, attr, overlap_size, word_level, l_attrs):
        ltable, rtable = tables
        blocker = OverlapBlocker(attr, overlap_size=overlap_size, word_level=word_level)
        got = blocker.block_tables(ltable, rtable, "id", "id", l_attrs)
        tokenizer = (
            WhitespaceTokenizer(return_set=True) if word_level
            else QgramTokenizer(q=3, return_set=True)
        )
        joined = naive_set_sim_join(
            text_view(ltable, "id", [attr]), text_view(rtable, "id", [attr]),
            "id", "id", TEXT, TEXT, tokenizer, "overlap", overlap_size,
        )
        pairs = list(zip(joined.column("l_id"), joined.column("r_id")))
        assert_same_table(got, oracle_make_candset(pairs, ltable, rtable, "id", "id", l_attrs))

    @settings(max_examples=80, deadline=None)
    @given(
        tables=table_pairs(),
        attr=st.sampled_from(["v", "t"]),
        window=st.integers(2, 20),
        r_attrs=st.sampled_from(OUTPUT_ATTRS),
    )
    def test_sorted_neighborhood_blocker(self, tables, attr, window, r_attrs):
        ltable, rtable = tables
        got = SortedNeighborhoodBlocker(attr, window=window).block_tables(
            ltable, rtable, "id", "id", r_output_attrs=r_attrs
        )
        pairs = oracle_sorted_neighborhood(ltable, rtable, attr, window)
        assert_same_table(
            got, oracle_make_candset(pairs, ltable, rtable, "id", "id", r_output_attrs=r_attrs)
        )

    @settings(max_examples=80, deadline=None)
    @given(
        tables=table_pairs(),
        rules=st.lists(
            st.lists(st.sampled_from(PREDICATES), min_size=1, max_size=2),
            min_size=1, max_size=3,
        ),
        r_attrs=st.sampled_from(OUTPUT_ATTRS),
    )
    def test_rule_execution(self, tables, rules, r_attrs):
        ltable, rtable = tables
        rules = [BlockingRule(tuple(predicates)) for predicates in rules]
        expected = oracle_execute_rules(rules, ltable, rtable)
        assert execute_rules(rules, ltable, rtable) == expected
        assert execute_rules([rules[0]], ltable, rtable) == oracle_rule_survivors(
            rules[0], ltable, rtable
        )
        oracle = oracle_make_candset(
            sorted(expected), ltable, rtable, "id", "id", r_output_attrs=r_attrs
        )
        got = RuleBasedBlocker(rules).block_tables(
            ltable, rtable, "id", "id", r_output_attrs=r_attrs
        )
        assert_same_table(got, oracle)

    @settings(max_examples=80, deadline=None)
    @given(
        tables=table_pairs(),
        rules=st.lists(
            st.lists(st.sampled_from(PREDICATES + SCAN_PREDICATES), min_size=1, max_size=2),
            min_size=1, max_size=3,
        ),
        r_attrs=st.sampled_from(OUTPUT_ATTRS),
    )
    def test_mixed_rule_sets(self, tables, rules, r_attrs):
        """Each rule keeps the same pairs wherever it sits: an executable
        rule its joins' pairs, any other the pairs ``drops`` keeps; the
        blocker intersects them, in key order when every rule joins and
        in row order otherwise, whatever the rules' order."""
        ltable, rtable = tables
        rules = [BlockingRule(tuple(predicates)) for predicates in rules]
        expected = None
        for rule in rules:
            survivors = oracle_rule_survivors(rule, ltable, rtable) if rule.is_executable else {
                (l_row["id"], r_row["id"])
                for l_row in ltable.rows()
                for r_row in rtable.rows()
                if not rule_drops(rule, l_row, r_row)
            }
            expected = survivors if expected is None else expected & survivors
        every_pair = [(l, r) for l in ltable.column("id") for r in rtable.column("id")]
        if all(rule.is_executable for rule in rules):
            order = sorted(expected)
        else:
            order = [pair for pair in every_pair if pair in expected]
        oracle = oracle_make_candset(order, ltable, rtable, "id", "id", r_output_attrs=r_attrs)
        for permutation in itertools.permutations(rules):
            with use_registry() as registry:
                got = RuleBasedBlocker(list(permutation)).block_tables(
                    ltable, rtable, "id", "id", r_output_attrs=r_attrs
                )
            assert_same_table(got, oracle)
            joins = registry.counters().get(("blocking_rule_joins_total", ()), 0)
            if any(rule.is_executable for rule in rules):
                assert joins in {len(rule.predicates) for rule in rules if rule.is_executable}
            else:
                assert joins == 0

    @settings(max_examples=80, deadline=None)
    @given(tables=table_pairs(), data=st.data())
    def test_candset_algebra_and_make_candset(self, tables, data):
        ltable, rtable = tables
        l_keys, r_keys = ltable.column("id"), rtable.column("id")
        every = [(l, r) for l in l_keys for r in r_keys]
        # Unsorted, repeating pair lists: two candsets over the same bases.
        a_pairs, b_pairs = (
            data.draw(st.lists(st.sampled_from(every), max_size=12)) if every else []
            for _ in range(2)
        )
        attrs = data.draw(st.sampled_from(OUTPUT_ATTRS))
        a = make_candset(a_pairs, ltable, rtable, "id", "id", attrs, attrs)
        assert_same_table(
            a, oracle_make_candset(a_pairs, ltable, rtable, "id", "id", attrs, attrs)
        )
        b = make_candset(b_pairs, ltable, rtable, "id", "id")
        for ours, op in (
            (candset_union, set.__or__),
            (candset_intersection, set.__and__),
            (candset_difference, set.__sub__),
        ):
            assert_same_table(ours(a, b), oracle_candset_op(a, b, op))
            assert_same_table(ours(b, a), oracle_candset_op(b, a, op))


class PrintsBlank:
    """A present value whose text is blank."""

    def __str__(self):
        return "  "


class TestRuleBlockerPlan:
    """``RuleBasedBlocker.block_tables`` joins one rule and checks the rest."""

    @staticmethod
    def _rule(*specs):
        features = FeatureTable([
            make_token_feature(
                "t_jac", "title", "title", WhitespaceTokenizer(return_set=True), Jaccard(),
                "jaccard",
            ),
            make_exact_feature("c_ex", "city", "city"),
        ])
        return parse_rule(list(specs), features)

    @staticmethod
    def _tables():
        table_a = Table({
            "id": ["a1", "a2", "a3", "a4"],
            "title": ["red apple pie", None, "red apple", "red apple"],
            "city": ["madison", "Austin", "boston", None],
        })
        table_b = Table({
            "id": [10, 20],
            "title": ["red apple pie", "blue plum"],
            "city": ["Madison", "austin"],
        })
        return table_a, table_b

    def test_executable_rules_join_one_rule(self):
        rules = [self._rule("t_jac <= 0.3", "c_ex <= 0.5"), self._rule("t_jac < 0.5")]
        with use_registry() as registry:
            candset = RuleBasedBlocker(rules).block_tables(*self._tables())
        counters = registry.counters()
        joins = counters[("blocking_rule_joins_total", ())]
        # Joining every predicate would run 3 joins.
        assert joins in (1, 2)
        seed = 0 if joins == 2 else 1
        seeds = counters[("blocking_rule_survivors_total", (("rule", str(seed)),))]
        assert counters[("blocking_rule_pairs_checked_total", ())] == seeds
        assert counters[("blocking_rule_survivors_total", (("rule", str(1 - seed)),))] == 3
        assert list(zip(candset["ltable_id"], candset["rtable_id"])) == [
            ("a1", 10), ("a3", 10), ("a4", 10)
        ]

    def test_mixed_rules_on_missing_data(self):
        """``t_jac < 0.3`` joins, so a2 (no title) does not survive it;
        ``c_ex > 0.5`` does not, so a4 (no city) survives it.  The
        per-pair scan that mixed rule sets used to take kept ("a2", 10)."""
        rules = [self._rule("t_jac < 0.3"), self._rule("c_ex > 0.5")]
        for ordered in (rules, rules[::-1]):
            candset = RuleBasedBlocker(ordered).block_tables(*self._tables())
            assert list(zip(candset["ltable_id"], candset["rtable_id"])) == [
                ("a3", 10), ("a4", 10)
            ]

    @staticmethod
    def _answers(rule, cheaper, ltable, rtable):
        """The pairs ``rule`` keeps joined alone, checked after the seed
        ``cheaper`` (as the pairs both keep), and by ``drops``."""
        for table in (ltable, rtable):
            get_catalog().set_key(table, "id")
        alone = execute_rules([rule], ltable, rtable)
        with use_registry() as registry:
            after = execute_rules([cheaper, rule], ltable, rtable)
        seeded = registry.counters()[("blocking_rule_survivors_total", (("rule", "0"),))]
        checked = registry.counters()[("blocking_rule_pairs_checked_total", ())]
        assert checked == seeded  # ``cheaper`` seeded, ``rule`` was checked
        by_drops = {
            (l_row["id"], r_row["id"])
            for l_row in ltable.rows()
            for r_row in rtable.rows()
            if not rule_drops(rule, l_row, r_row)
        }
        return alone, after, by_drops & execute_rules([cheaper], ltable, rtable), by_drops

    @pytest.mark.parametrize("l_values, r_values", [
        ([1, 5, 5, 5], [1.0, 5, 5, 5]),
        ([[1], [5], [5], [5]], [[1.0], [5], [5], [5]]),  # unhashable cells
    ])
    def test_an_exact_rule_compares_values_as_its_feature_does(self, l_values, r_values):
        """1 == 1.0, so ``v_ex <= 0.5`` keeps (a1, b1) wherever it runs."""
        ids = ["1", "2", "3", "4"]
        ltable = Table({"id": [f"a{i}" for i in ids], "v": l_values, "t": list("pqrs")})
        rtable = Table({"id": [f"b{i}" for i in ids], "v": r_values, "t": list("pqrs")})
        rule = BlockingRule((Predicate(make_exact_feature("v_ex", "v", "v"), "<=", 0.5),))
        cheaper = BlockingRule((Predicate(make_token_feature(
            "t_jac", "t", "t", WhitespaceTokenizer(return_set=True), Jaccard(), "jaccard",
        ), "<=", 0.5),))
        alone, after, expected_after, by_drops = self._answers(rule, cheaper, ltable, rtable)
        assert ("a1", "b1") in by_drops
        assert alone == by_drops
        assert after == expected_after == {(f"a{i}", f"b{i}") for i in ids}

    @pytest.mark.parametrize("tokenizer, value", [
        (DelimiterTokenizer({","}, return_set=True), ","),
        (WhitespaceTokenizer(return_set=True), PrintsBlank()),  # present, no store record
        # No store record, but padded q-grams: the feature scores it 1.0.
        (QgramTokenizer(q=3, return_set=True), PrintsBlank()),
    ])
    def test_two_empty_token_sets_are_kept_as_the_feature_scores_them(self, tokenizer, value):
        """A value with no tokens: two of them score 1.0.  The second row
        is a plain join pair, found at its own rows."""
        ltable = Table({"id": ["a1", "a2"], "v": [value, "x y"], "k": ["z", "w"]})
        rtable = Table({"id": ["b1", "b2"], "v": [value, "x y"], "k": ["z", "w"]})
        rule = BlockingRule((Predicate(make_token_feature(
            "v_jac", "v", "v", tokenizer, Jaccard(), "jaccard",
        ), "<=", 0.5),))
        cheaper = BlockingRule((Predicate(make_exact_feature("k_ex", "k", "k"), "<=", 0.5),))
        alone, after, expected_after, by_drops = self._answers(rule, cheaper, ltable, rtable)
        assert alone == after == expected_after == by_drops == {("a1", "b1"), ("a2", "b2")}

    def test_rules_with_no_join_check_every_pair(self):
        with use_registry() as registry:
            candset = RuleBasedBlocker([self._rule("c_ex > 0.5")]).block_tables(*self._tables())
        assert registry.counters()[("blocking_rule_pairs_checked_total", ())] == 8
        assert ("blocking_rule_joins_total", ()) not in registry.counters()
        assert list(zip(candset["ltable_id"], candset["rtable_id"])) == [
            ("a1", 20), ("a2", 10), ("a3", 10), ("a3", 20), ("a4", 10), ("a4", 20)
        ]


class TestCandsetBuilder:
    def test_output_attrs_naming_the_key_or_repeating_are_taken_once(self, figure1_tables):
        table_a, table_b, _ = figure1_tables
        candset = AttrEquivalenceBlocker("city").block_tables(
            table_a, table_b, l_output_attrs=["id", "name"], r_output_attrs=["city", "city"]
        )
        assert candset.columns == ["_id", "ltable_id", "rtable_id", "ltable_name", "rtable_city"]
        assert candset.column("ltable_id") == ["a1", "a3"]
        assert candset.column("ltable_name") == ["Dave Smith", "Dan Smith"]
        assert candset.column("rtable_city") == ["Madison", "Middleton"]
        made = make_candset(
            [("a1", "b1")], table_a, table_b, "id", "id", l_output_attrs=["id"]
        )
        assert made.columns == ["_id", "ltable_id", "rtable_id"]
        assert made.column("ltable_id") == ["a1"]

    def test_dangling_key_fails_at_validation_not_at_build(self, figure1_tables):
        table_a, table_b, _ = figure1_tables
        candset = make_candset([("a1", "zz")], table_a, table_b, "id", "id")
        with pytest.raises(ForeignKeyConstraintError):
            validate_candset(candset)

    def test_output_attrs_of_a_dangling_key_raise_the_fk_error(self):
        table_a = Table({"id": [1, 2, 3], "name": ["x", "y", "z"]})
        table_b = Table({"id": [10, 20], "name": ["u", "v"]})
        pairs = [(1, 10), (4, 20)]
        with pytest.raises(
            ForeignKeyConstraintError, match=r"1 value\(s\) in 'ltable_id' .*\(e\.g\. \[4\]\)"
        ):
            make_candset(pairs, table_a, table_b, "id", "id", l_output_attrs=["name"])
        # Without output attributes a key is checked later, not at build.
        assert make_candset(pairs, table_a, table_b, "id", "id").num_rows == 2

    def test_rule_blocker_counts_each_call_once(self, name_rule_tables):
        table_a, table_b, rule = name_rule_tables
        with use_registry() as registry:
            candset = RuleBasedBlocker([rule]).block_tables(table_a, table_b)
        assert candset.num_rows == 2
        counters = {
            (name, dict(labels)["blocker"]): value
            for (name, labels), value in registry.counters().items()
            if name in ("blocking_calls_total", "blocking_pairs_total")
        }
        assert counters == {
            ("blocking_calls_total", "RuleBasedBlocker"): 1,
            ("blocking_pairs_total", "RuleBasedBlocker"): 2,
        }

    def test_keys_that_do_not_sort_raise_schema_error(self, name_rule_tables):
        _, table_b, rule = name_rule_tables
        mixed = Table({"id": [1, "a"], "name": ["dave smith", "dan smith"]})
        get_catalog().set_key(mixed, "id")
        candset = make_candset([(1, "b1"), ("a", "b1")], mixed, table_b, "id", "id")
        # Falcon executes its rules through RuleBasedBlocker too.
        for call in (
            lambda: candset_union(candset, candset),
            lambda: RuleBasedBlocker([rule]).block_tables(mixed, table_b),
        ):
            with pytest.raises(SchemaError, match="key column 'id'"):
                call()


@pytest.fixture
def name_rule_tables():
    """Two name tables and a rule keeping the pairs with equal names."""
    table_a = Table({"id": ["a1", "a2"], "name": ["dave smith", "joe wilson"]})
    table_b = Table({"id": ["b1", "b2"], "name": ["dave smith", "dave smith"]})
    exact = make_exact_feature("name_exact", "name", "name")
    return table_a, table_b, BlockingRule((Predicate(exact, "<=", 0.5),))


#: A present value that prints blank, shared so that equal cells are equal.
BLANK = PrintsBlank()


@st.composite
def blocked_tables(draw):
    """Two keyed tables of 0-8 rows: a ``v`` column of block values (also
    one that prints blank) and a ``t`` text column, each with repeats."""

    def table(prefix):
        n = draw(st.integers(0, 8))
        result = Table({
            "id": [f"{prefix}{i}" for i in range(n)],
            "v": draw(st.lists(st.sampled_from(VALUES + [BLANK]), min_size=n, max_size=n)),
            "t": draw(st.lists(st.sampled_from(TEXTS + [BLANK]), min_size=n, max_size=n)),
        })
        get_catalog().set_key(result, "id")
        return result

    return table("a"), table("b")


def _first_char(row):
    return None if is_missing(row["t"]) else str(row["t"])[:1]


#: Pair-local blockers: each keeps or drops a pair on its two rows alone.
PAIR_LOCAL = [
    lambda: OverlapBlocker("v", overlap_size=1),
    lambda: OverlapBlocker("t", overlap_size=2),
    lambda: OverlapBlocker("v", word_level=False, q=3, overlap_size=1),
    lambda: OverlapBlocker("t", word_level=False, q=2, overlap_size=2),
    lambda: HashBlocker(_first_char),
    lambda: AttrEquivalenceBlocker("v"),
    lambda: AttrEquivalenceBlocker("t"),
    # 64 one-bit bands: every pair collides, so the ANN search scores all.
    lambda: VectorBlocker("t", threshold=0.3, idf=False, n_bands=64, band_bits=1),
    lambda: VectorBlocker("v", threshold=0.2, idf=False, n_bands=64, band_bits=1),
    lambda: BlackBoxBlocker(lambda l, r: str(l["v"])[:1] != str(r["v"])[:1]),
]
#: Filters whose ``block_tuples`` is not their pair decision: IDF weights
#: need the corpus and ``top_k`` ranks a record's partners together.
CORPUS_LEVEL = [
    lambda: VectorBlocker("t", threshold=0.3, n_bands=64, band_bits=1),
    lambda: VectorBlocker("t", threshold=0.1, top_k=2, n_bands=64, band_bits=1),
    lambda: VectorBlocker("v", threshold=0.1, idf=False, top_k=1, n_bands=64, band_bits=1),
]


class TestOneEvaluator:
    """Every blocker decides pairs once, in ``keep``: ``block_candset`` of
    every pair of A x B keeps ``block_tables``' pairs, in the candset's
    order, and ``block_tuples`` drops exactly the other pairs."""

    @staticmethod
    def _check(blocker, ltable, rtable, pair_local=True):
        every = BlackBoxBlocker(lambda l, r: False).block_tables(ltable, rtable)
        with use_index_store():
            expected = pairs_of(blocker.block_tables(ltable, rtable))
            filtered = candset_pairs(blocker.block_candset(every))
            assert filtered == [pair for pair in candset_pairs(every) if pair in expected]
            if not pair_local:
                return
            backwards = make_candset(candset_pairs(every)[::-1], ltable, rtable, "id", "id")
            assert candset_pairs(blocker.block_candset(backwards)) == filtered[::-1]
            # One row against the other side: on under a quarter of a
            # table's rows, ``keep`` reads a table of just the picked rows.
            l_keys, r_keys = ltable.column("id"), rtable.column("id")
            for few in (
                [(l_keys[-1], r) for r in r_keys] if l_keys else [],
                [(l, r_keys[-1]) for l in l_keys] if r_keys else [],
            ):
                candset = make_candset(few, ltable, rtable, "id", "id")
                kept = candset_pairs(blocker.block_candset(candset))
                assert kept == [pair for pair in few if pair in expected]
        for l_row in ltable.rows():
            for r_row in rtable.rows():
                dropped = (l_row["id"], r_row["id"]) not in expected
                assert blocker.block_tuples(l_row, r_row) == dropped

    @settings(max_examples=40, deadline=None)
    @given(tables=blocked_tables(), at=st.integers(0, len(PAIR_LOCAL) - 1))
    def test_pair_local_blockers(self, tables, at):
        self._check(PAIR_LOCAL[at](), *tables)

    @settings(max_examples=40, deadline=None)
    @given(tables=blocked_tables(), at=st.integers(0, len(CORPUS_LEVEL) - 1))
    def test_idf_and_top_k_vector_filters(self, tables, at):
        self._check(CORPUS_LEVEL[at](), *tables, pair_local=False)

    @settings(max_examples=40, deadline=None)
    @given(
        tables=blocked_tables(),
        rules=st.lists(
            st.lists(st.sampled_from(PREDICATES + SCAN_PREDICATES), min_size=1, max_size=2),
            min_size=1, max_size=3,
        ),
    )
    def test_rule_based_blockers(self, tables, rules):
        """Executable, non-executable and mixed rule sets alike."""
        rules = [BlockingRule(tuple(predicates)) for predicates in rules]
        self._check(RuleBasedBlocker(rules), *tables)

    def test_a_value_printing_blank_has_no_q_grams(self):
        """It has no record for the join, so it overlaps nothing, though
        its padded q-grams would overlap another's."""
        ltable = Table({"id": ["a1", "a2"], "v": [BLANK, "abc"]})
        rtable = Table({"id": ["b1", "b2"], "v": [BLANK, "abc"]})
        blocker = OverlapBlocker("v", word_level=False, q=3, overlap_size=1)
        every = BlackBoxBlocker(lambda l, r: False).block_tables(ltable, rtable)
        assert pairs_of(blocker.block_tables(ltable, rtable)) == {("a2", "b2")}
        assert candset_pairs(blocker.block_candset(every)) == [("a2", "b2")]
        assert blocker.block_tuples(next(ltable.rows()), next(rtable.rows()))

    def test_an_executable_rule_drops_a_missing_value(self):
        """``name_jaccard_ws < 0.3`` runs as a join, which never emits a
        pair with a missing name: filtering drops it too."""
        ltable = Table({"id": ["a1", "a2"], "name": [None, "dave smith"]})
        rtable = Table({"id": ["b1", "b2"], "name": ["dave smith", "dave smyth"]})
        blocker = RuleBasedBlocker()
        blocker.add_rule("name_jaccard_ws < 0.3", get_features_for_blocking(ltable, rtable))
        assert blocker.is_join_executable
        every = BlackBoxBlocker(lambda l, r: False).block_tables(ltable, rtable)
        assert pairs_of(blocker.block_tables(ltable, rtable)) == {("a2", "b1"), ("a2", "b2")}
        assert candset_pairs(blocker.block_candset(every)) == [("a2", "b1"), ("a2", "b2")]
        assert blocker.block_tuples(next(ltable.rows()), next(rtable.rows()))

    def test_block_tuples_leaves_the_shared_store_alone(self):
        """Each ``block_tuples`` call scopes a store of its own to its
        thread: calls racing in two threads change no thread's store and
        build nothing in the shared one."""
        shared = get_index_store()
        before = len(shared._memory)
        blocker = OverlapBlocker("v", overlap_size=1)
        start = threading.Barrier(2)
        dropped, stores = [], []

        def run(value):
            start.wait()
            for _ in range(50):
                dropped.append(blocker.block_tuples({"v": value}, {"v": "b c"}))
            stores.append(get_index_store())

        threads = [threading.Thread(target=run, args=(v,)) for v in ("a b", "x y")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert dropped.count(False) == dropped.count(True) == 50
        assert stores == [shared, shared] and get_index_store() is shared
        assert len(shared._memory) == before

    def test_a_blocker_defining_neither_method_raises(self):
        table = Table({"id": ["a1"], "v": ["x"]})
        with pytest.raises(NotImplementedError):
            Blocker().block_tables(table, table)
        with pytest.raises(NotImplementedError):
            Blocker().block_tuples({"v": "x"}, {"v": "x"})

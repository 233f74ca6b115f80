"""Tests for blockers, candidate sets, set operations, and the debugger."""

import itertools

import pytest

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
    make_candset,
)
from repro.catalog import get_catalog
from repro.exceptions import ConfigurationError, SchemaError
from repro.features import get_features_for_blocking
from repro.index import use_index_store
from repro.table import Table


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
            if not blocker.block_tuples(l_row, r_row)
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
            if not blocker.block_tuples(l_row, r_row)
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

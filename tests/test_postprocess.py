"""Tests for match post-processing: clustering, 1-1, merging, dedup."""

import networkx as nx
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blocking import OverlapBlocker
from repro.postprocess import (
    cluster_matches,
    dedupe_table,
    duplicate_groups,
    enforce_one_to_one,
    merge_matches,
    merge_records,
    self_block_table,
)
from repro.postprocess.clustering import UnionFind
from repro.table import Table

#: Keys that collide as dict keys (1, 1.0, True) or only print alike (1, "1").
KEYS = st.sampled_from([1, "1", 1.0, True, 0, False, "0", 2, "2", "a"])
EDGES = st.lists(st.tuples(KEYS, KEYS), max_size=20)


def networkx_components(edges):
    """The reference: networkx's components after adding nodes in edge order,
    each member mapped to the first-seen key equal to it.  networkx's
    breadth-first walk reads neighbours from adjacency dicts, whose keys can
    be a later equal object (``False`` for a node first added as ``0``)."""
    graph = nx.Graph()
    graph.add_edges_from(edges)
    first_seen: dict = {}
    for edge in edges:
        for node in edge:
            first_seen.setdefault(node, node)
    return [
        {first_seen[member] for member in component}
        for component in nx.connected_components(graph)
    ]


def by_size(groups):
    return sorted(groups, key=lambda group: (-len(group), sorted(map(str, group))))


def reprs(groups):
    """Groups as the stored key objects print, so 1 and True differ."""
    return [sorted(map(repr, group)) for group in groups]


class TestComponentsOracle:
    """The union-find's groups are networkx's connected components, in the
    same order, so the size sort's ties come out alike."""

    @given(EDGES)
    @settings(max_examples=200, deadline=None)
    def test_union_find_groups_equal_networkx(self, edges):
        components = UnionFind()
        for a, b in edges:
            components.union(a, b)
        assert components.groups() == networkx_components(edges)

    @given(EDGES)
    @example(edges=[(1, "0"), (1, "a"), ("1", 2), (0, 0), ("1", False)])
    @settings(max_examples=200, deadline=None)
    def test_clusters_and_duplicate_groups_equal_networkx(self, edges):
        expected = by_size(networkx_components(edges))
        assert duplicate_groups(edges) == expected
        qualified = [(("l", a), ("r", b)) for a, b in edges]
        assert cluster_matches(edges) == by_size(networkx_components(qualified))

    def test_print_alike_groups_keep_first_seen_order(self):
        edges = [("1", "2"), (1, 2)]
        assert reprs(duplicate_groups(edges)) == [["'1'", "'2'"], ["1", "2"]]
        assert reprs(duplicate_groups(edges[::-1])) == [["1", "2"], ["'1'", "'2'"]]


class TestClustering:
    def test_components(self):
        pairs = {("a1", "b1"), ("a2", "b1"), ("a3", "b3")}
        clusters = cluster_matches(pairs)
        assert len(clusters) == 2
        assert {("l", "a1"), ("l", "a2"), ("r", "b1")} in clusters
        assert {("l", "a3"), ("r", "b3")} in clusters

    def test_side_qualification(self):
        # The same key value on both sides must stay distinct nodes.
        clusters = cluster_matches({("x", "x")})
        assert clusters == [{("l", "x"), ("r", "x")}]

    def test_empty(self):
        assert cluster_matches(set()) == []


class TestOneToOne:
    def test_keeps_best_scores(self):
        scored = [("a1", "b1", 0.9), ("a1", "b2", 0.8), ("a2", "b1", 0.7), ("a2", "b2", 0.6)]
        kept = enforce_one_to_one(scored)
        assert kept == {("a1", "b1"), ("a2", "b2")}

    def test_deterministic_tie_break(self):
        scored = [("a1", "b1", 0.5), ("a1", "b2", 0.5)]
        assert enforce_one_to_one(scored) == enforce_one_to_one(list(reversed(scored)))

    def test_result_is_one_to_one(self):
        scored = [(f"a{i}", f"b{j}", (i * 7 + j) % 10 / 10) for i in range(5) for j in range(5)]
        kept = enforce_one_to_one(scored)
        lefts = [l for l, _ in kept]
        rights = [r for _, r in kept]
        assert len(set(lefts)) == len(lefts)
        assert len(set(rights)) == len(rights)


class TestMergeRecords:
    def test_majority_wins(self):
        rows = [{"v": "x"}, {"v": "x"}, {"v": "y"}]
        assert merge_records(rows)["v"] == "x"

    def test_missing_values_skipped(self):
        rows = [{"v": None}, {"v": "x"}]
        assert merge_records(rows)["v"] == "x"

    def test_all_missing(self):
        assert merge_records([{"v": None}, {"v": ""}])["v"] is None

    def test_tie_prefers_longest(self):
        rows = [{"v": "ab"}, {"v": "abcd"}]
        assert merge_records(rows)["v"] == "abcd"

    def test_key_from_first(self):
        rows = [{"id": 1, "v": "x"}, {"id": 2, "v": "x"}]
        assert merge_records(rows, key_column="id")["id"] == 1

    def test_empty(self):
        assert merge_records([]) == {}


class TestMergeMatches:
    def test_merged_table(self):
        ltable = Table({"id": ["a1", "a2"], "name": ["Dave Smith", "Ann Lee"]})
        rtable = Table({"id": ["b1"], "name": ["Dave Smith"]})
        merged = merge_matches({("a1", "b1")}, ltable, rtable)
        assert merged.num_rows == 1
        row = merged.row(0)
        assert row["name"] == "Dave Smith"
        assert row["l_ids"] == "a1"
        assert row["r_ids"] == "b1"


class TestDedupe:
    def _table(self):
        return Table(
            {
                "id": ["r1", "r2", "r3", "r4"],
                "name": ["Dave Smith", "Dave Smith", "Ann Lee", "Bob Ray"],
                "city": ["Madison", None, "Austin", "Tampa"],
            }
        )

    def test_self_block_excludes_self_and_symmetry(self):
        table = self._table()
        candset = self_block_table(table, OverlapBlocker("name", overlap_size=1), "id")
        pairs = set(zip(candset["ltable_id"], candset["rtable_id"]))
        assert ("r1", "r1") not in pairs
        assert ("r1", "r2") in pairs
        assert ("r2", "r1") not in pairs  # only one orientation kept

    def test_duplicate_groups(self):
        groups = duplicate_groups({("r1", "r2"), ("r2", "r5"), ("r3", "r4")})
        assert {"r1", "r2", "r5"} in groups
        assert {"r3", "r4"} in groups

    def test_dedupe_merges_and_keeps_singletons(self):
        table = self._table()
        deduped = dedupe_table(table, {("r1", "r2")}, key="id")
        assert deduped.num_rows == 3
        merged = next(row for row in deduped.rows() if row["id"] == "r1")
        assert merged["name"] == "Dave Smith"
        assert merged["city"] == "Madison"  # missing value filled from r1
        assert {row["id"] for row in deduped.rows()} == {"r1", "r3", "r4"}

    def test_dedupe_no_pairs_is_identity(self):
        table = self._table()
        assert dedupe_table(table, set(), key="id").num_rows == table.num_rows


class TestEndToEndDedupe:
    def test_self_match_workflow(self):
        """Dedup via the two-table machinery on a table with planted dups."""
        rows = []
        for i in range(40):
            rows.append({"id": f"r{i}", "name": f"Person Number{i} Smith", "city": "Madison"})
        # plant near-duplicates of the first 10
        for i in range(10):
            rows.append({"id": f"d{i}", "name": f"Person Number{i} Smith", "city": "Madison"})
        table = Table.from_rows(rows)
        candset = self_block_table(table, OverlapBlocker("name", overlap_size=3), "id")
        pairs = set(zip(candset["ltable_id"], candset["rtable_id"]))
        expected = {(f"d{i}", f"r{i}") for i in range(10)}
        assert expected <= pairs
        deduped = dedupe_table(table, expected, key="id")
        assert deduped.num_rows == 40

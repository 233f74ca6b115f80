"""Property-based tests on the EM layer's core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import (
    OverlapBlocker,
    Predicate,
    BlockingRule,
    candset_intersection,
    candset_pairs,
    candset_union,
    execute_rules,
)
from repro.catalog import reset_catalog
from repro.features import make_token_feature
from repro.postprocess import enforce_one_to_one, merge_records
from repro.table import Table
from repro.text.sim.token_based import Jaccard
from repro.text.tokenizers import WhitespaceTokenizer
from tests.blocking_oracles import pairwise_drops, rule_drops

words = st.sampled_from(["alpha", "beta", "gamma", "delta", "omega"])
values = st.lists(words, min_size=1, max_size=3).map(" ".join)


def make_tables(l_values, r_values):
    ltable = Table({"id": [f"a{i}" for i in range(len(l_values))], "v": list(l_values)})
    rtable = Table({"id": [f"b{i}" for i in range(len(r_values))], "v": list(r_values)})
    return ltable, rtable


table_values = st.lists(values, min_size=1, max_size=8)


class TestBlockingEquivalence:
    @given(table_values, table_values, st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_overlap_blocker_join_equals_pairwise(self, l_values, r_values, overlap):
        reset_catalog()
        ltable, rtable = make_tables(l_values, r_values)
        blocker = OverlapBlocker("v", overlap_size=overlap)
        joined = set(candset_pairs(blocker.block_tables(ltable, rtable, "id", "id")))
        pairwise = {
            (l_row["id"], r_row["id"])
            for l_row in ltable.rows()
            for r_row in rtable.rows()
            if not pairwise_drops(blocker, l_row, r_row)
        }
        assert joined == pairwise

    @given(
        table_values,
        table_values,
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_rule_execution_equals_pairwise(self, l_values, r_values, threshold):
        reset_catalog()
        ltable, rtable = make_tables(l_values, r_values)
        feature = make_token_feature(
            "v_jaccard", "v", "v", WhitespaceTokenizer(return_set=True),
            Jaccard(), "jaccard",
        )
        rule = BlockingRule((Predicate(feature, "<=", threshold),))
        survivors = execute_rules([rule], ltable, rtable, "id", "id")
        pairwise = {
            (l_row["id"], r_row["id"])
            for l_row in ltable.rows()
            for r_row in rtable.rows()
            if not rule_drops(rule, l_row, r_row)
        }
        assert survivors == pairwise


class TestCandsetAlgebra:
    @given(table_values, table_values)
    @settings(max_examples=40, deadline=None)
    def test_union_intersection_laws(self, l_values, r_values):
        reset_catalog()
        ltable, rtable = make_tables(l_values, r_values)
        a = OverlapBlocker("v", overlap_size=1).block_tables(ltable, rtable, "id", "id")
        b = OverlapBlocker("v", overlap_size=2).block_tables(ltable, rtable, "id", "id")
        union = set(candset_pairs(candset_union(a, b)))
        inter = set(candset_pairs(candset_intersection(a, b)))
        pa, pb = set(candset_pairs(a)), set(candset_pairs(b))
        assert union == pa | pb
        assert inter == pa & pb
        assert inter <= union
        # overlap-2 is a refinement of overlap-1
        assert pb <= pa


class TestPostprocessProperties:
    scored = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=6),
            st.floats(min_value=0, max_value=1, allow_nan=False),
        ),
        max_size=25,
    )

    @given(scored)
    def test_one_to_one_invariant(self, scored):
        kept = enforce_one_to_one(scored)
        lefts = [l for l, _ in kept]
        rights = [r for _, r in kept]
        assert len(set(lefts)) == len(lefts)
        assert len(set(rights)) == len(rights)
        assert kept <= {(l, r) for l, r, _ in scored}

    @given(st.lists(st.fixed_dictionaries({"v": st.one_of(st.none(), words)}),
                    min_size=1, max_size=8))
    def test_merge_idempotent(self, rows):
        merged = merge_records(rows)
        assert merge_records([merged]) == merged

    @given(st.lists(st.fixed_dictionaries({"v": words}), min_size=1, max_size=8))
    def test_merge_picks_existing_value(self, rows):
        merged = merge_records(rows)
        assert merged["v"] in {row["v"] for row in rows}

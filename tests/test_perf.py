"""Tests for the performance kernel layer and the multicore fan-out.

Two guarantees are enforced here:

* the integer-kernel filtered join — the batched one and the live
  index's probe — equals the brute-force reference across every measure
  and threshold, for self-joins and two-table joins;
* every operator mapped over partitions of its input produces the
  output of its whole-table call (``Table.__eq__`` compares the full
  column data, so equality means same columns, same values, same order).
"""

import pickle
import random

import numpy as np
import pytest

from repro.blocking import (
    AttrEquivalenceBlocker,
    Blocker,
    HashBlocker,
    OverlapBlocker,
    RuleBasedBlocker,
    make_candset,
)
import repro.index.delta as delta_module
from repro.exceptions import ConfigurationError, SchemaError
from repro.perf.arrays import overlap_bounds_arrays, scores_arrays
from repro.features import (
    FeatureTable,
    extract_feature_vecs,
    get_features_for_blocking,
    make_blackbox_feature,
)
from repro.perf import (
    TokenUniverse,
    concat_tables,
    effective_n_jobs,
    parallel_map_partitions,
    partition_table,
)
from repro.simjoin import (
    edit_distance_join,
    naive_set_sim_join,
    overlap_lower_bound,
    set_sim_join,
    similarity,
)
from repro.simjoin.filters import TokenOrder
from repro.table import Table
from repro.text.sim import Levenshtein
from repro.text.tokenizers import QgramTokenizer, WhitespaceTokenizer

N_PARTITIONS = 4


def _random_tables(seed: int, n: int = 60):
    rng = random.Random(seed)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]

    def sentence():
        return " ".join(rng.sample(words, rng.randrange(1, 6)))

    ltable = Table({"id": [f"a{i}" for i in range(n)], "v": [sentence() for _ in range(n)]})
    rtable = Table({"id": [f"b{i}" for i in range(n)], "v": [sentence() for _ in range(n)]})
    return ltable, rtable


def _pairs(result):
    return set(zip(result.column("l_id"), result.column("r_id")))


def _scalar_join(ltable, rtable, tokenizer, measure, threshold):
    """The join through the scalar probe (one point probe per record)."""
    live = delta_module.LiveIndex.from_table(
        rtable, "id", "v", tokenizer=tokenizer, measure=measure, threshold=threshold
    )
    return live.join_table(ltable, "id", "v")


class TestTokenUniverse:
    def test_ids_dense_rare_first(self):
        universe = TokenUniverse([["common", "rare"], ["common"], ["common", "x"]])
        assert len(universe) == 3
        assert sorted(universe.token_id(t) for t in ("common", "rare", "x")) == [0, 1, 2]
        # rare/x (frequency 1) come before common (frequency 3); lexical ties.
        assert universe.token_id("rare") == 0
        assert universe.token_id("x") == 1
        assert universe.token_id("common") == 2

    def test_encode_sorted_distinct(self):
        universe = TokenUniverse([["a", "b", "c"], ["c"], ["b", "c"]])
        encoded = universe.encode(["c", "a", "c", "b"])
        assert list(encoded) == sorted(encoded)
        assert len(encoded) == 3

    def test_encode_unknown_raises(self):
        universe = TokenUniverse([["a"]])
        with pytest.raises(KeyError):
            universe.encode(["a", "never_seen"])

    def test_decode_roundtrip(self):
        universe = TokenUniverse([["a", "b"], ["b"]])
        encoded = universe.encode(["a", "b"])
        assert set(universe.decode(encoded)) == {"a", "b"}

    def test_token_order_wrapper_matches(self):
        corpus = [["common", "rare"], ["common"], ["common", "x"]]
        order = TokenOrder(corpus)
        assert order.order(["common", "rare"]) == ["rare", "common"]
        assert order.rank("never_seen")[0] == 0
        assert order.order(["a_unknown", "common"])[0] == "a_unknown"


class TestKernels:
    def test_scorers_match_similarity(self):
        rng = random.Random(2)
        for measure in ("jaccard", "cosine", "dice", "overlap"):
            for _ in range(50):
                left = set(rng.sample(range(30), rng.randrange(1, 12)))
                right = set(rng.sample(range(30), rng.randrange(1, 12)))
                left_str = {str(x) for x in left}
                right_str = {str(x) for x in right}
                expected = similarity(measure, left_str, right_str)
                got = scores_arrays(
                    measure,
                    np.array([len(left_str & right_str)]),
                    np.array([len(left_str)]),
                    np.array([len(right_str)]),
                )
                assert got.tolist() == [expected]

    def test_overlap_bound_matches_filters(self):
        sizes = np.arange(1, 15)
        left, right = np.repeat(sizes, len(sizes)), np.tile(sizes, len(sizes))
        for measure, threshold in [
            ("jaccard", 0.5),
            ("jaccard", 0.8),
            ("cosine", 0.6),
            ("dice", 0.7),
            ("overlap", 3),
        ]:
            got = overlap_bounds_arrays(measure, threshold, left, right)
            assert got.tolist() == [
                overlap_lower_bound(measure, threshold, la, lb)
                for la, lb in zip(left.tolist(), right.tolist())
            ]

    def test_unknown_measure_rejected(self):
        with pytest.raises(ConfigurationError):
            scores_arrays("euclid", np.array([1]), np.array([2]), np.array([2]))


class TestParallelPrimitives:
    def test_effective_n_jobs(self):
        assert effective_n_jobs(None) == 1
        assert effective_n_jobs(1) == 1
        assert effective_n_jobs(3) == 3
        assert effective_n_jobs(-1) >= 1
        with pytest.raises(ConfigurationError):
            effective_n_jobs(0)

    def test_concat_tables_matches_pairwise(self):
        parts = [
            Table({"a": [1, 2], "b": ["x", "y"]}),
            Table({"a": [3], "b": ["z"]}),
            Table({"a": [], "b": []}),
            Table({"a": [4, 5], "b": ["u", "v"]}),
        ]
        pairwise = parts[0]
        for part in parts[1:]:
            pairwise = pairwise.concat(part)
        assert concat_tables(parts) == pairwise

    def test_concat_tables_schema_mismatch(self):
        with pytest.raises(SchemaError):
            concat_tables([Table({"a": [1]}), Table({"b": [2]})])

    def test_concat_tables_single_copy(self):
        part = Table({"a": [1]})
        result = concat_tables([part])
        assert result == part and result is not part

    def test_partition_table_empty(self):
        parts = partition_table(Table({"a": []}), 4)
        assert len(parts) == 1 and parts[0].num_rows == 0

    def test_parallel_map_partitions_accepts_closures(self):
        offset = 10  # captured by the closure: not picklable as a pool task

        def bump(part: Table) -> Table:
            return Table({"v": [value + offset for value in part.column("v")]})

        table = Table({"v": list(range(20))})
        serial = parallel_map_partitions(table, bump, n_workers=1)
        parallel = parallel_map_partitions(table, bump, n_workers=3)
        assert serial == parallel
        assert parallel.column("v") == [value + 10 for value in range(20)]

    def test_forked_workers_counter_increments_reach_the_parent(self):
        """Each partition's join counts one ``simjoin_calls_total`` in its
        forked worker; the increments come back with the results."""
        from repro.obs import use_registry

        ltable, rtable = _random_tables(seed=4, n=80)
        tokenizer = WhitespaceTokenizer(return_set=True)

        def join(left):
            return set_sim_join(left, rtable, "id", "id", "v", "v", tokenizer, "jaccard", 0.5)

        with use_registry() as registry:
            parallel_map_partitions(ltable, join, n_workers=2, n_partitions=4)
            calls = sum(
                value for (name, _), value in registry.counters().items()
                if name == "simjoin_calls_total"
            )
        assert calls == 4


class TestSetSimJoinEquivalence:
    @pytest.mark.parametrize("measure,threshold", [
        ("jaccard", 0.4),
        ("jaccard", 0.8),
        ("cosine", 0.6),
        ("dice", 0.7),
        ("overlap", 2),
    ])
    # A self-join encodes one side (``pair_encoding(tc, tc)``).
    @pytest.mark.parametrize("self_join", [True, False])
    # The scalar probe's one verification kernel is the merge scan.
    @pytest.mark.parametrize("verification", ["merge"])
    def test_matches_naive(self, measure, threshold, self_join, verification):
        seed = hash((measure, threshold, self_join, verification)) % 1000
        ltable, rtable = _random_tables(seed=seed)
        if self_join:
            ltable = rtable
        tokenizer = WhitespaceTokenizer(return_set=True)
        fast = set_sim_join(
            ltable, rtable, "id", "id", "v", "v", tokenizer, measure, threshold
        )
        slow = naive_set_sim_join(
            ltable, rtable, "id", "id", "v", "v", tokenizer, measure, threshold
        )
        assert _pairs(fast) == _pairs(slow)
        fast_scores = {(l, r): s for l, r, s in zip(fast["l_id"], fast["r_id"], fast["score"])}
        slow_scores = {(l, r): s for l, r, s in zip(slow["l_id"], slow["r_id"], slow["score"])}
        assert fast_scores == slow_scores  # identical floats, not just pairs
        scalar = _scalar_join(ltable, rtable, tokenizer, measure, threshold)
        assert scalar == fast == slow  # rows, scores and order

    def test_qgram_tokens_match_naive(self):
        ltable, rtable = _random_tables(seed=77, n=40)
        tokenizer = QgramTokenizer(q=3, return_set=True)
        fast = set_sim_join(ltable, rtable, "id", "id", "v", "v", tokenizer, "jaccard", 0.5)
        slow = naive_set_sim_join(ltable, rtable, "id", "id", "v", "v", tokenizer, "jaccard", 0.5)
        assert _pairs(fast) == _pairs(slow)

    def test_kernels_agree_byte_identical(self):
        ltable, rtable = _random_tables(seed=13)
        tokenizer = WhitespaceTokenizer(return_set=True)
        scalar = _scalar_join(ltable, rtable, tokenizer, "jaccard", 0.5)
        batched = set_sim_join(ltable, rtable, "id", "id", "v", "v", tokenizer, "jaccard", 0.5)
        assert scalar.num_rows and scalar == batched

    def test_bad_kernel_rejected(self):
        ltable, rtable = _random_tables(seed=1, n=5)
        with pytest.raises(ConfigurationError):
            set_sim_join(
                ltable, rtable, "id", "id", "v", "v",
                WhitespaceTokenizer(return_set=True), "jaccard", 0.5, kernel="simd",
            )


def _mapped(table: Table, fn) -> Table:
    """``fn`` over ``N_PARTITIONS`` partitions of ``table``, two workers."""
    return parallel_map_partitions(table, fn, n_workers=2, n_partitions=N_PARTITIONS)


def _without_id(table: Table) -> Table:
    """All columns but ``_id``, which a partition map restarts per partition."""
    return table.project([name for name in table.columns if name != "_id"])


class TestParallelByteIdentity:
    """Each operator mapped over partitions of its input equals its
    whole-table call, but for a restarted ``_id``."""

    def test_set_sim_join(self):
        ltable, rtable = _random_tables(seed=21)
        tokenizer = WhitespaceTokenizer(return_set=True)
        for measure, threshold in [("jaccard", 0.5), ("overlap", 2)]:

            def join(left, measure=measure, threshold=threshold):
                return set_sim_join(
                    left, rtable, "id", "id", "v", "v", tokenizer, measure, threshold
                )

            assert _without_id(join(ltable)) == _without_id(_mapped(ltable, join))

    def test_set_sim_join_accepts_only_one_job(self):
        ltable, rtable = _random_tables(seed=21, n=5)
        with pytest.raises(ConfigurationError, match="parallel_map_partitions"):
            set_sim_join(
                ltable, rtable, "id", "id", "v", "v",
                WhitespaceTokenizer(return_set=True), "jaccard", 0.5, n_jobs=2,
            )

    def test_edit_distance_join(self):
        rng = random.Random(3)
        names = ["dave smith", "dan smith", "david smyth", "joe wilson", "jo wilson"]
        ltable = Table({
            "id": [f"a{i}" for i in range(40)],
            "v": [rng.choice(names) for _ in range(40)],
        })
        rtable = Table({
            "id": [f"b{i}" for i in range(40)],
            "v": [rng.choice(names) for _ in range(40)],
        })

        def join(left):
            return edit_distance_join(left, rtable, "id", "id", "v", "v", threshold=2)

        serial = join(ltable)
        assert _without_id(serial) == _without_id(_mapped(ltable, join))
        # and the filter still agrees with brute force
        levenshtein = Levenshtein()
        expected = {
            (a, b)
            for a, av in zip(ltable["id"], ltable["v"])
            for b, bv in zip(rtable["id"], rtable["v"])
            if levenshtein.get_raw_score(av, bv) <= 2
        }
        assert _pairs(serial) == expected

    def _assert_blocks_by_partition(self, blocker, ltable, rtable):
        serial = blocker.block_tables(ltable, rtable, "id", "id")
        parallel = _mapped(ltable, lambda part: blocker.block_tables(part, rtable, "id", "id"))
        assert _without_id(serial) == _without_id(parallel)

    def test_overlap_blocker(self, figure1_tables):
        table_a, table_b, _ = figure1_tables
        self._assert_blocks_by_partition(OverlapBlocker("name", overlap_size=1), table_a, table_b)

    def test_attr_equivalence_blocker(self):
        rng = random.Random(5)
        states = ["WI", "CA", "NY", None]
        ltable = Table({
            "id": list(range(30)),
            "state": [rng.choice(states) for _ in range(30)],
        })
        rtable = Table({
            "id": list(range(30)),
            "state": [rng.choice(states) for _ in range(30)],
        })
        self._assert_blocks_by_partition(AttrEquivalenceBlocker("state"), ltable, rtable)

    def test_hash_blocker_with_lambda(self):
        ltable = Table({"id": list(range(20)), "name": [f"n{i % 5}" for i in range(20)]})
        rtable = Table({"id": list(range(20)), "name": [f"n{i % 7}" for i in range(20)]})
        blocker = HashBlocker(lambda row: row["name"][:2])
        self._assert_blocks_by_partition(blocker, ltable, rtable)

    def test_quadratic_fallback_blocker(self, figure1_tables):
        table_a, table_b, _ = figure1_tables

        class SameInitialBlocker(Blocker):
            def block_tuples(self, l_row, r_row):
                return l_row["name"][0] != r_row["name"][0]

        self._assert_blocks_by_partition(SameInitialBlocker(), table_a, table_b)

    def test_rule_based_blocker_join_path(self, figure1_tables):
        table_a, table_b, _ = figure1_tables
        features = get_features_for_blocking(table_a, table_b)
        name = next(n for n in features.names() if "jaccard_ws" in n and n.startswith("name"))
        blocker = RuleBasedBlocker()
        blocker.add_rule([f"{name} < 0.2"], features)
        assert blocker.is_join_executable
        self._assert_blocks_by_partition(blocker, table_a, table_b)

    def test_block_candset(self, figure1_tables):
        table_a, table_b, _ = figure1_tables
        pairs = [(a, b) for a in table_a["id"] for b in table_b["id"]]
        candset = make_candset(pairs, table_a, table_b, "id", "id")
        blocker = AttrEquivalenceBlocker("state")
        serial = blocker.block_candset(candset)
        parallel = _mapped(candset, blocker.block_candset)
        assert _without_id(serial) == _without_id(parallel)

    def test_extract_feature_vecs(self, figure1_tables):
        table_a, table_b, _ = figure1_tables
        pairs = [(a, b) for a in table_a["id"] for b in table_b["id"]]
        candset = make_candset(pairs, table_a, table_b, "id", "id")
        features = get_features_for_blocking(table_a, table_b)
        serial = extract_feature_vecs(candset, features)
        parallel = _mapped(candset, lambda part: extract_feature_vecs(part, features))
        assert serial == parallel


class TestExtractionMemo:
    def test_none_feature_values_are_cached(self, figure1_tables):
        table_a, table_b, _ = figure1_tables
        calls = []

        def always_none(l_value, r_value):
            calls.append((l_value, r_value))
            return None

        feature = make_blackbox_feature("none_f", "city", "city", always_none)
        # Two candidate pairs per distinct (l_city, r_city) combination.
        pairs = [(a, b) for a in table_a["id"] for b in table_b["id"]] * 2
        candset = make_candset(pairs, table_a, table_b, "id", "id")
        result = extract_feature_vecs(candset, FeatureTable([feature]))
        assert result.column("none_f") == [None] * candset.num_rows
        distinct = {
            (la, rb)
            for la in table_a["city"]
            for rb in table_b["city"]
        }
        assert len(calls) <= len(distinct)


class TestTokenizerCachePickling:
    def test_pickle_drops_cache(self):
        tokenizer = WhitespaceTokenizer(return_set=True)
        tokenizer.tokenize_cached("dave smith")
        assert getattr(tokenizer, "_cache", None)
        clone = pickle.loads(pickle.dumps(tokenizer))
        assert not hasattr(clone, "_cache")
        assert clone.tokenize("dave smith") == tokenizer.tokenize("dave smith")

    def test_clear_cache(self):
        tokenizer = WhitespaceTokenizer()
        tokenizer.tokenize_cached("a b")
        tokenizer.clear_cache()
        assert not hasattr(tokenizer, "_cache")

"""Equivalence suite: the CSR kernels against their oracles.

The acceptance bar is *byte identity*.  A batch join, and the live
index's probe at any batch size, are compared with the brute-force
``naive_set_sim_join`` — rows, scores (same float bits) and output
order — and the live probe's candidate counts with a brute-force
counter (``tests.test_live_index.brute_candidates``).  The hypothesis
suites below drive randomized corpora through both sides and compare
with plain ``==`` — which, on floats, is the bit-identity check.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.perf.arrays as arrays_module
from repro.index.delta import LiveIndex
from repro.index.store import use_index_store
from repro.obs import use_registry
from repro.perf.parallel import MIN_FORK_ITEMS, parallel_map_partitions, run_sharded
from repro.perf.tokens import TokenUniverse
from repro.simjoin import naive_set_sim_join, set_sim_join
from repro.table.table import Table
from repro.text.tokenizers import WhitespaceTokenizer
from repro.text.vectorize import cosine, l2_normalize
from tests.test_live_index import brute_candidates

# Small shared alphabet so random tables actually collide.
WORDS = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]

value_strategy = st.one_of(
    st.just(None),
    st.just(""),
    st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join),
)
values_strategy = st.lists(value_strategy, min_size=1, max_size=25)

# One side of a join: the usual mix, plus the shapes a kernel gets wrong
# first — no rows, one row, nothing but missing cells, nothing but blanks.
side_strategy = st.one_of(
    values_strategy,
    st.just([]),
    st.lists(value_strategy, min_size=1, max_size=1),
    st.lists(st.just(None), min_size=1, max_size=4),
    st.lists(st.just(""), min_size=1, max_size=4),
)

measure_threshold = st.one_of(
    st.tuples(st.just("jaccard"), st.sampled_from([0.3, 0.5, 0.8])),
    st.tuples(st.just("cosine"), st.sampled_from([0.4, 0.7])),
    st.tuples(st.just("dice"), st.sampled_from([0.5, 0.9])),
    st.tuples(st.just("overlap"), st.sampled_from([1, 2, 3])),
)
# Every record of up to 5 tokens is its own prefix at these thresholds.
WHOLE_PREFIX_CASES = [("jaccard", 0.1), ("cosine", 0.2), ("dice", 0.15), ("overlap", 1)]


def _table(prefix: str, values: list) -> Table:
    return Table(
        {"id": [f"{prefix}{i}" for i in range(len(values))], "v": values}
    )


def _rows(result: Table) -> list[tuple]:
    return list(zip(result.column("l_id"), result.column("r_id"), result.column("score")))


def _join_rows(ltable, rtable, measure, threshold, **kwargs):
    return _rows(
        set_sim_join(
            ltable,
            rtable,
            "id",
            "id",
            "v",
            "v",
            WhitespaceTokenizer(return_set=True),
            measure=measure,
            threshold=threshold,
            **kwargs,
        )
    )


def _partition_join_rows(ltable, rtable, measure, threshold):
    """The join as a 2-worker partition map over ``ltable``'s rows."""
    return _rows(
        parallel_map_partitions(
            ltable,
            lambda part: set_sim_join(
                part, rtable, "id", "id", "v", "v", WhitespaceTokenizer(return_set=True),
                measure=measure, threshold=threshold,
            ),
            n_workers=2,
        )
    )


def _naive_rows(ltable, rtable, measure, threshold):
    return _rows(
        naive_set_sim_join(
            ltable, rtable, "id", "id", "v", "v",
            WhitespaceTokenizer(return_set=True), measure, threshold,
        )
    )


def _live_join_rows(ltable, rtable, measure, threshold):
    live = LiveIndex.from_table(
        rtable, "id", "v", measure=measure, threshold=threshold, name="oracle"
    )
    return _rows(live.join_table(ltable, "id", "v"))


def assert_live_probe_like_naive(live: LiveIndex, values: list) -> None:
    """``search_batch(values)`` and ``search`` per value: the naive join's
    matches over the live records, and brute-force candidate counts."""
    probe = _table("q", values)
    naive = _naive_rows(probe, live.to_table(), live.measure, live.threshold)
    expected = [
        [(key, score) for qid, key, score in naive if qid == f"q{i}"]
        for i in range(len(values))
    ]
    counts = [brute_candidates(live, value) for value in values]
    assert live.search_batch(values) == list(zip(expected, counts))
    assert [live.search(value) for value in values] == list(zip(expected, counts))


class TestJoinEquivalence:
    """set_sim_join == the brute-force oracle, bit for bit."""

    @given(side_strategy, side_strategy, measure_threshold)
    @settings(max_examples=60, deadline=None)
    def test_rows_scores_and_order_match(self, left, right, mt):
        measure, threshold = mt
        ltable, rtable = _table("l", left), _table("r", right)
        expected = _naive_rows(ltable, rtable, measure, threshold)
        assert _join_rows(ltable, rtable, measure, threshold) == expected
        assert _partition_join_rows(ltable, rtable, measure, threshold) == expected

    @given(side_strategy, side_strategy, st.sampled_from(WHOLE_PREFIX_CASES))
    @settings(max_examples=25, deadline=None)
    def test_without_prefix_filter(self, left, right, mt):
        # Thresholds low enough that every record of up to 5 tokens is its
        # own prefix: nothing is filtered, and the candidate product
        # already holds the exact overlaps the kernel scores.
        from repro.simjoin.filters import prefix_length

        measure, threshold = mt
        assert all(prefix_length(measure, threshold, n) == n for n in range(6))
        ltable, rtable = _table("l", left), _table("r", right)
        got = _join_rows(ltable, rtable, measure, threshold)
        assert got == _naive_rows(ltable, rtable, measure, threshold)
        assert got == _live_join_rows(ltable, rtable, measure, threshold)

    def test_forked_equals_serial_equals_dict(self):
        # Big enough to clear the MIN_FORK_ITEMS gate, so the partition
        # map genuinely forks.  "dict" in the name is the live index's
        # probe, reached through LiveIndex.join_table.
        left = [" ".join(WORDS[i % 3 : i % 3 + 3]) for i in range(120)]
        right = [" ".join(WORDS[i % 5 : i % 5 + 2]) for i in range(150)]
        ltable, rtable = _table("l", left), _table("r", right)
        for measure, threshold in [("jaccard", 0.4), ("cosine", 0.6), ("dice", 0.5), ("overlap", 2)]:
            expected = _naive_rows(ltable, rtable, measure, threshold)
            assert expected
            assert _live_join_rows(ltable, rtable, measure, threshold) == expected
            assert expected == _join_rows(ltable, rtable, measure, threshold)
            assert expected == _partition_join_rows(ltable, rtable, measure, threshold)


class TestProbeBatchEquivalence:
    """The live probe == the naive join, counts == brute force."""

    @given(
        values_strategy,
        measure_threshold,
        st.integers(min_value=0, max_value=3),  # extra out-of-universe tokens
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_scalar(self, right, mt, oov):
        measure, threshold = mt
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(
                _table("r", right), "id", "v", measure=measure, threshold=threshold
            )
            # Queries: each corpus value probed back with `oov` phantom
            # tokens inflating the true size (query tokens outside the
            # corpus universe), plus the empty query and an all-OOV query.
            phantoms = " ".join(f"oov{i}" for i in range(oov))
            queries = [f"{value or ''} {phantoms}" for value in right]
            queries += ["", "oov0 oov1"]
            if len(right) > 2:
                live.delete_many(["r0", "r2"])
            assert_live_probe_like_naive(live, queries)


CLOSED_VOCAB = [f"t{i}" for i in range(30)]
closed_record = st.lists(
    st.sampled_from(CLOSED_VOCAB), min_size=3, max_size=8, unique=True
).map(" ".join)
closed_side = st.lists(closed_record, min_size=1, max_size=30)

# (measure, threshold, whole prefix): at the low thresholds every token of
# a 3-8-token record is a prefix token, so nothing is sliced off either
# side and the candidate product already holds exact overlaps.
BOUND_CASES = [
    ("jaccard", 0.1, True), ("jaccard", 0.5, False), ("jaccard", 0.8, False),
    ("cosine", 0.2, True), ("cosine", 0.7, False),
    ("dice", 0.15, True), ("dice", 0.8, False),
    ("overlap", 1, True), ("overlap", 3, False),
]


def _funnel(registry, measure: str) -> tuple[int, int]:
    """(candidates, verified) of the set-sim joins run under ``registry``."""
    return tuple(
        registry.get(name, join="set_sim", measure=measure).value
        for name in ("simjoin_candidates_total", "simjoin_verified_total")
    )


class TestPositionalBound:
    """The positional bound prunes before verification, never an answer.

    A closed vocabulary makes most pairs share a prefix token, so the
    bound has candidates to drop; the oracle is the brute-force join,
    which the live probe (no positional bound) must match too, its
    candidate counts equal to the brute-force counter's.
    """

    @given(closed_side, closed_side, st.sampled_from(BOUND_CASES))
    @settings(max_examples=60, deadline=None)
    def test_closed_vocabulary_matches_oracles(self, left, right, case):
        from repro.simjoin.filters import prefix_length

        measure, threshold, whole = case
        assert whole == all(
            prefix_length(measure, threshold, size) == size for size in range(3, 9)
        )
        ltable, rtable = _table("l", left), _table("r", right)
        with use_registry() as registry:
            got = _join_rows(ltable, rtable, measure, threshold)
            candidates, verified = _funnel(registry, measure)
        assert got == _naive_rows(ltable, rtable, measure, threshold)
        # Whole records: the product already holds exact overlaps, no bound.
        assert (verified == candidates) if whole else (verified <= candidates)

        with use_index_store():
            live = LiveIndex.from_table(
                rtable, "id", "v", measure=measure, threshold=threshold
            )
            assert_live_probe_like_naive(live, left)

    def test_dense_join_verifies_a_minority_of_candidates(self):
        # 400 x 400 records of 6-10 tokens from 40: nearly every pair
        # shares a prefix token, few reach jaccard 0.6.
        rng = random.Random(29)
        vocab = [f"w{i}" for i in range(40)]

        def side(prefix):
            return _table(
                prefix, [" ".join(rng.sample(vocab, rng.randint(6, 10))) for _ in range(400)]
            )

        ltable, rtable = side("l"), side("r")
        with use_registry() as registry:
            got = _join_rows(ltable, rtable, "jaccard", 0.6)
            candidates, verified = _funnel(registry, "jaccard")
        assert got == _naive_rows(ltable, rtable, "jaccard", 0.6)
        # Candidates keep their meaning (post-window, post-tombstone); the
        # bound shows only in how few of them pay for an exact overlap.
        assert candidates == 76770
        assert verified <= 0.35 * candidates

    @pytest.mark.parametrize("measure,threshold", [("jaccard", 0.7), ("cosine", 0.8)])
    def test_bound_prunes_where_the_bitmap_saturates(self, measure, threshold):
        # 200 x 200 records of 70-100 tokens from 128: every row sets
        # nearly all 64 bits of its word, so the bitmap filter keeps
        # (nearly) every candidate and the pruning left is the bound's.
        rng = random.Random(31)
        vocab = [f"w{i}" for i in range(128)]
        left = [rng.sample(vocab, rng.randint(70, 100)) for _ in range(200)]
        right = [rng.sample(vocab, rng.randint(70, 100)) for _ in range(200)]
        for j in range(0, 200, 4):  # near-copies of every fourth left row
            row = left[j][:]
            outside = [word for word in vocab if word not in row]
            for k in rng.sample(range(len(row)), 6):
                row[k] = outside.pop(rng.randrange(len(outside)))
            right[j] = row
        ltable = _table("l", [" ".join(row) for row in left])
        rtable = _table("r", [" ".join(row) for row in right])
        with use_registry() as registry:
            got = _join_rows(ltable, rtable, measure, threshold)
            candidates, verified = _funnel(registry, measure)
            kept = registry.get("simjoin_bitmap_kept_total", join="set_sim", measure=measure).value
        assert got and got == _naive_rows(ltable, rtable, measure, threshold)
        assert kept >= 0.99 * candidates
        assert verified < kept
        assert verified < candidates

    def test_live_bound_prunes_where_the_bitmap_saturates(self, monkeypatch):
        # The same 70-100-token rows from 128 words, through the live
        # index: a base with tombstones, delta rows with tombstones, and
        # near-copies of live rows of both segments as queries.
        rng = random.Random(37)
        vocab = [f"w{i}" for i in range(128)]

        def row() -> list[str]:
            return rng.sample(vocab, rng.randint(70, 100))

        def near_copy(words: list[str]) -> str:
            words = words[:]
            outside = [word for word in vocab if word not in words]
            for k in rng.sample(range(len(words)), 6):
                words[k] = outside.pop(rng.randrange(len(outside)))
            return " ".join(words)

        base = [row() for _ in range(120)]
        fresh = [row() for _ in range(30)]
        funnel = []
        filter_verify = arrays_module.filter_verify

        def counting(*args):
            found = filter_verify(*args)
            funnel.append(found[4:])
            return found

        monkeypatch.setattr(arrays_module, "filter_verify", counting)
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(
                _table("r", [" ".join(words) for words in base]), "id", "v", threshold=0.7
            )
            live.upsert_many((f"x{i}", " ".join(words)) for i, words in enumerate(fresh))
            live.delete_many([f"r{i}" for i in range(0, 120, 5)] + ["x3", "x7"])
            queries = [near_copy(words) for words in base[1::4] + fresh[::3]]
            queries += [" ".join(row()) for _ in range(10)]
            assert_live_probe_like_naive(live, queries)
            assert sum(bool(matches) for matches, _ in live.search_batch(queries)) > 20
        kept, verified = map(sum, zip(*funnel))
        assert 0 < verified < kept


def _bitmap_oracle(ids) -> int:
    word = 0
    for token in ids:
        word |= 1 << (token & 63)
    return word


# Id sets that stress a 64-bit row word: ids colliding mod 64, empty
# rows, rows of more than 64 ids, and the mix of all three.
colliding_ids = st.builds(lambda word, bit: 64 * word + bit, st.integers(0, 3), st.integers(0, 3))
id_set = st.one_of(
    st.just(frozenset()),
    st.frozensets(colliding_ids, max_size=16),
    st.frozensets(st.integers(0, 400), min_size=65, max_size=120),
    st.frozensets(st.one_of(colliding_ids, st.integers(0, 200)), max_size=80),
)


class TestBitmapBound:
    """The row bitmap bound never cuts below the true overlap."""

    @staticmethod
    def _words(rows):
        indptr = np.cumsum([0] + [len(ids) for ids in rows])
        indices = np.array([t for ids in rows for t in sorted(ids)], dtype=np.int32)
        return arrays_module.row_bitmaps(indptr, indices)

    @given(st.lists(id_set, min_size=1, max_size=6), st.lists(id_set, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_bound_covers_the_overlap(self, left, right):
        left_words, right_words = self._words(left), self._words(right)
        assert [int(w) for w in left_words] == [_bitmap_oracle(ids) for ids in left]
        assert [int(w) for w in right_words] == [_bitmap_oracle(ids) for ids in right]
        for l_ids, l_word in zip(left, left_words):
            for r_ids, r_word in zip(right, right_words):
                differ = int(np.bitwise_count(l_word ^ r_word))
                bound = (len(l_ids) + len(r_ids) - differ) // 2
                assert bound >= len(l_ids & r_ids)
                if max(l_ids | r_ids, default=0) < 64:  # one id per bit: exact
                    assert bound == len(l_ids & r_ids)


class TestHotTokenRegime:
    """One token in most rows: candidates << token-sharing pairs.

    The hot token ranks last in the frequency ordering, so it sits in
    almost no prefix — the regime where exact overlaps must come from
    the candidate pairs alone, never from a product over every pair
    sharing a token.  ``CHUNK_TARGET_NNZ`` is shrunk so every probe
    spans several chunks.  At ``("overlap", 1)`` every prefix is the
    whole row, so the kernel reads exact overlaps off the candidate
    product instead.
    """

    MEASURES = [("jaccard", 0.5), ("cosine", 0.6), ("dice", 0.6), ("overlap", 2), ("overlap", 1)]

    @staticmethod
    def _values(n: int, seed: int) -> list[str]:
        rng = random.Random(seed)
        rare = [f"w{i}" for i in range(40)]
        return [
            " ".join((["hot"] if i % 5 < 4 else []) + rng.sample(rare, rng.randint(1, 4)))
            for i in range(n)
        ]

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        self.chunks = 0
        scores_arrays = arrays_module.scores_arrays

        def counting(*args):
            self.chunks += 1
            return scores_arrays(*args)

        monkeypatch.setattr(arrays_module, "CHUNK_TARGET_NNZ", 200)
        monkeypatch.setattr(arrays_module, "scores_arrays", counting)

    @pytest.mark.parametrize("measure,threshold", MEASURES)
    @pytest.mark.parametrize("self_join", [True, False])
    def test_join_matches_dict_and_naive(self, measure, threshold, self_join):
        # A self-join encodes one side (``pair_encoding(tc, tc)``).
        rtable = _table("r", self._values(180, seed=2))
        ltable = rtable if self_join else _table("l", self._values(150, seed=1))
        with use_registry() as registry:
            got = _join_rows(ltable, rtable, measure, threshold)
            candidates = sum(
                value
                for (name, _), value in registry.counters().items()
                if name == "simjoin_candidates_total"
            )
        assert self.chunks > 1
        assert got == _naive_rows(ltable, rtable, measure, threshold)
        # The live probe, chunked on the same rule, and the forked join.
        assert got == _live_join_rows(ltable, rtable, measure, threshold)
        assert got == _partition_join_rows(ltable, rtable, measure, threshold)
        hot_pairs = sum("hot" in v for v in ltable.column("v")) * sum(
            "hot" in v for v in rtable.column("v")
        )
        if measure != "overlap":
            assert candidates < hot_pairs / 2

    @pytest.mark.parametrize("measure,threshold", MEASURES)
    @pytest.mark.parametrize("tombstones", [True, False])
    def test_probe_batch_with_tombstones_and_foreign_tokens(
        self, measure, threshold, tombstones
    ):
        rtable = _table("r", self._values(180, seed=3))
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(
                rtable, "id", "v", measure=measure, threshold=threshold
            )
            # Two tokens the index learns through upserts (extension ids,
            # sorted to the tail of every row) and one it never sees,
            # which only inflates the true size.
            live.upsert_many([("x1", "w1 fresh1 fresh2"), ("x2", "hot fresh2")])
            if tombstones:
                live.delete_many(f"r{i}" for i in range(0, 180, 7))
            queries = [f"{value} fresh1 fresh2 foreign" for value in rtable.column("v")]
            self.chunks = 0
            assert_live_probe_like_naive(live, queries)
        assert self.chunks > 1
        assert any(matches for matches, _ in live.search_batch(queries))


class TestArrayIndexLayoutVersion:
    """A cached ``arrayindex`` of the old layout is rebuilt, never loaded."""

    def test_old_layout_pickle_in_cache_dir_is_ignored(self, tmp_path):
        import copyreg
        import pickle

        from repro.index.fingerprints import combine
        from repro.index.store import IndexStore
        from repro.perf.arrays import ArrayIndex

        class OldLayout:
            """Pickles as an ArrayIndex with a slot the class no longer
            has, like the pre-"rows2" transposed full matrix."""

            def __reduce__(self):
                state = {"key": "k", "keys": [], "sizes": None, "transposed_full": None,
                         "prefix_t": None, "n_rows": 0, "dim": 1}
                return copyreg._reconstructor, (ArrayIndex, object, None), (None, state)

        stale = pickle.dumps(OldLayout())
        with pytest.raises(AttributeError):
            pickle.loads(stale)

        rtable = _table("r", ["alpha beta", "alpha gamma", "beta gamma delta"])
        tokenizer = WhitespaceTokenizer(return_set=True)
        with use_registry() as registry:
            store = IndexStore(cache_dir=tmp_path)
            column = store.tokenized_column(rtable, "id", "v", tokenizer)
            encoding = store.pair_encoding(column, column)
            old_digest = combine("arrayindex", encoding.key, "right", "jaccard", 0.5, True)
            old_path = tmp_path / f"arrayindex-{old_digest}.pkl"
            old_path.write_bytes(stale)
            index = store.array_index(encoding, "jaccard", 0.5)
            assert len(index.indptr) - 1 == index.n_rows == 3
            assert registry.get("index_builds_total", kind="arrayindex").value == 1
            assert registry.get("index_disk_errors_total", kind="arrayindex") is None
            assert old_path.read_bytes() == stale
            # The rebuilt artifact is what a fresh store warm-loads.
            warm = IndexStore(cache_dir=tmp_path).array_index(encoding, "jaccard", 0.5)
            assert registry.get("index_builds_total", kind="arrayindex").value == 1
            assert csr_rows(warm) == csr_rows(index)
            assert prefix_postings_of(warm) == prefix_postings_of(index)
            assert warm.sizes.tolist() == index.sizes.tolist() == [2, 2, 3]

    def test_scipy_layout_cache_dir_is_rebuilt_without_scipy(self, tmp_path):
        """A cache directory whose ``encoding`` and ``arrayindex`` pickles
        hold scipy matrices (the "csr1"/"rows2" layouts) is never read: a
        fresh interpreter joining over it builds each once, gives the cold
        answer and imports no scipy."""
        import copyreg
        import pickle

        from scipy import sparse

        from repro.index.fingerprints import combine, tokenizer_fingerprint
        from repro.index.store import IndexStore, PairEncoding, _fingerprint, _tokens_digest
        from repro.perf.arrays import ArrayIndex, ArrayRecords
        from tests.test_scipy_footprint import run_fresh

        def matrix(indptr, indices, shape):
            return sparse.csr_matrix((np.ones(len(indices), np.int64), indices, indptr), shape)

        class ScipyRecords:
            """Pickles as an ArrayRecords whose rows are a scipy matrix."""

            def __init__(self, records):
                self.records = records

            def __reduce__(self):
                rows = self.records
                state = {"key": rows.key, "keys": rows.keys, "sizes": rows.sizes, "dim": rows.dim,
                         "matrix": matrix(rows.indptr, rows.indices, (len(rows.keys), rows.dim))}
                return copyreg._reconstructor, (ArrayRecords, object, None), (None, state)

        class ScipyIndex:
            """Pickles as the ArrayIndex(key, keys, matrix, prefix_t, dim) call."""

            def __init__(self, index):
                self.index = index

            def __reduce__(self):
                index = self.index
                rows = matrix(index.indptr, index.indices, (index.n_rows, index.dim))
                prefix_t = matrix(index.posting_indptr, index.postings, (index.dim, index.n_rows))
                return ArrayIndex, (index.key, index.keys, rows, prefix_t, index.dim)

        values = [f"w{i % 7} v{i % 11} u{i % 5}" for i in range(40)]
        ltable, rtable = _table("l", values), _table("r", values[::-1])
        tokenizer = WhitespaceTokenizer(return_set=True)
        args = (ltable, rtable, "id", "id", "v", "v", tokenizer, "jaccard", 0.5)
        with use_index_store():
            cold = set_sim_join(*args)
        store = IndexStore(cache_dir=tmp_path)  # writes the records and tokens
        encoding = store.join_encoding(*args[:7])
        index = store.array_index(encoding, "jaccard", 0.5)
        tok_fp = tokenizer_fingerprint(tokenizer)
        old_encoding = combine(
            "encoding", "csr1",
            *(_tokens_digest(_fingerprint(table, "id", "v"), tok_fp) for table in args[:2]),
        )
        old_index = combine("arrayindex", "rows2", old_encoding, "jaccard", 0.5)
        stale = {
            tmp_path / f"encoding-{old_encoding}.pkl": pickle.dumps(PairEncoding(
                old_encoding, encoding.universe, ScipyRecords(encoding.left),
                ScipyRecords(encoding.right),
            )),
            tmp_path / f"arrayindex-{old_index}.pkl": pickle.dumps(ScipyIndex(index)),
        }
        for path, blob in stale.items():
            path.write_bytes(blob)
        for path in tmp_path.glob("*.pkl"):
            if path.name.startswith(("encoding-", "arrayindex-")) and path not in stale:
                path.unlink()
        script = """
import json, sys
from repro.index import IndexStore, use_index_store
from repro.obs import use_registry
from repro.simjoin import set_sim_join
from repro.table import Table
from repro.text.tokenizers import WhitespaceTokenizer
values = [f"w{i % 7} v{i % 11} u{i % 5}" for i in range(40)]
ltable = Table({"id": [f"l{i}" for i in range(40)], "v": values})
rtable = Table({"id": [f"r{i}" for i in range(40)], "v": values[::-1]})
with use_registry() as registry, use_index_store(IndexStore(cache_dir=sys.argv[1])):
    out = set_sim_join(ltable, rtable, "id", "id", "v", "v",
                       WhitespaceTokenizer(return_set=True), "jaccard", 0.5)
counters = {f"{name}:{dict(labels).get('kind')}:{dict(labels).get('tier')}": value
            for (name, labels), value in registry.counters().items() if name.startswith("index_")}
print(json.dumps({"rows": [list(row.values()) for row in out.to_rows()],
                  "counters": counters, "scipy": "scipy" in sys.modules}))
"""
        result = run_fresh(script, str(tmp_path))
        assert result["rows"] == [list(row.values()) for row in cold.to_rows()]
        assert result["rows"]
        assert result["counters"] == {
            "index_builds_total:encoding:None": 1,
            "index_builds_total:arrayindex:None": 1,
            "index_reuses_total:tokens:disk": 2,
        }
        assert result["scipy"] is False
        assert all(path.read_bytes() == blob for path, blob in stale.items())

    def test_tuple_layout_encoding_in_cache_dir_is_rebuilt(self, tmp_path):
        import copyreg
        import pickle

        from repro.index.store import IndexStore, PairEncoding
        from repro.perf.arrays import ArrayRecords
        from repro.perf.tokens import TokenUniverse

        rtable = _table("r", ["alpha beta", "alpha gamma", "beta gamma delta"])
        tokenizer = WhitespaceTokenizer(return_set=True)
        scratch = IndexStore()
        column = scratch.tokenized_column(rtable, "id", "v", tokenizer)
        digest = scratch.pair_encoding(column, column).key

        class TupleLayout:
            """Pickles as a PairEncoding whose sides are lists of
            ``(row_key, ids)`` tuples, the layout before the CSR one."""

            def __reduce__(self):
                rows = [("r0", (0, 1)), ("r1", (0, 2)), ("r2", (1, 2, 3))]
                slots = {"key": digest, "universe": TokenUniverse([]), "left": rows,
                         "right": rows}
                return copyreg._reconstructor, (PairEncoding, object, None), (None, slots)

        stale = pickle.dumps(TupleLayout())
        path = tmp_path / f"encoding-{digest}.pkl"
        path.write_bytes(stale)
        with use_registry() as registry:
            store = IndexStore(cache_dir=tmp_path)
            column = store.tokenized_column(rtable, "id", "v", tokenizer)
            encoding = store.pair_encoding(column, column)
            assert isinstance(encoding.right, ArrayRecords)
            # delta is the rarest token; alpha, beta, gamma tie and go lexically.
            assert csr_rows(encoding.right) == [
                ("r0", (1, 2)), ("r1", (1, 3)), ("r2", (0, 2, 3))
            ]
            assert registry.get("index_disk_errors_total", kind="encoding").value == 1
            assert registry.get("index_builds_total", kind="encoding").value == 1
            assert path.read_bytes() != stale
            # The rebuilt artifact replaced the stale file: a fresh store
            # warm-loads it and builds nothing.
            warm = IndexStore(cache_dir=tmp_path)
            warm_column = warm.tokenized_column(rtable, "id", "v", tokenizer)
            assert csr_rows(warm.pair_encoding(warm_column, warm_column).right) == (
                csr_rows(encoding.right)
            )
            assert registry.get("index_builds_total", kind="encoding").value == 1
            assert registry.get("index_reuses_total", kind="encoding", tier="disk").value == 1


# Tokens a string-keyed encoder gets wrong first: a trailing NUL (numpy
# "U" arrays strip it), a lone surrogate, a combining mark beside its
# precomposed twin, and "İ" beside what it lowercases to.
ODD_TOKENS = ["a", "a\x00", "\x00", "\ud800", "\u00e9", "e\u0301", "\u0130", "i\u0307", "b", "zz"]
odd_value = st.one_of(
    st.just(None),
    st.just(""),
    st.just("   "),
    st.lists(st.sampled_from(ODD_TOKENS), max_size=5).map(" ".join),
)
odd_side = st.lists(odd_value, max_size=12)
encoder_case = st.sampled_from(
    [("jaccard", 0.5), ("cosine", 0.7), ("dice", 0.6), ("overlap", 1), ("overlap", 2)]
)


def scalar_chain(left, right, measure, threshold):
    """The tuple-building chain the array encoder replaced: the oracle.

    ``TokenUniverse`` over both sides' records, ``encode`` per record,
    and dict postings built one ``setdefault`` at a time, as token ->
    sorted row positions.
    """
    from repro.simjoin.filters import prefix_length

    records = [
        list(zip(side.keys, arrays_module.take_values(side.values, side.value_rows)))
        for side in (left, right)
    ]
    universe = TokenUniverse(
        side.token_sets[value] for side, side_records in zip((left, right), records)
        for _, value in side_records
    )
    encoded = [
        [(row_key, universe.encode(side.token_sets[value])) for row_key, value in side_records]
        for side, side_records in zip((left, right), records)
    ]
    postings: dict[int, list[tuple[int, int]]] = {}
    for position, (_, ids) in enumerate(encoded[1]):
        size = len(ids)
        if not size:
            continue
        for token in ids[: prefix_length(measure, threshold, size)]:
            postings.setdefault(token, []).append((size, position))
    index = {}
    for token, pairs in postings.items():
        pairs.sort()
        index[token] = ([size for size, _ in pairs], [position for _, position in pairs])
    return universe, encoded[0], encoded[1], {
        token: sorted(positions) for token, (_, positions) in index.items()
    }


def csr_rows(records) -> list[tuple]:
    """``[(key, ids)]`` of an ``ArrayRecords``/``ArrayIndex``'s rows."""
    bounds = records.indptr.tolist()
    return [
        (key, tuple(records.indices[start:stop].tolist()))
        for key, start, stop in zip(records.keys, bounds, bounds[1:])
    ]


def oracle_records(enc: list[tuple], dim: int):
    """``[(key, ids)]`` rows as an ``ArrayRecords`` (dim columns)."""
    from repro.perf.arrays import take_rows

    lengths = np.array([len(ids) for _, ids in enc], dtype=np.int64)
    indices = np.array([token for _, ids in enc for token in ids], dtype=np.int64)
    return take_rows("oracle", [key for key, _ in enc], lengths, indices, np.arange(len(enc)), dim)


def prefix_postings_of(index) -> dict[int, list[int]]:
    """Token -> row positions of an ``ArrayIndex``'s prefix postings."""
    heads = index.posting_indptr.tolist()
    return {
        token: index.postings[start:stop].tolist()
        for token, (start, stop) in enumerate(zip(heads, heads[1:]))
        if stop > start
    }


def assert_same_arrays(got, expected, *fields):
    for field in fields:
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), field


class TestArrayEncodingMatchesTheScalarChain:
    """The array-built universe, rows, postings and ``ArrayIndex`` equal
    what the tuple-building chain gives, element for element."""

    @given(odd_side, odd_side, st.booleans(), encoder_case)
    @settings(max_examples=80, deadline=None)
    def test_encoding_postings_and_array_index(self, left, right, self_pair, case):
        from repro.index.store import IndexStore
        from repro.perf.arrays import build_array_index

        measure, threshold = case
        store = IndexStore()
        tokenizer = WhitespaceTokenizer(return_set=True)
        left_tc = store.tokenized_column(_table("l", left), "id", "v", tokenizer)
        right_tc = (
            left_tc if self_pair
            else store.tokenized_column(_table("r", right), "id", "v", tokenizer)
        )
        encoding = store.pair_encoding(left_tc, right_tc)
        # A join's encoding-first lookup lands on this very artifact.
        assert store.join_encoding(
            _table("l", left), _table("l", left) if self_pair else _table("r", right),
            "id", "id", "v", "v", tokenizer,
        ) is encoding
        universe, left_enc, right_enc, index = scalar_chain(
            left_tc, right_tc, measure, threshold
        )
        n = len(universe)
        assert len(encoding.universe) == n
        assert encoding.universe.decode(range(n)) == universe.decode(range(n))
        assert csr_rows(encoding.left) == left_enc
        assert csr_rows(encoding.right) == right_enc
        for side, enc in ((encoding.left, left_enc), (encoding.right, right_enc)):
            expected = oracle_records(enc, n)
            assert_same_arrays(side, expected, "indptr", "indices")
            assert side.keys == expected.keys and side.dim == expected.dim
            assert side.sizes.dtype == expected.sizes.dtype
            assert side.sizes.tolist() == expected.sizes.tolist()
        got = store.array_index(encoding, measure, threshold)
        assert prefix_postings_of(got) == index
        expected = build_array_index("oracle", oracle_records(right_enc, n), measure, threshold)
        assert_same_arrays(got, expected, "indptr", "indices", "posting_indptr", "postings")
        assert got.keys == expected.keys and got.dim == expected.dim
        # What the token artifacts pickle: int64 row pointers, int32 ids and rows.
        for pointers, values in (
            (encoding.left.indptr, encoding.left.indices), (got.indptr, got.indices),
            (got.posting_indptr, got.postings),
        ):
            assert (pointers.dtype, values.dtype) == (np.int64, np.int32)

    @given(odd_side, encoder_case)
    @settings(max_examples=40, deadline=None)
    def test_live_index_tuples_postings_and_universe(self, values, case):
        from repro.index.store import IndexStore

        measure, threshold = case
        keys = [f"r{i}" for i in range(len(values))]
        with use_registry():
            store = IndexStore()
            live = LiveIndex.from_table(
                Table({"id": keys, "v": values}), "id", "v", measure=measure,
                threshold=threshold, store=store,
            )
        column = store.tokenized_column(
            Table({"id": keys, "v": values}), "id", "v", live.tokenizer
        )
        universe, _, right_enc, index = scalar_chain(column, column, measure, threshold)
        base = live._base
        assert base.universe.decode(range(len(universe))) == universe.decode(range(len(universe)))
        assert csr_rows(base.index) == right_enc
        assert prefix_postings_of(base.index) == index


sparse_vector = st.dictionaries(
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    max_size=8,
).map(l2_normalize)


def vector_rows(vectors):
    """Dict vectors as CSR rows with sorted bucket columns (the layout of
    a ``VectorPair`` side)."""
    from scipy import sparse

    entries = [sorted(vector.items()) for vector in vectors]
    indptr = np.cumsum([0, *map(len, entries)])
    buckets = np.array([bucket for row in entries for bucket, _ in row], dtype=np.int64)
    weights = np.array([weight for row in entries for _, weight in row], dtype=np.float64)
    return sparse.csr_matrix((weights, buckets, indptr), shape=(len(vectors), 41))


class TestCosineEquivalence:
    """pair_cosines reads the exact floats of the scalar cosine."""

    @given(st.lists(sparse_vector, max_size=12), st.lists(sparse_vector, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_scalar(self, left, right):
        import repro.index.ann as ann_module

        pairs = [(row, position) for row in range(len(left)) for position in range(len(right))]
        rows = np.array([row for row, _ in pairs], dtype=np.int64)
        positions = np.array([position for _, position in pairs], dtype=np.int64)
        expected = [cosine(left[row], right[position]) for row, position in pairs]
        for chunk in (ann_module.CHUNK_TARGET_NNZ, 2 * len(right)):  # one block, or many
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ann_module, "CHUNK_TARGET_NNZ", chunk)
                scores = ann_module.pair_cosines(
                    vector_rows(left), vector_rows(right).T.tocsr(), rows, positions
                )
            assert scores.tolist() == expected


class TestAnnEquivalence:
    """AnnIndex codes, search and pickle round trip, against brute force."""

    @given(st.lists(sparse_vector, min_size=1, max_size=15), st.sampled_from([None, 1, 3]))
    @settings(max_examples=40, deadline=None)
    def test_signature_probe_search(self, vectors, top_k):
        import pickle

        from repro.index.ann import AnnIndex

        matrix = vector_rows(vectors + [{}])
        keys = [f"r{i}" for i in range(len(vectors) + 1)]
        index = AnnIndex("k", keys, matrix, n_bands=4, band_bits=3)
        codes = index.codes(matrix).tolist()
        # A row's signature does not depend on the rows signed with it.
        assert [index.codes(matrix[[i]]).tolist()[0] for i in range(len(codes))] == codes
        expected = []
        for row, vector in enumerate(vectors):  # the empty last row finds nothing
            scored = sorted(
                (-score, position)
                for position, other in enumerate(vectors)
                if any(map(int.__eq__, codes[row], codes[position]))
                and (score := cosine(vector, other)) >= 0.2
            )
            expected += [(row, position, -score) for score, position in scored[:top_k]]
        rows, positions, scores = index.search(matrix, threshold=0.2, top_k=top_k)
        found = list(zip(rows.tolist(), positions.tolist(), scores.tolist()))
        assert found == expected
        clone = pickle.loads(pickle.dumps(index))
        assert [array.tolist() for array in clone.search(matrix, 0.2, top_k)] == [
            rows.tolist(), positions.tolist(), scores.tolist()
        ]


class TestLiveIndexEquivalence:
    """LiveIndex batched mutation/probe == one record at a time."""

    def _base(self):
        values = [" ".join(WORDS[i % 4 : i % 4 + 3]) for i in range(80)]
        return Table({"id": [f"b{i}" for i in range(80)], "v": values})

    @given(values_strategy)
    @settings(max_examples=15, deadline=None)
    def test_search_batch(self, queries):
        # Hypothesis batches are up to 25 values, with duplicates and
        # missing values among them.
        live = LiveIndex.from_table(self._base(), "id", "v", threshold=0.4)
        live.upsert("x1", "alpha beta newtoken")
        live.delete("b3")
        assert live.search_batch(queries) == [live.search(q) for q in queries]

    def test_upsert_many_and_delete_many_match_sequential(self):
        items = [
            (f"n{i}", " ".join(WORDS[i % 6 : i % 6 + 2]) if i % 7 else None)
            for i in range(40)
        ]
        one = LiveIndex.from_table(self._base(), "id", "v", threshold=0.4, name="a")
        many = LiveIndex.from_table(self._base(), "id", "v", threshold=0.4, name="b")
        indexed = sum(one.upsert(k, v) for k, v in items)
        assert many.upsert_many(items) == indexed
        assert one._delta.posting_lists == many._delta.posting_lists
        assert one._delta.indices[: one._delta.nnz].tolist() == (
            many._delta.indices[: many._delta.nnz].tolist()
        )
        removed = sum(one.delete(k) for k in ["n1", "n2", "missing", "b0"])
        assert many.delete_many(["n1", "n2", "missing", "b0"]) == removed
        probes = ["alpha beta", "gamma delta eps", "", None, "zeta"]
        assert [one.search(q) for q in probes] == [many.search(q) for q in probes]


class TestServerEquivalence:
    """A micro-batched MatchServer answers exactly like a one-by-one one."""

    def test_batched_results_equal_scalar(self):
        from repro.serve import MatchServer, ServeConfig

        corpus = Table(
            {
                "id": [f"c{i}" for i in range(90)],
                "v": [" ".join(WORDS[i % 5 : i % 5 + 3]) for i in range(90)],
            }
        )
        queries = [" ".join(WORDS[i % 7 : i % 7 + 2]) for i in range(30)] + ["", "qqq"]
        batch = _rows(
            set_sim_join(
                _table("q", queries), corpus, "id", "id", "v", "v",
                WhitespaceTokenizer(return_set=True), threshold=0.4,
            )
        )
        results = {}
        for max_batch in (1, 64):
            config = ServeConfig(
                threshold=0.4, max_batch=max_batch, top_k=None, workers=0
            )
            with use_registry() as registry, MatchServer(
                corpus, "id", "v", config=config
            ) as server:
                pending = [server.submit(q) for q in queries]
                server.process_pending()
                results[max_batch] = [
                    (p.result().candidates, p.result().n_candidates)
                    for p in pending
                ]
                # Every probe is counted: one per request, or one per batch.
                probes = registry.get("kernel_batch_calls_total", op="live_search")
                assert probes.value == (len(queries) if max_batch == 1 else 1)
            # Served answers are the batch join's rows, per query.
            served = [
                (f"q{i}", r_id, score)
                for i, (candidates, _) in enumerate(results[max_batch])
                for r_id, score in candidates
            ]
            assert sorted(served) == sorted(batch)
        assert results[64] == results[1]

    def test_server_bulk_upsert_delete(self):
        from repro.serve import MatchServer, ServeConfig

        corpus = Table({"id": ["c0"], "v": ["alpha beta"]})
        config = ServeConfig(threshold=0.3, workers=0)
        with MatchServer(corpus, "id", "v", config=config) as server:
            assert server.upsert_many([("u1", "alpha beta"), ("u2", None)]) == 1
            assert server.delete_many(["c0", "nope"]) == 1
            pending = server.submit("alpha beta")
            server.process_pending()
            assert [key for key, _ in pending.result().candidates] == ["u1"]


class TestNoKernelKnob:
    """One probe path per caller, so there is nothing to choose."""

    def test_kernel_is_nowhere_to_set(self):
        import inspect

        from repro.blocking import OverlapBlocker, VectorBlocker
        from repro.cli import build_parser
        from repro.serve import ServeConfig

        for configurable in (OverlapBlocker, VectorBlocker, LiveIndex, ServeConfig):
            assert "kernel" not in inspect.signature(configurable).parameters
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "corpus.csv", "--kernel", "auto"])


class TestShardingGate:
    """run_sharded skips the pool when the work wouldn't pay for it."""

    def test_small_sized_work_runs_inline(self):
        pids = run_sharded(
            [[1, 2, 3], [4, 5, 6]], lambda shard: os.getpid(), n_jobs=2
        )
        assert pids == [os.getpid()] * 2

    def test_large_work_forks(self):
        half = MIN_FORK_ITEMS  # two shards of this clear the gate
        pids = run_sharded(
            [range(half), range(half)], lambda shard: os.getpid(), n_jobs=2
        )
        assert any(pid != os.getpid() for pid in pids)

    def test_range_shards_report_sizes(self):
        from repro.perf.parallel import _total_items

        assert _total_items([range(10, 20), range(3)]) == 13
        assert _total_items([iter([1])]) is None

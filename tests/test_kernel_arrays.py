"""Equivalence suite: the columnar array kernels == the dict kernels.

The array backend's acceptance bar is *byte identity*: for every public
entry point that grew a ``kernel=`` knob, the ``"array"`` path must
produce exactly the rows, scores (same float bits), survivor sets, and
output ordering of the scalar ``"dict"`` path.  The hypothesis suites
below drive randomized corpora through both backends and compare the
results with plain ``==`` — which, on floats, is the bit-identity check.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.perf.arrays as arrays_module
from repro.exceptions import ConfigurationError
from repro.index.delta import LiveIndex
from repro.index.store import get_index_store
from repro.obs import use_registry
from repro.perf.arrays import (
    HAVE_ARRAYS,
    batch_cosine,
    choose_backend,
    kernel_override,
    use_kernel,
)
from repro.perf.parallel import MIN_FORK_ITEMS, run_sharded
from repro.perf.kernels import make_overlap_bound, make_scorer
from repro.simjoin import (
    naive_set_sim_join,
    probe_encoded,
    probe_encoded_batch,
    set_sim_join,
)
from repro.table.table import Table
from repro.text.tokenizers import WhitespaceTokenizer
from repro.text.vectorize import cosine, l2_normalize

pytestmark = pytest.mark.skipif(
    not HAVE_ARRAYS, reason="numpy/scipy not available"
)

# Small shared alphabet so random tables actually collide.
WORDS = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]

values_strategy = st.lists(
    st.one_of(
        st.just(None),
        st.just(""),
        st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join),
    ),
    min_size=1,
    max_size=25,
)

measure_threshold = st.one_of(
    st.tuples(st.just("jaccard"), st.sampled_from([0.3, 0.5, 0.8])),
    st.tuples(st.just("cosine"), st.sampled_from([0.4, 0.7])),
    st.tuples(st.just("dice"), st.sampled_from([0.5, 0.9])),
    st.tuples(st.just("overlap"), st.sampled_from([1, 2, 3])),
)


def _table(prefix: str, values: list) -> Table:
    return Table(
        {"id": [f"{prefix}{i}" for i in range(len(values))], "v": values}
    )


def _join_rows(ltable, rtable, measure, threshold, kernel, **kwargs):
    result = set_sim_join(
        ltable,
        rtable,
        "id",
        "id",
        "v",
        "v",
        WhitespaceTokenizer(return_set=True),
        measure=measure,
        threshold=threshold,
        kernel=kernel,
        **kwargs,
    )
    return list(zip(result.column("l_id"), result.column("r_id"), result.column("score")))


class TestJoinEquivalence:
    """set_sim_join: array backend == dict backend, bit for bit."""

    @given(values_strategy, values_strategy, measure_threshold)
    @settings(max_examples=40, deadline=None)
    def test_rows_scores_and_order_match(self, left, right, mt):
        measure, threshold = mt
        ltable, rtable = _table("l", left), _table("r", right)
        expected = _join_rows(ltable, rtable, measure, threshold, "dict")
        assert _join_rows(ltable, rtable, measure, threshold, "array") == expected

    @given(values_strategy, values_strategy, measure_threshold)
    @settings(max_examples=15, deadline=None)
    def test_without_prefix_filter(self, left, right, mt):
        measure, threshold = mt
        ltable, rtable = _table("l", left), _table("r", right)
        expected = _join_rows(
            ltable, rtable, measure, threshold, "dict", use_prefix_filter=False
        )
        got = _join_rows(
            ltable, rtable, measure, threshold, "array", use_prefix_filter=False
        )
        assert got == expected

    def test_forked_equals_serial_equals_dict(self):
        # Big enough to clear the MIN_FORK_ITEMS gate, so n_jobs=2
        # genuinely forks the array probe shards.
        left = [" ".join(WORDS[i % 3 : i % 3 + 3]) for i in range(120)]
        right = [" ".join(WORDS[i % 5 : i % 5 + 2]) for i in range(150)]
        ltable, rtable = _table("l", left), _table("r", right)
        expected = _join_rows(ltable, rtable, "jaccard", 0.4, "dict")
        serial = _join_rows(ltable, rtable, "jaccard", 0.4, "array")
        forked = _join_rows(ltable, rtable, "jaccard", 0.4, "array", n_jobs=2)
        assert serial == expected
        assert forked == expected


class TestProbeBatchEquivalence:
    """probe_encoded_batch == per-query probe_encoded, counts included."""

    def _index_parts(self, right, measure, threshold):
        store = get_index_store()
        rtable = _table("r", right)
        tokenizer = WhitespaceTokenizer(return_set=True)
        encoding = store.pair_encoding(
            store.tokenized_column(rtable, "id", "v", tokenizer),
            store.tokenized_column(rtable, "id", "v", tokenizer),
        )
        dict_index = store.prefix_index(encoding, measure, threshold).index
        array_index = store.array_index(encoding, measure, threshold)
        return encoding, dict_index, array_index

    @given(
        values_strategy,
        measure_threshold,
        st.integers(min_value=0, max_value=3),  # extra out-of-universe tokens
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_scalar(self, right, mt, oov):
        measure, threshold = mt
        encoding, dict_index, array_index = self._index_parts(
            right, measure, threshold
        )
        scorer = make_scorer(measure)
        bound = make_overlap_bound(measure, threshold)
        # Queries: each corpus record probed back at itself, with `oov`
        # phantom tokens inflating the true size (the serving contract
        # for query tokens outside the corpus universe) — plus the empty
        # query and an all-OOV query.
        queries = [(ids, len(ids) + oov) for _, ids in encoding.right]
        queries += [((), 0), ((), 2)]
        skip = {0, 2} if len(encoding.right) > 2 else None
        expected = [
            probe_encoded(
                ids, size, dict_index, encoding.right, None,
                scorer, bound, measure, threshold, skip=skip,
            )
            for ids, size in queries
        ]
        got = probe_encoded_batch(
            queries, array_index, measure, threshold, skip=skip
        )
        assert got == expected


class TestHotTokenRegime:
    """One token in most rows: candidates << token-sharing pairs.

    The hot token ranks last in the frequency ordering, so it sits in
    almost no prefix — the regime where exact overlaps must come from
    the candidate pairs alone, never from a product over every pair
    sharing a token.  ``CHUNK_TARGET_NNZ`` is shrunk so every probe
    spans several chunks.
    """

    MEASURES = [("jaccard", 0.5), ("cosine", 0.6), ("dice", 0.6), ("overlap", 2)]

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
    @pytest.mark.parametrize("use_prefix_filter", [True, False])
    def test_join_matches_dict_and_naive(self, measure, threshold, use_prefix_filter):
        ltable = _table("l", self._values(150, seed=1))
        rtable = _table("r", self._values(180, seed=2))
        with use_registry() as registry:
            got = _join_rows(
                ltable, rtable, measure, threshold, "array",
                use_prefix_filter=use_prefix_filter,
            )
            candidates = sum(
                value
                for (name, _), value in registry.counters().items()
                if name == "simjoin_candidates_total"
            )
        assert self.chunks > 1
        assert got == _join_rows(
            ltable, rtable, measure, threshold, "dict",
            use_prefix_filter=use_prefix_filter,
        )
        naive = naive_set_sim_join(
            ltable, rtable, "id", "id", "v", "v",
            WhitespaceTokenizer(return_set=True), measure, threshold,
        )
        assert got == list(
            zip(naive.column("l_id"), naive.column("r_id"), naive.column("score"))
        )
        hot_pairs = sum("hot" in v for v in ltable.column("v")) * sum(
            "hot" in v for v in rtable.column("v")
        )
        if use_prefix_filter and measure != "overlap":
            assert candidates < hot_pairs / 2

    @pytest.mark.parametrize("measure,threshold", MEASURES)
    @pytest.mark.parametrize("use_prefix_filter", [True, False])
    def test_probe_batch_with_tombstones_and_foreign_tokens(
        self, measure, threshold, use_prefix_filter
    ):
        store = get_index_store()
        rtable = _table("r", self._values(180, seed=3))
        tokenizer = WhitespaceTokenizer(return_set=True)
        column = store.tokenized_column(rtable, "id", "v", tokenizer)
        encoding = store.pair_encoding(column, column)
        dict_index = store.prefix_index(
            encoding, measure, threshold, use_prefix_filter
        ).index
        array_index = store.array_index(encoding, measure, threshold, use_prefix_filter)
        dim = array_index.dim
        # Each corpus record probed back with two live-index extension
        # ids (>= dim, sorted to the tail) and one out-of-universe token
        # that only inflates the true size.
        queries = [
            (ids + (dim + 3, dim + 7), len(ids) + 3) for _, ids in encoding.right
        ]
        skip = set(range(0, len(encoding.right), 7))
        scorer = make_scorer(measure)
        bound = make_overlap_bound(measure, threshold)
        expected = [
            probe_encoded(
                ids, size, dict_index, encoding.right, None, scorer, bound,
                measure, threshold, use_prefix_filter, skip,
            )
            for ids, size in queries
        ]
        got = probe_encoded_batch(
            queries, array_index, measure, threshold, use_prefix_filter, skip
        )
        assert self.chunks > 1
        assert got == expected
        assert any(matches for matches, _ in got)


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
            assert index.matrix.shape[0] == index.n_rows == 3
            assert registry.get("index_builds_total", kind="arrayindex").value == 1
            assert registry.get("index_disk_errors_total", kind="arrayindex") is None
            assert old_path.read_bytes() == stale
            # The rebuilt artifact is what a fresh store warm-loads.
            warm = IndexStore(cache_dir=tmp_path).array_index(encoding, "jaccard", 0.5)
            assert registry.get("index_builds_total", kind="arrayindex").value == 1
            assert (warm.matrix != index.matrix).nnz == 0
            assert warm.sizes.tolist() == index.sizes.tolist() == [2, 2, 3]


sparse_vector = st.dictionaries(
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    max_size=8,
).map(l2_normalize)


class TestCosineEquivalence:
    """batch_cosine accumulates the exact floats of the scalar cosine."""

    @given(sparse_vector, st.lists(sparse_vector, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_scalar(self, query, corpus):
        from repro.perf.arrays import SparseColumns

        scores = batch_cosine(query, SparseColumns(corpus))
        for position, vector in enumerate(corpus):
            assert float(scores[position]) == cosine(query, vector)


class TestAnnEquivalence:
    """AnnIndex batch paths == scalar paths, including after pickling."""

    @given(st.lists(sparse_vector, min_size=1, max_size=15))
    @settings(max_examples=25, deadline=None)
    def test_signature_probe_search(self, vectors):
        import pickle

        from repro.index.ann import AnnIndex

        records = [(f"r{i}", v) for i, v in enumerate(vectors)]
        index = AnnIndex("k", records, n_bands=4, band_bits=3)
        queries = vectors + [{}]
        assert index.signature_batch(queries) == [
            index.signature(v) for v in queries
        ]
        assert index.probe_batch(queries) == [index.probe(v) for v in queries]
        assert index.search_batch(queries, threshold=0.2, top_k=3) == [
            index.search(v, threshold=0.2, top_k=3) for v in queries
        ]
        clone = pickle.loads(pickle.dumps(index))
        assert clone.search_batch(queries, threshold=0.2, top_k=3) == (
            index.search_batch(queries, threshold=0.2, top_k=3)
        )


class TestLiveIndexEquivalence:
    """LiveIndex batched mutation/probe == scalar, per record."""

    def _base(self):
        values = [" ".join(WORDS[i % 4 : i % 4 + 3]) for i in range(80)]
        return Table({"id": [f"b{i}" for i in range(80)], "v": values})

    @given(values_strategy)
    @settings(max_examples=15, deadline=None)
    def test_search_batch(self, queries):
        live = LiveIndex.from_table(
            self._base(), "id", "v", threshold=0.4, kernel="array"
        )
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
        assert one._delta.postings == many._delta.postings
        removed = sum(one.delete(k) for k in ["n1", "n2", "missing", "b0"])
        assert many.delete_many(["n1", "n2", "missing", "b0"]) == removed
        probes = ["alpha beta", "gamma delta eps", "", None, "zeta"]
        assert [one.search(q) for q in probes] == [many.search(q) for q in probes]


class TestServerEquivalence:
    """A micro-batched MatchServer answers exactly like a scalar one."""

    def test_batched_results_equal_scalar(self):
        from repro.serve import MatchServer, ServeConfig

        corpus = Table(
            {
                "id": [f"c{i}" for i in range(90)],
                "v": [" ".join(WORDS[i % 5 : i % 5 + 3]) for i in range(90)],
            }
        )
        queries = [" ".join(WORDS[i % 7 : i % 7 + 2]) for i in range(30)] + ["", "qqq"]
        results = {}
        for kernel, max_batch in (("dict", 1), ("array", 16)):
            config = ServeConfig(
                threshold=0.4, kernel=kernel, max_batch=max_batch, workers=0
            )
            with MatchServer(corpus, "id", "v", config=config) as server:
                pending = [server.submit(q) for q in queries]
                server.process_pending()
                results[kernel] = [
                    (p.result().candidates, p.result().n_candidates)
                    for p in pending
                ]
        assert results["array"] == results["dict"]

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


class TestKernelResolution:
    """The kernel= knob, the auto policy, and the plan override hook."""

    def test_explicit_backends(self):
        assert choose_backend("dict", 10**6, 10**6) == "dict"
        assert choose_backend("mask", 10**6, 10**6) == "dict"
        assert choose_backend("merge", 10**6, 10**6) == "dict"
        assert choose_backend("array", 1, 1) == "array"

    def test_auto_policy_thresholds(self):
        assert choose_backend("auto", 1000, 1000) == "array"
        assert choose_backend("auto", 1, 1000) == "dict"  # tiny probe side
        assert choose_backend("auto", 1000, 8) == "dict"  # tiny corpus

    def test_use_kernel_override(self):
        assert kernel_override() is None
        with use_kernel("dict"):
            assert choose_backend("auto", 10**6, 10**6) == "dict"
            with use_kernel("array"):
                assert choose_backend("auto", 1, 1) == "array"
            assert kernel_override() == "dict"
        assert kernel_override() is None

    def test_array_requires_array_stack(self, monkeypatch):
        monkeypatch.setattr(arrays_module, "HAVE_ARRAYS", False)
        with pytest.raises(ConfigurationError):
            choose_backend("array", 100, 100)
        # "auto" degrades to dict instead of raising.
        assert choose_backend("auto", 10**6, 10**6) == "dict"

    def test_plan_assigns_kernel_hints(self):
        from repro.plan.optimizer import NodePlan

        assert NodePlan("n").kernel is None  # default: no override


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

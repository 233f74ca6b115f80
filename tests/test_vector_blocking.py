"""Tests for the vector blocking backend: embeddings, ANN index, blocker."""

import pickle

import pytest

from repro.blocking import OverlapBlocker, VectorBlocker, candset_pairs
from repro.catalog import get_catalog
from repro.exceptions import ConfigurationError
from repro.index import AnnIndex, IndexStore, set_index_store, use_index_store
from repro.table import Table
from repro.text.vectorize import (
    HashedNgramVectorizer,
    apply_idf,
    cosine,
    idf_weights,
    l2_normalize,
    sparse_dot,
    stable_bucket,
)


def pairs_of(candset):
    return set(candset_pairs(candset))


@pytest.fixture
def dirty_tables():
    """Small tables whose matches share few surface tokens (typos)."""
    ltable = Table(
        {
            "id": [1, 2, 3, 4],
            "name": ["dave smith", "john doe", "wisconsin madison", None],
        }
    )
    rtable = Table(
        {
            "id": [10, 20, 30, 40],
            "name": ["dvae smith", "jon doe", "texas austin", None],
        }
    )
    return ltable, rtable


class TestVectorize:
    def test_stable_bucket_deterministic_and_bounded(self):
        assert stable_bucket("abc", 128) == stable_bucket("abc", 128)
        assert all(0 <= stable_bucket(t, 7) < 7 for t in ("a", "bc", "def"))

    def test_embed_counts_grams(self):
        vectorizer = HashedNgramVectorizer(q=2, dim=1024, padding=False)
        vector = vectorizer.embed("aaa")  # grams: aa, aa
        assert list(vector.values()) == [2.0]

    def test_lowercase(self):
        vectorizer = HashedNgramVectorizer(q=3, dim=1024)
        assert vectorizer.embed("ABC") == vectorizer.embed("abc")

    def test_normalized_unit_norm(self):
        vectorizer = HashedNgramVectorizer(q=3, dim=1024)
        vector = vectorizer.embed_normalized("wisconsin")
        assert sum(w * w for w in vector.values()) == pytest.approx(1.0)
        assert vectorizer.embed_normalized("") == {}

    def test_cosine_kernels(self):
        a = l2_normalize({1: 1.0, 2: 1.0})
        b = l2_normalize({2: 1.0, 3: 1.0})
        assert cosine(a, a) == pytest.approx(1.0)
        assert cosine(a, b) == pytest.approx(0.5)
        assert sparse_dot(a, {}) == 0.0

    def test_idf_downweights_common_buckets(self):
        corpus = [{1: 1.0, 2: 1.0}, {1: 1.0}, {1: 1.0, 3: 1.0}]
        idf = idf_weights(corpus)
        assert idf[1] < idf[2] == idf[3]
        weighted = apply_idf({1: 2.0, 9: 1.0}, idf)
        assert weighted[9] == 1.0  # unknown buckets keep weight 1.0
        assert weighted[1] == pytest.approx(2.0 * idf[1])

    def test_spec_identity(self):
        a = HashedNgramVectorizer(q=3, dim=64)
        b = HashedNgramVectorizer(q=3, dim=64)
        c = HashedNgramVectorizer(q=4, dim=64)
        assert a.spec() == b.spec()
        assert a.spec() != c.spec()

    def test_pickle_roundtrip(self):
        vectorizer = HashedNgramVectorizer(q=2, dim=512)
        clone = pickle.loads(pickle.dumps(vectorizer))
        assert clone.embed("dave") == vectorizer.embed("dave")
        assert clone.spec() == vectorizer.spec()

    def test_bad_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            HashedNgramVectorizer(dim=0)


class TestAnnIndex:
    def _records(self, values, vectorizer=None):
        vectorizer = vectorizer or HashedNgramVectorizer(q=3, dim=4096)
        return [
            (i, vectorizer.embed_normalized(value))
            for i, value in enumerate(values)
        ]

    def test_self_probe_finds_self(self):
        records = self._records(["dave smith", "john doe", "madison"])
        index = AnnIndex("k", records, n_bands=8, band_bits=4)
        for position, (_, vector) in enumerate(records):
            assert position in index.probe(vector)

    def test_empty_vectors_never_candidates(self):
        records = self._records(["dave", ""])
        index = AnnIndex("k", records, n_bands=8, band_bits=4)
        assert index.probe({}) == []
        assert 1 not in index.probe(records[0][1])

    def test_search_scores_and_truncates(self):
        records = self._records(["dave smith", "dave smyth", "zzzz qqqq"])
        index = AnnIndex("k", records, n_bands=16, band_bits=2)
        results = index.search(records[0][1], threshold=0.1, top_k=2)
        assert [position for position, _ in results][0] == 0
        assert len(results) <= 2
        assert all(score >= 0.1 for _, score in results)
        scores = [score for _, score in results]
        assert scores == sorted(scores, reverse=True)

    def test_pickle_roundtrip_probe_identical(self):
        records = self._records(["dave smith", "dave smyth", "john doe"])
        index = AnnIndex("k", records, n_bands=16, band_bits=4, seed=3)
        clone = pickle.loads(pickle.dumps(index))
        for _, vector in records:
            assert clone.probe(vector) == index.probe(vector)
            assert clone.signature(vector) == index.signature(vector)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            AnnIndex("k", [], n_bands=0, band_bits=4)


class TestVectorBlockerConfig:
    def test_threshold_validated(self):
        with pytest.raises(ConfigurationError):
            VectorBlocker("name", threshold=0.0)
        with pytest.raises(ConfigurationError):
            VectorBlocker("name", threshold=1.5)

    def test_top_k_validated(self):
        with pytest.raises(ConfigurationError):
            VectorBlocker("name", top_k=0)

    def test_band_config_validated(self):
        with pytest.raises(ConfigurationError):
            VectorBlocker("name", n_bands=0)


class TestVectorBlockerBlocking:
    def test_finds_typo_matches(self, dirty_tables):
        ltable, rtable = dirty_tables
        with use_index_store():
            candset = VectorBlocker("name", threshold=0.2).block_tables(
                ltable, rtable, "id", "id"
            )
        result = pairs_of(candset)
        assert {(1, 10), (2, 20)} <= result
        assert (3, 30) not in result  # dissimilar strings stay blocked

    def test_missing_values_never_match(self, dirty_tables):
        ltable, rtable = dirty_tables
        with use_index_store():
            candset = VectorBlocker("name", threshold=0.1).block_tables(
                ltable, rtable, "id", "id"
            )
        for l_id, r_id in pairs_of(candset):
            assert l_id != 4 and r_id != 40

    def test_subset_of_exact_threshold_join(self, dirty_tables):
        """ANN retrieval is approximate: a subset of the exact join."""
        ltable, rtable = dirty_tables
        blocker = VectorBlocker("name", threshold=0.2, idf=False)
        with use_index_store():
            candset = blocker.block_tables(ltable, rtable, "id", "id")
        exact = {
            (l_row["id"], r_row["id"])
            for l_row in ltable.rows()
            for r_row in rtable.rows()
            if not l_row["name"] is None and not r_row["name"] is None
            and not blocker.block_tuples(l_row, r_row)
        }
        assert pairs_of(candset) <= exact

    def test_top_k_budget_respected(self, dirty_tables):
        ltable, rtable = dirty_tables
        with use_index_store():
            candset = VectorBlocker(
                "name", threshold=0.01, top_k=1, n_bands=32, band_bits=2
            ).block_tables(ltable, rtable, "id", "id")
        counts: dict = {}
        for l_id, _ in candset_pairs(candset):
            counts[l_id] = counts.get(l_id, 0) + 1
        assert counts and all(count <= 1 for count in counts.values())

    def test_block_tuples_requires_idf_free(self, dirty_tables):
        ltable, rtable = dirty_tables
        blocker = VectorBlocker("name")  # idf=True default
        with pytest.raises(NotImplementedError):
            blocker.block_tuples(
                next(ltable.rows()), next(rtable.rows())
            )

    def test_block_candset_filters_exactly(self, dirty_tables):
        ltable, rtable = dirty_tables
        with use_index_store():
            base = OverlapBlocker("name", overlap_size=1).block_tables(
                ltable, rtable, "id", "id"
            )
            filtered = VectorBlocker("name", threshold=0.2).block_candset(base)
        assert pairs_of(filtered) <= pairs_of(base)
        assert (2, 20) in pairs_of(filtered)
        meta = get_catalog().get_candset_metadata(filtered)
        assert meta.ltable is ltable

    def test_block_candset_top_k(self, dirty_tables):
        ltable, rtable = dirty_tables
        with use_index_store():
            base = OverlapBlocker("name", overlap_size=1).block_tables(
                ltable, rtable, "id", "id"
            )
            filtered = VectorBlocker(
                "name", threshold=0.01, top_k=1
            ).block_candset(base)
        counts: dict = {}
        for l_id, _ in candset_pairs(filtered):
            counts[l_id] = counts.get(l_id, 0) + 1
        assert all(count <= 1 for count in counts.values())

    def test_seeded_scenario_candidates_and_recall_pinned(self):
        """The approximate path's output, pinned on the smoke scenario of
        ``benchmarks/bench_vector_blocking.py``: a drift in either number
        (hashing, banding, top-k ties) fails here instead of going
        unnoticed in an archived benchmark file."""
        from repro.blocking import blocking_recall
        from repro.datasets import DirtinessConfig, make_em_dataset
        from repro.datasets.entities import restaurant

        dataset = make_em_dataset(
            restaurant, 150, 150, match_fraction=0.5,
            dirtiness=DirtinessConfig.heavy(), seed=13, name="vector-smoke",
        )
        blocker = VectorBlocker("name", threshold=0.2, top_k=20, n_bands=32)
        with use_index_store():
            candset = blocker.block_tables(
                dataset.ltable, dataset.rtable, dataset.l_key, dataset.r_key
            )
        assert candset.num_rows == 2768
        assert len(dataset.gold_pairs) == 75
        assert blocking_recall(candset, dataset.gold_pairs) == 57 / 75

    def test_output_attrs_copied(self, dirty_tables):
        ltable, rtable = dirty_tables
        with use_index_store():
            candset = VectorBlocker("name", threshold=0.2).block_tables(
                ltable, rtable, "id", "id",
                l_output_attrs=["name"], r_output_attrs=["name"],
            )
        assert "ltable_name" in candset.columns
        assert "rtable_name" in candset.columns


class TestVectorArtifacts:
    def test_artifact_chain_cached(self, dirty_tables):
        ltable, rtable = dirty_tables
        from repro.obs import MetricsRegistry, use_registry

        with use_registry(MetricsRegistry()) as registry:
            with use_index_store():
                blocker = VectorBlocker("name", threshold=0.2)
                blocker.block_tables(ltable, rtable, "id", "id")
                blocker.block_tables(ltable, rtable, "id", "id")
            builds = {
                dict(labels)["kind"]: value
                for (name, labels), value in registry.counters().items()
                if name == "index_builds_total"
            }
        assert builds.get("vectors") == 2  # one per side, built once each
        assert builds.get("vecpair") == 1
        assert builds.get("ann") == 1

    def test_warm_reload_byte_identity(self, dirty_tables, tmp_path):
        """Cold build == disk-tier reload, pair-for-pair and probe-for-probe."""
        ltable, rtable = dirty_tables
        blocker = VectorBlocker("name", threshold=0.2, n_bands=32)

        def run(store):
            previous = set_index_store(store)
            try:
                candset = blocker.block_tables(ltable, rtable, "id", "id")
                left = store.hashed_column(ltable, "id", "name", blocker._vectorizer)
                right = store.hashed_column(rtable, "id", "name", blocker._vectorizer)
                pair = store.vector_pair(left, right, idf=True)
                ann = store.ann_index(pair, n_bands=32)
                probes = [ann.probe(vector) for _, vector in pair.left]
                return candset_pairs(candset), probes, ann
            finally:
                set_index_store(previous)

        cold_pairs, cold_probes, cold_ann = run(IndexStore(cache_dir=tmp_path))
        warm_store = IndexStore(cache_dir=tmp_path)
        warm_pairs, warm_probes, warm_ann = run(warm_store)
        assert warm_pairs == cold_pairs
        assert warm_probes == cold_probes
        assert warm_ann.buckets == cold_ann.buckets
        assert warm_ann.keys == cold_ann.keys
        # The warm run reused the persisted artifacts instead of rebuilding.
        kinds = {row["kind"] for row in warm_store.disk_artifacts()}
        assert {"vectors", "vecpair", "ann"} <= kinds

    def test_vector_blocker_probe_metrics(self, dirty_tables):
        ltable, rtable = dirty_tables
        from repro.obs import MetricsRegistry, use_registry

        with use_registry(MetricsRegistry()) as registry:
            with use_index_store():
                VectorBlocker("name", threshold=0.2).block_tables(
                    ltable, rtable, "id", "id"
                )
            totals = {
                name: value
                for (name, _), value in registry.counters().items()
            }
            # Only rows with a non-missing blocking value are probed.
            assert totals.get("index_ann_probes_total") == 3
            assert totals.get("index_ann_candidates_total", 0) >= 2
            assert registry.histogram("index_ann_probe_seconds").count == 1

"""Tests for the vector blocking backend: embeddings, ANN index, blocker."""

import hashlib
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.blocking import OverlapBlocker, VectorBlocker, candset_pairs
from repro.catalog import get_catalog
from repro.exceptions import ConfigurationError
from repro.index import AnnIndex, IndexStore, set_index_store, use_index_store
from repro.table import Table
from repro.table.schema import is_missing
from repro.text.vectorize import (
    HashedNgramVectorizer,
    apply_idf,
    cosine,
    idf_weights,
    l2_normalize,
    sparse_dot,
    stable_bucket,
)
from tests.blocking_oracles import vector_drops


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


def csr(vectors, width=4096):
    """Dict vectors as CSR rows with sorted bucket columns (the layout of
    a VectorPair side)."""
    entries = [sorted(vector.items()) for vector in vectors]
    indptr = np.cumsum([0, *map(len, entries)])
    buckets = np.array([bucket for row in entries for bucket, _ in row], dtype=np.int64)
    weights = np.array([weight for row in entries for _, weight in row], dtype=np.float64)
    return sparse.csr_matrix((weights, buckets, indptr), shape=(len(vectors), width))


def search_pairs(index, matrix, threshold, top_k=None):
    rows, positions, scores = index.search(matrix, threshold, top_k)
    return list(zip(rows.tolist(), positions.tolist(), scores.tolist()))


class TestAnnIndex:
    def _index(self, values, **kwargs):
        vectorizer = HashedNgramVectorizer(q=3, dim=4096)
        matrix = csr([vectorizer.embed_normalized(value) for value in values])
        return matrix, AnnIndex("k", list(range(len(values))), matrix, **kwargs)

    def test_self_probe_finds_self(self):
        matrix, index = self._index(["dave smith", "john doe", "madison"], n_bands=8, band_bits=4)
        found = {(row, position) for row, position, _ in search_pairs(index, matrix, 0.5)}
        assert {(0, 0), (1, 1), (2, 2)} <= found

    def test_empty_vectors_never_candidates(self):
        matrix, index = self._index(["dave", "", "dave"], n_bands=8, band_bits=4)
        assert index.band_rows.shape == (8, 2)
        found = search_pairs(index, matrix, 1e-9)
        assert [(row, position) for row, position, _ in found] == [(0, 0), (0, 2), (2, 0), (2, 2)]

    def test_search_scores_and_truncates(self):
        matrix, index = self._index(
            ["dave smith", "dave smyth", "zzzz qqqq"], n_bands=16, band_bits=2
        )
        results = search_pairs(index, matrix[:1], threshold=0.1, top_k=2)
        assert results[0][1] == 0
        assert len(results) <= 2
        assert all(score >= 0.1 for _, _, score in results)
        scores = [score for _, _, score in results]
        assert scores == sorted(scores, reverse=True)

    def test_pickle_roundtrip_probe_identical(self):
        matrix, index = self._index(
            ["dave smith", "dave smyth", "john doe"], n_bands=16, band_bits=4, seed=3
        )
        clone = pickle.loads(pickle.dumps(index))
        assert search_pairs(clone, matrix, 0.1) == search_pairs(index, matrix, 0.1)
        assert clone.codes(matrix).tolist() == index.codes(matrix).tolist()
        assert clone.band_codes.tolist() == index.band_codes.tolist()

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            AnnIndex("k", [], csr([]), n_bands=0, band_bits=4)

    @pytest.mark.parametrize("n_bands, band_bits", [(64, 9), (1, 64), (513, 1)])
    def test_band_limits_rejected(self, n_bands, band_bits):
        with pytest.raises(ConfigurationError):
            AnnIndex("k", [], csr([]), n_bands=n_bands, band_bits=band_bits)


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

    def test_more_than_512_planes_rejected(self):
        # One plane is one bit of a bucket's blake2b digest (<= 64 bytes).
        with pytest.raises(ConfigurationError):
            VectorBlocker("name", n_bands=64, band_bits=9)
        VectorBlocker("name", n_bands=64, band_bits=8)

    def test_band_wider_than_an_int64_rejected(self):
        with pytest.raises(ConfigurationError):
            VectorBlocker("name", n_bands=1, band_bits=64)
        VectorBlocker("name", n_bands=1, band_bits=63)

    @pytest.mark.parametrize("top_k", [True, False])
    def test_bool_top_k_rejected(self, top_k):
        with pytest.raises(ConfigurationError):
            VectorBlocker("name", top_k=top_k)


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
            and not vector_drops(blocker, l_row, r_row)
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
        """Cold build == disk-tier reload, pair-for-pair and search-for-search."""
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
                return candset_pairs(candset), search_pairs(ann, pair.left.matrix, 0.01), ann
            finally:
                set_index_store(previous)

        cold_pairs, cold_found, cold_ann = run(IndexStore(cache_dir=tmp_path))
        warm_store = IndexStore(cache_dir=tmp_path)
        warm_pairs, warm_found, warm_ann = run(warm_store)
        assert warm_pairs == cold_pairs
        assert warm_found == cold_found
        assert warm_ann.band_codes.tolist() == cold_ann.band_codes.tolist()
        assert warm_ann.band_rows.tolist() == cold_ann.band_rows.tolist()
        assert warm_ann.keys == cold_ann.keys
        # The warm run reused the persisted artifacts instead of rebuilding.
        kinds = {row["kind"] for row in warm_store.disk_artifacts()}
        assert {"vectors", "vecpair", "ann"} <= kinds

    def test_vector_blocker_probe_metrics(self, dirty_tables):
        ltable, rtable = dirty_tables
        from repro.obs import MetricsRegistry, use_registry

        with use_registry(MetricsRegistry()) as registry:
            with use_index_store():
                blocker = VectorBlocker("name", threshold=0.2)
                candset = blocker.block_tables(ltable, rtable, "id", "id")
                filtered = blocker.block_candset(candset)
            totals = {
                name: value
                for (name, _), value in registry.counters().items()
            }
            # Only rows with a non-missing blocking value are probed.
            assert totals.get("index_ann_probes_total") == 3
            assert totals.get("index_ann_candidates_total") == candset.num_rows >= 2
            assert registry.histogram("index_ann_probe_seconds").count == 1
            # One batched kernel call per entry point, whatever the sizes.
            for op, rows, candidates in [
                ("ann_search", 3, candset.num_rows),
                ("vector_candset", len(set(candset.column("ltable_id"))), filtered.num_rows),
            ]:
                assert registry.get("kernel_batch_calls_total", op=op).value == 1
                assert registry.get("kernel_batch_rows_total", op=op).value == rows
                assert registry.get("kernel_batch_candidates_total", op=op).value == candidates
                assert registry.histogram("kernel_batch_seconds", op=op).count == 1
            assert registry.histogram("blocking_seconds", blocker="VectorBlocker").count == 1


def oracle_plane_signs(bucket, seed, n_planes):
    digest = hashlib.blake2b(
        f"{seed}:{bucket}".encode("utf-8"), digest_size=(n_planes + 7) // 8
    ).digest()
    bits = int.from_bytes(digest, "big")
    return [1.0 if (bits >> plane) & 1 else -1.0 for plane in range(n_planes)]


def oracle_band_keys(vector, blocker):
    """The scalar signature: each band's ``(band, code)``, none when empty."""
    if not vector:
        return []
    n_planes = blocker.n_bands * blocker.band_bits
    accumulator = [0.0] * n_planes
    for bucket in sorted(vector):
        signs = oracle_plane_signs(bucket, blocker.seed, n_planes)
        for plane in range(n_planes):
            accumulator[plane] += vector[bucket] * signs[plane]
    bits = sum(1 << plane for plane in range(n_planes) if accumulator[plane] >= 0.0)
    mask = (1 << blocker.band_bits) - 1
    return [
        (band, (bits >> (band * blocker.band_bits)) & mask) for band in range(blocker.n_bands)
    ]


def oracle_space(blocker, ltable, rtable):
    """Each side's ``[(key, normalized dict vector)]`` in record order."""
    vectorizer = HashedNgramVectorizer(q=blocker.q, dim=blocker.dim)
    sides = [
        [(key, vectorizer.embed(str(value)))
         for key, value in zip(table.column("id"), table.column("name"))
         if not is_missing(value)]
        for table in (ltable, rtable)
    ]
    idf = idf_weights(vector for side in sides for _, vector in side) if blocker.idf else None
    return [
        [(key, l2_normalize(apply_idf(vector, idf) if idf is not None else vector))
         for key, vector in side]
        for side in sides
    ]


def oracle_search(blocker, left, right):
    """Band collisions, scalar cosine, (-score, position), top_k: the
    ``(left index, right position, score)`` of every emitted pair."""
    buckets: dict = {}
    for position, (_, vector) in enumerate(right):
        for band_key in oracle_band_keys(vector, blocker):
            buckets.setdefault(band_key, set()).add(position)
    found = []
    for row, (_, vector) in enumerate(left):
        candidates = set()
        for band_key in oracle_band_keys(vector, blocker):
            candidates |= buckets.get(band_key, set())
        scored = sorted(
            (-score, position)
            for position in candidates
            if (score := cosine(vector, right[position][1])) >= blocker.threshold
        )
        found += [(row, position, -score) for score, position in scored[: blocker.top_k]]
    return found


def oracle_block_candset(blocker, candset):
    """Scalar cosine per candset row, then each left key's top_k."""
    meta = get_catalog().get_candset_metadata(candset)
    left, right = map(dict, oracle_space(blocker, meta.ltable, meta.rtable))
    scored = [
        (l_id, -score, i)
        for i, (l_id, r_id) in enumerate(candset_pairs(candset))
        if (score := cosine(left.get(l_id, {}), right.get(r_id, {}))) >= blocker.threshold
    ]
    keep = []
    for l_id in dict.fromkeys(l_id for l_id, _, _ in scored):
        ranked = sorted((score, i) for key, score, i in scored if key == l_id)
        keep += [i for _, i in ranked[: blocker.top_k]]
    return [candset_pairs(candset)[i] for i in sorted(keep)]


NAMES = ["dave smith", "dvae smith", "Dave Smith", "dave", "smith", "jon doe",
         "john doe", "madison", "x", "ab ab"]
name_value = st.one_of(st.none(), st.sampled_from(["", "  "]), st.sampled_from(NAMES))
vector_side_values = st.one_of(
    st.lists(name_value, max_size=10),
    st.lists(name_value, min_size=1, max_size=1),
    st.lists(st.sampled_from([None, "", "  "]), min_size=1, max_size=3),
)
vector_config = st.fixed_dictionaries({
    "threshold": st.sampled_from([0.05, 0.3, 0.7]),
    "top_k": st.sampled_from([None, 1, 1000]),
    "bands": st.sampled_from([(1, 1), (4, 3), (32, 1), (2, 63), (8, 63), (16, 32), (512, 1)]),
    "idf": st.booleans(),
    "dim": st.sampled_from([16, 2**18]),
    "seed": st.sampled_from([0, 7]),
})


class TestVectorBranchMatchesTheOracle:
    """Both entry points == the brute-force oracle, cold and disk-warm."""

    @given(vector_side_values, vector_side_values, vector_config, st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_block_tables_and_candset(self, left, right, config, rng):
        from repro.blocking.base import make_candset
        from repro.obs import use_registry

        n_bands, band_bits = config.pop("bands")
        blocker = VectorBlocker("name", n_bands=n_bands, band_bits=band_bits, **config)
        ltable = Table({"id": [f"l{i}" for i in range(len(left))], "name": left})
        rtable = Table({"id": [f"r{i}" for i in range(len(right))], "name": right})
        cross = [(l_id, r_id) for l_id in ltable.column("id") for r_id in rtable.column("id")]
        base = make_candset(rng.sample(cross, len(cross)), ltable, rtable, "id", "id")

        def run(store):
            with use_index_store(store):
                candset = blocker.block_tables(ltable, rtable, "id", "id")
                filtered = blocker.block_candset(base)
                pair = blocker._space(ltable, rtable, "id", "id", store)
                ann = store.ann_index(pair, n_bands=n_bands, band_bits=band_bits, seed=blocker.seed)
            arrays = ann.search(pair.left.matrix, blocker.threshold, blocker.top_k)
            found = [array.tolist() for array in arrays]
            return (candset, filtered, list(zip(*found))), pair, ann

        with tempfile.TemporaryDirectory() as cache:
            cold, pair, ann = run(IndexStore(cache_dir=cache))
            with use_registry() as registry:
                warm, _, _ = run(IndexStore(cache_dir=cache))
            builds = [v for (n, _), v in registry.counters().items() if n == "index_builds_total"]
        assert warm == cold
        assert builds == []
        candset, filtered, found = cold
        space = oracle_space(blocker, ltable, rtable)
        for side, records in zip((pair.left, pair.right), space):
            assert side.keys == [key for key, _ in records]
            matrix = side.matrix
            assert [
                list(zip(matrix.indices[a:b].tolist(), matrix.data[a:b].tolist()))
                for a, b in zip(matrix.indptr[:-1], matrix.indptr[1:])
            ] == [sorted(vector.items()) for _, vector in records]
        assert ann.codes(pair.left.matrix).tolist() == [
            [code for _, code in oracle_band_keys(vector, blocker)] for _, vector in space[0]
        ]
        assert found == oracle_search(blocker, *space)
        left_keys, right_keys = ([key for key, _ in records] for records in space)
        assert candset_pairs(candset) == [(left_keys[l], right_keys[r]) for l, r, _ in found]
        assert candset.column("_id") == list(range(candset.num_rows))
        assert candset_pairs(filtered) == oracle_block_candset(blocker, base)
        meta = get_catalog().get_candset_metadata(filtered)
        assert meta.ltable is ltable and meta.rtable is rtable
        assert filtered.column("_id") == list(range(filtered.num_rows))


class TestVectorLayoutVersion:
    """A parent-layout ``vecpair`` / ``ann`` pickle is rebuilt, never read."""

    def test_dict_layout_pickles_in_cache_dir_are_never_unpickled(self, dirty_tables, tmp_path):
        from repro.index.fingerprints import combine
        from repro.obs import use_registry

        ltable, rtable = dirty_tables
        blocker = VectorBlocker("name", threshold=0.2)
        scratch = IndexStore()
        left = scratch.hashed_column(ltable, "id", "name", blocker._vectorizer)
        right = scratch.hashed_column(rtable, "id", "name", blocker._vectorizer)
        # The digests the dict-vector layouts were filed under.
        old_pair = combine("vecpair", left.key, right.key, True)
        old_ann = combine("ann", "sig2", old_pair, "right", 16, 6, 0)
        stale = pickle.dumps(_Unreadable())
        for path in (tmp_path / f"vecpair-{old_pair}.pkl", tmp_path / f"ann-{old_ann}.pkl"):
            path.write_bytes(stale)
        with use_registry() as registry, use_index_store(IndexStore(cache_dir=tmp_path)):
            candset = blocker.block_tables(ltable, rtable, "id", "id")
        assert {(1, 10), (2, 20)} <= pairs_of(candset)
        for kind in ("vecpair", "ann"):
            assert registry.get("index_builds_total", kind=kind).value == 1
            assert registry.get("index_disk_errors_total", kind=kind) is None
        assert (tmp_path / f"ann-{old_ann}.pkl").read_bytes() == stale


def _refuse():
    raise AssertionError("a parent-layout artifact was unpickled")


class _Unreadable:
    def __reduce__(self):
        return _refuse, ()

"""Tests for the IndexStore: fingerprints, invalidation, reuse, persistence."""

import hashlib
import os
import pickle
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro

from repro.blocking import OverlapBlocker, make_candset
from repro.features import extract_feature_vecs, get_features_for_matching
from repro.index import fingerprints
from repro.index import (
    ARTIFACT_KINDS,
    IndexStore,
    StringRecords,
    TokenizedColumn,
    column_fingerprint,
    combine,
    get_index_store,
    set_index_store,
    tokenizer_fingerprint,
    use_index_store,
)
from repro.obs import use_registry
from repro.perf import parallel_map_partitions
from repro.simjoin import edit_distance_join, set_sim_join
from repro.table import Table
from repro.text.tokenizers import QgramTokenizer, WhitespaceTokenizer


def make_tables(n: int = 60, seed: int = 0) -> tuple[Table, Table]:
    rng = random.Random(seed)
    first = ["dave", "dan", "joe", "mary", "ann", "sue"]
    last = ["smith", "wilson", "jones", "miller"]

    def name() -> str:
        return f"{rng.choice(first)} {rng.choice(last)}"

    ltable = Table({"id": [f"a{i}" for i in range(n)], "v": [name() for _ in range(n)]})
    rtable = Table({"id": [f"b{i}" for i in range(n)], "v": [name() for _ in range(n)]})
    return ltable, rtable


def columns_of(table: Table) -> list[list]:
    return [table.column(name) for name in table.columns]


def counter_total(registry, name: str, **labels) -> float:
    want = tuple(sorted(labels.items()))
    return sum(
        value
        for (metric, label_set), value in registry.counters().items()
        if metric == name and all(item in label_set for item in want)
    )


def jaccard_join(ltable: Table, rtable: Table) -> Table:
    return set_sim_join(
        ltable, rtable, "id", "id", "v", "v",
        WhitespaceTokenizer(return_set=True), "jaccard", 0.4,
    )


def without_id(table: Table) -> list:
    """A join or candset's columns but its ``_id``, which a partition
    map restarts per partition."""
    return columns_of(table.project([name for name in table.columns if name != "_id"]))


# Cells a fingerprint must stream: NUL, non-BMP code points, lone
# surrogates, missing markers and numpy scalars.
CELLS = st.one_of(
    st.text(st.sampled_from(["a", " ", "\x00", "\U0001f600", "\ud800", "\udfff", "\u00e9"])),
    st.text(max_size=4),
    st.none(),
    st.just(float("nan")),
    st.integers(),
    st.floats(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
)


class TestFingerprints:
    def test_content_only_identity(self):
        # Same content under different column names -> same fingerprint:
        # this is what lets blockers' projected views hit join artifacts.
        a = Table({"id": [1, 2], "name": ["x", "y"]})
        b = Table({"pk": [1, 2], "name_blk": ["x", "y"]})
        assert column_fingerprint(a, "id", "name") == column_fingerprint(b, "pk", "name_blk")

    def test_value_change_changes_fingerprint(self):
        a = Table({"id": [1, 2], "v": ["x", "y"]})
        b = Table({"id": [1, 2], "v": ["x", "z"]})
        assert column_fingerprint(a, "id", "v") != column_fingerprint(b, "id", "v")

    def test_key_change_changes_fingerprint(self):
        a = Table({"id": [1, 2], "v": ["x", "y"]})
        b = Table({"id": [1, 3], "v": ["x", "y"]})
        assert column_fingerprint(a, "id", "v") != column_fingerprint(b, "id", "v")

    def test_type_sensitive(self):
        a = Table({"id": [1], "v": ["1"]})
        b = Table({"id": [1], "v": [1]})
        assert column_fingerprint(a, "id", "v") != column_fingerprint(b, "id", "v")

    def test_tokenizer_fingerprint_captures_params(self):
        assert tokenizer_fingerprint(QgramTokenizer(q=2)) != tokenizer_fingerprint(
            QgramTokenizer(q=3)
        )
        assert tokenizer_fingerprint(QgramTokenizer(q=3)) != tokenizer_fingerprint(
            QgramTokenizer(q=3, return_set=True)
        )
        assert tokenizer_fingerprint(WhitespaceTokenizer()) != tokenizer_fingerprint(
            QgramTokenizer()
        )
        # Two instances configured alike are the same artifact key.
        assert tokenizer_fingerprint(QgramTokenizer(q=3, return_set=True)) == (
            tokenizer_fingerprint(QgramTokenizer(q=3, return_set=True))
        )

    def test_combine_is_order_sensitive(self):
        assert combine("a", "b") != combine("b", "a")
        assert combine("a", "b") == combine("a", "b")

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(CELLS, CELLS), max_size=12), st.integers(1, 5))
    @example([], 4096)
    def test_chunked_stream_equals_the_per_value_stream(self, rows, chunk):
        """One ``update`` per chunk feeds the bytes a per-value stream
        does, so every digest and cache name is the per-value one."""
        reference = hashlib.sha256(b"column\x00")
        keys, values = [key for key, _ in rows], [value for _, value in rows]
        for column, marker in ((keys, b""), (values, b"\x00values\x00")):
            reference.update(marker)
            for part in column:
                reference.update(repr(part).encode("utf-8"))
                reference.update(b"\x00")
        table = Table({"id": keys, "v": values})
        with mock.patch.object(fingerprints, "_CHUNK", chunk):
            assert column_fingerprint(table, "id", "v") == reference.hexdigest()[:32]


class TestInvalidation:
    def test_same_content_is_a_reuse(self):
        table = Table({"id": [1, 2], "v": ["dave smith", "joe wilson"]})
        store = IndexStore()
        with use_registry() as registry:
            first = store.tokenized_column(table, "id", "v", WhitespaceTokenizer())
            again = store.tokenized_column(table, "id", "v", WhitespaceTokenizer())
            assert again is first
            assert counter_total(registry, "index_reuses_total", kind="tokens") == 1
            assert counter_total(registry, "index_builds_total", kind="tokens") == 1

    def test_mutated_table_rebuilds(self):
        table = Table({"id": [1, 2], "v": ["dave smith", "joe wilson"]})
        mutated = Table({"id": [1, 2], "v": ["dave smith", "joe wilsom"]})
        store = IndexStore()
        with use_registry() as registry:
            first = store.tokenized_column(table, "id", "v", WhitespaceTokenizer())
            second = store.tokenized_column(mutated, "id", "v", WhitespaceTokenizer())
            assert second is not first
            assert second.token_sets != first.token_sets
            assert counter_total(registry, "index_builds_total", kind="tokens") == 2
            assert counter_total(registry, "index_reuses_total", kind="tokens") == 0

    def test_changed_tokenizer_rebuilds(self):
        table = Table({"id": [1, 2], "v": ["dave smith", "joe wilson"]})
        store = IndexStore()
        with use_registry() as registry:
            first = store.tokenized_column(table, "id", "v", QgramTokenizer(q=2))
            second = store.tokenized_column(table, "id", "v", QgramTokenizer(q=3))
            assert second is not first
            assert second.token_sets != first.token_sets
            assert counter_total(registry, "index_builds_total", kind="tokens") == 2

    def test_lru_eviction_bounds_memory(self):
        store = IndexStore(max_entries=4)
        for i in range(10):
            table = Table({"id": [1], "v": [f"value {i}"]})
            store.string_records(table, "id", "v")
        assert len(store) == 4


class TestWarmColdEquivalence:
    def test_set_sim_join_warm_and_parallel_identical(self):
        ltable, rtable = make_tables()
        with use_index_store():
            cold = jaccard_join(ltable, rtable)
            warm = jaccard_join(ltable, rtable)
            warm_parallel = parallel_map_partitions(
                ltable, lambda part: jaccard_join(part, rtable), n_workers=2
            )
        assert cold.num_rows > 0
        assert columns_of(warm) == columns_of(cold)
        assert without_id(warm_parallel) == without_id(cold)

    def test_edit_distance_join_warm_identical(self):
        ltable, rtable = make_tables(40)
        with use_index_store(), use_registry() as registry:
            cold = edit_distance_join(ltable, rtable, "id", "id", "v", "v", threshold=2)
            built = {
                kind: counter_total(registry, "index_builds_total", kind=kind)
                for kind in ARTIFACT_KINDS
            }
            warm = edit_distance_join(ltable, rtable, "id", "id", "v", "v", threshold=2)
            warm_again = edit_distance_join(ltable, rtable, "id", "id", "v", "v", threshold=2)
            # The edit join rides the token chain; warm runs build nothing
            # and, looking the encoding up first, never ask for tokens.
            assert built == {
                "records": 2, "tokens": 2, "encoding": 1, "arrayindex": 1,
                "vectors": 0, "vecpair": 0, "ann": 0,
            }
            assert counter_total(registry, "index_builds_total") == 6
            for kind in ("records", "encoding", "arrayindex"):
                assert counter_total(registry, "index_reuses_total", kind=kind) >= 2
            assert counter_total(registry, "index_reuses_total", kind="tokens") == 0
        assert cold.num_rows > 0
        assert columns_of(warm) == columns_of(cold)
        assert columns_of(warm_again) == columns_of(cold)

    def test_overlap_blocker_warm_identical(self):
        ltable, rtable = make_tables()
        blocker = OverlapBlocker("v", overlap_size=1)
        with use_index_store():
            cold = blocker.block_tables(ltable, rtable, "id", "id")
            warm = blocker.block_tables(ltable, rtable, "id", "id")
        assert cold.num_rows > 0
        assert columns_of(warm) == columns_of(cold)

    def test_join_and_blocker_share_record_artifacts(self):
        # The blocker's projected working view has different column names
        # but the same content; content fingerprints make it a reuse.
        ltable, rtable = make_tables()
        with use_index_store(), use_registry() as registry:
            jaccard_join(ltable, rtable)
            OverlapBlocker("v", overlap_size=1).block_tables(ltable, rtable, "id", "id")
            assert counter_total(registry, "index_reuses_total", kind="encoding") > 0

    def test_a_repeated_falcon_run_reuses_index_artifacts(self):
        from repro.datasets import DirtinessConfig, make_em_dataset
        from repro.datasets.entities import restaurant
        from repro.falcon import FalconConfig, run_falcon
        from repro.labeling import LabelingSession, OracleLabeler

        dataset = make_em_dataset(
            restaurant, 100, 100, match_fraction=0.5,
            dirtiness=DirtinessConfig.light(), seed=7, name="index-reuse",
        )
        config = FalconConfig(
            sample_size=400, blocking_budget=40, matching_budget=120, random_state=0
        )
        with use_index_store(), use_registry() as registry:
            totals = []
            for _ in range(2):
                session = LabelingSession(OracleLabeler(dataset.gold_pairs), budget=120)
                run_falcon(dataset, session, config)
                totals.append((
                    counter_total(registry, "index_builds_total"),
                    counter_total(registry, "index_reuses_total"),
                ))
        (builds, reuses), (builds_after, reuses_after) = totals
        assert builds > 0 and builds_after == builds  # run 2 builds nothing
        assert reuses_after > reuses


class TestPersistence:
    def test_round_trip_from_disk(self, tmp_path):
        ltable, rtable = make_tables()
        with use_index_store(IndexStore(cache_dir=tmp_path)):
            cold = jaccard_join(ltable, rtable)
        # A fresh store on the same directory models a fresh process.
        with use_registry() as registry:
            with use_index_store(IndexStore(cache_dir=tmp_path)):
                warm = jaccard_join(ltable, rtable)
            assert counter_total(registry, "index_reuses_total", tier="disk") > 0
            assert counter_total(registry, "index_builds_total") == 0
        assert columns_of(warm) == columns_of(cold)

    def test_corrupt_cache_file_falls_back_to_rebuild(self, tmp_path):
        ltable, rtable = make_tables()
        with use_index_store(IndexStore(cache_dir=tmp_path)):
            cold = jaccard_join(ltable, rtable)
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"\x80\x04 this is not a pickle")
        with use_registry() as registry:
            with use_index_store(IndexStore(cache_dir=tmp_path)):
                warm = jaccard_join(ltable, rtable)
            assert counter_total(registry, "index_disk_errors_total") > 0
            assert counter_total(registry, "index_builds_total") > 0
        assert columns_of(warm) == columns_of(cold)
        # Every corrupt file was rewritten by its fallback rebuild: a
        # third run starts fully warm from disk, building nothing.
        for path in tmp_path.glob("*.pkl"):
            with path.open("rb") as handle:
                pickle.load(handle)
        with use_registry() as registry:
            with use_index_store(IndexStore(cache_dir=tmp_path)):
                jaccard_join(ltable, rtable)
            assert counter_total(registry, "index_builds_total") == 0
            assert counter_total(registry, "index_disk_errors_total") == 0

    def test_truncated_cache_file_falls_back_to_rebuild(self, tmp_path):
        table = Table({"id": [1, 2], "v": ["dave smith", "joe wilson"]})
        store = IndexStore(cache_dir=tmp_path)
        records = store.string_records(table, "id", "v")
        [path] = tmp_path.glob("records-*.pkl")
        path.write_bytes(path.read_bytes()[:-5])
        fresh = IndexStore(cache_dir=tmp_path)
        with use_registry() as registry:
            rebuilt = fresh.string_records(table, "id", "v")
            assert counter_total(registry, "index_disk_errors_total", kind="records") == 1
        assert rebuilt == records
        # The rebuild repaired the cache file in place, in the column layout.
        with path.open("rb") as handle:
            repaired = pickle.load(handle)
        assert isinstance(repaired, StringRecords)
        assert list(zip(repaired.keys, repaired.values)) == records

    def test_tuple_list_records_pickle_is_counted_and_rebuilt(self, tmp_path):
        """``records`` is two columns now.  The tuple-list layout found
        under a records name is a cache-read failure; a file an older
        tree left under its own name is never looked up."""
        table = Table({"id": [1, 2, 3], "v": ["dave smith", None, "joe wilson"]})
        tuples = [(1, "dave smith"), (3, "joe wilson")]
        IndexStore(cache_dir=tmp_path).record_columns(table, "id", "v")
        [path] = tmp_path.glob("records-*.pkl")
        stale = pickle.dumps([(1, "stale"), (3, "stale")], protocol=pickle.HIGHEST_PROTOCOL)
        path.write_bytes(stale)
        old_digest = combine("records", column_fingerprint(table, "id", "v"))
        old_name = tmp_path / f"records-{old_digest}.pkl"
        old_name.write_bytes(stale)
        with use_registry() as registry:
            rebuilt = IndexStore(cache_dir=tmp_path).record_columns(table, "id", "v")
            assert counter_total(registry, "index_disk_errors_total", kind="records") == 1
            assert counter_total(registry, "index_builds_total", kind="records") == 1
            assert counter_total(registry, "index_reuses_total", kind="records") == 0
        assert (rebuilt.keys, rebuilt.values) == ([1, 3], ["dave smith", "joe wilson"])
        assert IndexStore(cache_dir=tmp_path).string_records(table, "id", "v") == tuples
        assert old_name.read_bytes() == stale

    def test_unexpected_cache_read_error_propagates(self, tmp_path, monkeypatch):
        """Only CACHE_READ_ERRORS are swallowed as cache misses; a logic
        bug raising out of the read path must surface, uncounted."""
        import repro.index.store as store_module

        table = Table({"id": [1, 2], "v": ["dave smith", "joe wilson"]})
        store = IndexStore(cache_dir=tmp_path)
        store.string_records(table, "id", "v")

        def explode(handle):
            raise RuntimeError("not a cache-read failure")

        monkeypatch.setattr(store_module.pickle, "load", explode)
        fresh = IndexStore(cache_dir=tmp_path)
        with use_registry() as registry:
            try:
                fresh.string_records(table, "id", "v")
            except RuntimeError as error:
                assert "not a cache-read failure" in str(error)
            else:  # pragma: no cover - defends the assertion above
                raise AssertionError("RuntimeError should have propagated")
            assert counter_total(registry, "index_disk_errors_total") == 0

    def test_old_layout_token_pickle_is_counted_and_rebuilt(self, tmp_path):
        table = Table({"id": [1, 2, 3], "v": ["dave smith", "joe wilson", "dave smith"]})
        tokenizer = WhitespaceTokenizer(return_set=True)
        built = IndexStore(cache_dir=tmp_path).tokenized_column(table, "id", "v", tokenizer)
        records = IndexStore().string_records(table, "id", "v")
        [path] = tmp_path.glob("tokens-*.pkl")

        class DictOfSets:
            """Pickles as a TokenizedColumn in the dict-of-sets layout."""

            def __reduce_ex__(self, protocol):
                slots = {"key": built.key, "records": records,
                         "token_sets": {"dave smith": {"stale"}, "joe wilson": {"stale"}}}
                return object.__new__, (TokenizedColumn,), (None, slots)

        path.write_bytes(pickle.dumps(DictOfSets(), protocol=pickle.HIGHEST_PROTOCOL))
        with use_registry() as registry:
            rebuilt = IndexStore(cache_dir=tmp_path).tokenized_column(table, "id", "v", tokenizer)
            assert counter_total(registry, "index_disk_errors_total", kind="tokens") == 1
            assert counter_total(registry, "index_builds_total", kind="tokens") == 1
        assert rebuilt.token_sets == built.token_sets == {
            "dave smith": {"dave", "smith"}, "joe wilson": {"joe", "wilson"},
        }
        with path.open("rb") as handle:
            assert pickle.load(handle).token_sets == built.token_sets

    def test_flat_token_list_pickle_is_counted_and_rebuilt(self, tmp_path):
        """A pickle of the one-string-per-occurrence layout found under a
        tokens name is a cache-read failure, not served."""
        table = Table({"id": [1, 2], "v": ["dave smith", "joe wilson"]})
        tokenizer = WhitespaceTokenizer(return_set=True)
        built = IndexStore(cache_dir=tmp_path).tokenized_column(table, "id", "v", tokenizer)
        records = IndexStore().string_records(table, "id", "v")
        [path] = tmp_path.glob("tokens-*.pkl")

        class FlatTokens:
            def __reduce_ex__(self, protocol):
                slots = {"key": built.key, "records": records,
                         "value_rows": built.value_rows, "values": built.values,
                         "tokens": ["stale", "stale", "stale", "stale"],
                         "lengths": built.lengths}
                return object.__new__, (TokenizedColumn,), slots

        path.write_bytes(pickle.dumps(FlatTokens(), protocol=pickle.HIGHEST_PROTOCOL))
        with use_registry() as registry:
            rebuilt = IndexStore(cache_dir=tmp_path).tokenized_column(table, "id", "v", tokenizer)
            assert counter_total(registry, "index_disk_errors_total", kind="tokens") == 1
            assert counter_total(registry, "index_builds_total", kind="tokens") == 1
        assert rebuilt.token_sets == {
            "dave smith": {"dave", "smith"}, "joe wilson": {"joe", "wilson"},
        }

    def test_token_pickle_bytes_do_not_follow_the_hash_seed(self):
        script = (
            "import hashlib, pickle\n"
            "from repro.index import IndexStore\n"
            "from repro.table import Table\n"
            "from repro.text.tokenizers import QgramTokenizer, WhitespaceTokenizer\n"
            "table = Table({'id': list(range(40)), 'v': [f'w{i % 7} v{i % 11} u{i} w{i % 7}'"
            " for i in range(40)]})\n"
            "for tokenizer in (WhitespaceTokenizer(return_set=True), QgramTokenizer(q=3)):\n"
            "    column = IndexStore().tokenized_column(table, 'id', 'v', tokenizer)\n"
            "    blob = pickle.dumps(column, protocol=pickle.HIGHEST_PROTOCOL)\n"
            "    print(hashlib.sha256(blob).hexdigest())\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        digests = [
            subprocess.run(
                [sys.executable, "-c", script], check=True, capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            ).stdout.split()
            for seed in ("0", "5")
        ]
        assert len(digests[0]) == 2
        assert digests[0] == digests[1]

    def test_disk_artifacts_and_clear(self, tmp_path):
        table = Table({"id": [1, 2], "v": ["dave smith", "joe wilson"]})
        store = IndexStore(cache_dir=tmp_path)
        store.tokenized_column(table, "id", "v", WhitespaceTokenizer(return_set=True))
        rows = store.disk_artifacts()
        assert {row["kind"] for row in rows} == {"records", "tokens"}
        assert all(row["bytes"] > 0 for row in rows)
        store.clear(disk=True)
        assert len(store) == 0
        assert store.disk_artifacts() == []


class TestStoreSpans:
    def test_each_artifact_request_is_a_span_labelled_with_its_tier(self):
        from repro.index import LiveIndex
        from repro.obs import trace_span, use_tracer

        table = Table({"id": [1, 2, 3], "v": ["dave smith", "joe wilson", "dave jones"]})
        store = IndexStore()

        def gets(tracer, parent: str) -> list[tuple[str, str]]:
            [outer] = [span for span in tracer.spans if span.name == parent]
            requests = [span for span in tracer.spans if span.name == "index_get"]
            by_id = {span.span_id: span for span in requests}
            # A nested build's request parents on the request that needed it.
            assert all(
                span.parent_id == outer.span_id or span.parent_id in by_id
                for span in requests
            )
            return [(span.labels["kind"], span.labels["tier"]) for span in requests]

        with use_registry() as registry, use_tracer() as tracer:
            with trace_span("cold"):
                LiveIndex.from_table(table, "id", "v", threshold=0.4, store=store)
            # The store's chain through the arrayindex the live probe reads
            # (spans end inner first; the self-pair asks twice for its sides).
            assert gets(tracer, "cold") == [
                ("records", "build"), ("records", "memory"), ("tokens", "build"),
                ("tokens", "memory"), ("encoding", "build"), ("arrayindex", "build"),
            ]
            for kind in ("records", "tokens", "encoding", "arrayindex"):
                assert counter_total(registry, "index_builds_total", kind=kind) == 1
        with use_registry() as registry, use_tracer() as tracer:
            with trace_span("warm"):
                LiveIndex.from_table(table, "id", "v", threshold=0.4, store=store)
            assert gets(tracer, "warm") == [
                ("records", "memory"), ("encoding", "memory"), ("arrayindex", "memory"),
            ]
            assert counter_total(registry, "index_builds_total") == 0
            assert counter_total(registry, "index_reuses_total", tier="memory") == 3

    def test_a_disk_warm_join_fetches_only_what_it_probes(self, tmp_path):
        from repro.obs import use_tracer

        ltable, rtable = make_tables()
        with use_index_store(IndexStore(cache_dir=tmp_path)):
            cold = jaccard_join(ltable, rtable)
        with use_registry(), use_tracer() as tracer:
            with use_index_store(IndexStore(cache_dir=tmp_path)):
                warm = jaccard_join(ltable, rtable)
        assert [
            (span.labels["kind"], span.labels["tier"])
            for span in tracer.spans if span.name == "index_get"
        ] == [("encoding", "disk"), ("arrayindex", "disk")]
        assert warm == cold

    def test_disk_warm_edit_join_and_live_index_read_no_tokens(self, tmp_path):
        """Both look their encoding up as a join does: a disk-warm run reads
        ``records``, ``encoding`` and ``arrayindex``, never ``tokens``."""
        from repro.index import LiveIndex

        ltable, rtable = make_tables()
        queries = ltable.column("v")[:12]

        def run():
            with use_index_store(IndexStore(cache_dir=tmp_path)) as store:
                edit = edit_distance_join(ltable, rtable, "id", "id", "v", "v", threshold=2)
                live = LiveIndex.from_table(rtable, "id", "v", threshold=0.4, store=store)
                return edit, [matches for matches, _ in live.search_batch(queries)]

        cold = run()
        with use_registry() as registry:
            warm = run()
            assert counter_total(registry, "index_builds_total") == 0
            assert counter_total(registry, "index_reuses_total", kind="tokens") == 0
            for kind in ("records", "encoding", "arrayindex"):
                assert counter_total(registry, "index_reuses_total", kind=kind, tier="disk") == 2
        assert warm == cold
        assert cold[0].num_rows and any(cold[1])

    def test_a_disk_hit_is_labelled_disk(self, tmp_path):
        from repro.obs import use_tracer

        table = Table({"id": [1, 2], "v": ["dave smith", "joe wilson"]})
        IndexStore(cache_dir=tmp_path).string_records(table, "id", "v")
        with use_registry(), use_tracer() as tracer:
            IndexStore(cache_dir=tmp_path).string_records(table, "id", "v")
        [span] = tracer.spans
        assert span.labels == {"kind": "records", "tier": "disk"}


class TestDefaultStore:
    def test_use_index_store_scopes_the_default(self):
        outer = get_index_store()
        with use_index_store() as scoped:
            assert get_index_store() is scoped
            assert scoped is not outer
        assert get_index_store() is outer

    def test_scopes_belong_to_their_threads(self):
        """Two threads' scopes overlap (A enters, B enters, A leaves, B
        leaves): each sees its own store, and the default is the same
        object afterwards."""
        import threading

        outer = get_index_store()
        steps = threading.Barrier(2)
        seen = {}

        def scope(name, first):
            if not first:
                steps.wait()
            with use_index_store() as mine:
                steps.wait()
                steps.wait()
                seen[name] = get_index_store() is mine and get_index_store() is not outer
            if first:
                steps.wait()

        threads = [threading.Thread(target=scope, args=(n, n == "a")) for n in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == {"a": True, "b": True}
        assert get_index_store() is outer

    def test_set_index_store_inside_a_scope_is_undone_by_its_exit(self, tmp_path):
        outer = get_index_store()
        with use_index_store():
            cached = IndexStore(cache_dir=tmp_path)
            set_index_store(cached)
            assert get_index_store() is cached
        assert get_index_store() is outer

    def test_env_var_sets_disk_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_INDEX_CACHE", str(tmp_path))
        previous = set_index_store(None)
        try:
            assert get_index_store().cache_dir == tmp_path
        finally:
            set_index_store(previous)


# Strings, every missing marker, values that are ``==`` and hash alike
# yet read differently (1 / 1.0 / True, 0.0 / -0.0, two Decimals, two
# tuples), cells no dict can key (a list, a tuple holding one), one
# string wider than a Levenshtein lane, strings ``float()`` reads as
# NaN / inf, an int too large for a float, a value unequal to itself, a
# case-only variant, and a number beside its text.
VALUE_POOL = [
    "dave smith", "dan smith", "joe wilson", "", None, "madison wi", "   ", float("nan"),
    1, 1.0, True, "1", 0.0, -0.0, 3.5, "\u0130stanbul", ["x", "y"], ("x",), (1,), (1.0,),
    "a" * 70, Decimal("1.0"), Decimal("1.00"), (["x"],), "dave,smith",
    "nan", "inf", "-inf", 10**400, Decimal("NaN"), "DAVE SMITH", "1.5", 1.5,
]


def every_generated_feature():
    """Each feature kind ``get_features_for_matching`` generates, over
    attribute ``v``, plus blackboxes with no batch form."""
    from repro.features import FeatureTable, make_blackbox_feature, make_token_feature
    from repro.text.sim import Cosine, Dice, Jaccard, OverlapCoefficient
    from repro.text.tokenizers import DelimiterTokenizer

    templates = [
        ["WI", "CA", "MN"],  # short string
        ["dave smith", "joe wilson", "dan jones"],  # medium string
        [" ".join(f"w{i}" for i in range(12))] * 3,  # long string
        [1.5, 2.5, 3.5],  # numeric
    ]
    features = {}
    for values in templates:
        table = Table({"id": [0, 1, 2], "v": values})
        for feature in get_features_for_matching(table, table):
            features.setdefault(feature.name, feature)
    assert {f.measure_name for f in features.values()} >= {
        "jaccard", "cosine", "dice", "overlap_coeff", "lev_sim", "jaro_winkler",
        "monge_elkan", "exact_match", "abs_norm", "rel_diff",
    }
    # A catalogue tokenizer whose ``spec()`` holds a list (unhashable).
    delimiters = DelimiterTokenizer({",", " "})
    for measure in (Jaccard(), Cosine(), Dice(), OverlapCoefficient()):
        name = f"delim_{type(measure).__name__.lower()}"
        features[name] = make_token_feature(name, "v", "v", delimiters, measure, name)
    features["none"] = make_blackbox_feature("none", "v", "v", lambda a, b: None)
    features["types"] = make_blackbox_feature(
        "types", "v", "v", lambda a, b: f"{type(a).__name__}/{type(b).__name__}"
    )
    return FeatureTable(list(features.values()))


def assert_equals_per_pair(fv, features, ltable, rtable, pairs):
    """The oracle: per-pair ``feature(l_value, r_value)``, nothing else."""
    l_index = ltable.index_by("id")
    r_index = rtable.index_by("id")
    for feature in features:
        expected = [
            feature(l_index[l_id][feature.l_attr], r_index[r_id][feature.r_attr])
            for l_id, r_id in pairs
        ]
        # NaN != NaN, so compare via repr — which also tells 1.0 from
        # np.float64(1.0), nan from None, and 0.0 from -0.0.
        assert [repr(v) for v in fv.column(feature.name)] == [repr(v) for v in expected]


def pool_tables(l_choices, r_choices):
    ltable = Table(
        {"id": [f"a{i}" for i in range(len(l_choices))], "v": [VALUE_POOL[i] for i in l_choices]}
    )
    rtable = Table(
        {"id": [f"b{i}" for i in range(len(r_choices))], "v": [VALUE_POOL[i] for i in r_choices]}
    )
    return ltable, rtable


class TestExtractionDedupProperty:
    @given(
        l_choices=st.lists(st.integers(0, len(VALUE_POOL) - 1), min_size=1, max_size=8),
        r_choices=st.lists(st.integers(0, len(VALUE_POOL) - 1), min_size=1, max_size=8),
        pair_seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_global_dedup_equals_naive(self, l_choices, r_choices, pair_seed):
        from repro.catalog import Catalog

        ltable, rtable = pool_tables(l_choices, r_choices)
        rng = random.Random(pair_seed)
        pairs = [
            (l_id, r_id)
            for l_id in ltable.column("id")
            for r_id in rtable.column("id")
            if rng.random() < 0.7
        ]
        pairs += pairs[: rng.randrange(3)]  # duplicate candset rows
        catalog = Catalog()
        candset = make_candset(pairs, ltable, rtable, "id", "id", catalog=catalog)
        features = every_generated_feature()
        fv = extract_feature_vecs(candset, features, catalog=catalog)
        assert fv.num_rows == len(pairs)
        assert_equals_per_pair(fv, features, ltable, rtable, pairs)

    def test_every_generated_feature_on_a_blocked_dataset(self):
        """The guide path's shape: a dirty product dataset, overlap
        blocking, the generated feature table; every feature, every row."""
        from repro.datasets import DirtinessConfig, make_em_dataset
        from repro.datasets.entities import product

        ds = make_em_dataset(product, 150, 150, dirtiness=DirtinessConfig.heavy(), seed=3)
        candset = OverlapBlocker("title", overlap_size=1).block_tables(
            ds.ltable, ds.rtable, ds.l_key, ds.r_key
        )
        assert candset.num_rows > 1000
        features = get_features_for_matching(ds.ltable, ds.rtable, ds.l_key, ds.r_key)
        fv = extract_feature_vecs(candset, features)
        l_index, r_index = ds.ltable.index_by(ds.l_key), ds.rtable.index_by(ds.r_key)
        # Missing cells are part of the shape (NaN is the one float != itself).
        assert any(value != value for name in features.names() for value in fv.column(name))
        for feature in features:
            column = fv.column(feature.name)
            for l_id, r_id, value in zip(candset["ltable_id"], candset["rtable_id"], column):
                expected = feature(l_index[l_id][feature.l_attr], r_index[r_id][feature.r_attr])
                assert repr(value) == repr(expected)

    def test_two_worker_partition_map_equals_whole_table(self):
        """A candset big enough to fork, mapped in partitions: each keeps
        its catalog entry, and the concatenation is the whole call's table,
        value for value."""
        rng = random.Random(7)
        ltable, rtable = pool_tables(
            [rng.randrange(len(VALUE_POOL)) for _ in range(40)],
            [rng.randrange(len(VALUE_POOL)) for _ in range(40)],
        )
        pairs = [(l_id, r_id) for l_id in ltable.column("id") for r_id in rtable.column("id")]
        candset = make_candset(pairs, ltable, rtable, "id", "id")
        features = every_generated_feature()
        whole = extract_feature_vecs(candset, features)
        mapped = parallel_map_partitions(
            candset, lambda part: extract_feature_vecs(part, features), n_workers=2
        )
        assert_equals_per_pair(whole, features, ltable, rtable, pairs)
        assert mapped.columns == whole.columns
        assert [[repr(v) for v in column] for column in columns_of(mapped)] == [
            [repr(v) for v in column] for column in columns_of(whole)
        ]

    def test_equal_values_of_different_types_are_not_merged(self):
        """``1``, ``1.0`` and ``True`` are equal and hash alike; ``str``
        tells them apart, and so must the dedup (it did not)."""
        from repro.catalog import Catalog

        ltable = Table({"id": ["a1", "a2", "a3", "a4", "a5"], "v": [1, 1.0, True, 0.0, -0.0]})
        rtable = Table({"id": ["b1", "b2"], "v": ["1", "0.0"]})
        pairs = [("a1", "b1"), ("a2", "b1"), ("a3", "b1"), ("a4", "b2"), ("a5", "b2")]
        catalog = Catalog()
        candset = make_candset(pairs, ltable, rtable, "id", "id", catalog=catalog)
        features = every_generated_feature().subset(["v_lev_sim"])
        fv = extract_feature_vecs(candset, features, catalog=catalog)
        assert fv.column("v_lev_sim") == [1.0, 1.0 - 2 / 3, 0.0, 1.0, 0.75]

    def test_empty_candset(self):
        from repro.catalog import Catalog

        ltable, rtable = pool_tables([0, 1], [2])
        catalog = Catalog()
        candset = make_candset([], ltable, rtable, "id", "id", catalog=catalog)
        features = every_generated_feature()
        fv = extract_feature_vecs(candset, features, catalog=catalog)
        assert fv.num_rows == 0
        assert fv.columns == ["_id", "ltable_id", "rtable_id", *features.names()]

    def test_unhashable_values_fall_back_to_per_occurrence(self):
        from repro.catalog import Catalog
        from repro.features import FeatureTable, make_blackbox_feature

        ltable = Table({"id": ["a1", "a2"], "v": [["x", "y"], ["x", "y"]]})
        rtable = Table({"id": ["b1"], "v": [["x"]]})
        catalog = Catalog()
        pairs = [("a1", "b1"), ("a2", "b1"), ("a1", "b1")]
        candset = make_candset(pairs, ltable, rtable, "id", "id", catalog=catalog)
        calls = []

        def overlap(left, right):
            calls.append((left, right))
            return float(len(set(left) & set(right)))

        table = FeatureTable([make_blackbox_feature("overlap", "v", "v", overlap)])
        fallbacks = "feature_scalar_fallback_pairs_total"
        with use_registry() as registry:
            fv = extract_feature_vecs(candset, table, catalog=catalog)
            # Each scalar evaluation counts once, under its reason.
            assert counter_total(registry, fallbacks, reason="unhashable") == 2
            assert counter_total(registry, fallbacks) == 2
        assert fv.column("overlap") == [1.0, 1.0, 1.0]
        # Equal lists in different base rows are not merged; the repeated
        # candset row is.
        assert len(calls) == 2

    def test_hashable_cells_of_any_type_merge_by_value(self):
        """Equal tuples in different base rows are one evaluation, counted
        as ``no_batch_form``; ``Decimal("1.0") == Decimal("1.00")`` print
        differently and stay apart."""
        from repro.catalog import Catalog
        from repro.features import FeatureTable, make_blackbox_feature

        ltable = Table(
            {"id": ["a1", "a2", "a3", "a4"], "v": [("x",), ("x",), Decimal("1.0"), Decimal("1.00")]}
        )
        rtable = Table({"id": ["b1"], "v": ["x"]})
        catalog = Catalog()
        pairs = [(l_id, "b1") for l_id in ltable.column("id")]
        candset = make_candset(pairs, ltable, rtable, "id", "id", catalog=catalog)
        calls = []

        def shown(left, right):
            calls.append(left)
            return float(len(str(left)))

        table = FeatureTable([make_blackbox_feature("shown", "v", "v", shown)])
        fallbacks = "feature_scalar_fallback_pairs_total"
        with use_registry() as registry:
            fv = extract_feature_vecs(candset, table, catalog=catalog)
            assert counter_total(registry, fallbacks, reason="no_batch_form") == 3
            assert counter_total(registry, fallbacks, reason="unhashable") == 0
        assert fv.column("shown") == [6.0, 6.0, 3.0, 4.0]
        assert [str(value) for value in calls] == ["('x',)", "1.0", "1.00"]

    def test_long_string_fallbacks_are_counted_once_per_pair(self):
        from repro.catalog import Catalog

        ltable = Table({"id": ["a1", "a2"], "v": ["a" * 70, "short"]})
        rtable = Table({"id": ["b1", "b2"], "v": ["b" + "a" * 69, "a" * 64]})
        catalog = Catalog()
        pairs = [(l_id, r_id) for l_id in ("a1", "a2") for r_id in ("b1", "b2")]
        candset = make_candset(pairs, ltable, rtable, "id", "id", catalog=catalog)
        features = every_generated_feature().subset(["v_lev_sim", "v_jaro_winkler"])
        fallbacks = "feature_scalar_fallback_pairs_total"
        with use_registry() as registry:
            extract_feature_vecs(candset, features, catalog=catalog)
            # Levenshtein's pattern is the shorter side: only (a1, b1) has
            # one past 64 characters.  Jaro-Winkler's is the right side:
            # (a1, b1) and (a2, b1).
            assert counter_total(registry, fallbacks, reason="long_string") == 3
            assert counter_total(registry, fallbacks) == 3
            assert counter_total(registry, "feature_batch_pairs_total") == 8

    def test_exact_and_numeric_features_score_in_batch_over_a_traced_value_view(self):
        """Each attribute pair's view build is its own ``feature_values``
        span beside its ``feature_group``; exact and numeric features have
        batch forms, and only an exact pair with an unhashable cell runs
        the scalar function."""
        from repro.catalog import Catalog
        from repro.features import FeatureTable, make_exact_feature, make_numeric_feature
        from repro.obs import use_tracer
        from repro.text.sim import abs_norm, rel_diff

        ltable = Table(
            {"id": ["a1", "a2", "a3"], "name": ["Dave", "dave", None], "price": [1.5, "1.5", 10**400]}
        )
        rtable = Table({"id": ["b1", "b2"], "name": ["dave", ["x"]], "price": [1.5, "nan"]})
        catalog = Catalog()
        pairs = [(l_id, r_id) for l_id in ("a1", "a2", "a3") for r_id in ("b1", "b2")]
        candset = make_candset(pairs, ltable, rtable, "id", "id", catalog=catalog)
        features = FeatureTable(
            [
                make_exact_feature("name_exact", "name", "name"),
                make_exact_feature("price_exact", "price", "price"),
                make_numeric_feature("price_abs_norm", "price", "price", abs_norm, "abs_norm"),
                make_numeric_feature("price_rel_diff", "price", "price", rel_diff, "rel_diff"),
            ]
        )
        fallbacks = "feature_scalar_fallback_pairs_total"
        with use_registry() as registry, use_tracer() as tracer:
            fv = extract_feature_vecs(candset, features, catalog=catalog)
            assert counter_total(registry, fallbacks, reason="no_batch_form") == 0
            assert counter_total(registry, fallbacks, reason="unhashable") == 3
            assert counter_total(registry, "feature_batch_pairs_total", measure="exact_match") == 12
            assert counter_total(registry, "feature_batch_pairs_total", measure="abs_norm") == 6
        assert_equals_per_pair(fv, features, ltable, rtable, pairs)
        assert fv.column("name_exact")[:2] == [1.0, 0.0]
        spans = {(span.name, span.labels["group"]): span.labels for span in tracer.spans}
        for group in ("name|name", "price|price"):
            assert spans["feature_values", group]["left_values"] == "3"
            assert spans["feature_values", group]["right_values"] == "2"
            assert spans["feature_group", group]["distinct_pairs"] == "6"

    def test_one_object_unequal_to_itself_on_both_sides(self):
        from repro.catalog import Catalog

        nan = Decimal("NaN")
        ltable = Table({"id": ["a1", "a2"], "v": [nan, "nan"]})
        rtable = Table({"id": ["b1"], "v": [nan]})
        catalog = Catalog()
        pairs = [("a1", "b1"), ("a2", "b1")]
        candset = make_candset(pairs, ltable, rtable, "id", "id", catalog=catalog)
        features = every_generated_feature()
        fv = extract_feature_vecs(candset, features, catalog=catalog)
        assert_equals_per_pair(fv, features, ltable, rtable, pairs)
        assert fv.column("v_exact") == [0.0, 0.0]
        assert fv.column("v_lev_sim") == [1.0, 1.0]

    def test_batch_form_of_the_wrong_length_is_rejected(self):
        import numpy as np
        import pytest

        from repro.catalog import Catalog
        from repro.exceptions import ConfigurationError
        from repro.features import FeatureTable, make_blackbox_feature

        ltable, rtable = pool_tables([0, 1], [2])
        catalog = Catalog()
        pairs = [("a0", "b0"), ("a1", "b0")]
        candset = make_candset(pairs, ltable, rtable, "id", "id", catalog=catalog)
        feature = make_blackbox_feature("f", "v", "v", lambda a, b: 0.0)
        feature.batch = lambda lefts, rights: np.zeros(len(lefts) + 1)
        with pytest.raises(ConfigurationError, match="batch form"):
            extract_feature_vecs(candset, FeatureTable([feature]), catalog=catalog)

    def test_dedup_counters(self):
        from repro.catalog import Catalog

        ltable = Table({"id": ["a1", "a2"], "v": ["dave smith", "dave smith"]})
        rtable = Table({"id": ["b1"], "v": ["dave smith"]})
        catalog = Catalog()
        candset = make_candset(
            [("a1", "b1"), ("a2", "b1")], ltable, rtable, "id", "id", catalog=catalog
        )
        features = get_features_for_matching(ltable, rtable, "id", "id")
        with use_registry() as registry:
            fv = extract_feature_vecs(candset, features, catalog=catalog)
            # Both rows carry identical (l_value, r_value) pairs: each
            # feature evaluates once and the second occurrence is a hit.
            assert counter_total(registry, "feature_cache_misses_total") == len(features)
            assert counter_total(registry, "feature_cache_hits_total") == len(features)
        assert fv.num_rows == 2


class TestThreadSafety:
    def test_memory_tier_concurrent_probes(self):
        """8 threads hammering one store: no lost artifacts, bounded LRU.

        Before the memory tier was locked, concurrent ``_get``/
        ``_remember`` calls could corrupt the ``OrderedDict`` eviction
        order or crash in ``move_to_end``/``popitem``.
        """
        import threading

        store = IndexStore(max_entries=8)
        digests = [f"digest-{i}" for i in range(32)]
        expected = {digest: [("row", digest)] for digest in digests}
        errors: list[BaseException] = []

        def hammer(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(400):
                    digest = rng.choice(digests)
                    artifact = store._get(
                        "records", digest, lambda d=digest: [("row", d)],
                        persist=False,
                    )
                    # A lost update would serve another digest's artifact.
                    assert artifact == expected[digest]
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with use_registry():
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors, errors
        assert len(store) <= 8

    def test_concurrent_misses_build_exactly_once(self):
        """8 threads missing the same digest: the per-digest build lock
        elects one builder; everyone else takes the result from the
        memory tier.  One build, one ``index_builds_total`` increment,
        one shared artifact object."""
        import threading

        store = IndexStore(max_entries=4)
        barrier = threading.Barrier(8)
        results: list = []
        build_calls: list[int] = []

        def build():
            build_calls.append(1)
            return ["artifact"]

        def probe() -> None:
            barrier.wait()
            results.append(store._get("records", "same-digest", build, persist=False))

        with use_registry() as registry:
            threads = [threading.Thread(target=probe) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert counter_total(registry, "index_builds_total", kind="records") == 1
            assert counter_total(registry, "index_reuses_total", kind="records") == 7
        assert len(build_calls) == 1
        assert all(result is results[0] for result in results)
        assert len(store) == 1
        # The build-lock table does not leak entries.
        assert store._building == {}

    def test_build_lock_does_not_serialize_distinct_digests(self):
        """Builds of unrelated artifacts overlap: a slow build of one
        digest must not make another digest's build wait behind it."""
        import threading

        store = IndexStore(max_entries=8)
        slow_started = threading.Event()
        release_slow = threading.Event()
        fast_done = threading.Event()

        def slow_build():
            slow_started.set()
            release_slow.wait(5)
            return ["slow"]

        def fast_build():
            fast_done.set()
            return ["fast"]

        with use_registry():
            slow_thread = threading.Thread(
                target=store._get, args=("records", "slow-digest", slow_build),
                kwargs={"persist": False},
            )
            slow_thread.start()
            assert slow_started.wait(5)
            fast_thread = threading.Thread(
                target=store._get, args=("records", "fast-digest", fast_build),
                kwargs={"persist": False},
            )
            fast_thread.start()
            # The fast build completes while the slow one is still held.
            assert fast_done.wait(5)
            release_slow.set()
            slow_thread.join(5)
            fast_thread.join(5)
        assert len(store) == 2

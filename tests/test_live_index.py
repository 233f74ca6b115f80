"""Tests for repro.index.delta: the base + delta LiveIndex.

The load-bearing assertion is the incremental == rebuilt-from-scratch
contract: after ANY interleaving of upserts, deletes, and compactions, a
live index answers every probe — point searches and whole-table joins,
serial and sharded-parallel — with exactly the candidates and float
scores of an index rebuilt from scratch over its current records.  The
hypothesis property test below drives randomized interleavings, the
mirror of the store's warm==cold test.
"""

import gc
import pickle
import random
import sys
import threading
import tracemalloc
import weakref
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index.delta as delta_module
import repro.perf.arrays as arrays_module
from repro.blocking import OverlapBlocker
from repro.exceptions import ConfigurationError, KeyConstraintError, ServiceError
from repro.index import IndexStore, LiveIndex, list_live_indexes, use_index_store
from repro.obs import use_registry, use_tracer
from repro.perf.kernels import BOUND_EPS
from repro.simjoin import naive_set_sim_join, set_sim_join
from repro.simjoin.filters import prefix_length, size_bounds
from repro.table import Table
from repro.text.tokenizers import QgramTokenizer, WhitespaceTokenizer

VALUES = [
    "dave smith",
    "dan smith",
    "dave m smith",
    "joe wilson",
    "joe b wilson",
    "mary jones",
    "ann chen",
    "sue miller park",
    "",
    None,
]
KEYS = [f"k{i}" for i in range(8)]


def make_table(n: int = 40, seed: int = 0) -> Table:
    rng = random.Random(seed)
    first = ["dave", "dan", "joe", "mary", "ann", "sue"]
    last = ["smith", "wilson", "jones", "miller"]
    return Table(
        {
            "id": [f"b{i}" for i in range(n)],
            "v": [f"{rng.choice(first)} {rng.choice(last)}" for _ in range(n)],
        }
    )


def reference_table(model: dict) -> Table:
    """The live records a from-scratch rebuild should cover.

    The model dict mirrors live canonical order: upserts re-insert at
    the end (delete-then-set), deletes remove.
    """
    return Table({"id": list(model), "v": [model[k] for k in model]})


def apply_op(live: LiveIndex, model: dict, op: tuple) -> None:
    kind = op[0]
    if kind == "upsert":
        _, key, value = op
        model.pop(key, None)
        model[key] = value
        live.upsert(key, value)
    elif kind == "delete":
        model.pop(op[1], None)
        live.delete(op[1])
    else:
        live.compact()


def assert_answers_like_rebuild(live: LiveIndex, values=VALUES) -> None:
    """The compaction contract, folds and re-ranks alike: matches,
    scores and order equal a ``LiveIndex`` rebuilt from ``to_table()``
    and the batch join over it; ``search_batch`` equals ``search``."""
    table = live.to_table()
    rebuilt = LiveIndex.from_table(
        table, live.key, live.column, tokenizer=live.tokenizer,
        measure=live.measure, threshold=live.threshold, store=IndexStore(),
    )
    assert live.records() == rebuilt.records()
    singles = [live.search(value) for value in values]
    assert [matches for matches, _ in singles] == [
        rebuilt.search(value)[0] for value in values
    ]
    assert live.search_batch(values) == singles
    probe = Table(
        {"qid": [f"q{i}" for i in range(len(values))], "txt": list(values)}
    )
    joined = live.join_table(probe, "qid", "txt")
    batch = set_sim_join(
        probe, table, "qid", live.key, "txt", live.column,
        live.tokenizer, live.measure, live.threshold,
    )
    assert [joined.column(c) for c in joined.columns] == [
        batch.column(c) for c in batch.columns
    ]


@contextmanager
def parked_fold(live: LiveIndex):
    """``live.compact()`` on a second thread, held between its fold and
    its swap for the body of the ``with`` block."""
    folded = threading.Event()
    release = threading.Event()
    original = LiveIndex._fold_base

    def slow_fold(self, *snapshot):
        segment = original(self, *snapshot)
        folded.set()
        release.wait(5)
        return segment

    LiveIndex._fold_base = slow_fold
    worker = threading.Thread(target=live.compact)
    try:
        worker.start()
        assert folded.wait(5)
        yield
    finally:
        release.set()
        worker.join(10)
        LiveIndex._fold_base = original
    assert not worker.is_alive()


# One op: upsert (key, value), delete (key), or compact.
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("upsert"),
            st.sampled_from(KEYS),
            st.sampled_from(VALUES),
        ),
        st.tuples(st.just("delete"), st.sampled_from(KEYS)),
        st.tuples(st.just("compact")),
    ),
    min_size=0,
    max_size=20,
)


def brute_candidates(live: LiveIndex, value) -> int:
    """The live probe's candidate count for ``value``, by brute force.

    A candidate is a live record in the query's size window that shares
    a prefix token with it, both prefixes taken under the live token
    order: base universe ids, then the delta's extension ids.
    """
    prepared = live._prepare(value)
    if prepared is None:
        return 0
    query = set(live.tokenizer.tokenize(prepared))
    universe, ext = live._base.universe, live._delta.ext_ids

    def prefix(tokens: set) -> set:
        ids = sorted(
            universe.token_id(token) if token in universe else ext[token]
            for token in tokens
            if token in universe or token in ext
        )
        return set(ids[: prefix_length(live.measure, live.threshold, len(tokens))])

    if not query:
        return 0
    lower, upper = size_bounds(live.measure, live.threshold, len(query))
    shared = prefix(query)
    count = 0
    for _, row_value in live.records():
        row = set(live.tokenizer.tokenize(row_value))
        if lower <= len(row) <= upper + BOUND_EPS and shared & prefix(row):
            count += 1
    return count


def assert_read_paths_agree(live: LiveIndex, values) -> None:
    """Every read path answers like brute force, for every value.

    ``search`` == ``search_batch`` at batch sizes 1, 2, 17 and all ==
    ``join_table`` == ``naive_set_sim_join`` over ``to_table()`` (keys,
    order and floats), and each candidate count equals
    :func:`brute_candidates`.
    """
    values = list(values)
    singles = [live.search(value) for value in values]
    for size in (1, 2, 17, len(values)):
        batched = [
            answer
            for start in range(0, len(values), size)
            for answer in live.search_batch(values[start : start + size])
        ]
        assert batched == singles
    probe = Table({"qid": list(range(len(values))), "txt": values})
    naive = naive_set_sim_join(
        probe, live.to_table(), "qid", live.key, "txt", live.column,
        live.tokenizer, live.measure, live.threshold,
    )
    joined = live.join_table(probe, "qid", "txt")
    assert [joined.column(c) for c in joined.columns] == [
        naive.column(c) for c in naive.columns
    ]
    expected: list[list] = [[] for _ in values]
    for qid, key, score in zip(naive["l_id"], naive["r_id"], naive["score"]):
        expected[qid].append((key, score))
    assert [matches for matches, _ in singles] == expected
    assert [count for _, count in singles] == [brute_candidates(live, v) for v in values]


class TestIncrementalEqualsRebuilt:
    @given(ops=OPS, base_size=st.integers(0, 6), threshold=st.sampled_from([0.3, 0.6]))
    @settings(max_examples=30, deadline=None)
    def test_interleaved_ops_match_rebuild(self, ops, base_size, threshold):
        base = Table(
            {"id": [f"base{i}" for i in range(base_size)], "v": VALUES[:base_size]}
        )
        model = {
            key: value
            for key, value in zip(base.column("id"), base.column("v"))
        }
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(
                base, "id", "v", threshold=threshold, store=IndexStore()
            )
            for op in ops:
                apply_op(live, model, op)

            rebuilt = LiveIndex.from_table(
                reference_table(model), "id", "v", threshold=threshold,
                store=IndexStore(),
            )
            # Same survivors, same scores, same order for every probe —
            # including values only a delta or only a base could know.
            # (Pre-verification candidate counts may differ: the delta's
            # token ordering extends the base's rather than re-ranking,
            # so its — equally sound — prefix filter can admit a
            # different candidate set.  Verification is exact, so the
            # survivors cannot differ.)
            for value in VALUES:
                assert live.search(value)[0] == rebuilt.search(value)[0]

            # Whole-table join equals the batch join over the rebuilt
            # records.
            probe = Table(
                {"qid": [f"q{i}" for i in range(len(VALUES))], "txt": list(VALUES)}
            )
            joined = live.join_table(probe, "qid", "txt")
            batch = set_sim_join(
                probe, reference_table(model), "qid", "id", "txt", "v",
                WhitespaceTokenizer(return_set=True), "jaccard", threshold,
            )
            assert [joined.column(c) for c in joined.columns] == [
                batch.column(c) for c in batch.columns
            ]

    def test_concurrent_writers_converge_to_rebuild(self):
        """Parallel mutation: racing upserts/deletes never corrupt the
        segments — the final index answers like a rebuild of whatever
        final state the race produced."""
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(
                make_table(30), "id", "v", threshold=0.4, store=IndexStore()
            )
            errors: list[BaseException] = []

            def mutate(seed: int) -> None:
                rng = random.Random(seed)
                try:
                    for i in range(60):
                        key = f"w{seed}-{rng.randint(0, 9)}"
                        if rng.random() < 0.25:
                            live.delete(key)
                        else:
                            live.upsert(key, rng.choice(VALUES[:8]))
                        if i % 10 == 0:
                            live.search("dave smith")
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=mutate, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors
            rebuilt = LiveIndex.from_table(
                live.to_table(), "id", "v", threshold=0.4, store=IndexStore()
            )
            for value in VALUES:
                assert live.search(value)[0] == rebuilt.search(value)[0]


class TestLiveSemantics:
    def test_upsert_visible_to_next_probe(self):
        with use_registry(), use_index_store():
            live = LiveIndex.empty("id", "v", threshold=0.4)
            assert live.search("dave smith") == ([], 0)
            live.upsert("k1", "dave smith")
            matches, _ = live.search("dave smith")
            assert matches == [("k1", 1.0)]

    def test_delete_tombstones_base_and_delta(self):
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(
                Table({"id": ["a"], "v": ["dave smith"]}), "id", "v", threshold=0.4
            )
            live.upsert("b", "dave smith")
            assert [k for k, _ in live.search("dave smith")[0]] == ["a", "b"]
            assert live.delete("a") and live.delete("b")
            assert live.search("dave smith") == ([], 0)
            assert len(live) == 0
            assert "a" not in live and "b" not in live
            # Deleting again reports absence.
            assert not live.delete("a")

    def test_upsert_replaces_and_moves_to_delta_order(self):
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(
                Table({"id": ["a", "b"], "v": ["dave smith", "ann chen"]}),
                "id", "v", threshold=0.4,
            )
            live.upsert("a", "mary jones")
            assert live.search("dave smith") == ([], 0)
            assert [k for k, _ in live.search("mary jones")[0]] == ["a"]
            assert live.records() == [("b", "ann chen"), ("a", "mary jones")]
            assert len(live) == 2

    def test_missing_value_upsert_acts_as_delete(self):
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(
                Table({"id": ["a"], "v": ["dave smith"]}), "id", "v", threshold=0.4
            )
            assert live.upsert("a", None) is False
            assert live.search("dave smith") == ([], 0)
            assert "a" not in live

    def test_new_tokens_extend_universe_and_match(self):
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(
                Table({"id": ["a"], "v": ["dave smith"]}), "id", "v", threshold=0.4
            )
            # Every token here is outside the base universe.
            live.upsert("z", "zelda zimmerman")
            matches, _ = live.search("zelda zimmerman")
            assert matches == [("z", 1.0)]
            assert live.stats()["universe_size"] > 2

    def test_duplicate_base_keys_rejected(self):
        with use_registry(), use_index_store():
            with pytest.raises(KeyConstraintError):
                LiveIndex.from_table(
                    Table({"id": ["a", "a"], "v": ["x y", "y z"]}),
                    "id", "v", threshold=0.4,
                )

    @pytest.mark.parametrize("key", [None, float("nan")], ids=["none", "nan"])
    def test_missing_key_rejected_at_every_entry_point(self, key):
        """A ``None`` or NaN key would index a record no delete can reach
        (NaN is unequal to itself): every way in refuses it, and a batch
        holding one applies nothing."""
        from repro.pipeline import StreamingDeduper
        from repro.serve import MatchServer, ServeConfig

        with use_registry(), use_index_store():
            with pytest.raises(KeyConstraintError):
                LiveIndex.from_table(
                    Table({"id": ["a", key], "v": ["x y", "y z"]}), "id", "v", threshold=0.4
                )
            live = LiveIndex.from_table(make_table(5), "id", "v", threshold=0.4)
            before = (live.records(), live.stats())
            with pytest.raises(KeyConstraintError):
                live.upsert_many([("n1", "dave smith"), (key, "dave smith")])
            with pytest.raises(KeyConstraintError):
                live.upsert(key, "dave smith")
            assert (live.records(), live.stats()) == before
            config = ServeConfig(threshold=0.4, workers=0)
            with MatchServer(make_table(5), "id", "v", config=config) as server:
                with pytest.raises(KeyConstraintError):
                    server.upsert(key, "dave smith")
                assert server.stats()["delta_rows"] == 0
            deduper = StreamingDeduper(threshold=0.4)
            with pytest.raises(KeyConstraintError):
                deduper.add(key, "dave smith")
            assert deduper.stats()["records"] == 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            LiveIndex.empty(threshold=1.5)
        with pytest.raises(ConfigurationError):
            LiveIndex.empty(measure="nope")
        with pytest.raises(ConfigurationError):
            LiveIndex.empty(measure="overlap", threshold=0)
        for not_finite in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                LiveIndex.empty(measure="overlap", threshold=not_finite)

    def test_generation_counts_every_mutation(self):
        with use_registry(), use_index_store():
            live = LiveIndex.empty("id", "v", threshold=0.4)
            assert live.generation == 0
            live.upsert("a", "x y")
            live.delete("a")
            live.compact()
            assert live.generation == 3


class TestCompaction:
    def test_compact_folds_delta_and_tombstones(self):
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(make_table(20), "id", "v", threshold=0.4)
            live.upsert("n1", "dave smith")
            live.delete("b0")
            before = live.search("dave smith")
            stats = live.compact()
            assert stats["delta_rows"] == 0
            assert stats["tombstones"] == 0
            assert stats["compactions"] == 1
            assert stats["base_rows"] == 20  # 20 base - 1 deleted + 1 upserted
            assert live.search("dave smith") == before

    def test_compact_does_not_block_readers(self):
        """Queries succeed while the compaction's fold is in flight."""
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(make_table(30), "id", "v", threshold=0.4)
            live.upsert("n1", "dave smith")
            expected = live.search("dave smith")
            with parked_fold(live):
                # The fold is parked mid-compaction: reads still answer
                # from the old segments, writes still land.
                assert live.search("dave smith") == expected
                live.upsert("n2", "dave smith")
                assert len(live.search("dave smith")[0]) == len(expected[0]) + 1
            # The op that raced the fold survived the swap.
            assert "n2" in live
            assert len(live.search("dave smith")[0]) == len(expected[0]) + 1
            assert live.stats()["compactions"] == 1

    def test_concurrent_compact_rejected(self):
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(make_table(10), "id", "v", threshold=0.4)
            with live._lock:
                live._compacting = True
            with pytest.raises(ServiceError):
                live.compact()


# Values holding tokens no seeded base below knows: upserting them grows
# the delta's extension ids, which a fold appends to the universe.
FRESH = [
    "zelda zimmerman",
    "zelda smith",
    "quentin xu",
    "dave quentin smith",
    "ann xu chen",
]
PROBES = VALUES + FRESH
MANY_KEYS = [f"k{i}" for i in range(16)]

# Long enough, over enough keys, for the rows folded since the last full
# build to pass the rows that build covered — several times over from
# ``LiveIndex.empty``, at least once from the seeded bases.
LONG_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("upsert"),
            st.sampled_from(MANY_KEYS),
            st.sampled_from(VALUES + FRESH),
        ),
        st.tuples(st.just("delete"), st.sampled_from(MANY_KEYS)),
        st.tuples(st.just("compact")),
    ),
    min_size=20,
    max_size=60,
)


def compaction_modes(registry, name: str) -> dict[str, float]:
    from tests.test_index import counter_total

    return {
        mode: counter_total(registry, "index_compactions_total", index=name, mode=mode)
        for mode in ("fold", "rebuild")
    }


class TestFold:
    """``compact()`` folds the delta into the base (and re-ranks on a
    geometric schedule); either way it answers like a rebuild."""

    @given(
        ops=LONG_OPS,
        base_size=st.sampled_from([0, 3, 8]),
        threshold=st.sampled_from([0.3, 0.6]),
    )
    @settings(max_examples=25, deadline=None)
    def test_long_interleavings_match_rebuild(self, ops, base_size, threshold):
        base = Table(
            {"id": [f"base{i}" for i in range(base_size)], "v": VALUES[:base_size]}
        )
        model = dict(zip(base.column("id"), base.column("v")))
        with use_registry(), use_index_store():
            if base_size:
                live = LiveIndex.from_table(
                    base, "id", "v", threshold=threshold, store=IndexStore()
                )
            else:
                live = LiveIndex.empty(
                    "id", "v", threshold=threshold, store=IndexStore()
                )
            for op in ops:
                apply_op(live, model, op)
                if op[0] == "compact":
                    assert_answers_like_rebuild(live, PROBES)
            assert_answers_like_rebuild(live, PROBES)
            # ... and like a rebuild of what the ops say the records are
            # (to_table() itself is under test here).
            rebuilt = LiveIndex.from_table(
                reference_table(model), "id", "v", threshold=threshold,
                store=IndexStore(),
            )
            assert live.records() == rebuilt.records()
            for value in PROBES:
                assert live.search(value)[0] == rebuilt.search(value)[0]

    def test_rerank_schedule_from_empty(self):
        """From an empty, unranked universe the first compaction is a
        full build; after that a re-rank comes only once the rows folded
        since the last one pass the rows it covered."""
        with use_registry() as registry, use_index_store():
            live = LiveIndex.empty("id", "v", threshold=0.4, name="geo")
            folded, modes = [], []
            for batch in range(8):
                for i in range(4):
                    live.upsert(f"r{batch}-{i}", PROBES[(3 * batch + i) % 8])
                before = compaction_modes(registry, "geo")
                folded.append(live.compact()["folded_rows"])
                after = compaction_modes(registry, "geo")
                modes += [mode for mode in after if after[mode] > before[mode]]
                assert_answers_like_rebuild(live, PROBES)
            assert modes == [
                "rebuild", "fold", "rebuild", "fold", "fold", "fold", "rebuild", "fold",
            ]
            assert folded == [0, 4, 0, 4, 8, 12, 0, 4]
            assert live.stats()["folded_rows"] == 4

    def test_rerank_schedule_from_seeded_base(self):
        with use_registry() as registry, use_index_store():
            live = LiveIndex.from_table(
                make_table(6), "id", "v", threshold=0.4, name="seeded"
            )
            for batch, expected_mode in enumerate(["fold", "rebuild", "fold"]):
                for i in range(4):
                    live.upsert(f"r{batch}-{i}", FRESH[(batch + i) % len(FRESH)])
                live.delete(f"b{batch}")
                before = compaction_modes(registry, "seeded")[expected_mode]
                live.compact()
                assert compaction_modes(registry, "seeded")[expected_mode] == before + 1
                assert_answers_like_rebuild(live, PROBES)
            # Replacements of folded rows count as folded rows again: the
            # ranking drifts with every row it did not see.
            assert live.stats()["folded_rows"] == 4

    @pytest.mark.parametrize(
        "ops",
        [
            [("delete", "b0"), ("delete", "b5"), ("delete", "b11")],
            [("upsert", "n1", "dave smith"), ("upsert", "n2", "zelda zimmerman")],
            [],
            [("delete", f"b{i}") for i in range(12)],
            [
                ("upsert", "n1", "zelda smith"), ("delete", "n1"),
                ("upsert", "n1", "quentin xu"), ("delete", "n1"),
                ("delete", "b3"), ("upsert", "b3", "zelda smith"), ("delete", "b3"),
            ],
            [("upsert", "b2", None), ("upsert", "n1", ""), ("upsert", "b4", "ann xu chen")],
        ],
        ids=[
            "only-tombstones", "only-delta-rows", "empty-delta",
            "every-base-row-deleted", "delete-reupsert-delete", "missing-and-empty",
        ],
    )
    def test_fold_edge_cases(self, ops):
        table = make_table(12)
        model = dict(zip(table.column("id"), table.column("v")))
        with use_registry() as registry, use_index_store():
            live = LiveIndex.from_table(table, "id", "v", threshold=0.4, name="edge")
            for op in ops:
                apply_op(live, model, op)
            model = {key: value for key, value in model.items() if value}  # not missing
            for _ in range(2):
                stats = live.compact()
                assert stats["delta_rows"] == 0 and stats["tombstones"] == 0
                assert stats["base_rows"] == len(model)
                assert live.records() == list(model.items())
                assert_answers_like_rebuild(live, PROBES)
                # The folded base keeps absorbing writes.
                apply_op(live, model, ("upsert", "after", "dave smith"))
                apply_op(live, model, ("delete", "b7"))
                assert_answers_like_rebuild(live, PROBES)
            assert compaction_modes(registry, "edge") == {"fold": 2, "rebuild": 0}

    def test_ops_racing_a_fold_bring_unseen_tokens(self):
        """Writes that land between the fold's snapshot and its swap —
        with tokens neither the base nor the snapshot's extension holds —
        replay onto the folded base."""
        table = make_table(20)
        model = dict(zip(table.column("id"), table.column("v")))
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(table, "id", "v", threshold=0.4)
            apply_op(live, model, ("upsert", "n1", "zelda smith"))
            apply_op(live, model, ("delete", "b2"))
            with parked_fold(live):
                apply_op(live, model, ("upsert", "r1", "quentin xu"))
                apply_op(live, model, ("upsert", "b4", "quentin zimmerman"))
                apply_op(live, model, ("delete", "n1"))  # a row the fold kept
                apply_op(live, model, ("delete", "b9"))
                assert live.search("quentin xu")[0] == [("r1", 1.0)]
            assert live.stats()["compactions"] == 1
            assert live.stats()["delta_rows"] == 2
            assert live.records() == list(model.items())
            assert live.search("quentin xu")[0] == [("r1", 1.0)]
            assert_answers_like_rebuild(live, PROBES)
            live.compact()
            assert_answers_like_rebuild(live, PROBES)

    def test_array_index_carried_across_folds(self):
        """The constructor's base probes the store's shared ArrayIndex,
        built with the base; each fold hands its successor a private
        one, built during the fold, never under the lock on a probe."""
        probes = PROBES * 2
        table = make_table(80)
        with use_registry(), use_index_store() as store:
            live = LiveIndex.from_table(table, "id", "v", threshold=0.4)
            column = store.tokenized_column(table, "id", "v", live.tokenizer)
            encoding = store.pair_encoding(column, column)
            assert live._base.index is store.array_index(encoding, "jaccard", 0.4)
            for batch in range(2):
                live.upsert(f"n{batch}", FRESH[batch])
                live.upsert(f"b{batch + 10}", "dave quentin smith")
                live.delete(f"b{batch}")
                live.compact()
                folded = live._base
                assert folded.index.dim == len(folded.universe)
                assert folded.index.n_rows == len(folded.keys) == len(folded.values)
                assert_answers_like_rebuild(live, probes)
                assert live._base is folded

    def test_positional_bound_after_fold_tombstones_and_foreign_tokens(self):
        """The live probe over a folded base: new tokens hold ids
        appended after the kept order, some base rows are tombstoned,
        and queries carry tokens outside the universe (true size > probe
        nnz).  Every answer and candidate count equals ``search``'s, and
        the bitmap filter and positional bound send only some of the
        window-passing candidates to verification."""
        rng = random.Random(11)
        vocab = [f"w{i}" for i in range(25)]

        def record() -> str:
            return " ".join(rng.sample(vocab, rng.randint(4, 8)))

        base = Table({"id": [f"b{i}" for i in range(120)], "v": [record() for _ in range(120)]})
        with use_registry() as registry, use_index_store():
            live = LiveIndex.from_table(base, "id", "v", threshold=0.5, name="pos")
            dim = len(live._base.universe)
            live.upsert_many((f"n{i}", f"{record()} fresh{i % 6}") for i in range(30))
            live.compact()
            assert compaction_modes(registry, "pos") == {"fold": 1, "rebuild": 0}
            assert live._base.universe.token_id("fresh0") >= dim
            live.delete_many(f"b{i}" for i in range(0, 120, 9))
            queries = [f"{record()} fresh{i % 6} foreign{i}" for i in range(40)]
            queries += [value for _, value in live.records()[::7]]
            answers = live.search_batch(queries)
            candidates = registry.get("kernel_batch_candidates_total", op="live_search")
            verified = registry.get("kernel_batch_verified_total", op="live_search")
            assert answers == [live.search(query) for query in queries]
            assert sum(bool(matches) for matches, _ in answers) > 10
            assert live.stats()["delta_rows"] == 0  # every candidate is a base row
            assert 0 < verified.value < candidates.value

    def test_kernels_answer_alike_across_folds(self):
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(make_table(20), "id", "v", threshold=0.4)
            for batch in range(2):
                live.upsert(f"n{batch}", FRESH[batch])
                live.delete(f"b{batch}")
                live.compact()
                live.upsert(f"m{batch}", "dave smith")
                assert_answers_like_rebuild(live, PROBES)

    # ``overlap`` thresholds are absolute token counts, so 1 and 2 stand
    # in for 0.3 and 0.6 there.
    @pytest.mark.parametrize(
        "measure,threshold",
        [
            ("jaccard", 0.3), ("jaccard", 0.6), ("cosine", 0.3), ("cosine", 0.6),
            ("dice", 0.3), ("dice", 0.6), ("overlap", 1), ("overlap", 2),
        ],
    )
    def test_measures_and_thresholds(self, measure, threshold):
        with use_registry() as registry, use_index_store():
            live = LiveIndex.from_table(
                make_table(30), "id", "v", measure=measure, threshold=threshold,
                name="mt",
            )
            for batch in range(3):
                for i in range(5):
                    live.upsert(f"n{batch}-{i}", PROBES[(batch + 2 * i) % 8] + " xu")
                live.upsert(f"b{batch + 20}", FRESH[batch])
                live.delete(f"b{batch}")
                live.delete(f"n{batch}-0")
                live.compact()
                assert_answers_like_rebuild(live, PROBES)
            assert compaction_modes(registry, "mt") == {"fold": 3, "rebuild": 0}
            # ... and across the boundary into a re-rank.
            live.upsert_many((f"x{i}", PROBES[i % 8] + " quentin") for i in range(20))
            live.compact()
            assert compaction_modes(registry, "mt") == {"fold": 3, "rebuild": 1}
            assert_answers_like_rebuild(live, PROBES)

    def test_folds_add_no_files_to_the_cache_dir(self, tmp_path):
        """A folded base is private: only full builds go through the
        store, so a resident index that compacts often fills no disk."""
        with use_registry() as registry:
            store = IndexStore(cache_dir=tmp_path)
            live = LiveIndex.from_table(
                make_table(40), "id", "v", threshold=0.4, store=store, name="nf"
            )
            before = sorted(path.name for path in tmp_path.iterdir())
            assert before
            for batch in range(5):
                live.upsert(f"n{batch}", FRESH[batch])
                live.upsert(f"b{batch + 10}", "dave smith")
                live.delete(f"b{batch}")
                live.compact()
            assert compaction_modes(registry, "nf") == {"fold": 5, "rebuild": 0}
            assert sorted(path.name for path in tmp_path.iterdir()) == before
            assert_answers_like_rebuild(live, PROBES)

    def test_writers_racing_folds_converge_to_rebuild(self):
        """More threads than cores, a short switch interval, writers on
        disjoint keys that keep writing until a second thread has
        compacted eight times: a lost or doubled replay would leave a
        key the writers' own models do not have (or miss one they do)."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with use_registry() as registry, use_index_store():
                live = LiveIndex.from_table(
                    make_table(60), "id", "v", threshold=0.4, name="race"
                )
                models: list[dict] = [{} for _ in range(5)]
                errors: list[BaseException] = []
                done = threading.Event()

                def mutate(seed: int) -> None:
                    rng = random.Random(seed)
                    model = models[seed]
                    try:
                        for i in range(20000):
                            if i >= 150 and done.is_set():
                                break
                            key = f"w{seed}-{rng.randint(0, 11)}"
                            if rng.random() < 0.3:
                                live.delete(key)
                                model.pop(key, None)
                            else:
                                value = rng.choice(PROBES[:8] + FRESH)
                                live.upsert(key, value)
                                model[key] = value
                            if rng.random() < 0.1:
                                live.search_batch(["dave smith", "zelda xu"])
                    except BaseException as exc:  # pragma: no cover
                        errors.append(exc)

                def compact_eight_times() -> None:
                    try:
                        for _ in range(8):
                            live.compact()
                    except BaseException as exc:  # pragma: no cover
                        errors.append(exc)
                    finally:
                        done.set()

                writers = [
                    threading.Thread(target=mutate, args=(seed,)) for seed in range(5)
                ]
                compactor = threading.Thread(target=compact_eight_times)
                for thread in [*writers, compactor]:
                    thread.start()
                for thread in [*writers, compactor]:
                    thread.join(60)
                assert not any(t.is_alive() for t in [*writers, compactor])
                assert not errors, errors
                assert sum(compaction_modes(registry, "race").values()) == 8
                written = {k: v for model in models for k, v in model.items()}
                records = dict(live.records())
                assert {k: v for k, v in records.items() if k.startswith("w")} == written
                assert len(records) == 60 + len(written) == len(live)
                assert_answers_like_rebuild(live, PROBES)
        finally:
            sys.setswitchinterval(interval)

    def test_nothing_heavy_under_the_index_lock(self, monkeypatch, tmp_path):
        """``compact()`` never scans the base's records under the lock,
        and ``delta_bytes`` is pickled from a snapshot after it is
        released — by ``compact()``, ``stats()`` and ``save()`` alike."""
        import repro.index.delta as delta_module

        with use_registry(), use_index_store():
            live = LiveIndex.from_table(make_table(20), "id", "v", threshold=0.4)
            live.upsert("n1", "dave smith")
            live.delete("b1")
            held: list[bool] = []

            class UnlockedPickle:
                HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL

                @staticmethod
                def dumps(*args, **kwargs):
                    held.append(live._lock._is_owned())
                    return pickle.dumps(*args, **kwargs)

            def no_scan():
                raise AssertionError("compact() scanned the records under the lock")

            monkeypatch.setattr(delta_module, "pickle", UnlockedPickle)
            assert live.stats()["delta_bytes"] > 0
            live.save(tmp_path)  # the manifest's delta_bytes + the state
            monkeypatch.setattr(live, "_columns", no_scan)
            assert live.compact()["delta_bytes"] == len(pickle.dumps([], protocol=-1))
            assert held == [False] * 4


class TestBoundedMemory:
    def test_read_and_write_paths_keep_no_tokenizer_memo(self):
        """Distinct queries and upserted values must not pile up in the
        tokenizer's ``tokenize_cached`` memo, and nothing on the store's
        build path (``tokenized_column`` included) fills it either."""
        from repro.pipeline import StreamingDeduper

        tokenizer = WhitespaceTokenizer(return_set=True)
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(
                make_table(20), "id", "v", tokenizer=tokenizer, threshold=0.4,
                store=IndexStore(),
            )
            memo = len(tokenizer.__dict__.get("_cache", ()))
            assert memo == 0
            for i in range(5000):
                live.search(f"dave query{i}")
            live.search_batch([f"smith batch{i}" for i in range(5000)])
            for i in range(500):
                live.upsert(f"u{i}", f"dave upsert{i}")
            live.upsert_many((f"m{i}", f"smith many{i}") for i in range(500))
            deduper = StreamingDeduper(tokenizer=tokenizer, threshold=0.4)
            for i in range(200):
                deduper.add(f"s{i}", f"joe stream{i}")
            assert len(tokenizer.__dict__.get("_cache", ())) == memo


    @pytest.mark.parametrize("rows, upserts, mode", [(20, 1, "fold"), (1, 2, "rebuild")])
    def test_a_replaced_base_is_let_go(self, tmp_path, rows, upserts, mode):
        """After ``compact()`` swaps in a new base, nothing keeps the
        store-built base it replaced: the store drops that base's memory
        entries (its disk files stay)."""
        store = IndexStore(cache_dir=tmp_path)
        with use_registry() as registry:
            live = LiveIndex.from_table(make_table(rows), "id", "v", threshold=0.4, store=store)
            files = store.disk_artifacts()
            old = weakref.ref(live._base.index.indptr)
            for i in range(upserts):
                live.upsert(f"n{i}", f"dave smith{i}")
            live.compact()
            gc.collect()
            assert compaction_modes(registry, "default")[mode] == 1
        assert old() is None
        assert all(row in store.disk_artifacts() for row in files)
        assert live.search("dave smith0")[0]

    def test_a_disk_warm_base_keeps_what_a_cold_one_keeps(self, tmp_path):
        """Read from disk, ``records``, ``encoding`` and ``arrayindex`` are
        three pickles; the base must still hold one key list and the
        table's own strings, not a copy per artifact."""
        rng = random.Random(5)
        words = [f"w{i}" for i in range(3000)]
        values = [" ".join(rng.choices(words, k=rng.randint(2, 6))) for _ in range(20_000)]
        table = Table({"id": [f"k{i}" for i in range(len(values))], "v": values})

        def kept(store):
            gc.collect()
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                live = LiveIndex.from_table(table, "id", "v", threshold=0.6, store=store)
                gc.collect()
                return live, tracemalloc.get_traced_memory()[0] - start
            finally:
                tracemalloc.stop()

        with use_registry():
            cold, cold_bytes = kept(IndexStore(cache_dir=tmp_path))
            warm, warm_bytes = kept(IndexStore(cache_dir=tmp_path))
        assert warm_bytes <= 1.2 * cold_bytes
        assert warm._base.keys is warm._store.record_columns(table, "id", "v").keys
        probes = values[:200] + PROBES
        assert [warm.search(value) for value in probes] == [cold.search(value) for value in probes]


class TestKeyMapOnFirstUse:
    """The base's key -> position map is built by the first call that
    needs a base key's position (``in``, a delete, an upsert's
    tombstone); a read-only index never holds one."""

    @pytest.mark.parametrize("first", ["contains", "delete", "upsert"])
    @pytest.mark.parametrize("rows, upserts, mode", [
        (20, 0, None), (20, 1, "fold"), (1, 2, "rebuild"),
    ])
    def test_the_first_call_on_a_base_key(self, first, rows, upserts, mode):
        with use_registry() as registry, use_index_store():
            table = make_table(rows)
            live = LiveIndex.from_table(table, "id", "v", threshold=0.4)
            model = dict(zip(table.column("id"), table.column("v")))
            for i in range(upserts):
                apply_op(live, model, ("upsert", f"n{i}", FRESH[i]))
            if mode:
                live.compact()
                assert compaction_modes(registry, "default")[mode] == 1
            base_keys = ["b0"] + [f"n{i}" for i in range(upserts)]
            assert all(key in live._base.keys for key in base_keys)
            live.search_batch(PROBES)
            assert live._base._positions is None
            for key in base_keys:
                if first == "contains":
                    assert key in live
                elif first == "delete":
                    assert live.delete(key)
                    model.pop(key)
                else:
                    apply_op(live, model, ("upsert", key, "zelda quentin"))
                assert live._base._positions is not None
            assert ("absent" in live) is False
            assert not live.delete("absent")
            assert live.records() == list(model.items())
            assert all((key in live) == (key in model) for key in base_keys)
            assert_answers_like_rebuild(live, PROBES)

    def test_duplicate_keys_are_rejected_at_build(self):
        table = Table({"id": ["a", "b", "a"], "v": ["dave smith", "joe wilson", "ann chen"]})
        with use_registry(), use_index_store():
            with pytest.raises(KeyConstraintError, match="'a' appears twice"):
                LiveIndex.from_table(table, "id", "v", threshold=0.4)

    def test_a_read_only_index_holds_no_key_map(self, tmp_path):
        with use_registry(), use_index_store(IndexStore(cache_dir=tmp_path)):
            live = LiveIndex.from_table(make_table(40), "id", "v", threshold=0.4, name="ro")
            for i in range(1000):
                live.search(PROBES[i % len(PROBES)])
            live.search_batch(PROBES)
            live.join_table(Table({"q": ["q0", "q1"], "t": PROBES[:2]}), "q", "t")
            assert len(live) == 40 and live.stats()["live_rows"] == 40
            live.records(), live.to_table(), live.save()
            assert live._base._positions is None


class TestPersistence:
    def test_round_trip_with_ops(self, tmp_path):
        with use_registry():
            store = IndexStore(cache_dir=tmp_path)
            live = LiveIndex.from_table(
                make_table(20), "id", "v", threshold=0.4, store=store, name="rt"
            )
            live.upsert("n1", "dave smith")
            live.delete("b1")
            live.save()
            loaded = LiveIndex.load("rt", store=IndexStore(cache_dir=tmp_path))
            assert loaded.records() == live.records()
            assert loaded.generation == live.generation
            for value in ("dave smith", "ann chen", ""):
                assert loaded.search(value) == live.search(value)
            assert "kernel" not in pickle.loads((tmp_path / "live-rt.pkl").read_bytes())
            assert_answers_like_rebuild(loaded)

    def test_state_saved_with_a_kernel_key_still_loads(self, tmp_path):
        # What LiveIndex.save wrote while ``kernel=`` existed: the same
        # format version, one more key.  load() ignores it.
        base = make_table(20)
        state = {
            "format": delta_module.LIVE_FORMAT_VERSION,
            "name": "old",
            "key": "id",
            "column": "v",
            "tokenizer": WhitespaceTokenizer(return_set=True),
            "normalize": None,
            "measure": "jaccard",
            "threshold": 0.4,
            "kernel": "merge",
            "base_records": list(zip(base.column("id"), base.column("v"))),
            "ops": [("u", "n1", "dave smith"), ("d", "b1")],
            "generation": 2,
            "compactions": 0,
        }
        (tmp_path / "live-old.pkl").write_bytes(pickle.dumps(state))
        with use_registry():
            loaded = LiveIndex.load("old", store=IndexStore(cache_dir=tmp_path))
            assert loaded.generation == 2
            assert "n1" in loaded and "b1" not in loaded
            assert_answers_like_rebuild(loaded)

    def test_base_records_are_saved_and_loaded_as_tuples(self, tmp_path):
        """``live-*.pkl`` keeps format 1: the base's records as ``(key,
        value)`` tuples, which the base itself no longer holds.  A file
        in that format, written key by key as ``save`` always has, loads
        and answers as the index that wrote it."""
        base = make_table(20)
        records = list(zip(base.column("id"), base.column("v")))
        with use_registry():
            live = LiveIndex.from_table(
                base, "id", "v", threshold=0.4, store=IndexStore(cache_dir=tmp_path), name="t"
            )
            live.upsert("n1", "dave smith")
            live.delete("b1")
            saved = pickle.loads(live.save().read_bytes())
            assert saved["format"] == delta_module.LIVE_FORMAT_VERSION == 1
            assert saved["base_records"] == records
            assert all(type(record) is tuple for record in saved["base_records"])
            state = {
                "format": 1, "name": "written", "key": "id", "column": "v",
                "tokenizer": WhitespaceTokenizer(return_set=True), "normalize": None,
                "measure": "jaccard", "threshold": 0.4, "base_records": records,
                "ops": [("u", "n1", "dave smith"), ("d", "b1")], "generation": 2,
                "compactions": 0,
            }
            (tmp_path / "live-written.pkl").write_bytes(
                pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            )
            loaded = LiveIndex.load("written", store=IndexStore(cache_dir=tmp_path))
            assert loaded.records() == live.records()
            assert loaded.search_batch(PROBES) == live.search_batch(PROBES)
            assert_answers_like_rebuild(loaded, PROBES)

    def test_round_trip_of_compacted_base(self, tmp_path):
        # A folded base is private to its LiveIndex (no fingerprinted
        # chain on disk): a reload rebuilds it cold from the saved
        # records, replays zero ops, and answers the same.
        with use_registry():
            store = IndexStore(cache_dir=tmp_path)
            live = LiveIndex.from_table(
                make_table(20), "id", "v", threshold=0.4, store=store, name="ct"
            )
            live.upsert("n1", "dave smith")
            live.delete("b1")
            live.compact()
            live.save()
            manifest = [
                m for m in list_live_indexes(tmp_path) if m["name"] == "ct"
            ][0]
            assert manifest["delta_rows"] == 0
            assert manifest["tombstones"] == 0
            assert manifest["compactions"] == 1
            loaded = LiveIndex.load("ct", store=IndexStore(cache_dir=tmp_path))
            assert loaded.stats()["delta_rows"] == 0
            assert loaded.records() == live.records()
            for value in VALUES:
                assert loaded.search(value)[0] == live.search(value)[0]

    def test_corrupt_live_file_rejected(self, tmp_path):
        (tmp_path / "live-bad.pkl").write_bytes(b"\x80\x04 not a pickle")
        with pytest.raises(ConfigurationError):
            LiveIndex.load("bad", store=IndexStore(cache_dir=tmp_path))

    def test_stale_format_rejected(self, tmp_path):
        state = {"format": -1}
        (tmp_path / "live-old.pkl").write_bytes(pickle.dumps(state))
        with pytest.raises(ConfigurationError):
            LiveIndex.load("old", store=IndexStore(cache_dir=tmp_path))

    def test_clear_disk_removes_live_segments(self, tmp_path):
        with use_registry():
            store = IndexStore(cache_dir=tmp_path)
            live = LiveIndex.from_table(
                make_table(10), "id", "v", threshold=0.4, store=store, name="gone"
            )
            live.upsert("n1", "dave smith")
            live.save()
            assert (tmp_path / "live-gone.pkl").exists()
            assert (tmp_path / "live-gone.json").exists()
            store.clear(disk=True)
            assert not (tmp_path / "live-gone.pkl").exists()
            assert not (tmp_path / "live-gone.json").exists()
            assert list_live_indexes(tmp_path) == []

    def test_live_segments_hidden_from_disk_artifacts(self, tmp_path):
        with use_registry():
            store = IndexStore(cache_dir=tmp_path)
            live = LiveIndex.from_table(
                make_table(10), "id", "v", threshold=0.4, store=store, name="x"
            )
            live.save()
            kinds = {row["kind"] for row in store.disk_artifacts()}
            assert "live" not in kinds
            # The base is the store's chain, through the probe-ready index.
            assert kinds == {"records", "tokens", "encoding", "arrayindex"}


class TestBlockerIntegration:
    def test_block_live_equals_block_tables(self):
        ltable = make_table(25, seed=3)
        rtable = make_table(25, seed=4)
        blocker = OverlapBlocker("v", overlap_size=1)
        with use_registry(), use_index_store():
            reference = blocker.block_tables(ltable, rtable, "id", "id")
            live = blocker.live_index(rtable, "id")
            got = blocker.block_live(ltable, live, "id", rtable=rtable)
            assert [got.column(c) for c in got.columns] == [
                reference.column(c) for c in reference.columns
            ]

    def test_block_live_tracks_right_side_churn(self):
        ltable = make_table(20, seed=5)
        rtable = make_table(20, seed=6)
        blocker = OverlapBlocker("v", overlap_size=2)
        with use_registry(), use_index_store():
            live = blocker.live_index(rtable, "id")
            live.upsert("new1", rtable.column("v")[0].upper())  # lowercased on entry
            live.delete("b0")
            current = live.to_table()
            reference = blocker.block_tables(ltable, current, "id", "id")
            got = blocker.block_live(ltable, live, "id")
            assert [got.column(c) for c in got.columns] == [
                reference.column(c) for c in reference.columns
            ]

    def test_qgram_blocker_live_equality(self):
        ltable = make_table(15, seed=7)
        rtable = make_table(15, seed=8)
        blocker = OverlapBlocker("v", overlap_size=3, word_level=False, q=3)
        with use_registry(), use_index_store():
            reference = blocker.block_tables(ltable, rtable, "id", "id")
            live = blocker.live_index(rtable, "id")
            got = blocker.block_live(ltable, live, "id", rtable=rtable)
            assert [got.column(c) for c in got.columns] == [
                reference.column(c) for c in reference.columns
            ]


class TestObservability:
    def test_delta_metrics(self):
        from tests.test_index import counter_total

        with use_registry() as registry, use_index_store():
            live = LiveIndex.from_table(
                make_table(10), "id", "v", threshold=0.4, name="obs"
            )
            live.upsert("n1", "dave smith")
            live.upsert("n2", "ann chen")
            live.delete("b0")
            live.search("dave smith")
            live.compact()
            assert counter_total(registry, "index_delta_ops_total", op="upsert") == 2
            assert counter_total(registry, "index_delta_ops_total", op="delete") == 1
            assert counter_total(registry, "index_compactions_total", index="obs") == 1
            assert registry.histogram("index_delta_probe_seconds").count >= 1
            gauge = registry.get("index_tombstones", index="obs")
            assert gauge is not None and gauge.value == 0  # reset by compaction

    def test_compaction_says_what_it_did(self):
        """The ``live_compact`` span, the compaction counter's ``mode``
        label, the ``index_folded_rows`` gauge and ``stats()`` tell a
        fold from a re-rank and how much drift has built up."""
        with use_registry() as registry, use_tracer() as tracer, use_index_store():
            live = LiveIndex.from_table(
                make_table(4), "id", "v", threshold=0.4, name="obs"
            )
            live.upsert_many([("n1", "dave smith"), ("n2", "ann chen"), ("n3", "x y")])
            live.delete("n3")
            live.delete("b0")
            assert live.compact()["folded_rows"] == 2
            assert registry.get("index_folded_rows", index="obs").value == 2
            live.upsert_many((f"m{i}", "joe wilson") for i in range(3))
            assert live.compact()["folded_rows"] == 0  # 2 + 3 > 4: re-ranked
            assert registry.get("index_folded_rows", index="obs").value == 0
            assert live.stats()["folded_rows"] == 0
            assert compaction_modes(registry, "obs") == {"fold": 1, "rebuild": 1}
            spans = [span for span in tracer.spans if span.name == "live_compact"]
            assert [span.labels for span in spans] == [
                {"index": "obs", "rows": "5", "mode": "fold",
                 "delta_rows": "2", "tombstones": "2"},
                {"index": "obs", "rows": "8", "mode": "rebuild",
                 "delta_rows": "3", "tombstones": "0"},
            ]

    def test_qgram_tokenizer_round_trip(self):
        with use_registry(), use_index_store():
            tokenizer = QgramTokenizer(q=3, return_set=True)
            live = LiveIndex.from_table(
                make_table(15), "id", "v", tokenizer=tokenizer,
                measure="cosine", threshold=0.5,
            )
            live.upsert("n1", "dave smith")
            rebuilt = LiveIndex.from_table(
                live.to_table(), "id", "v", tokenizer=tokenizer,
                measure="cosine", threshold=0.5, store=IndexStore(),
            )
            for value in VALUES:
                assert live.search(value)[0] == rebuilt.search(value)[0]


# Base rows draw on the first words only: the rest reach the index
# through upserts (extension ids), and "yolanda" never does.
HARNESS_WORDS = ["dave", "dan", "smith", "joe", "wilson", "mary", "quentin", "xu"]
harness_value = st.one_of(
    st.just(None),
    st.just(""),
    st.just("   "),
    st.lists(st.sampled_from(HARNESS_WORDS), min_size=1, max_size=4).map(" ".join),
)
HARNESS_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("upsert"),
            st.sampled_from([f"b{i}" for i in range(6)] + KEYS[:5]),
            harness_value,
        ),
        st.tuples(st.just("delete"), st.sampled_from([f"b{i}" for i in range(6)] + KEYS[:5])),
        st.tuples(st.just("compact")),
    ),
    max_size=25,
)
HARNESS_PROBES = [
    None, "", "  ", "dave smith", "dave smith", "dan smith joe", "quentin xu",
    "xu", "mary wilson dave", "yolanda", "yolanda dave smith", "joe wilson mary dan",
]


class TestReadPathDifferential:
    """One differential harness for the live read path: after any
    sequence of upserts, deletes, folds and re-ranks, under all four
    measures, every read path equals brute force (see
    :func:`assert_read_paths_agree`)."""

    @given(
        base=st.lists(
            st.one_of(
                st.just(None),
                st.lists(st.sampled_from(HARNESS_WORDS[:6]), min_size=1, max_size=4).map(
                    " ".join
                ),
            ),
            max_size=6,
        ),
        ops=HARNESS_OPS,
        mt=st.sampled_from([("jaccard", 0.5), ("cosine", 0.6), ("dice", 0.5), ("overlap", 2)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_read_path_equals_brute_force(self, base, ops, mt):
        measure, threshold = mt
        table = Table({"id": [f"b{i}" for i in range(len(base))], "v": base})
        with use_registry(), use_index_store():
            live = LiveIndex.from_table(
                table, "id", "v", measure=measure, threshold=threshold, store=IndexStore()
            )
            for op in ops:
                apply_op(live, {}, op)
                if op[0] == "compact":
                    assert_read_paths_agree(live, HARNESS_PROBES)
            assert_read_paths_agree(live, HARNESS_PROBES)

    def test_folds_and_reranks_both_checked(self):
        with use_registry() as registry, use_index_store():
            live = LiveIndex.from_table(make_table(8), "id", "v", threshold=0.5, name="h")
            live.upsert_many([("n1", "quentin xu"), ("b1", "dave xu"), ("n2", None)])
            live.delete("b2")
            assert_read_paths_agree(live, HARNESS_PROBES)
            live.compact()
            assert compaction_modes(registry, "h") == {"fold": 1, "rebuild": 0}
            assert_read_paths_agree(live, HARNESS_PROBES)
            live.upsert_many((f"m{i}", "dave quentin") for i in range(8))
            live.delete("n1")
            assert_read_paths_agree(live, HARNESS_PROBES)
            live.compact()
            assert compaction_modes(registry, "h") == {"fold": 1, "rebuild": 1}
            assert_read_paths_agree(live, HARNESS_PROBES)

    def test_chunks_split_batches_and_batches_split_chunks(self, monkeypatch):
        """With ``CHUNK_TARGET_NNZ`` shrunk to 8, one batch spans several
        chunks (base postings run past 8 a value) and one chunk holds
        several values (delta postings are short), over tombstones in
        both segments, before and after a fold."""
        chunks = {"one": 0, "many": 0}
        recount = arrays_module._recount

        def counting(at, per_query):
            chunks["one" if per_query is None else "many"] += 1
            return recount(at, per_query)

        monkeypatch.setattr(arrays_module, "CHUNK_TARGET_NNZ", 8)
        monkeypatch.setattr(arrays_module, "_recount", counting)
        probes = HARNESS_PROBES + VALUES + ["quentin", "xu dan", "quentin xu wilson"]
        with use_registry() as registry, use_index_store():
            live = LiveIndex.from_table(make_table(40), "id", "v", threshold=0.4, name="c")
            for batch in range(2):
                live.upsert_many(
                    (f"n{batch}-{i}", f"{FRESH[i % 4]} {HARNESS_WORDS[i % 8]}") for i in range(12)
                )
                live.upsert_many([(f"b{batch}", "quentin xu"), (f"q{batch}", "dave xu")])
                live.delete_many([f"b{batch + 5}", f"b{batch + 20}", f"n{batch}-3", f"n{batch}-7"])
                assert live.stats()["tombstones"] >= 4
                chunks.update(one=0, many=0)
                live.search_batch(probes)
                assert chunks["one"] and chunks["many"]  # a value alone, values together
                assert_read_paths_agree(live, probes)
                live.compact()
                assert_read_paths_agree(live, probes)
            assert compaction_modes(registry, "c") == {"fold": 2, "rebuild": 0}

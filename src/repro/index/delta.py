"""Live indexes: an immutable base segment plus a mutable delta segment.

The :class:`~repro.index.store.IndexStore` artifact chain is build-once/
probe-many: any table mutation changes the content fingerprint and
invalidates the whole chain, so absorbing even one new record meant a
full rebuild.  A :class:`LiveIndex` refactors that substrate into the
classic two-layer design of long-running search systems:

* the **base segment** is the store's own chain over a frozen snapshot
  of records — records → tokens → a corpus
  :class:`~repro.perf.tokens.TokenUniverse` and CSR encoding → the
  probe-ready :class:`~repro.perf.arrays.ArrayIndex` — fingerprinted,
  disk-persistable and shared with every batch self-join over the same
  content.  The constructor (and :meth:`LiveIndex.load`) builds it;
  compaction replaces it with a privately held ``ArrayIndex`` folded
  from the old base and the delta.  It keeps its records as columns
  (the index's key list and the ``records`` artifact's value list, no
  tuple per row), and its key -> position map only once a delete, an
  upsert's tombstone or ``in`` first asks for a base key: a read-only
  index never builds one;
* the **delta segment** is mutable and append-only: upserted records get
  token ids from the base universe plus an append-only extension for
  unseen tokens; each row is appended to growable CSR buffers with the
  size, bitmap word, prefix length and last prefix id the filters read,
  each prefix token appends the row's position to its posting list, and
  deletes set the position in the segment's tombstone mask (base or
  delta) instead of touching any posting.  A single ``upsert``/
  ``delete`` is a one-record ``upsert_many``/``delete_many``.

Reads run the batch join's own routine,
:func:`repro.perf.arrays.filter_verify`, once per segment for a batch of
any size — :meth:`LiveIndex.search` is a batch of one,
:meth:`LiveIndex.join_table` a batch of every distinct probe value —
with the tombstones as its row mask.  The correctness contract is about
*answers*: after any interleaving of upserts, deletes, and compactions,
a live index returns the same matches with the same scores in the same
order as an index rebuilt from scratch over its current records and as
``naive_set_sim_join`` over them (``tests/test_live_index.py``).
Artifact bytes, fingerprints and candidate counts are not part of it: a
rebuild ranks tokens afresh, which moves prefixes.

Soundness of the shared prefix filter rests on one invariant: the live
token ordering *extends* the base ordering (new tokens get ids past the
end of the base universe), so base-segment prefixes computed at build
time remain prefixes under the live ordering, and probe-side prefixes
are taken under the same total order as both segments' postings.

``compact()`` never blocks readers.  Under the lock it takes a snapshot
— views of the delta's append-only buffers and copies of both tombstone
masks; outside it (readers keep probing the old segments, writers keep
appending) it **folds**: the extension tokens join the universe at the
ids they already hold, so every row and prefix stays valid as it is;
one mask keeps the live rows of both segments, gathered into one CSR
block in canonical order, and
:func:`~repro.perf.arrays.build_array_index` derives the prefix
postings over it.  Then it swaps and replays whatever raced.
The frequency ranking drifts as rows fold in, which costs selectivity,
never exactness; once the rows folded since the last full build exceed
the rows that build covered, ``compact()`` takes the constructor's full
build instead and **re-ranks** — a geometric schedule, so re-ranking
stays amortised O(1) per row.

Observability: ``index_delta_ops_total{op}``, the ``index_tombstones``
and ``index_folded_rows`` gauges, ``index_compactions_total{mode}``, the
``index_delta_probe_seconds`` histogram (the delta half of a probe),
``kernel_batch_*{op="live_search"}`` (one call per ``search``,
``search_batch`` or ``join_table``: values probed, candidates after the
window and tombstones and pairs verified over both segments, seconds),
and the ``live_compact`` span (``mode``, ``delta_rows``, ``tombstones``).

Persistence: :meth:`LiveIndex.save` writes ``live-<name>.pkl`` (the base
records as ``(key, value)`` tuples, zipped from its columns at save, +
the operation log since the last compaction) and a JSON
manifest ``live-<name>.json`` next to the store's fingerprinted
artifacts; :meth:`LiveIndex.load` rebuilds the base through the store
and replays the log — warm from the disk tier while the saved base is
the one the constructor built, cold (and freshly ranked) after a fold.
"""

from __future__ import annotations

import json
import pickle
import threading
import time
from functools import cached_property
from itertools import chain, compress, islice
from operator import add
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    KeyConstraintError,
    ServiceError,
)
from repro.index.store import IndexStore, get_index_store
from repro.obs import MetricsRegistry, get_registry, per_registry, trace_span
from repro.perf import arrays
from repro.runtime.checkpoint import atomic_write_bytes
from repro.simjoin.filters import validate_measure, validate_threshold
from repro.table.schema import is_missing
from repro.table.table import Table
from repro.text.tokenizers import Tokenizer, WhitespaceTokenizer

# Bump when the live-index persistence layout changes: stale files must
# be rejected, never unpickled into the wrong shape.
LIVE_FORMAT_VERSION = 1


class _SearchInstruments:
    """The read path's instruments for one registry, bound through
    :func:`per_registry` so a probe updates them without interning
    names; each is resolved on first use, as a per-update lookup was."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry

    @cached_property
    def seconds(self):
        return self.registry.histogram("kernel_batch_seconds", op="live_search")

    @cached_property
    def delta_seconds(self):
        return self.registry.histogram("index_delta_probe_seconds")

    @cached_property
    def calls(self):
        return self.registry.counter("kernel_batch_calls_total", op="live_search")

    @cached_property
    def rows(self):
        return self.registry.counter("kernel_batch_rows_total", op="live_search")

    @cached_property
    def candidates(self):
        return self.registry.counter("kernel_batch_candidates_total", op="live_search")

    @cached_property
    def verified(self):
        return self.registry.counter("kernel_batch_verified_total", op="live_search")


_search_instruments = per_registry(_SearchInstruments)


class _BaseSegment:
    """The immutable index over one frozen snapshot of records, kept as
    columns: record *p* is ``keys[p]`` (the index's keys) with value
    ``values[p]``.  ``index`` is the store's shared
    :class:`~repro.perf.arrays.ArrayIndex` for a built base, a private
    one for a folded base.  ``artifacts`` are the store digests a built
    base was read from (none for a folded one).  Deletes set positions in
    ``dead``, the segment's tombstone mask.  The key -> position map is
    built by the first call that needs a base key's position (a delete,
    an upsert's tombstone, ``in``): a read-only index never holds one."""

    __slots__ = (
        "keys", "values", "universe", "index", "artifacts", "_positions", "dead", "n_dead",
        "n_rows",
    )

    def __init__(self, values: list, universe, index: arrays.ArrayIndex, artifacts=()):
        self.keys = index.keys
        self.values = values
        self.universe = universe    # TokenUniverse over the snapshot
        self.index = index
        self.artifacts = artifacts
        self._positions = None
        self.dead = np.zeros(index.n_rows, dtype=bool)
        self.n_dead = 0
        self.n_rows = index.n_rows

    @property
    def positions(self) -> dict:
        if self._positions is None:
            self._positions = dict(zip(self.keys, range(self.n_rows)))
        return self._positions


def _grown(buffer, need: int):
    """``buffer`` copied into one at least twice as long (and ``need``)."""
    grown = np.zeros(max(need, 2 * len(buffer)), dtype=buffer.dtype)
    grown[: len(buffer)] = buffer
    return grown


class _DeltaSegment:
    """The mutable segment: append-only CSR rows, postings, tombstones.

    Row ``p`` holds ``indices[indptr[p]:indptr[p + 1]]``; beside its size
    go its bitmap word, prefix length and last prefix id, which the probe
    reads as it reads an ``ArrayIndex``'s (no row is taken for a whole
    prefix: ``whole`` is false).  The buffers only grow (by reallocation
    when full), so a view taken of them under the lock stays valid after
    it is released.
    """

    __slots__ = (
        "keys", "values", "indptr", "indices", "sizes", "bitmaps", "prefix_sizes",
        "prefix_last", "dead", "n_dead", "n_rows", "nnz", "posting_lists", "positions",
        "ext_ids",
    )
    whole = False

    def __init__(self):
        self.keys: list = []
        self.values: list[str] = []
        self.indptr = np.zeros(1, dtype=np.int64)
        self.indices, self.sizes, self.prefix_sizes, self.prefix_last = (
            np.zeros(0, dtype=np.int64) for _ in range(4)
        )
        self.bitmaps, self.dead = np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=bool)
        self.n_dead = self.n_rows = self.nnz = 0
        self.posting_lists: dict[int, list[int]] = {}  # prefix token id -> positions
        self.positions: dict[Any, int] = {}
        self.ext_ids: dict[str, int] = {}

    def append(self, row_key: Any, value: str, ids: tuple[int, ...], n_prefix: int) -> None:
        n, start = self.n_rows, self.nnz
        stop = start + len(ids)
        if n == len(self.sizes):
            for name in ("sizes", "bitmaps", "prefix_sizes", "prefix_last", "dead"):
                setattr(self, name, _grown(getattr(self, name), n + 1))
            self.indptr = _grown(self.indptr, n + 2)
        if stop > len(self.indices):
            self.indices = _grown(self.indices, stop)
        self.indices[start:stop] = ids
        self.indptr[n + 1] = stop
        self.sizes[n] = len(ids)
        word = 0
        for token in ids:
            word |= 1 << (token & 63)
        self.bitmaps[n] = word
        self.prefix_sizes[n] = n_prefix
        self.prefix_last[n] = ids[n_prefix - 1] if n_prefix else 0
        for token in ids[:n_prefix]:
            self.posting_lists.setdefault(token, []).append(n)
        self.keys.append(row_key)
        self.values.append(value)
        self.positions[row_key] = n
        self.n_rows, self.nnz = n + 1, stop

    def posting_lengths(self, ids):
        """The posting length of each prefix id."""
        get = self.posting_lists.get
        return np.array([len(get(token, ())) for token in ids.tolist()], dtype=np.int64)

    def posting_rows(self, ids, lengths):
        """The rows posted under ``ids`` (``lengths`` long), end to end."""
        get = self.posting_lists.get
        return np.fromiter(chain.from_iterable(get(token, ()) for token in ids.tolist()), np.int32)

    def frozen(self) -> tuple:
        """``(keys, values, sizes, indices, dead)`` as of now, safe to read
        outside the lock: copies of the lists and the mask, views of the
        append-only buffers."""
        n = self.n_rows
        return (
            self.keys[:n], self.values[:n], self.sizes[:n], self.indices[: self.nnz],
            self.dead[:n].copy(),
        )


class LiveIndex:
    """A probeable corpus index that absorbs upserts and deletes.

    One live index holds one ``(key column, value column, tokenizer,
    measure, threshold)`` configuration, like a :class:`~repro.serve.MatchServer`.
    Build one from a table (:meth:`from_table`) or start empty
    (:meth:`empty`) and stream records in::

        live = LiveIndex.from_table(corpus, "id", "name", threshold=0.4)
        live.upsert("b999", "dave smith")      # visible to the next probe
        live.delete("b17")                     # tombstoned, never rebuilt
        matches, n_candidates = live.search("dave smith")
        live.compact()                         # fold delta into a new base

    ``normalize`` (e.g. ``str.lower`` for :class:`OverlapBlocker`
    semantics) is applied to every indexed value and every query.  All
    public methods are thread-safe; ``compact()`` does its work outside
    the lock so concurrent readers are never blocked on it.
    """

    def __init__(
        self,
        key: str,
        column: str,
        tokenizer: Tokenizer | None = None,
        measure: str = "jaccard",
        threshold: float = 0.7,
        normalize: Callable[[str], str] | None = None,
        store: IndexStore | None = None,
        name: str = "default",
        base_table: Table | None = None,
    ):
        measure = validate_measure(measure)
        validate_threshold(measure, threshold)
        self.key = key
        self.column = column
        self.name = name
        self.tokenizer = (
            tokenizer if tokenizer is not None else WhitespaceTokenizer(return_set=True)
        )
        self.measure = measure
        self.threshold = threshold
        self._normalize = normalize
        self._store = store if store is not None else get_index_store()

        # One RLock serializes every segment access; compaction holds it
        # only for its snapshot and swap phases, never for the fold.
        self._lock = threading.RLock()
        self._generation = 0
        self._compactions = 0
        self._compacting = False
        # Operation log since the last base build: the replayable delta
        # (persistence) and the replay source for ops racing a compaction.
        self._ops: list[tuple] = []

        if base_table is None:
            base_table = Table({key: [], column: []})
        self._base = self._build_base(base_table)
        # Rows the last full (frequency-ranked) build covered, and rows
        # folded into the base since: compact() re-ranks when the second
        # passes the first.
        self._built_rows = self._base.n_rows
        self._folded_rows = 0
        self._delta = _DeltaSegment()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_table(cls, table: Table, key: str, column: str, **kwargs: Any) -> "LiveIndex":
        """Build a live index whose base segment covers ``table``."""
        table.require_columns([key, column])
        for row_key in table.column(key):
            _require_key(row_key)
        return cls(key, column, base_table=table, **kwargs)

    @classmethod
    def empty(cls, key: str = "id", column: str = "value", **kwargs: Any) -> "LiveIndex":
        """A live index with an empty base — the streaming starting point."""
        return cls(key, column, **kwargs)

    def _prepare(self, value: Any) -> str | None:
        """Canonical string form of a value (``None`` when missing)."""
        if is_missing(value):
            return None
        text = str(value)
        return self._normalize(text) if self._normalize is not None else text

    def _view(self, table: Table, key: str, column: str) -> Table:
        """The table the store artifacts are built from.

        Without ``normalize`` the original table is passed through, so
        the base artifacts share fingerprints (and therefore cache
        entries) with any batch join over the same content.
        """
        if self._normalize is None:
            return table
        return Table(
            {
                key: table.column(key),
                column: [self._prepare(v) for v in table.column(column)],
            }
        )

    def _build_base(self, table: Table) -> _BaseSegment:
        """Run the store's artifact chain over a snapshot table, through
        the ``ArrayIndex`` the probe reads."""
        view = self._view(table, self.key, self.column)
        records, encoding, index, artifacts = self._store.live_base(
            view, self.key, self.column, self.tokenizer, self.measure, self.threshold
        )
        base = _BaseSegment(records.values, encoding.universe, index, artifacts)
        if len(set(base.keys)) < base.n_rows:
            seen: set = set()
            for row_key in base.keys:
                if row_key in seen:
                    raise KeyConstraintError(
                        f"live index requires unique keys; {row_key!r} appears twice"
                    )
                seen.add(row_key)
        return base

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def upsert(self, row_key: Any, value: Any) -> bool:
        """Insert or replace one record; visible to the very next probe.

        A missing ``value`` tombstones the key (a live record with no
        indexable value matches nothing — exactly what a rebuild over
        the current records would produce).  Returns ``True`` when the
        record was indexed, ``False`` when it degenerated to a delete.
        """
        return self.upsert_many([(row_key, value)]) == 1

    def delete(self, row_key: Any) -> bool:
        """Tombstone one record; returns whether it was present."""
        return self.delete_many([row_key]) == 1

    def _apply_locked(self, op: tuple) -> None:
        """Replay one logged operation (compaction swap / load)."""
        if op[0] == "u":
            self._upsert_locked(op[1], op[2])
        else:
            self._tombstone_locked(op[1])

    def _upsert_locked(self, row_key: Any, value: Any) -> bool:
        self._tombstone_locked(row_key)
        prepared = self._prepare(value)
        if prepared is None:
            return False
        ids = self._encode_indexed(set(self.tokenizer.tokenize(prepared)))
        size = len(ids)
        n_prefix = int(arrays.size_table(self.measure, self.threshold, size)[2][size])
        self._delta.append(row_key, prepared, ids, n_prefix)
        return True

    def upsert_many(self, items) -> int:
        """Insert or replace records under one lock acquisition.

        ``items`` is an iterable of ``(row_key, value)``, applied in
        order with sequential semantics (later duplicates win, missing
        values tombstone).  Returns the number of records indexed (the
        rest degenerated to deletes).  A missing key (``None``, NaN,
        blank) raises :class:`KeyConstraintError` before any item is
        applied.
        """
        items = list(items)
        for row_key, _ in items:
            _require_key(row_key)
        with self._lock:
            indexed = 0
            for row_key, value in items:
                self._ops.append(("u", row_key, value))
                indexed += self._upsert_locked(row_key, value)
                self._generation += 1
            tombstones = self._base.n_dead + self._delta.n_dead
        registry = get_registry()
        registry.counter("index_delta_ops_total", op="upsert").inc(len(items))
        registry.gauge("index_tombstones", index=self.name).set(tombstones)
        return indexed

    def delete_many(self, row_keys) -> int:
        """Tombstone records under one lock; returns how many existed."""
        row_keys = list(row_keys)
        with self._lock:
            removed = 0
            for row_key in row_keys:
                self._ops.append(("d", row_key))
                removed += self._tombstone_locked(row_key)
                self._generation += 1
            tombstones = self._base.n_dead + self._delta.n_dead
        registry = get_registry()
        registry.counter("index_delta_ops_total", op="delete").inc(len(row_keys))
        registry.gauge("index_tombstones", index=self.name).set(tombstones)
        return removed

    def _tombstone_locked(self, row_key: Any) -> bool:
        segment = self._delta
        position = segment.positions.pop(row_key, None)
        if position is None:
            segment = self._base
            position = segment.positions.get(row_key)
            if position is None or segment.dead[position]:
                return False
        segment.dead[position] = True
        segment.n_dead += 1
        return True

    def _encode_indexed(self, tokens: set[str]) -> tuple[int, ...]:
        """Ids for an *indexed* record: unseen tokens extend the universe.

        Extension ids start past the base universe, so the live total
        order extends the base order — the invariant that keeps base
        prefixes (computed at build time) valid prefixes forever.
        Unseen tokens are assigned in sorted order so replaying a
        persisted op log reproduces the exact same assignment.
        """
        universe = self._base.universe
        ext = self._delta.ext_ids
        ids = []
        unseen = []
        for token in tokens:
            if token in universe:
                ids.append(universe.token_id(token))
            else:
                known = ext.get(token)
                if known is not None:
                    ids.append(known)
                else:
                    unseen.append(token)
        base_size = len(universe)
        for token in sorted(unseen):
            token_id = base_size + len(ext)
            ext[token] = token_id
            ids.append(token_id)
        return tuple(sorted(ids))

    def _encode_query(self, tokens: set[str]) -> tuple[int, ...]:
        """Ids for a probe: tokens unknown to both segments are dropped.

        Dropping is lossless (they cannot overlap any indexed record)
        as long as bounds and scores use the query's true token count.
        """
        ids = self._base.universe.known_ids(tokens)
        ext = self._delta.ext_ids
        if ext and len(ids) < len(tokens):
            ids += [ext[token] for token in tokens if token in ext]
        return tuple(sorted(ids))

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def search(self, value: Any) -> tuple[list[tuple[Any, float]], int]:
        """Probe one value against base + delta, skipping tombstones.

        Returns ``(matches, n_candidates)``; matches are ``(key, score)``
        in canonical record order (base positions, then delta insertion
        order) — the same order a from-scratch rebuild would emit — and
        scores are bit-identical to the batch join's.
        """
        token_set = self._token_set(value)
        with self._lock:
            return self._search_locked([token_set])[0]

    def search_batch(self, values) -> list[tuple[list[tuple[Any, float]], int]]:
        """Probe many values in one call: one
        :func:`~repro.perf.arrays.filter_verify` per segment.

        Returns one ``(matches, n_candidates)`` pair per value, each equal
        to :meth:`search` on that value — the amortization
        :class:`repro.serve.MatchServer`'s micro-batching exists for.
        """
        token_sets = [self._token_set(value) for value in values]
        with self._lock:
            return self._search_locked(token_sets)

    def _token_set(self, value: Any) -> set[str] | None:
        prepared = self._prepare(value)
        return None if prepared is None else set(self.tokenizer.tokenize(prepared))

    def _search_locked(self, token_sets: list) -> list[tuple[list[tuple[Any, float]], int]]:
        base, delta = self._base, self._delta
        metrics = _search_instruments()
        with metrics.seconds.time():
            batch = arrays.ProbeBatch.from_rows(
                [self._encode_query(token_set) if token_set else () for token_set in token_sets],
                [len(token_set) if token_set else 0 for token_set in token_sets],
                self.measure, self.threshold, max(len(base.universe) + len(delta.ext_ids), 1),
            )
            dead = base.dead if base.n_dead else None
            found = [(base.keys, arrays.filter_verify(batch, base.index, dead))]
            if delta.n_rows:
                with metrics.delta_seconds.time():
                    dead = delta.dead if delta.n_dead else None
                    found.append((delta.keys, arrays.filter_verify(batch, delta, dead)))
        matches: list[list] = [[] for _ in token_sets]
        counts = [0] * len(token_sets)
        verified = 0
        for keys, (hits, positions, scores, candidates, _, n_verified) in found:
            keyed = zip(map(keys.__getitem__, positions.tolist()), scores.tolist())
            for answer, n in zip(matches, hits.tolist()):
                if n:
                    answer += islice(keyed, n)
            counts = list(map(add, counts, candidates.tolist()))
            verified += n_verified
        # What arrays.observe_kernel_batch records, on bound instruments.
        metrics.calls.inc()
        metrics.rows.inc(len(token_sets))
        metrics.candidates.inc(sum(counts))
        if verified:
            metrics.verified.inc(verified)
        return list(zip(matches, counts))

    def join_table(self, table: Table, l_key: str, l_column: str) -> Table:
        """Join a probe table against the live corpus.

        Returns the same ``(_id, l_id, r_id, score)`` table — same rows,
        same order, same floats — as ``set_sim_join(table, self.to_table(),
        ...)`` under this index's configuration.  Each distinct probe
        value is one query of one
        :func:`~repro.perf.arrays.filter_verify` per segment, under the
        lock, so the join sees one consistent snapshot.
        """
        from repro.simjoin.joins import _result_table

        table.require_columns([l_key, l_column])
        view = self._view(table, l_key, l_column)
        tc = self._store.tokenized_column(view, l_key, l_column, self.tokenizer)
        with self._lock:
            found = self._search_locked(list(tc.token_sets.values()))
        l_ids, r_ids, scores = [], [], []
        for row_key, row in zip(tc.keys, tc.value_rows.tolist()):
            matches, _ = found[row]
            if matches:
                l_ids += [row_key] * len(matches)
                r_ids += [r_id for r_id, _ in matches]
                scores += [score for _, score in matches]
        return _result_table(l_ids, r_ids, scores)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> dict[str, Any]:
        """Fold the delta into the base segment; returns stats.

        Three phases: a snapshot under the lock, the fold *outside* it
        (readers keep probing the old segments, writers keep appending),
        then the swap — replaying any operations that raced the fold
        onto the new, empty delta.  When the rows folded since the last
        full build would exceed the rows that build covered, the middle
        phase is that full build over the live records instead, which
        re-ranks the token order.
        """
        with self._lock:
            if self._compacting:
                raise ServiceError(f"live index {self.name!r} is already compacting")
            self._compacting = True
            base, delta = self._base, self._delta
            base_dead = base.dead.copy()
            frozen = delta.frozen()
            base_rows = base.n_rows - base.n_dead
            n_tombstones = base.n_dead + delta.n_dead
            delta_rows = len(delta.positions)
            ext_tokens = list(delta.ext_ids)  # insertion order is id order
            ops_mark = len(self._ops)
            folded_rows = self._folded_rows + delta_rows
            rerank = folded_rows > self._built_rows
        mode = "rebuild" if rerank else "fold"
        try:
            with trace_span(
                "live_compact",
                index=self.name,
                rows=base_rows + delta_rows,
                mode=mode,
                delta_rows=delta_rows,
                tombstones=n_tombstones,
            ):
                if rerank:
                    new_base = self._build_base(
                        self._table(*_live_columns(base, base_dead, frozen))
                    )
                else:
                    new_base = self._fold_base(base, base_dead, frozen, ext_tokens)
        except BaseException:
            with self._lock:
                self._compacting = False
            raise
        with self._lock:
            raced = self._ops[ops_mark:]
            self._base = new_base
            # The store's memory tier would be all that keeps a replaced
            # built base alive.
            self._store.forget(set(base.artifacts) - set(new_base.artifacts))
            self._delta = _DeltaSegment()
            self._ops = list(raced)
            for op in raced:
                self._apply_locked(op)
            if rerank:
                self._built_rows, folded_rows = new_base.n_rows, 0
            self._folded_rows = folded_rows
            self._compacting = False
            self._compactions += 1
            self._generation += 1
            stats = self._stats_locked()
        registry = get_registry()
        registry.counter("index_compactions_total", index=self.name, mode=mode).inc()
        registry.gauge("index_tombstones", index=self.name).set(stats["tombstones"])
        registry.gauge("index_folded_rows", index=self.name).set(folded_rows)
        return _sized(stats, raced)

    def _fold_base(
        self, base: _BaseSegment, base_dead, delta: tuple, ext_tokens: list[str]
    ) -> _BaseSegment:
        """``base`` minus its dead rows plus the delta's live rows.

        Runs outside the lock on a snapshot (``delta`` is
        :meth:`_DeltaSegment.frozen`).  The extension tokens join the
        universe at the ids they already hold, so no row is re-encoded;
        rows keep their canonical order (base survivors, then delta
        arrivals), which is the order a rebuild would give them.

        Readers probe beside it, so it hands the interpreter over between
        its steps (``time.sleep(0)``): a CPU-bound thread otherwise keeps
        it for whole 5 ms switch intervals, and a fold shorter than one
        would hold every reader until it ends.
        """
        _, _, sizes, indices, dead = delta
        universe = base.universe.extended(ext_tokens) if ext_tokens else base.universe
        keys, values = _live_columns(base, base_dead, delta)
        time.sleep(0)
        name = f"live-{self.name}"
        rows = arrays.take_rows(
            name,
            keys,
            np.concatenate([base.index.sizes, sizes]),
            np.concatenate([base.index.indices, indices]),
            np.flatnonzero(np.concatenate([~base_dead, ~dead])),
            len(universe),
        )
        time.sleep(0)
        index = arrays.build_array_index(name, rows, self.measure, self.threshold)
        time.sleep(0)
        return _BaseSegment(values, universe, index)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _columns(self) -> tuple[list, list[str]]:
        with self._lock:
            return _live_columns(self._base, self._base.dead, self._delta.frozen())

    def records(self) -> list[tuple[Any, str]]:
        """The live ``(key, value)`` records in canonical order."""
        return list(zip(*self._columns()))

    def _table(self, keys: list, values: list[str]) -> Table:
        return Table({self.key: keys, self.column: values})

    def to_table(self) -> Table:
        """The live records as a fresh table (the rebuild reference)."""
        return self._table(*self._columns())

    def __contains__(self, row_key: Any) -> bool:
        with self._lock:
            if row_key in self._delta.positions:
                return True
            position = self._base.positions.get(row_key)
            return position is not None and not self._base.dead[position]

    def __len__(self) -> int:
        with self._lock:
            return self._base.n_rows - self._base.n_dead + len(self._delta.positions)

    @property
    def generation(self) -> int:
        """Monotonic change counter: bumps on every mutation and compaction."""
        with self._lock:
            return self._generation

    def _stats_locked(self) -> dict[str, Any]:
        """Everything in :meth:`stats` but ``delta_bytes``, which
        :func:`_sized` adds from an op-log snapshot outside the lock."""
        base, delta = self._base, self._delta
        return {
            "name": self.name,
            "generation": self._generation,
            "compactions": self._compactions,
            "base_rows": base.n_rows,
            "delta_rows": len(delta.positions),
            "tombstones": base.n_dead + delta.n_dead,
            "live_rows": base.n_rows - base.n_dead + len(delta.positions),
            "universe_size": len(base.universe) + len(delta.ext_ids),
            "folded_rows": self._folded_rows,
            "measure": self.measure,
            "threshold": self.threshold,
        }

    def stats(self) -> dict[str, Any]:
        """Point-in-time segment stats (generation, rows, tombstones...)."""
        with self._lock:
            stats = self._stats_locked()
            ops = list(self._ops)
        return _sized(stats, ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"<LiveIndex {self.name!r} gen={stats['generation']} "
            f"base={stats['base_rows']} delta={stats['delta_rows']} "
            f"tombstones={stats['tombstones']}>"
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _directory(self, directory: str | Path | None) -> Path:
        if directory is not None:
            return Path(directory)
        if self._store.cache_dir is None:
            raise ConfigurationError(
                "no directory given and the live index's store has no cache_dir"
            )
        return self._store.cache_dir

    def save(self, directory: str | Path | None = None) -> Path:
        """Persist as ``live-<name>.pkl`` plus a JSON manifest.

        The state is the *replayable* form — the base snapshot's records
        and the op log since the last compaction — so loading rebuilds
        the base through the store (warm from its disk tier while the
        base is still the one the constructor built and persisted; cold
        after a fold) and replays the log.
        """
        directory = self._directory(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with self._lock:
            base = self._base
            state = {
                "format": LIVE_FORMAT_VERSION,
                "name": self.name,
                "key": self.key,
                "column": self.column,
                "tokenizer": self.tokenizer,
                "normalize": self._normalize,
                "measure": self.measure,
                "threshold": self.threshold,
                "ops": list(self._ops),
                "generation": self._generation,
                "compactions": self._compactions,
            }
            manifest = self._stats_locked()
        # The base's columns never change: zipping them needs no lock.
        state["base_records"] = list(zip(base.keys, base.values))
        manifest = _sized(manifest, state["ops"])
        path = directory / f"live-{self.name}.pkl"
        atomic_write_bytes(path, pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
        atomic_write_bytes(
            directory / f"live-{self.name}.json",
            (json.dumps(manifest, indent=2, default=str) + "\n").encode("utf-8"),
        )
        return path

    @classmethod
    def load(
        cls,
        name: str,
        store: IndexStore | None = None,
        directory: str | Path | None = None,
    ) -> "LiveIndex":
        """Restore a persisted live index (see :meth:`save`)."""
        store = store if store is not None else get_index_store()
        if directory is None:
            if store.cache_dir is None:
                raise ConfigurationError(
                    "no directory given and the store has no cache_dir"
                )
            directory = store.cache_dir
        path = Path(directory) / f"live-{name}.pkl"
        try:
            state = pickle.loads(path.read_bytes())
            if state["format"] != LIVE_FORMAT_VERSION:
                raise ConfigurationError(
                    f"live index {name!r} uses format {state['format']}, "
                    f"expected {LIVE_FORMAT_VERSION}"
                )
        except ConfigurationError:
            raise
        except Exception as exc:
            raise ConfigurationError(f"cannot load live index from {path}: {exc}") from exc
        base_table = Table(
            {
                state["key"]: [row_key for row_key, _ in state["base_records"]],
                state["column"]: [value for _, value in state["base_records"]],
            }
        )
        live = cls(
            state["key"],
            state["column"],
            tokenizer=state["tokenizer"],
            measure=state["measure"],
            threshold=state["threshold"],
            normalize=state["normalize"],
            store=store,
            name=state["name"],
            base_table=base_table,
        )
        with live._lock:
            for op in state["ops"]:
                live._apply_locked(op)
            live._ops = list(state["ops"])
            live._generation = state["generation"]
            live._compactions = state["compactions"]
        return live


def _live_columns(base: _BaseSegment, base_dead, delta: tuple) -> tuple[list, list[str]]:
    """The live records' keys and values in canonical order: base
    survivors, then the delta's live rows (``delta`` is
    :meth:`_DeltaSegment.frozen`)."""
    keys, values, _, _, dead = delta
    live = np.concatenate([~base_dead, ~dead]).tolist()
    return (
        list(compress(chain(base.keys, keys), live)),
        list(compress(chain(base.values, values), live)),
    )


def _require_key(row_key: Any) -> None:
    """Reject a missing key: ``None`` or NaN would be a record no delete
    could reach (NaN is unequal to itself)."""
    if is_missing(row_key):
        raise KeyConstraintError(f"live index keys must not be missing, got {row_key!r}")


def _sized(stats: dict[str, Any], ops: list[tuple]) -> dict[str, Any]:
    """``stats`` plus ``delta_bytes``, the pickled size of an op-log
    snapshot — computed by callers after they release the index lock."""
    stats["delta_bytes"] = len(pickle.dumps(ops, protocol=pickle.HIGHEST_PROTOCOL))
    return stats


def list_live_indexes(directory: str | Path) -> list[dict[str, Any]]:
    """The persisted live-index manifests under a cache directory."""
    directory = Path(directory)
    manifests: list[dict[str, Any]] = []
    if not directory.exists():
        return manifests
    for path in sorted(directory.glob("live-*.json")):
        try:
            manifests.append(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, ValueError):
            continue
    return manifests

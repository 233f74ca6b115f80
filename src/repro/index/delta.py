"""Live indexes: an immutable base segment plus a mutable delta segment.

The :class:`~repro.index.store.IndexStore` artifact chain is build-once/
probe-many: any table mutation changes the content fingerprint and
invalidates the whole chain, so absorbing even one new record meant a
full rebuild.  A :class:`LiveIndex` refactors that substrate into the
classic two-layer design of long-running search systems:

* the **base segment** holds records → a corpus
  :class:`~repro.perf.tokens.TokenUniverse` → encoded id tuples → prefix
  postings, and is never mutated.  The constructor (and
  :meth:`LiveIndex.load`) runs the store's records → tokens → encoding
  chain — fingerprinted, disk-persistable, shared with every batch join
  over the same content, its encoding CSR rows — and derives the id
  tuples and dict postings the point probe reads from those rows here.
  Compaction replaces it with a privately held segment folded from the
  old base and the delta;
* the **delta segment** is mutable and append-only: upserted records get
  token ids from the base universe plus an append-only extension for
  unseen tokens, their prefix tokens are insertion-sorted into per-token
  delta postings, and deletes *tombstone* positions (base or delta)
  instead of touching any posting list.  A single ``upsert``/``delete``
  is a one-record ``upsert_many``/``delete_many``: one write path.

This module is the only home of that scalar chain (id tuples, dict
postings, :func:`probe_encoded` and its merge-scan verifier): batch joins
never build it.  Reads probe both segments with :func:`probe_encoded`
(or, for a batch big enough to pay for it, the base segment with
:func:`probe_encoded_batch`, the batched kernel the batch joins run) —
identical size/prefix bounds math, with tombstoned positions filtered
out of the candidate set — so the correctness contract is exact and is
about *answers*: after any interleaving of upserts, deletes, and
compactions, a live index returns the same matches with the same scores
in the same order as an index rebuilt from scratch over its current
records (property-tested in
``tests/test_live_index.py``).  Artifact bytes, store fingerprints and
pre-verification candidate counts are not part of it.

Soundness of the shared prefix filter rests on one invariant: the live
token ordering *extends* the base ordering (new tokens get ids past the
end of the base universe), so base-segment prefixes computed at build
time remain prefixes under the live ordering, and probe-side prefixes
are taken under the same total order as both segments' postings.

``compact()`` costs what the delta costs.  Under the lock it takes an
O(delta) snapshot; outside it (readers keep probing the old segments,
writers keep appending) it **folds**: the extension tokens join the
universe at the ids they already hold — so every encoded tuple and every
base and delta prefix stays valid as it is — tombstoned rows drop out
through one old→new position remap, the live delta rows' postings merge
in, and the fold yields the interpreter between slices so a reader
never waits a whole GIL switch interval for it.  Then it swaps and
replays whatever raced.  The frequency ranking drifts as rows fold in,
which costs selectivity, never exactness; once the rows folded since the
last full build exceed the rows that build covered, ``compact()`` takes
the constructor's full build instead and **re-ranks** — a geometric
schedule, so re-ranking stays amortised O(1) per row.

Observability: ``index_delta_ops_total{op}``, the ``index_tombstones``
and ``index_folded_rows`` gauges, ``index_compactions_total{mode}``, the
``index_delta_probe_seconds`` histogram, ``index_search_batches_total{index,
path}`` (which of the two probe paths a ``search_batch`` took), and the
``live_compact`` span (``mode``, ``delta_rows``, ``tombstones``).

Persistence: :meth:`LiveIndex.save` writes ``live-<name>.pkl`` (base
records + the operation log since the last compaction) and a JSON
manifest ``live-<name>.json`` next to the store's fingerprinted
artifacts; :meth:`LiveIndex.load` rebuilds the base through the store
and replays the log — warm from the disk tier while the saved base is
the one the constructor built, cold (and freshly ranked) after a fold.
"""

from __future__ import annotations

import json
import math
import pickle
import threading
import time
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from itertools import accumulate, compress
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    KeyConstraintError,
    ServiceError,
)
from repro.index.store import IndexStore, get_index_store
from repro.obs import get_registry, trace_span
from repro.perf import arrays
from repro.perf.kernels import BOUND_EPS, ceil_bound
from repro.runtime.checkpoint import atomic_write_bytes
from repro.simjoin.filters import (
    prefix_length,
    size_bounds,
    validate_measure,
    validate_threshold,
)
from repro.table.schema import is_missing
from repro.table.table import Table
from repro.text.tokenizers import Tokenizer, WhitespaceTokenizer

# Bump when the live-index persistence layout changes: stale files must
# be rejected, never unpickled into the wrong shape.
LIVE_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# The scalar probe chain: id tuples, dict postings, merge-scan verify
# ----------------------------------------------------------------------
def bounded_overlap(a: Sequence[int], b: Sequence[int], needed: int) -> int:
    """Overlap of two sorted int arrays, or ``-1`` on early exit.

    A merge scan with ppjoin-style early exit: returns the exact
    intersection size when it is at least ``needed``; returns ``-1`` as
    soon as the remaining elements of either array can no longer lift
    the overlap to ``needed``.
    """
    la, lb = len(a), len(b)
    i = j = overlap = 0
    while i < la and j < lb:
        ai = a[i]
        bj = b[j]
        if ai == bj:
            overlap += 1
            i += 1
            j += 1
        elif ai < bj:
            i += 1
            if overlap + (la - i) < needed:
                return -1
        else:
            j += 1
            if overlap + (lb - j) < needed:
                return -1
    return overlap


def make_scorer(measure: str) -> Callable[[int, int, int], float]:
    """A ``(overlap, left_size, right_size) -> score`` function.

    The formulas mirror :func:`repro.simjoin.filters.similarity` exactly
    (same operations on the same ints) so scores are identical floats.
    Callers guarantee both sizes are positive.
    """
    if measure == "jaccard":
        return lambda overlap, la, lb: overlap / (la + lb - overlap)
    if measure == "cosine":
        return lambda overlap, la, lb: overlap / math.sqrt(la * lb)
    if measure == "dice":
        return lambda overlap, la, lb: 2.0 * overlap / (la + lb)
    if measure == "overlap":
        return lambda overlap, la, lb: float(overlap)
    raise ConfigurationError(f"no scorer for measure {measure!r}")


def make_overlap_bound(measure: str, threshold: float) -> Callable[[int, int], int]:
    """A ``(left_size, right_size) -> minimum required overlap`` function.

    Same bounds as :func:`repro.simjoin.filters.overlap_lower_bound`, with
    the measure and threshold bound once instead of validated per pair.
    """
    ceil = math.ceil
    eps = BOUND_EPS
    if measure == "jaccard":
        coefficient = threshold / (1.0 + threshold)
        return lambda la, lb: ceil(coefficient * (la + lb) - eps)
    if measure == "cosine":
        sqrt = math.sqrt
        return lambda la, lb: ceil(threshold * sqrt(la * lb) - eps)
    if measure == "dice":
        coefficient = threshold / 2.0
        return lambda la, lb: ceil(coefficient * (la + lb) - eps)
    if measure == "overlap":
        required = ceil_bound(threshold)
        return lambda la, lb: required
    raise ConfigurationError(f"no overlap bound for measure {measure!r}")


def build_array_records(
    key: str, records: Sequence[tuple[Any, tuple[int, ...]]], dim: int
) -> arrays.ArrayRecords:
    """Materialize ``[(row_key, sorted ids)]`` as an
    :class:`~repro.perf.arrays.ArrayRecords` (a folded base's batched
    probe corpus)."""
    indptr = arrays._indptr(
        np.fromiter((len(ids) for _, ids in records), dtype=np.int64, count=len(records))
    )
    indices = np.fromiter(
        (token for _, ids in records for token in ids),
        dtype=np.int64,
        count=int(indptr[-1]),
    )
    return arrays._array_records(key, [row_key for row_key, _ in records], indptr, indices, dim)


def record_tuples(records: arrays.ArrayRecords) -> list[tuple[Any, tuple[int, ...]]]:
    """``[(row_key, sorted ids)]``, the inverse of :func:`build_array_records`:
    the scalar view a point probe reads.

    Ids go through one list of int objects, so the tuples share them
    rather than holding an int object per entry.
    """
    ints = list(range(records.dim))
    ids = list(map(ints.__getitem__, memoryview(records.matrix.indices)))
    bounds = records.matrix.indptr.tolist()
    return [
        (row_key, tuple(ids[start:stop]))
        for row_key, start, stop in zip(records.keys, bounds, bounds[1:])
    ]


def prefix_postings(
    records: arrays.ArrayRecords, measure: str, threshold: float
) -> dict[int, tuple[list[int], list[int]]]:
    """Token id -> ``(sizes, positions)`` over each row's prefix tokens,
    sorted by (size, position): the dict postings a point probe reads,
    cut out of CSR rows with one ``lexsort``."""
    lengths = arrays.prefix_lengths_arrays(measure, threshold, records.sizes)
    matrix = arrays.csr_prefix_slice(records.matrix, lengths)
    positions = np.repeat(np.arange(len(records.keys)), np.diff(matrix.indptr))
    sizes = records.sizes[positions]
    order = np.lexsort((positions, sizes, matrix.indices))
    tokens = matrix.indices[order]
    starts = np.flatnonzero(np.diff(tokens, prepend=-1))
    # One int object per row position, shared by its postings.
    rows = list(range(len(records.keys)))
    positions = list(map(rows.__getitem__, memoryview(positions[order])))
    sizes = sizes[order].tolist()
    bounds = [*starts.tolist(), len(tokens)]
    return {
        token: (sizes[start:stop], positions[start:stop])
        for token, start, stop in zip(tokens[starts].tolist(), bounds, bounds[1:])
    }


def probe_encoded(
    left_ids,
    left_size: int,
    index: dict,
    right_enc: list,
    scorer,
    overlap_bound,
    measure: str,
    threshold: float,
    skip: set[int] | None = None,
) -> tuple[list[tuple], int]:
    """Filter-verify one encoded probe record against dict postings.

    The scalar twin of :func:`probe_encoded_batch`, same bounds math and
    same answers: a live index runs it for point probes, for batches too
    small to amortize a CSR probe, and for the delta segment.

    ``left_ids`` is the record's sorted token ids; ``left_size`` is its
    *true* distinct-token count, which can exceed ``len(left_ids)`` when
    a serving query holds tokens outside the corpus universe (those
    tokens can never overlap the corpus, so dropping them from the probe
    is lossless while the size still enters every bound and score).
    ``skip`` is an optional set of right *positions* to exclude — the
    live index's tombstones; excluded positions are dropped before
    verification and never counted as candidates.  Verification is the
    bounded merge scan.  Returns the ``(r_id, score)`` survivors in
    right-position order plus the candidate count.
    """
    if not left_size:
        return [], 0
    lower, upper = size_bounds(measure, threshold, left_size)
    # The float upper bound can round epsilon low; admit the edge.
    upper += BOUND_EPS
    candidates: set[int] = set()
    collect = candidates.update
    for token in left_ids[: prefix_length(measure, threshold, left_size)]:
        entry = index.get(token)
        if entry is None:
            continue
        sizes, positions = entry
        collect(positions[bisect_left(sizes, lower) : bisect_right(sizes, upper)])
    if skip:
        candidates.difference_update(skip)
    if not candidates:
        return [], 0
    results: list[tuple] = []
    for position in sorted(candidates):
        r_id, right = right_enc[position]
        needed = overlap_bound(left_size, len(right))
        overlap = bounded_overlap(left_ids, right, needed)
        if overlap < needed:
            continue
        score = scorer(overlap, left_size, len(right))
        if score >= threshold:
            results.append((r_id, score))
    return results, len(candidates)


def probe_encoded_batch(
    queries: list[tuple],
    array_index,
    measure: str,
    threshold: float,
    skip: set[int] | None = None,
) -> tuple[list[tuple[list[tuple], int]], int]:
    """Filter-verify a *batch* of encoded probes with the CSR kernel.

    The batched twin of :func:`probe_encoded`: ``queries`` holds
    ``(left_ids, left_size)`` per probe (same contract as the scalar
    kernel, including true sizes exceeding ``len(left_ids)`` for
    out-of-universe query tokens, which the CSR probe drops losslessly),
    ``array_index`` is a :class:`repro.perf.arrays.ArrayIndex` over the
    corpus, and ``skip`` excludes right positions (tombstones).  Returns
    one ``(matches, n_candidates)`` pair per query, each byte-identical
    to :func:`probe_encoded` on that query, and the verified-pair count.
    """
    probe_matrix = arrays.build_probe_matrix([ids for ids, _ in queries], array_index.dim)
    true_sizes = np.fromiter((size for _, size in queries), dtype=np.int64, count=len(queries))
    indptr, positions, scores, counts, verified = arrays.batch_set_sim_probe(
        probe_matrix,
        true_sizes,
        array_index,
        measure,
        threshold,
        arrays.skip_mask(skip, array_index.n_rows),
    )
    matches = arrays.emit_matches(indptr, positions, scores, array_index.keys)
    return list(zip(matches, counts.tolist())), verified


class _BaseSegment:
    """The immutable index over one frozen snapshot of records.

    A *built* base (constructor, ``load``, re-rank) is the store's
    shared, fingerprinted artifact chain and keeps its ``encoding``; a
    *folded* base is private to its :class:`LiveIndex`, shares the
    unchanged tuples and lists of the base it was folded from, and has
    ``encoding=None``.  Either way nothing here is mutated once built:
    deletes against base records live *outside* this object, as a
    tombstone set held by the :class:`LiveIndex`.
    """

    __slots__ = (
        "records", "universe", "enc", "index", "positions", "encoding", "array_index",
    )

    def __init__(self, records, universe, enc, index, positions, encoding):
        self.records = records      # [(key, value)] — the frozen snapshot
        self.universe = universe    # TokenUniverse over the snapshot
        self.enc = enc              # [(key, ids)] in record order
        self.index = index          # token id -> (sizes, positions)
        self.positions = positions  # key -> base position
        self.encoding = encoding    # the PairEncoding artifact | None (folded)
        self.array_index = None     # lazy ArrayIndex (batched probes)


def _merge_postings(entry, new_pairs) -> tuple[list[int], list[int]]:
    """``entry``'s ``(sizes, positions)`` with ``new_pairs`` merged in, as new lists.

    Postings stay sorted by (size, position).  Every new position is
    past every old one, so old entries go first on ties — exactly the
    (size, insertion order) ordering sequential upserts produce.
    """
    pairs = sorted([*zip(*entry), *new_pairs])
    return [size for size, _ in pairs], [position for _, position in pairs]


class _DeltaSegment:
    """The mutable segment: append-only records, postings, tombstones."""

    __slots__ = ("enc", "values", "postings", "tombstones", "positions", "ext_ids")

    def __init__(self):
        self.enc: list[tuple[Any, tuple[int, ...]]] = []
        self.values: list[str] = []
        self.postings: dict[int, tuple[list[int], list[int]]] = {}
        self.tombstones: set[int] = set()
        self.positions: dict[Any, int] = {}
        self.ext_ids: dict[str, int] = {}

    def live(self) -> list[int]:
        """The positions not tombstoned, in insertion order."""
        return [p for p in range(len(self.enc)) if p not in self.tombstones]


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
        self._scorer = make_scorer(measure)
        self._overlap_bound = make_overlap_bound(measure, threshold)

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
        self._built_rows = len(self._base.records)
        self._folded_rows = 0
        self._base_tombstones: set[int] = set()
        self._delta = _DeltaSegment()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_table(cls, table: Table, key: str, column: str, **kwargs: Any) -> "LiveIndex":
        """Build a live index whose base segment covers ``table``."""
        table.require_columns([key, column])
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
        """Run the store's artifact chain over a snapshot table, then
        derive the point probe's id tuples and postings from its CSR rows."""
        store = self._store
        view = self._view(table, self.key, self.column)
        tc = store.tokenized_column(view, self.key, self.column, self.tokenizer)
        encoding = store.pair_encoding(tc, tc)
        index = prefix_postings(encoding.right, self.measure, self.threshold)
        enc = record_tuples(encoding.right)
        positions: dict[Any, int] = {}
        for position, (row_key, _) in enumerate(tc.records):
            if row_key in positions:
                raise KeyConstraintError(
                    f"live index requires unique keys; {row_key!r} appears twice"
                )
            positions[row_key] = position
        return _BaseSegment(
            tc.records, encoding.universe, enc, index, positions, encoding
        )

    def _array_index(self, base: _BaseSegment):
        """An :class:`~repro.perf.arrays.ArrayIndex` over ``base``: the
        store's shared artifact for a built base, made straight from
        ``enc`` for a folded one (which has no fingerprint to file it
        under)."""
        if base.encoding is not None:
            return self._store.array_index(base.encoding, self.measure, self.threshold)
        key = f"live-{self.name}"
        records = build_array_records(key, base.enc, len(base.universe))
        return arrays.build_array_index(key, records, self.measure, self.threshold)

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
        delta = self._delta
        ids = self._encode_indexed(set(self.tokenizer.tokenize(prepared)))
        position = len(delta.enc)
        delta.enc.append((row_key, ids))
        delta.values.append(prepared)
        size = len(ids)
        for token in ids[: prefix_length(self.measure, self.threshold, size)]:
            entry = delta.postings.get(token)
            if entry is None:
                entry = delta.postings[token] = ([], [])
            sizes, positions = entry
            # Postings stay sorted by (size, position): equal sizes keep
            # insertion order, and positions only ever grow.
            at = bisect_right(sizes, size)
            sizes.insert(at, size)
            positions.insert(at, position)
        delta.positions[row_key] = position
        return True

    def upsert_many(self, items) -> int:
        """Insert or replace records under one lock acquisition.

        ``items`` is an iterable of ``(row_key, value)``, applied in
        order with sequential semantics (later duplicates win, missing
        values tombstone).  Returns the number of records indexed (the
        rest degenerated to deletes).
        """
        items = list(items)
        with self._lock:
            indexed = 0
            for row_key, value in items:
                self._ops.append(("u", row_key, value))
                indexed += self._upsert_locked(row_key, value)
                self._generation += 1
            tombstones = len(self._base_tombstones) + len(self._delta.tombstones)
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
            tombstones = len(self._base_tombstones) + len(self._delta.tombstones)
        registry = get_registry()
        registry.counter("index_delta_ops_total", op="delete").inc(len(row_keys))
        registry.gauge("index_tombstones", index=self.name).set(tombstones)
        return removed

    def _tombstone_locked(self, row_key: Any) -> bool:
        position = self._delta.positions.pop(row_key, None)
        if position is not None:
            self._delta.tombstones.add(position)
            return True
        position = self._base.positions.get(row_key)
        if position is not None and position not in self._base_tombstones:
            self._base_tombstones.add(position)
            return True
        return False

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
        as long as scoring uses the query's true token count — the same
        ``left_size`` contract as :func:`probe_encoded`.
        """
        universe = self._base.universe
        ext = self._delta.ext_ids
        ids = []
        for token in tokens:
            if token in universe:
                ids.append(universe.token_id(token))
            else:
                known = ext.get(token)
                if known is not None:
                    ids.append(known)
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
        prepared = self._prepare(value)
        if prepared is None:
            return [], 0
        token_set = set(self.tokenizer.tokenize(prepared))
        with self._lock:
            return self._search_locked(token_set)

    def _search_locked(self, token_set: set[str]) -> tuple[list[tuple[Any, float]], int]:
        left_ids = self._encode_query(token_set)
        left_size = len(token_set)
        base = self._base
        matches, n_candidates = probe_encoded(
            left_ids,
            left_size,
            base.index,
            base.enc,
            self._scorer,
            self._overlap_bound,
            self.measure,
            self.threshold,
            skip=self._base_tombstones or None,
        )
        delta_matches, delta_candidates = self._probe_delta_locked(left_ids, left_size)
        if delta_candidates or delta_matches:
            matches = matches + delta_matches
        return matches, n_candidates + delta_candidates

    def _probe_delta_locked(
        self, left_ids: tuple[int, ...], left_size: int
    ) -> tuple[list[tuple[Any, float]], int]:
        """Probe the delta segment alone (``([], 0)`` when it is empty)."""
        delta = self._delta
        if not delta.enc:
            return [], 0
        started = time.perf_counter()
        delta_matches, delta_candidates = probe_encoded(
            left_ids,
            left_size,
            delta.postings,
            delta.enc,
            self._scorer,
            self._overlap_bound,
            self.measure,
            self.threshold,
            skip=delta.tombstones or None,
        )
        get_registry().histogram("index_delta_probe_seconds").observe(
            time.perf_counter() - started
        )
        return delta_matches, delta_candidates

    def search_batch(self, values) -> list[tuple[list[tuple[Any, float]], int]]:
        """Probe many values in one call; one batched base-segment kernel.

        Returns one ``(matches, n_candidates)`` pair per value, each
        byte-identical to :meth:`search` on that value.  A batch big
        enough to pay for it (:func:`repro.perf.arrays.batched_probe_pays`)
        probes the base segment with one columnar
        :func:`probe_encoded_batch` call — the
        amortization :class:`repro.serve.MatchServer`'s micro-batching
        exists for; a smaller one runs :meth:`search`'s scalar probe per
        value.  The (small, mutable) delta segment is probed per query
        under the same lock snapshot either way.  The path taken is
        counted in ``index_search_batches_total{index, path}``.
        """
        started = time.perf_counter()
        token_sets = []
        for value in values:
            prepared = self._prepare(value)
            token_sets.append(
                None
                if prepared is None
                else set(self.tokenizer.tokenize(prepared))
            )
        live_queries = [ts for ts in token_sets if ts is not None]
        with self._lock:
            batched = arrays.batched_probe_pays(len(live_queries), len(self._base.enc))
            get_registry().counter(
                "index_search_batches_total",
                index=self.name,
                path="batched" if batched else "scalar",
            ).inc()
            if not batched:
                return [
                    ([], 0) if ts is None else self._search_locked(ts)
                    for ts in token_sets
                ]
            base = self._base
            if base.array_index is None:
                # Compaction hands it on, so only the constructor's base
                # ever pays for it under the lock.
                base.array_index = self._array_index(base)
            encoded = [
                (self._encode_query(ts), len(ts)) for ts in live_queries
            ]
            base_results, verified = probe_encoded_batch(
                encoded,
                base.array_index,
                self.measure,
                self.threshold,
                skip=self._base_tombstones or None,
            )
            results: list[tuple[list[tuple[Any, float]], int]] = []
            at = 0
            n_candidates_total = 0
            for ts in token_sets:
                if ts is None:
                    results.append(([], 0))
                    continue
                left_ids, left_size = encoded[at]
                matches, n_candidates = base_results[at]
                at += 1
                delta_matches, delta_candidates = self._probe_delta_locked(
                    left_ids, left_size
                )
                if delta_matches or delta_candidates:
                    matches = matches + delta_matches
                    n_candidates += delta_candidates
                n_candidates_total += n_candidates
                results.append((matches, n_candidates))
        arrays.observe_kernel_batch(
            "live_search",
            len(token_sets),
            n_candidates_total,
            time.perf_counter() - started,
            verified=verified,
        )
        return results

    def join_table(self, table: Table, l_key: str, l_column: str) -> Table:
        """Join a probe table against the live corpus.

        Returns the same ``(_id, l_id, r_id, score)`` table — same rows,
        same order, same floats — as ``set_sim_join(table, self.to_table(),
        ...)`` under this index's configuration.  The whole scan runs
        under the lock, so it sees one consistent snapshot.
        """
        from repro.simjoin.joins import _result_table

        table.require_columns([l_key, l_column])
        view = self._view(table, l_key, l_column)
        tc = self._store.tokenized_column(view, l_key, l_column, self.tokenizer)
        l_ids, r_ids, scores = [], [], []
        with self._lock:
            for row_key, value in tc.records:
                matches, _ = self._search_locked(tc.token_sets[value])
                l_ids += [row_key] * len(matches)
                r_ids += [r_id for r_id, _ in matches]
                scores += [score for _, score in matches]
        return _result_table(l_ids, r_ids, scores)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> dict[str, Any]:
        """Fold the delta into the base segment; returns stats.

        Three phases: an O(delta) snapshot under the lock, the fold
        *outside* it (readers keep probing the old segments, writers
        keep appending), then the swap — replaying any operations that
        raced the fold onto the new, empty delta.  When the rows folded
        since the last full build would exceed the rows that build
        covered, the middle phase is that full build over the live
        records instead, which re-ranks the token order.
        """
        with self._lock:
            if self._compacting:
                raise ServiceError(f"live index {self.name!r} is already compacting")
            self._compacting = True
            base, delta = self._base, self._delta
            base_dead = set(self._base_tombstones)
            delta_live = delta.live()
            n_tombstones = len(base_dead) + len(delta.tombstones)
            ext_tokens = list(delta.ext_ids)  # insertion order is id order
            ops_mark = len(self._ops)
            folded_rows = self._folded_rows + len(delta_live)
            rerank = folded_rows > self._built_rows
        mode = "rebuild" if rerank else "fold"
        try:
            with trace_span(
                "live_compact",
                index=self.name,
                rows=len(base.records) - len(base_dead) + len(delta_live),
                mode=mode,
                delta_rows=len(delta_live),
                tombstones=n_tombstones,
            ):
                if rerank:
                    new_base = self._build_base(
                        self._table(_live_records(base, base_dead, delta, delta_live))
                    )
                else:
                    new_base = self._fold_base(
                        base, base_dead, delta, delta_live, ext_tokens
                    )
                if base.array_index is not None and new_base.enc:
                    # Here, not under the lock on the next batched probe.
                    new_base.array_index = self._array_index(new_base)
        except BaseException:
            with self._lock:
                self._compacting = False
            raise
        with self._lock:
            raced = self._ops[ops_mark:]
            self._base = new_base
            self._base_tombstones = set()
            self._delta = _DeltaSegment()
            self._ops = list(raced)
            for op in raced:
                self._apply_locked(op)
            if rerank:
                self._built_rows, folded_rows = len(new_base.records), 0
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
        self,
        base: _BaseSegment,
        base_dead: set[int],
        delta: _DeltaSegment,
        delta_live: list[int],
        ext_tokens: list[str],
    ) -> _BaseSegment:
        """``base`` minus its dead rows plus the delta's live rows.

        Runs outside the lock on a snapshot: ``base`` is immutable, and
        of the (append-only) delta only rows ``delta_live`` names are
        read.  The extension tokens join the universe at the ids they
        already hold, so no tuple is re-encoded and no prefix recomputed;
        rows keep their canonical order (base survivors, then delta
        arrivals), which is the order a rebuild would give them.
        """
        measure, threshold = self.measure, self.threshold
        universe = base.universe.extended(ext_tokens) if ext_tokens else base.universe
        alive = [True] * len(base.records)
        for position in base_dead:
            alive[position] = False
        records = list(compress(base.records, alive))
        enc = list(compress(base.enc, alive))

        staged: dict[int, list[tuple[int, int]]] = {}
        for position in delta_live:
            row_key, ids = delta.enc[position]
            size = len(ids)
            for token in ids[: prefix_length(measure, threshold, size)]:
                staged.setdefault(token, []).append((size, len(records)))
            records.append((row_key, delta.values[position]))
            enc.append((row_key, ids))

        if base_dead:
            # Survivors shift down by the dead rows before them.
            new_position = list(accumulate(alive, initial=0)).__getitem__
            bereft: set[int] = set()  # tokens a dead row was posted under
            for position in base_dead:
                ids = base.enc[position][1]
                bereft.update(ids[: prefix_length(measure, threshold, len(ids))])
            index = {}
            for n, (token, (sizes, positions)) in enumerate(base.index.items()):
                if token in bereft:
                    keep = [alive[p] for p in positions]
                    if not any(keep):
                        continue
                    sizes = list(compress(sizes, keep))
                    positions = compress(positions, keep)
                index[token] = (sizes, list(map(new_position, positions)))
                if not n % 256:
                    # A CPU-bound thread keeps the GIL for whole switch
                    # intervals; hand it over so readers get in between.
                    time.sleep(0)
        else:
            index = dict(base.index)
        for token, new_pairs in staged.items():
            index[token] = _merge_postings(index.get(token, ((), ())), new_pairs)
        positions = {row_key: position for position, (row_key, _) in enumerate(records)}
        return _BaseSegment(records, universe, enc, index, positions, None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _records_locked(self) -> list[tuple[Any, str]]:
        delta = self._delta
        return _live_records(self._base, self._base_tombstones, delta, delta.live())

    def records(self) -> list[tuple[Any, str]]:
        """The live ``(key, value)`` records in canonical order."""
        with self._lock:
            return self._records_locked()

    def _table(self, records: list[tuple[Any, str]]) -> Table:
        return Table(
            {
                self.key: [row_key for row_key, _ in records],
                self.column: [value for _, value in records],
            }
        )

    def to_table(self) -> Table:
        """The live records as a fresh table (the rebuild reference)."""
        return self._table(self.records())

    def __contains__(self, row_key: Any) -> bool:
        with self._lock:
            if row_key in self._delta.positions:
                return True
            position = self._base.positions.get(row_key)
            return position is not None and position not in self._base_tombstones

    def __len__(self) -> int:
        with self._lock:
            live_base = len(self._base.records) - len(self._base_tombstones)
            return live_base + len(self._delta.positions)

    @property
    def generation(self) -> int:
        """Monotonic change counter: bumps on every mutation and compaction."""
        with self._lock:
            return self._generation

    def _stats_locked(self) -> dict[str, Any]:
        """Everything in :meth:`stats` but ``delta_bytes``, which
        :func:`_sized` adds from an op-log snapshot outside the lock."""
        delta = self._delta
        return {
            "name": self.name,
            "generation": self._generation,
            "compactions": self._compactions,
            "base_rows": len(self._base.records),
            "delta_rows": len(delta.positions),
            "tombstones": len(self._base_tombstones) + len(delta.tombstones),
            "live_rows": len(self._base.records)
            - len(self._base_tombstones)
            + len(delta.positions),
            "universe_size": len(self._base.universe) + len(delta.ext_ids),
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
            state = {
                "format": LIVE_FORMAT_VERSION,
                "name": self.name,
                "key": self.key,
                "column": self.column,
                "tokenizer": self.tokenizer,
                "normalize": self._normalize,
                "measure": self.measure,
                "threshold": self.threshold,
                "base_records": self._base.records,  # immutable: no copy
                "ops": list(self._ops),
                "generation": self._generation,
                "compactions": self._compactions,
            }
            manifest = self._stats_locked()
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


def _live_records(
    base: _BaseSegment, base_dead: set[int], delta: _DeltaSegment, delta_live: list[int]
) -> list[tuple[Any, str]]:
    """The ``(key, value)`` records in canonical order: base survivors,
    then the delta's live rows."""
    records = [
        record
        for position, record in enumerate(base.records)
        if position not in base_dead
    ]
    records.extend((delta.enc[p][0], delta.values[p]) for p in delta_live)
    return records


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

"""Build-once/probe-many index artifacts shared by every hot path.

Every ``set_sim_join``, ``OverlapBlocker`` and canopy run, blocking-rule
execution, Falcon/Smurf iteration, token-feature extraction, the two
samplers and the blocking debugger need the same expensive intermediates:
string records (a key column and a value column, :class:`StringRecords`),
each distinct value's tokens, a :class:`TokenUniverse`
with token-id encodings, and the probe-ready CSR corpus.  Before this module
each call
rebuilt them from scratch; the :class:`IndexStore` materializes each
artifact once under a *content fingerprint* and serves every later call
— the same table content probed again (even through a freshly projected
view, as the blockers and rule executors do) is a cache hit, while a
mutated table or a different tokenizer changes the fingerprint and can
never be served a stale index.

Artifacts form a dependency chain mirroring the join pipeline, each
keyed by the digests of what it was built from::

    records(table, key, column) as two columns      "records"
      -> tokenized column (token codes per value)   "tokens"
          -> pair encoding (universe + CSR rows)    "encoding"
              -> CSR corpus + prefix postings       "arrayindex"
      -> hashed n-gram count vectors                "vectors"
          -> joint (IDF-weighted) vector space      "vecpair"
              -> banded-LSH approximate-NN index    "ann"

A join asks for its encoding by the column and tokenizer fingerprints
(:meth:`IndexStore.join_encoding`); only a miss reads ``tokens``, which
keeps each distinct token once and every value's tokens as int32 codes
into them, tokenized a bounded chunk of values at a time.  No
token-chain artifact holds an object per row: ``records``, ``tokens`` and the encoding's
sides share one list of row keys, and ``(key, value)`` tuples are made
only when :meth:`IndexStore.string_records` is asked for them.  Each
artifact class names its layout in its digest (``"cols1"``,
``"flat3"``, ...), and a pickle of any other class or layout found under
a kind's name is a counted cache-read failure, never served.  The
encoding is the one place text becomes token ids: token features read
it over whole text-view columns, and the samplers, Falcon's pair sampler
and the canopy blocker take their inverted index as its CSR transpose
(:func:`repro.perf.arrays.posting_lists`).

The edit-distance join rides the token chain with
:class:`~repro.text.tokenizers.QgramBagTokenizer` (q-gram bags as
sets).  Pickles of retired kinds in a cache directory are listed and
swept like any artifact, and never read: no accessor asks for them.

The encoding is built in arrays: the sides' distinct tokens are sorted
once, the universe is ranked with one stable sort over per-token record
counts, each side's distinct values become one block of CSR rows, and
its records gather their value's row (a bounded chunk at a time) into
a :class:`repro.perf.arrays.ArrayRecords` — what every batch join and
``arrayindex`` run on.  ``arrayindex`` is also the base segment of a
:class:`~repro.index.delta.LiveIndex`, whose probe reads its prefix
postings and rows directly: the store holds no dict postings or id
tuples, and neither does anything else.

The vector branch backs :class:`repro.blocking.vector.VectorBlocker`:
embeddings from :mod:`repro.text.vectorize` (one count vector per
distinct value) are weighted and normalized into one CSR block per
``vecpair``, whose rows each side's records gather, and the
:class:`repro.index.ann.AnnIndex` over one side rides the same LRU +
disk tiers, per-digest build locks, and warm-reload semantics as the
token-side artifacts.

Two tiers: an in-process LRU (shared by default across all callers via
:func:`get_index_store`), and an optional on-disk cache (``cache_dir``,
or the ``REPRO_INDEX_CACHE`` environment variable for the process
default) written atomically so repeated workflow runs and
``CheckpointedRun`` resumes start warm.  A live index whose base is
replaced drops that base's entries from the memory tier
(:meth:`IndexStore.forget`).  A corrupted or truncated cache file is
treated as a miss and rebuilt, never trusted.

Observability: ``index_builds_total``/``index_reuses_total`` counters
(labelled by artifact ``kind``; reuses also carry ``tier="memory"`` or
``"disk"``), the ``index_build_seconds`` histogram,
``index_disk_errors_total`` for corrupt-file fallbacks, and one
``index_get`` span per artifact request, labelled with its ``kind`` and
the ``tier`` (``memory``, ``disk`` or ``build``) that served it.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain, compress
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.index.ann import AnnIndex
from repro.index.fingerprints import (
    column_fingerprint,
    combine,
    tokenizer_fingerprint,
    vectorizer_fingerprint,
)
from repro.obs import get_registry, trace_span
from repro.perf import arrays
from repro.perf.tokens import TokenUniverse
from repro.runtime.checkpoint import atomic_write_bytes
from repro.table.schema import present_mask
from repro.table.table import Table
from repro.text.tokenizers import Tokenizer, number_into
from repro.text.vectorize import (
    HashedNgramVectorizer,
    SparseVector,
    apply_idf,
    idf_weights,
    l2_normalize,
)

ARTIFACT_KINDS = ("records", "tokens", "encoding", "arrayindex", "vectors", "vecpair", "ann")

#: Disk-tier read failures that mean "treat as a cache miss and rebuild":
#: unreadable files (``OSError``) and the unpickling failure modes the
#: ``pickle`` docs name for truncated/corrupt/stale data —
#: ``UnpicklingError``, ``EOFError``, ``AttributeError``/``ImportError``
#: (artifact class moved or renamed), ``IndexError`` and ``ValueError``
#: (mangled stream / unsupported protocol byte).  Anything else raising
#: out of a cache read is a real bug and must propagate, not vanish as a
#: silent rebuild.
CACHE_READ_ERRORS = (
    OSError,
    EOFError,
    pickle.UnpicklingError,
    AttributeError,
    ImportError,
    IndexError,
    ValueError,
)


class StringRecords:
    """One column's records as two columns: for each row with a
    non-missing value, in row order, its key ``keys[i]`` and the ``str``
    of its value ``values[i]``.  No per-row object is made; the
    ``(key, value)`` tuples of :meth:`IndexStore.string_records` are
    zipped from the columns when asked."""

    __slots__ = ("keys", "values")

    def __init__(self, keys: list, values: list[str]):
        self.keys, self.values = keys, values


class TokenizedColumn:
    """One column's records plus each distinct value's tokens, as codes:
    record *i* has key ``keys[i]`` (the ``records`` artifact's own list)
    and value ``values[value_rows[i]]``, and value *j*'s distinct tokens
    are ``distinct[c]`` for the next ``lengths[j]`` codes ``c`` of
    ``codes``.  ``distinct`` lists the column's tokens once each in
    first-seen order, and each value's codes keep its tokens' first-seen
    order, so no pickled byte follows the hash seed.  ``token_sets`` is
    derived on first read."""

    __slots__ = (
        "key", "keys", "value_rows", "values", "distinct", "codes", "lengths", "_token_sets"
    )

    def __init__(self, key: str, keys: list, value_rows, values, distinct, codes, lengths):
        self.key, self.keys, self.value_rows = key, keys, value_rows
        self.values, self.distinct, self.codes, self.lengths = values, distinct, codes, lengths
        self._token_sets = None

    @property
    def token_sets(self) -> dict[str, set[str]]:
        if self._token_sets is None:
            distinct, codes = self.distinct, self.codes.tolist()
            spans = zip(self.values, self.lengths.tolist(), np.cumsum(self.lengths).tolist())
            self._token_sets = {
                value: set(map(distinct.__getitem__, codes[e - n : e])) for value, n, e in spans
            }
        return self._token_sets

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__ if name != "_token_sets"}

    def __setstate__(self, state):
        # A pickle of an earlier layout (dict of sets, flat token list,
        # records as tuples) is a cache-read failure: counted and rebuilt,
        # never served.
        if not isinstance(state, dict) or state.keys() != set(self.__slots__) - {"_token_sets"}:
            raise ValueError("TokenizedColumn pickle of another layout")
        self.__init__(**state)


class PairEncoding:
    """A join pair's shared universe and both sides' encoded records.

    ``left``/``right`` are :class:`~repro.perf.arrays.ArrayRecords` in
    record order (one object for a self-pair); each row's ids are sorted
    rarest-first, so a prefix is a row head.  The universe ranks by
    combined corpus frequency with one contribution per *record* (not
    per distinct value), ties broken lexically: ``TokenUniverse(corpus)``'s
    order over both sides' records.
    """

    __slots__ = ("key", "universe", "left", "right")

    def __init__(self, key: str, universe: TokenUniverse, left, right):
        self.key = key
        self.universe = universe
        self.left = left
        self.right = right

    def __setstate__(self, state):
        # A pickle of the tuple layout (sides as lists of id tuples) is a
        # cache-read failure: counted and rebuilt, never served.
        _, slots = state
        if not isinstance(slots.get("right"), arrays.ArrayRecords):
            raise ValueError("PairEncoding pickle of another layout")
        for name, value in slots.items():
            setattr(self, name, value)


class HashedColumn:
    """One column's records as hashed n-gram count vectors.

    ``records`` holds ``(row_key, raw count vector)`` in record order;
    records sharing a distinct value share one vector object (the
    sharing survives pickling, which memoizes references).
    """

    __slots__ = ("key", "records")

    def __init__(self, key: str, records: list[tuple[Any, SparseVector]]):
        self.key = key
        self.records = records


class VectorRecords:
    """One side of a :class:`VectorPair`: ``matrix`` (a scipy CSR matrix,
    sorted bucket columns) holds row *i*'s weights for record ``keys[i]``."""

    __slots__ = ("key", "keys", "matrix")

    def __init__(self, key: str, keys: list, matrix):
        self.key, self.keys, self.matrix = key, keys, matrix


class VectorPair:
    """A join pair's records in one shared, similarity-ready vector space.

    ``left``/``right`` are :class:`VectorRecords` in record order whose
    CSR rows hold each record's raw counts,
    IDF-weighted over the *combined* corpus (when ``idf`` was requested)
    and L2-normalized — bit for bit ``l2_normalize(apply_idf(embed(value),
    idf))`` — under sorted bucket columns: what
    :func:`repro.index.ann.pair_cosines` and the ANN index consume.
    ``idf`` is the fitted bucket -> weight table (``None`` without IDF),
    kept so ad-hoc probe vectors can be projected into the same space.
    """

    __slots__ = ("key", "left", "right", "idf")

    def __init__(self, key: str, left, right, idf: dict[int, float] | None):
        self.key = key
        self.left = left
        self.right = right
        self.idf = idf


#: The class each kind's artifact is: a pickle of anything else found
#: under the kind's name (an earlier layout's plain list, say) is a
#: cache-read failure.
_ARTIFACT_CLASSES = dict(zip(ARTIFACT_KINDS, (
    StringRecords, TokenizedColumn, PairEncoding, arrays.ArrayIndex, HashedColumn, VectorPair,
    AnnIndex,
)))


class IndexStore:
    """Two-tier (memory LRU + optional disk) cache of index artifacts.

    All artifacts are read-only once built; callers — including forked
    partition-map workers, which inherit them by fork — must not mutate
    them.

    Thread-safety contract: the memory tier (the LRU ``OrderedDict``) is
    guarded by an ``RLock``, so concurrent probes — the long-lived
    :mod:`repro.serve` workers hammer one shared store from many threads
    — can never corrupt the eviction order or crash in
    ``move_to_end``/``popitem``.  Artifact *builds* run outside that
    lock, deduplicated by a per-digest build lock: when two threads miss
    on the same digest, one builds while the other waits, then takes the
    result from the memory tier — each digest builds exactly once (one
    ``index_builds_total`` increment; the loser counts a memory reuse),
    while builds of *unrelated* artifacts never serialize behind one
    another.  A nested build (``join_encoding`` -> ``tokens`` -> ``_records``)
    takes a distinct digest lock and the dependency graph is acyclic, so
    the per-digest locks cannot deadlock.
    """

    def __init__(self, cache_dir: str | Path | None = None, max_entries: int = 256):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_entries = max(1, int(max_entries))
        self._memory: OrderedDict[str, Any] = OrderedDict()
        # RLock: accessor builds nest (`tokenized_column` -> `_records`),
        # so a thread can re-enter.
        self._lock = threading.RLock()
        # digest -> plain Lock serializing concurrent builds of that one
        # artifact; entries are created and discarded under `self._lock`.
        self._building: dict[str, threading.Lock] = {}

    # ------------------------------------------------------------------
    # Cache machinery
    # ------------------------------------------------------------------
    def _path(self, kind: str, digest: str) -> Path:
        return self.cache_dir / f"{kind}-{digest}.pkl"

    def _remember(self, digest: str, artifact: Any) -> None:
        with self._lock:
            self._memory[digest] = artifact
            self._memory.move_to_end(digest)
            while len(self._memory) > self.max_entries:
                self._memory.popitem(last=False)

    def _lookup_memory(self, kind: str, digest: str) -> Any:
        registry = get_registry()
        with self._lock:
            artifact = self._memory.get(digest)
            if artifact is not None:
                self._memory.move_to_end(digest)
        if artifact is not None:
            registry.counter("index_reuses_total", kind=kind, tier="memory").inc()
        return artifact

    def _get(self, kind: str, digest: str, build, persist: bool = True) -> Any:
        with trace_span("index_get", kind=kind) as span:
            artifact, span.labels["tier"] = self._fetch(kind, digest, build, persist)
            return artifact

    def _fetch(self, kind: str, digest: str, build, persist: bool) -> tuple[Any, str]:
        """The artifact and the tier that served it."""
        registry = get_registry()
        artifact = self._lookup_memory(kind, digest)
        if artifact is not None:
            return artifact, "memory"
        # Per-digest build lock: the first thread to miss becomes the
        # builder; later threads block here, then find the artifact in
        # the memory tier.  Each digest is built (and counted) once.
        with self._lock:
            build_lock = self._building.get(digest)
            if build_lock is None:
                build_lock = self._building[digest] = threading.Lock()
        try:
            with build_lock:
                artifact = self._lookup_memory(kind, digest)
                if artifact is not None:
                    return artifact, "memory"
                if persist and self.cache_dir is not None:
                    path = self._path(kind, digest)
                    if path.exists():
                        try:
                            with path.open("rb") as handle:
                                artifact = pickle.load(handle)
                            if not isinstance(artifact, _ARTIFACT_CLASSES[kind]):
                                raise ValueError(f"{kind} pickle of another layout")
                        except CACHE_READ_ERRORS:
                            # Truncated/corrupt cache files fall back to a
                            # rebuild (and the rebuilt artifact is persisted
                            # below, replacing the bad file).  Only the
                            # known read/unpickle failure modes are
                            # swallowed — and every swallow is counted —
                            # so a logic bug here cannot vanish silently.
                            registry.counter(
                                "index_disk_errors_total", kind=kind
                            ).inc()
                            artifact = None
                        if artifact is not None:
                            self._remember(digest, artifact)
                            registry.counter(
                                "index_reuses_total", kind=kind, tier="disk"
                            ).inc()
                            return artifact, "disk"
                started = time.perf_counter()
                artifact = build()
                registry.counter("index_builds_total", kind=kind).inc()
                registry.histogram("index_build_seconds", kind=kind).observe(
                    time.perf_counter() - started
                )
                self._remember(digest, artifact)
                if persist and self.cache_dir is not None:
                    self.cache_dir.mkdir(parents=True, exist_ok=True)
                    atomic_write_bytes(
                        self._path(kind, digest),
                        pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL),
                    )
                return artifact, "build"
        finally:
            with self._lock:
                self._building.pop(digest, None)

    # ------------------------------------------------------------------
    # Artifact accessors (the join/blocker building blocks)
    # ------------------------------------------------------------------
    def string_records(self, table: Table, key: str, column: str) -> list[tuple]:
        """``(row_key, str value)`` per row with a non-missing value, zipped
        from :meth:`record_columns` on each call."""
        records = self.record_columns(table, key, column)
        return list(zip(records.keys, records.values))

    def record_columns(self, table: Table, key: str, column: str) -> StringRecords:
        """The column's ``records`` artifact: keys and ``str`` values of the
        rows with a non-missing value."""
        return self._records(_fingerprint(table, key, column), table, key, column)

    def _records(self, col_fp: str, table: Table, key: str, column: str) -> StringRecords:
        return self._get(
            "records", _records_digest(col_fp), lambda: _build_records(table, key, column)
        )

    def tokenized_column(
        self, table: Table, key: str, column: str, tokenizer: Tokenizer
    ) -> TokenizedColumn:
        """Records plus the tokens of each distinct value of the column."""
        fps = _fingerprint(table, key, column), tokenizer_fingerprint(tokenizer)
        return self._tokenized(table, key, column, tokenizer, *fps)

    def _tokenized(self, table, key, column, tokenizer, col_fp: str, tok_fp: str):
        digest = _tokens_digest(col_fp, tok_fp)

        def build() -> TokenizedColumn:
            records = self._records(col_fp, table, key, column)
            rows: dict[str, int] = {}
            value_rows = number_into(records.values, rows)
            values = list(rows)
            del rows  # freed before the steps below allocate
            # Tokens are numbered on first sight, a bounded step of values
            # at a time: no list of every value's tokens is ever held.
            distinct, codes, lengths = tokenizer.token_codes(values)
            return TokenizedColumn(
                digest, records.keys, value_rows, values, distinct, codes, lengths
            )

        return self._get("tokens", digest, build)

    def pair_encoding(self, left: TokenizedColumn, right: TokenizedColumn) -> PairEncoding:
        """Shared :class:`TokenUniverse` and encoded records for a join pair."""
        digest = _encoding_digest(left.key, right.key)
        return self._get("encoding", digest, lambda: _encode_pair(digest, left, right))

    def join_encoding(
        self, ltable: Table, rtable: Table, l_key: str, r_key: str, l_column: str, r_column: str,
        tokenizer: Tokenizer,
    ) -> PairEncoding:
        """``pair_encoding`` of both sides' ``tokenized_column``, by the digest
        it would carry: only a miss fetches ``tokens`` and ``records``."""
        left = ltable, l_key, l_column, _fingerprint(ltable, l_key, l_column)
        # A live index's base pairs one table with itself: one fingerprint.
        same = rtable is ltable and (r_key, r_column) == (l_key, l_column)
        right = left if same else (rtable, r_key, r_column, _fingerprint(rtable, r_key, r_column))
        return self.sides_encoding(left, right, tokenizer)

    def sides_encoding(self, left: tuple, right: tuple, tokenizer: Tokenizer) -> PairEncoding:
        """:meth:`join_encoding` of two ``(table, key, column, fingerprint)``
        sides, each fingerprinted once by a caller reading them with
        several tokenizers."""
        (ltable, l_key, l_column, l_fp), (rtable, r_key, r_column, r_fp) = left, right
        tok_fp = tokenizer_fingerprint(tokenizer)
        digest = _encoding_digest(_tokens_digest(l_fp, tok_fp), _tokens_digest(r_fp, tok_fp))

        def build() -> PairEncoding:
            left = self._tokenized(ltable, l_key, l_column, tokenizer, l_fp, tok_fp)
            right = self._tokenized(rtable, r_key, r_column, tokenizer, r_fp, tok_fp)
            return _encode_pair(digest, left, right)

        return self._get("encoding", digest, build)

    def array_index(self, encoding: PairEncoding, measure: str, threshold: float):
        """The encoding's right side as the batched kernel's probe-ready
        CSR corpus, a :class:`repro.perf.arrays.ArrayIndex`."""
        # "rows3" names the ArrayIndex layout (plain CSR rows + token-major
        # prefix postings).  Change it whenever what the class pickles
        # changes, so a cached pickle of another layout is never read
        # back; fields derived on load (sizes, prefix heads) don't.
        digest = combine("arrayindex", "rows3", encoding.key, measure, threshold)

        def build():
            return arrays.build_array_index(digest, encoding.right, measure, threshold)

        return self._get("arrayindex", digest, build)

    def live_base(
        self, table: Table, key: str, column: str, tokenizer: Tokenizer, measure: str,
        threshold: float,
    ) -> tuple[StringRecords, PairEncoding, Any, tuple[str, ...]]:
        """A :class:`~repro.index.delta.LiveIndex` base's artifacts: the
        column's records, its self-paired encoding and that encoding's
        ``array_index``, plus the digests of the four memory entries they
        hold (``records``, ``tokens``, ``encoding``, ``arrayindex``) for
        :meth:`forget` once the base is replaced.  The column is
        fingerprinted once."""
        col_fp = _fingerprint(table, key, column)
        side = (table, key, column, col_fp)
        records = self._records(col_fp, table, key, column)
        encoding = self.sides_encoding(side, side, tokenizer)
        index = self.array_index(encoding, measure, threshold)
        if index.keys is not records.keys:  # read from disk, each with its own lists
            _share_lists(records, _build_records(table, key, column), encoding, index)
        digests = (
            _records_digest(col_fp), _tokens_digest(col_fp, tokenizer_fingerprint(tokenizer)),
            encoding.key, index.key,
        )
        return records, encoding, index, digests

    # ------------------------------------------------------------------
    # Vector-branch accessors (the ANN blocking building blocks)
    # ------------------------------------------------------------------
    def hashed_column(
        self,
        table: Table,
        key: str,
        column: str,
        vectorizer: HashedNgramVectorizer,
    ) -> HashedColumn:
        """Hashed n-gram count vectors per record of the column."""
        col_fp = _fingerprint(table, key, column)
        digest = combine("vectors", col_fp, vectorizer_fingerprint(vectorizer))

        def build() -> HashedColumn:
            records = self._records(col_fp, table, key, column)
            by_value: dict[str, SparseVector] = {}
            embedded: list[tuple[Any, SparseVector]] = []
            for row_key, value in zip(records.keys, records.values):
                vector = by_value.get(value)
                if vector is None:
                    vector = by_value[value] = vectorizer.embed(value)
                embedded.append((row_key, vector))
            return HashedColumn(digest, embedded)

        return self._get("vectors", digest, build)

    def vector_pair(
        self, left: HashedColumn, right: HashedColumn, idf: bool = True
    ) -> VectorPair:
        """Both sides projected into one (optionally IDF-weighted) space."""
        # "csr2" names the VectorPair layout (two VectorRecords), so a
        # pickle of an earlier layout is never read.
        digest = combine("vecpair", "csr2", left.key, right.key, idf)
        return self._get("vecpair", digest, lambda: _project_pair(digest, left, right, idf))

    def ann_index(
        self, pair: VectorPair, n_bands: int = 16, band_bits: int = 6, seed: int = 0
    ) -> AnnIndex:
        """Banded-LSH index over the right side of a :class:`VectorPair`."""
        # "bands1" names the AnnIndex layout (CSR side + per-band sorted
        # codes), so a pickle of the bucket-dict layout is never read.
        digest = combine("ann", "bands1", pair.key, n_bands, band_bits, seed)

        def build() -> AnnIndex:
            records = pair.right
            return AnnIndex(
                digest, records.keys, records.matrix, n_bands=n_bands,
                band_bits=band_bits, seed=seed,
            )

        return self._get("ann", digest, build)

    # ------------------------------------------------------------------
    # Introspection and maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier (and the disk tier with ``disk=True``).

        The disk sweep also removes persisted live-index segments
        (``live-*.pkl`` and their ``live-*.json`` manifests, written by
        :meth:`repro.index.delta.LiveIndex.save`).
        """
        with self._lock:
            self._memory.clear()
        if disk and self.cache_dir is not None and self.cache_dir.exists():
            for pattern in ("*.pkl", "live-*.json"):
                for path in self.cache_dir.glob(pattern):
                    try:
                        path.unlink()
                    except OSError:
                        pass

    def forget(self, digests) -> None:
        """Drop these artifacts from the memory tier; the disk tier keeps
        them.  A replaced live-index base calls it, so the store is not
        what keeps the old base's arrays alive."""
        with self._lock:
            for digest in digests:
                self._memory.pop(digest, None)

    def disk_artifacts(self) -> list[dict[str, Any]]:
        """One row per persisted artifact: kind, digest, size in bytes.

        Live-index segments (``live-*``) are not fingerprinted artifacts
        and are listed by :func:`repro.index.delta.list_live_indexes`
        instead.
        """
        rows: list[dict[str, Any]] = []
        if self.cache_dir is None or not self.cache_dir.exists():
            return rows
        for path in sorted(self.cache_dir.glob("*.pkl")):
            if path.name.startswith("live-"):
                continue
            kind, _, digest = path.stem.partition("-")
            rows.append(
                {
                    "kind": kind,
                    "digest": digest,
                    "bytes": path.stat().st_size,
                    "file": path.name,
                }
            )
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f", cache_dir={str(self.cache_dir)!r}" if self.cache_dir else ""
        return f"<IndexStore {len(self._memory)} artifacts in memory{where}>"


def _build_records(table: Table, key: str, column: str) -> StringRecords:
    """The ``records`` artifact of a column, in C-level passes: the
    table's own key and value objects at the present rows."""
    values = table.column(column)
    present = present_mask(values).tolist()
    keys = list(compress(table.column(key), present))
    return StringRecords(keys, list(map(str, compress(values, present))))


def _share_lists(records: StringRecords, own: StringRecords, encoding, index) -> None:
    """Give a live base read from disk the memory of a built one: records
    equal to the table's own (``own``) take its lists, and the encoding's
    and index's key lists become the records' one list."""
    if own.keys == records.keys and own.values == records.values:
        records.keys, records.values = own.keys, own.values
    for rows in (encoding.left, encoding.right, index):
        if rows.keys is not records.keys and rows.keys == records.keys:
            rows.keys = records.keys


def _fingerprint(table: Table, key: str, column: str) -> str:
    table.require_columns([key, column])
    return column_fingerprint(table, key, column)


# "cols1" names the StringRecords layout (a key and a value column),
# "flat3" the TokenizedColumn one (the records' keys, distinct tokens +
# int32 codes) and "csr2" the PairEncoding one (universe + two
# plain-array ArrayRecords), as "rows3" does ArrayIndex's: another
# layout's pickle is never looked up.
def _records_digest(col_fp: str) -> str:
    return combine("records", "cols1", col_fp)


def _tokens_digest(col_fp: str, tok_fp: str) -> str:
    return combine("tokens", "flat3", col_fp, tok_fp)


def _encoding_digest(left_key: str, right_key: str) -> str:
    return combine("encoding", "csr2", left_key, right_key)


#: The largest value-major sort key ``_encode_pair`` keeps in int32.
_INT32_KEYS = np.iinfo(np.int32).max


def _encode_pair(digest: str, left: TokenizedColumn, right: TokenizedColumn) -> PairEncoding:
    """Rank the pair's universe and encode both sides, in arrays.

    Each side's distinct values are its own block of CSR rows (a value
    on both sides is two equal rows), which its records gather.  The
    union of the sides' ``distinct`` tokens is numbered lexically by one
    Python ``sorted`` (a numpy string array would drop trailing NULs,
    merging ``"a\\x00"`` into ``"a"``), so a stable sort of their record
    counts is ``TokenUniverse``'s order.  Each side looks its distinct
    tokens up once and gathers the ids by its ``codes``.

    Only the universe and the sides are kept, so the build holds little
    else: the lexical set and dict go before the ranking, and the
    per-token-occurrence arrays are int32 where the value-major sort keys
    fit (int64 past that), one of them at a time beside the ids, which
    are keyed, sorted and unkeyed in place.
    """
    sides = (left,) if left is right else (left, right)
    starts = np.cumsum([0, *(len(side.values) for side in sides)]).tolist()
    n_values = starts[-1]
    lexical = sorted(set(chain.from_iterable(side.distinct for side in sides)))
    n_tokens = len(lexical)
    token_ids = dict(zip(lexical, range(n_tokens)))
    numbers = [
        np.fromiter(map(token_ids.__getitem__, side.distinct), np.int64, len(side.distinct))
        for side in sides
    ]
    del token_ids
    order = np.argsort(_record_counts(sides, numbers, n_tokens), kind="stable")
    universe = TokenUniverse.from_ranked(map(lexical.__getitem__, order))
    dtype = np.int32 if n_values * max(n_tokens, 1) <= _INT32_KEYS else np.int64
    rank = np.empty(n_tokens, dtype)
    rank[order] = np.arange(n_tokens, dtype=dtype)
    ranked = [rank[side_numbers] for side_numbers in numbers]  # per side's distinct token
    del lexical, numbers, order, rank
    # A self-pair reads its one side's arrays, not copies.
    lengths = left.lengths if len(sides) == 1 else np.concatenate([left.lengths, right.lengths])
    # Sorts each value's ids: value-major keys keep every row in place.
    ids = np.empty(int(lengths.sum()), dtype)
    at = 0
    for side, side_ranked in zip(sides, ranked):
        np.take(side_ranked, side.codes, out=ids[at : at + len(side.codes)], mode="clip")
        at += len(side.codes)
    ids += (np.arange(n_values, dtype=dtype) * n_tokens).repeat(lengths)
    ids.sort()
    ids %= max(n_tokens, 1)
    encoded = [
        arrays.take_rows(
            digest, side.keys, lengths, ids, side.value_rows + start if start else side.value_rows,
            len(universe),
        )
        for side, start in zip(sides, starts)
    ]
    return PairEncoding(digest, universe, encoded[0], encoded[-1])


def _record_counts(sides: tuple, numbers: list, n_tokens: int):
    """Each lexically numbered token's record count over the sides: a
    side's value counts as many records as gather it."""
    counts = np.zeros(n_tokens)
    for side, side_numbers in zip(sides, numbers):
        weights = np.bincount(side.value_rows, minlength=len(side.values)).astype(np.float64)
        per_distinct = np.bincount(
            side.codes, weights.repeat(side.lengths), minlength=len(side.distinct)
        )
        counts += np.bincount(side_numbers, per_distinct, minlength=n_tokens)
    return counts


def _project_pair(digest: str, left: HashedColumn, right: HashedColumn, idf: bool) -> VectorPair:
    """Weight and normalize each distinct raw vector once with the scalar
    dict functions (so every weight is theirs, bit for bit), then pack
    them as one CSR block that both sides' records gather their rows
    from."""
    from scipy import sparse

    sides = (left, right)
    weights = idf_weights(vector for side in sides for _, vector in side.records) if idf else None
    # Records sharing a raw vector object share its row (id-keyed; the
    # records keep every vector alive for the whole build).
    row_of: dict[int, int] = {}
    normalized: list[SparseVector] = []
    side_rows = []
    for side in sides:
        rows = []
        for _, vector in side.records:
            row = row_of.get(id(vector))
            if row is None:
                row = row_of[id(vector)] = len(normalized)
                weighted = apply_idf(vector, weights) if weights is not None else vector
                normalized.append(l2_normalize(weighted))
            rows.append(row)
        side_rows.append(np.array(rows, dtype=np.int64))
    lengths = np.fromiter(map(len, normalized), dtype=np.int64, count=len(normalized))
    total = int(lengths.sum())
    buckets = np.fromiter(chain.from_iterable(normalized), dtype=np.int64, count=total)
    values = chain.from_iterable(vector.values() for vector in normalized)
    width = int(buckets.max()) + 1 if total else 1
    block = sparse.csr_matrix(
        (np.fromiter(values, dtype=np.float64, count=total), buckets, arrays._indptr(lengths)),
        shape=(len(normalized), width),
    )
    block.sort_indices()
    projected = [
        VectorRecords(digest, [row_key for row_key, _ in side.records], block[rows])
        for side, rows in zip(sides, side_rows)
    ]
    return VectorPair(digest, *projected, weights)


# ----------------------------------------------------------------------
# Process-default store
# ----------------------------------------------------------------------
_default_store: IndexStore | None = None
#: The store :func:`use_index_store` scopes, per thread (and asyncio task).
_scoped_store: ContextVar[IndexStore | None] = ContextVar("scoped_index_store", default=None)


def get_index_store() -> IndexStore:
    """The store every join and blocker consults: the one
    :func:`use_index_store` scopes in this thread, else the process-wide
    default.

    The default is created lazily; it honours the ``REPRO_INDEX_CACHE``
    environment variable as its disk cache directory.
    """
    global _default_store
    scoped = _scoped_store.get()
    if scoped is not None:
        return scoped
    if _default_store is None:
        _default_store = IndexStore(
            cache_dir=os.environ.get("REPRO_INDEX_CACHE") or None
        )
    return _default_store


def set_index_store(store: IndexStore | None) -> IndexStore | None:
    """Swap the process-default store; returns the previous one.  Inside
    a :func:`use_index_store` scope it swaps the scoped store instead,
    which the scope's exit then undoes."""
    global _default_store
    previous = _scoped_store.get()
    if previous is not None:
        _scoped_store.set(store)
        return previous
    previous = _default_store
    _default_store = store
    return previous


@contextmanager
def use_index_store(store: IndexStore | None = None) -> Iterator[IndexStore]:
    """Scope the store :func:`get_index_store` returns (a fresh in-memory
    one if ``None``) to this thread or task: other threads keep theirs,
    and a thread started inside the scope sees the process default."""
    scoped = store if store is not None else IndexStore()
    token = _scoped_store.set(scoped)
    try:
        yield scoped
    finally:
        _scoped_store.reset(token)

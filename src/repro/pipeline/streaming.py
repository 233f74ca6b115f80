"""Streaming dedupe: one-at-a-time records merged into live clusters.

The deployed counterpart of batch dedupe and the workload the live-index
refactor (:mod:`repro.index.delta`) exists for — Section 6's "coping
with new data" challenge.  Records arrive one at a time; each is matched
against every record seen so far through a :class:`LiveIndex` (same
filter-verify kernel, same scores as the batch join), upserted so later
arrivals can match *it*, and merged into entity clusters by an
incremental union-find.

The correctness contract mirrors the live index's own: after streaming N
unique records, :meth:`StreamingDeduper.clusters` equals the connected
components of the batch self-join over the same N records at the same
threshold (tested in ``tests/test_streaming.py``).  The one semantic
difference from batch is inherent to streaming: cluster merges are
permanent, so *re*-upserting a changed value under an existing key can
leave historical merges in place that the new value alone would not
produce.

Usage::

    deduper = StreamingDeduper(threshold=0.6, compact_every=5000)
    for record in feed:
        result = deduper.add(record["id"], record["name"])
        if result.matches:
            ...  # this record joined an existing entity
    entities = deduper.clusters(min_size=2)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import ConfigurationError
from repro.index.delta import LiveIndex
from repro.index.store import IndexStore
from repro.obs import get_registry
from repro.postprocess.clustering import UnionFind, largest_first
from repro.table.table import Table
from repro.text.tokenizers import Tokenizer


@dataclass
class StreamMatch:
    """What happened when one streamed record was absorbed.

    ``matches`` are the ``(existing key, score)`` pairs the record
    matched (scores bit-identical to the batch join); ``merged`` counts
    how many previously-distinct clusters this record fused.
    """

    key: Any
    matches: list[tuple[Any, float]] = field(default_factory=list)
    merged: int = 0
    indexed: bool = True


class StreamingDeduper:
    """Absorb records one at a time into a live, clustered corpus.

    Each :meth:`add` runs match-then-upsert: the record is probed against
    the live index *before* being inserted (so it never matches itself),
    then indexed so every later arrival sees it, then unioned with its
    matches.  Keys must be unique across the stream for the batch
    equivalence to hold; re-using a key replaces the record's value in
    the index but keeps its historical cluster merges.
    """

    def __init__(
        self,
        key: str = "id",
        column: str = "value",
        tokenizer: Tokenizer | None = None,
        measure: str = "jaccard",
        threshold: float = 0.7,
        store: IndexStore | None = None,
        name: str = "stream-dedupe",
        compact_every: int | None = None,
        seed_table: Table | None = None,
    ):
        if compact_every is not None and compact_every < 1:
            raise ConfigurationError(
                f"compact_every must be >= 1, got {compact_every}"
            )
        if seed_table is None:
            self.index = LiveIndex.empty(
                key, column, tokenizer=tokenizer, measure=measure,
                threshold=threshold, store=store, name=name,
            )
        else:
            self.index = LiveIndex.from_table(
                seed_table, key, column, tokenizer=tokenizer, measure=measure,
                threshold=threshold, store=store, name=name,
            )
        self._uf = UnionFind()
        for row_key, _ in self.index.records():
            self._uf.add(row_key)
        self._pairs: list[tuple[Any, Any, float]] = []
        self._compact_every = compact_every
        self._since_compaction = 0

    def add(self, row_key: Any, value: Any) -> StreamMatch:
        """Match one arriving record against everything seen, then index it."""
        matches, _ = self.index.search(value)
        # Probe-before-upsert: a record never matches itself, and under
        # unique keys the pair set accumulates exactly one (earlier,
        # later) edge per matching pair — the batch join's upper triangle.
        indexed = self.index.upsert(row_key, value)
        self._uf.add(row_key)
        merged = 0
        for match_key, score in matches:
            if match_key == row_key:
                continue
            self._pairs.append((match_key, row_key, score))
            if self._uf.union(match_key, row_key):
                merged += 1
        registry = get_registry()
        registry.counter("stream_records_total").inc()
        registry.counter("stream_matches_total").inc(len(matches))
        if self._compact_every is not None:
            self._since_compaction += 1
            if self._since_compaction >= self._compact_every:
                self.index.compact()
                self._since_compaction = 0
        return StreamMatch(key=row_key, matches=matches, merged=merged, indexed=indexed)

    def clusters(self, min_size: int = 1) -> list[set[Any]]:
        """Current entity clusters, largest first (ties by member repr)."""
        return largest_first([g for g in self._uf.groups() if len(g) >= min_size])

    def matched_pairs(self) -> list[tuple[Any, Any, float]]:
        """Every ``(earlier key, later key, score)`` match edge, in arrival order."""
        return list(self._pairs)

    def stats(self) -> dict[str, Any]:
        """Stream + live-index stats for dashboards and benchmarks."""
        stats = self.index.stats()
        stats.update(
            records=len(self._uf),
            match_edges=len(self._pairs),
            clusters=len(self.clusters()),
        )
        return stats

"""Approximate-NN index: LSH bands over signed random projections.

The retrieval half of the vector blocking backend.  Records embedded by
:mod:`repro.text.vectorize` are signed against ``n_bands * band_bits``
random hyperplanes; the sign bits are grouped into bands, and two
records become candidates when any band's bits agree exactly (the
classic banding construction: ANDs within a band, ORs across bands).
Raising ``band_bits`` sharpens each band (fewer, closer candidates);
raising ``n_bands`` adds more chances to collide (higher recall, larger
candidate sets) — together they are the recall-vs-budget dial measured
in ``benchmarks/bench_vector_blocking.py``.

The hyperplanes are never materialized.  Each (bucket, plane) entry is a
Rademacher ±1 sign derived from ``blake2b(seed : bucket)`` — a valid
random-projection family, and deterministic across processes, which is
what lets the whole index live in :class:`repro.index.IndexStore` as a
content-fingerprinted artifact: a disk-tier reload probes byte-
identically to the build that wrote it.

:class:`AnnIndex` is a plain picklable artifact like
:class:`~repro.index.store.PrefixIndex`; the :class:`IndexStore`
accessor (``ann_index``) gives it the LRU + disk tiers, per-digest build
locks, and build/reuse metrics for free.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError
from repro.text.vectorize import SparseVector, cosine


def _plane_signs(bucket: int, seed: int, n_planes: int) -> tuple[float, ...]:
    """Deterministic ±1 hyperplane entries for one embedding bucket."""
    digest = hashlib.blake2b(
        f"{seed}:{bucket}".encode("utf-8"), digest_size=(n_planes + 7) // 8
    ).digest()
    bits = int.from_bytes(digest, "big")
    return tuple(1.0 if (bits >> p) & 1 else -1.0 for p in range(n_planes))


class AnnIndex:
    """Banded LSH over signed random projections of a record corpus.

    ``keys``/``vectors`` hold the indexed side in record order (vectors
    L2-normalized, so probe scoring is a sparse dot product); ``buckets``
    maps ``(band, band_bits_value)`` to the positions hashed there.
    Records with empty vectors (missing/empty values) are kept in the
    record list for positional alignment but never enter a bucket, and
    an empty probe vector returns no candidates.

    Read-only once built, like every :class:`IndexStore` artifact.
    """

    __slots__ = ("key", "n_bands", "band_bits", "seed", "keys", "vectors",
                 "buckets", "_sign_cache", "_np_signs", "_columns")

    def __init__(
        self,
        key: str,
        records: list[tuple[Any, SparseVector]],
        n_bands: int = 16,
        band_bits: int = 6,
        seed: int = 0,
    ):
        if n_bands < 1 or band_bits < 1:
            raise ConfigurationError(
                f"need n_bands >= 1 and band_bits >= 1, "
                f"got n_bands={n_bands} band_bits={band_bits}"
            )
        self.key = key
        self.n_bands = n_bands
        self.band_bits = band_bits
        self.seed = seed
        self.keys = [row_key for row_key, _ in records]
        self.vectors = [vector for _, vector in records]
        self._sign_cache: dict[int, tuple[float, ...]] = {}
        self._np_signs: dict[int, Any] = {}
        self._columns = None
        buckets: dict[tuple[int, int], list[int]] = {}
        for position, band_keys in enumerate(self.signature_batch(self.vectors)):
            for band_key in band_keys:
                buckets.setdefault(band_key, []).append(position)
        self.buckets = {
            band_key: tuple(positions) for band_key, positions in buckets.items()
        }

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------
    @property
    def n_planes(self) -> int:
        return self.n_bands * self.band_bits

    def signature(self, vector: SparseVector) -> list[tuple[int, int]]:
        """The ``(band, bits)`` bucket keys of one vector (empty: none).

        Buckets accumulate in ascending order: float addition is not
        associative, so pinning the order keeps this scalar path
        bit-identical to :meth:`signature_batch` (which vectorizes the
        per-plane accumulation but walks buckets in the same order) —
        and therefore bucket assignments identical between them.
        """
        if not vector:
            return []
        n_planes = self.n_planes
        accumulator = [0.0] * n_planes
        cache = self._sign_cache
        for bucket in sorted(vector):
            weight = vector[bucket]
            signs = cache.get(bucket)
            if signs is None:
                signs = cache[bucket] = _plane_signs(bucket, self.seed, n_planes)
            for plane in range(n_planes):
                accumulator[plane] += weight * signs[plane]
        bits = 0
        for plane in range(n_planes):
            if accumulator[plane] >= 0.0:
                bits |= 1 << plane
        return self._band_keys(bits)

    def _band_keys(self, bits: int) -> list[tuple[int, int]]:
        mask = (1 << self.band_bits) - 1
        return [
            (band, (bits >> (band * self.band_bits)) & mask)
            for band in range(self.n_bands)
        ]

    def signature_batch(self, vectors) -> list[list[tuple[int, int]]]:
        """Signatures for many vectors; one vectorized accumulator each.

        Per vector the ``n_planes`` accumulators update with one numpy
        multiply-add per bucket instead of a Python loop over planes —
        same buckets, same ascending order, same float64 operations, so
        the band keys equal :meth:`signature`'s exactly.
        """
        n_planes = self.n_planes
        cache = self._np_signs
        signatures: list[list[tuple[int, int]]] = []
        for vector in vectors:
            if not vector:
                signatures.append([])
                continue
            accumulator = np.zeros(n_planes, dtype=np.float64)
            for bucket in sorted(vector):
                signs = cache.get(bucket)
                if signs is None:
                    signs = cache[bucket] = np.array(
                        _plane_signs(bucket, self.seed, n_planes), dtype=np.float64
                    )
                accumulator += vector[bucket] * signs
            bits = 0
            for plane in np.nonzero(accumulator >= 0.0)[0].tolist():
                bits |= 1 << plane
            signatures.append(self._band_keys(bits))
        return signatures

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe(self, vector: SparseVector) -> list[int]:
        """Positions colliding with the query in at least one band."""
        candidates: set[int] = set()
        buckets = self.buckets
        for band_key in self.signature(vector):
            positions = buckets.get(band_key)
            if positions:
                candidates.update(positions)
        return sorted(candidates)

    def search(
        self,
        vector: SparseVector,
        threshold: float = 0.0,
        top_k: int | None = None,
    ) -> list[tuple[int, float]]:
        """Scored probe: ``(position, cosine)`` sorted by descending score.

        Candidates come from :meth:`probe`; each is verified with the
        exact cosine against the stored normalized vector, filtered by
        ``threshold``, and truncated to the ``top_k`` best (ties broken
        by position for determinism).
        """
        scored = []
        for position in self.probe(vector):
            score = cosine(vector, self.vectors[position])
            if score >= threshold:
                scored.append((position, score))
        scored.sort(key=lambda item: (-item[1], item[0]))
        if top_k is not None:
            scored = scored[:top_k]
        return scored

    def probe_batch(self, vectors) -> list[list[int]]:
        """:meth:`probe` for many vectors (batched signature computation)."""
        buckets = self.buckets
        probed: list[list[int]] = []
        for band_keys in self.signature_batch(vectors):
            candidates: set[int] = set()
            for band_key in band_keys:
                positions = buckets.get(band_key)
                if positions:
                    candidates.update(positions)
            probed.append(sorted(candidates))
        return probed

    def _corpus_columns(self):
        """Lazy bucket-major view of the corpus for batched cosine."""
        from repro.perf.arrays import SparseColumns

        if self._columns is None:
            self._columns = SparseColumns(self.vectors)
        return self._columns

    def search_batch(
        self,
        vectors,
        threshold: float = 0.0,
        top_k: int | None = None,
    ) -> list[list[tuple[int, float]]]:
        """:meth:`search` for many vectors in one batched pass.

        Candidates come from :meth:`probe_batch`; verification scores
        each query against the whole corpus with one columnar cosine
        accumulation (ascending shared buckets — bit-identical floats to
        the scalar :func:`~repro.text.vectorize.cosine`), then applies
        the same threshold/ranking/``top_k``.  Each per-query result
        equals :meth:`search` on that query exactly.
        """
        from repro.perf.arrays import batch_cosine

        columns = self._corpus_columns()

        results: list[list[tuple[int, float]]] = []
        for vector, candidates in zip(vectors, self.probe_batch(vectors)):
            if not candidates:
                results.append([])
                continue
            scores = batch_cosine(vector, columns)
            scored = []
            for position in candidates:
                score = float(scores[position])
                if score >= threshold:
                    scored.append((position, score))
            scored.sort(key=lambda item: (-item[1], item[0]))
            if top_k is not None:
                scored = scored[:top_k]
            results.append(scored)
        return results

    # ------------------------------------------------------------------
    # Pickling (the sign caches and corpus columns are derived state)
    # ------------------------------------------------------------------
    _DERIVED_SLOTS = ("_sign_cache", "_np_signs", "_columns")

    def __getstate__(self):
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in self._DERIVED_SLOTS
        }

    def __setstate__(self, state):
        for slot, value in state.items():
            object.__setattr__(self, slot, value)
        object.__setattr__(self, "_sign_cache", {})
        object.__setattr__(self, "_np_signs", {})
        object.__setattr__(self, "_columns", None)

    def __len__(self) -> int:
        return len(self.keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AnnIndex {len(self.keys)} records, {self.n_bands}x"
            f"{self.band_bits} bands, {len(self.buckets)} buckets>"
        )

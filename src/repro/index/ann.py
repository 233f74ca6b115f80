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

Each (bucket, plane) entry of the hyperplanes is a Rademacher ±1 sign
derived from ``blake2b(seed : bucket)`` — a valid random-projection
family, and deterministic across processes, which is what lets the
whole index live in :class:`repro.index.IndexStore` as a
content-fingerprinted artifact: a disk-tier reload searches
byte-identically to the build that wrote it.

A side is a CSR matrix of L2-normalized weights (rows are records,
columns are buckets, indices sorted), and everything runs on arrays:

* signatures are one product with the ±1 rows of the buckets a side
  uses, which accumulates each plane over ascending buckets from 0.0;
  a band's bits are one int64 code, and each band keeps its rows
  sorted by code, so a probe's collisions are one ``searchsorted``
  range per band;
* candidates are deduplicated per chunk of probe rows with a bitmap;
* scores are exact cosines (:func:`pair_cosines`).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.exceptions import ConfigurationError
from repro.perf.arrays import CHUNK_TARGET_NNZ, _ragged_take


def validate_lsh(n_bands: int, band_bits: int, top_k: int | None = None) -> None:
    """Reject a banding (or ``top_k``) the index cannot represent.

    Each plane takes one bit of a bucket's ``blake2b`` digest, which
    holds at most 64 bytes (512 planes), and a band's bits are one int64
    code (at most 63 bits).
    """
    if n_bands < 1 or band_bits < 1:
        raise ConfigurationError(
            f"need n_bands >= 1 and band_bits >= 1, "
            f"got n_bands={n_bands} band_bits={band_bits}"
        )
    if n_bands * band_bits > 512:
        raise ConfigurationError(
            f"n_bands * band_bits must be <= 512, got {n_bands} * {band_bits}"
        )
    if band_bits > 63:
        raise ConfigurationError(f"band_bits must be <= 63, got {band_bits}")
    if top_k is not None and (isinstance(top_k, bool) or top_k < 1):
        raise ConfigurationError(f"top_k must be an int >= 1, got {top_k!r}")


def _plane_signs(buckets, seed: int, n_planes: int):
    """The ±1 hyperplane entries of each bucket, ``(buckets, n_planes)``:
    plane *p* is bit *p* of ``blake2b(f"{seed}:{bucket}")`` read as a
    big-endian integer."""
    size = (n_planes + 7) // 8
    digests = b"".join(
        hashlib.blake2b(f"{seed}:{bucket}".encode("utf-8"), digest_size=size).digest()
        for bucket in buckets.tolist()
    )
    # Last byte first, so the little-endian unpack yields bit 0 first.
    raw = np.frombuffer(digests, dtype=np.uint8).reshape(len(buckets), size)[:, ::-1]
    bits = np.unpackbits(raw, axis=1, bitorder="little")[:, :n_planes]
    return np.where(bits, 1.0, -1.0)


def pair_cosines(left, right_t, rows, positions):
    """Exact cosine of each ``(left row, right row)`` pair, ``rows`` ascending.

    Both sides are CSR matrices of L2-normalized weights with sorted
    indices; the right one comes transposed (``right.T.tocsr()``).  Per
    block of left rows the scores are read off one sparse product
    ``left[block] @ right_t``, whose entries scipy sums over the shared
    buckets in ascending order from zero — the order of the scalar
    :func:`repro.text.vectorize.sparse_dot`, so each float is the scalar
    one.  A block holds at most ``CHUNK_TARGET_NNZ`` pairs.
    """
    step = max(1, CHUNK_TARGET_NNZ // max(right_t.shape[1], 1))
    scores = np.zeros(len(rows), dtype=np.float64)
    block = rows // step
    cuts = [*np.flatnonzero(np.diff(block, prepend=-1)).tolist(), len(rows)]
    for start, stop in zip(cuts, cuts[1:]):
        first = int(block[start]) * step
        product = (left[first : first + step] @ right_t).toarray()
        scores[start:stop] = product[rows[start:stop] - first, positions[start:stop]]
    return scores


def rank_cut(groups, scores, top_k: int | None):
    """Indices ordering pairs by group, then descending score, with each
    group cut to its ``top_k`` best (all of them for ``None``).  The sort
    is stable, so pairs listed in tie order within each group (positions
    or candset rows ascending) stay in it."""
    order = np.lexsort((-scores, groups))
    if top_k is not None:
        grouped = groups[order]
        order = order[np.arange(len(order)) - np.searchsorted(grouped, grouped) < top_k]
    return order


class AnnIndex:
    """Banded LSH over signed random projections of one side's vectors.

    ``keys``/``matrix`` are the indexed side in record order (a CSR of
    L2-normalized weights).  ``band_codes[b]`` holds band *b*'s code of
    every row with a non-empty vector, ascending (a stable sort, so
    equal codes keep row order), and ``band_rows[b]`` the rows they
    belong to: an empty vector (missing or blank value) is never a
    candidate, and an empty probe row finds none.

    Read-only once built, like every :class:`IndexStore` artifact.
    """

    __slots__ = ("key", "n_bands", "band_bits", "seed", "keys", "matrix",
                 "band_codes", "band_rows")

    def __init__(self, key: str, keys: list, matrix, n_bands: int = 16,
                 band_bits: int = 6, seed: int = 0):
        validate_lsh(n_bands, band_bits)
        self.key = key
        self.n_bands = n_bands
        self.band_bits = band_bits
        self.seed = seed
        self.keys = keys
        self.matrix = matrix
        live = np.flatnonzero(np.diff(matrix.indptr))
        codes = self.codes(matrix[live]).T
        order = np.argsort(codes, axis=1, kind="stable")
        self.band_codes = np.take_along_axis(codes, order, axis=1)
        self.band_rows = live[order]

    @property
    def n_planes(self) -> int:
        return self.n_bands * self.band_bits

    def codes(self, matrix):
        """Each row's band codes, ``(rows, n_bands)`` int64: the sign bit
        of plane *p* (projection >= 0.0) is bit ``p % band_bits`` of band
        ``p // band_bits``."""
        from scipy import sparse

        n_rows, width = matrix.shape
        used = np.flatnonzero(np.bincount(matrix.indices, minlength=width))
        compact = sparse.csr_matrix(
            (matrix.data, np.searchsorted(used, matrix.indices), matrix.indptr),
            shape=(n_rows, len(used)),
        )
        signs = _plane_signs(used, self.seed, self.n_planes)
        bits = (compact @ signs >= 0.0).reshape(n_rows, self.n_bands, self.band_bits)
        return bits @ (np.int64(1) << np.arange(self.band_bits, dtype=np.int64))

    def search(self, matrix, threshold: float, top_k: int | None = None):
        """Every probe row's colliding rows with cosine >= ``threshold``.

        ``matrix`` is the probe side in this index's vector space.
        Returns ``(rows, positions, scores)`` arrays ordered by probe
        row, then descending score, then position, each row cut to its
        ``top_k`` best.
        """
        n_rows = len(self.keys)
        live = np.flatnonzero(np.diff(matrix.indptr))
        codes = self.codes(matrix[live])
        starts = np.empty_like(codes)
        counts = np.empty_like(codes)
        for band, band_codes in enumerate(self.band_codes):
            lo = np.searchsorted(band_codes, codes[:, band], side="left")
            starts[:, band] = lo + band * band_codes.shape[0]
            counts[:, band] = np.searchsorted(band_codes, codes[:, band], side="right") - lo
        flat_rows = self.band_rows.ravel()
        right_t = self.matrix.T.tocsr()
        # Per chunk of probe rows: one (probe rows x index rows) bitmap
        # dedups the bands' ranges and leaves the pairs sorted by (row,
        # position); only the chunk's survivors outlive it.
        step = max(1, CHUNK_TARGET_NNZ // max(n_rows, 1))
        found = [(np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),)]
        for first in range(0, len(live), step):
            chunk = slice(first, first + step)
            _, take = _ragged_take(starts[chunk].ravel(), counts[chunk].ravel())
            local = np.repeat(np.arange(len(live[chunk])), counts[chunk].sum(axis=1))
            seen = np.zeros(len(live[chunk]) * n_rows, dtype=bool)
            seen[local * n_rows + flat_rows[take]] = True
            pairs = np.flatnonzero(seen)
            rows, positions = live[chunk][pairs // n_rows], pairs % n_rows
            scores = pair_cosines(matrix, right_t, rows, positions)
            keep = scores >= threshold
            rows, positions, scores = rows[keep], positions[keep], scores[keep]
            order = rank_cut(rows, scores, top_k)
            found.append((rows[order], positions[order], scores[order]))
        return tuple(map(np.concatenate, zip(*found)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AnnIndex {len(self.keys)} records, {self.n_bands}x"
            f"{self.band_bits} bands>"
        )

"""Columnar CSR kernels: the batched body of the hot paths.

Every per-pair loop of the set-similarity joins — filter-verify
candidate collection and verification — is done here for a *batch* of
probes as a handful of ``numpy``/``scipy`` matrix operations instead of
millions of interpreter steps (the vector branch's kernels, on the same
CSR layout, are in :mod:`repro.index.ann`):

* encoded corpora become CSR token-incidence matrices (``indptr``/
  ``indices`` postings, int64 counts as data), registered in
  :class:`repro.index.IndexStore` as fingerprinted artifacts;
* candidates for a whole probe batch are one sparse matmul
  (``probe prefixes @ corpus prefixes.T``), and overlap counts are
  computed **only at the candidate pairs that pass the size window,
  the bitmap filter and the positional bound** — a sorted-row merge of
  the two CSR rows per pair, never a product over every pair sharing
  some (possibly hot) token — producing **exact ints**, so the scalar
  score formulas reproduce bit-identical floats;
* the bitmap filter (Sandes, Teodoro & Melo's) gives every row one
  ``uint64`` word with bit ``id & 63`` set per id.  Each bit set in
  just one of two words stands for an id of that row the other lacks,
  so ``overlap <= (nnz_l + |r| - popcount(b_l ^ b_r)) // 2``: one XOR
  and one popcount a pair, exact while ids stay under 64, loose once
  rows are long enough to set most bits — so it runs in front of the
  positional bound, not instead of it;
* the positional bound (ppjoin's) needs both prefixes to be heads of
  rows sorted by *one* id order, any order: shared ids up to the
  smaller last prefix id are all in the product value, past it the
  owner of that id has only its unsliced tail.  Candidates are counted
  before it;
* size-window and prefix bounds are vectorized replicas of
  :mod:`repro.simjoin.filters` — same operations, in the same order, on
  the same values, so every bound decision matches the scalar formula
  decision-for-decision.

**Byte-identity is the contract**, not an aspiration: for any corpus
and any probe batch, :func:`batch_set_sim_probe` emits the same
survivors with the same float scores in the same order as the
brute-force ``naive_set_sim_join`` (property-tested in
``tests/test_kernel_arrays.py``).  A deliberate consequence: survivors
are ordered by (probe row, corpus position) before emission because
scipy does not guarantee sorted indices on matmul results — only
survivors: filtering and verification are order-free.

The live index (:mod:`repro.index.delta`) probes the same
:class:`ArrayIndex` with its own numpy filter-verify routine, which
reads the prefix postings straight out of ``prefix_t`` and scores with
:func:`scores_arrays`; nothing here chooses between paths.

Observability: callers report batched kernel calls through
:func:`observe_kernel_batch` (``kernel_batch_calls_total{op}``,
``kernel_batch_rows_total{op}``, ``kernel_batch_candidates_total{op}``,
``kernel_batch_verified_total{op}``, ``kernel_batch_seconds{op}``).
Forked join shards return their stats to the parent, which emits — a
counter bumped inside a forked worker would die with the fork.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

import numpy as np
from scipy import sparse as _sparse

from repro.exceptions import ConfigurationError
from repro.obs import get_registry
from repro.perf.kernels import BOUND_EPS, ceil_bound

#: Upper bound on candidate-product entries materialized per probe
#: chunk (and so on the pairs verified at once, ~300 bytes each at the
#: peak).  Cache-sized chunks are also the fastest: on the spine's dense
#: join 1<<16 runs ~15 % quicker than 1<<18 at 50 MB less peak RSS.
CHUNK_TARGET_NNZ = 1 << 16

def observe_kernel_batch(
    op: str, rows: int, candidates: int, seconds: float | None = None, verified: int = 0
) -> None:
    """Account one batched kernel call on the process registry (a caller
    that times the call with ``registry.timer("kernel_batch_seconds",
    op=op)`` passes no ``seconds``)."""
    registry = get_registry()
    registry.counter("kernel_batch_calls_total", op=op).inc()
    registry.counter("kernel_batch_rows_total", op=op).inc(rows)
    registry.counter("kernel_batch_candidates_total", op=op).inc(candidates)
    if verified:
        registry.counter("kernel_batch_verified_total", op=op).inc(verified)
    if seconds is not None:
        registry.histogram("kernel_batch_seconds", op=op).observe(seconds)


# ----------------------------------------------------------------------
# Vectorized bound replicas of repro.simjoin.filters
#
# Each function performs the *same floating-point operations in the same
# order* as its scalar twin (coefficients precomputed in Python floats,
# int sums before float conversion, np.sqrt == math.sqrt, np.ceil ==
# math.ceil), so the int bounds are equal element-for-element.
#
# A fifth measure has no scalar twin: "qgram_count", the edit-distance
# join's count filter (Ed-Join) over occurrence-tagged q-gram sets.  Its
# threshold is -q*d and a pair's score is overlap - max(sizes), so it
# keeps the pairs sharing at least max(sizes) - q*d tokens, sizes within
# q*d of each other; the generic prefix formula gives q*d + 1.
# ----------------------------------------------------------------------
def _ceil_bound(values):
    """Vector twin of :func:`repro.perf.kernels.ceil_bound`."""
    return np.ceil(values - BOUND_EPS).astype(np.int64)


def size_bounds_arrays(measure: str, threshold: float, sizes):
    """Per-row (lower, widened upper) partner-size window.

    Mirrors :func:`repro.simjoin.filters.size_bounds` with the callers'
    ``upper += BOUND_EPS`` widening already applied.
    """
    sizes_f = sizes.astype(np.float64)
    if measure == "jaccard":
        lower = _ceil_bound(threshold * sizes_f)
        upper = sizes_f / threshold
    elif measure == "cosine":
        squared = threshold * threshold
        lower = _ceil_bound(squared * sizes_f)
        upper = sizes_f / squared
    elif measure == "dice":
        lower = _ceil_bound(threshold / (2.0 - threshold) * sizes_f)
        upper = (2.0 - threshold) / threshold * sizes_f
    elif measure == "qgram_count":
        lower = sizes + threshold
        upper = sizes_f - threshold
    else:  # overlap
        lower = np.full(len(sizes), ceil_bound(threshold), dtype=np.int64)
        upper = np.full(len(sizes), math.inf, dtype=np.float64)
    return lower, upper + BOUND_EPS


def overlap_bounds_arrays(measure: str, threshold: float, left_sizes, right_sizes):
    """Vector twin of :func:`repro.simjoin.filters.overlap_lower_bound`."""
    if measure == "jaccard":
        coefficient = threshold / (1.0 + threshold)
        return _ceil_bound(coefficient * (left_sizes + right_sizes).astype(np.float64))
    if measure == "cosine":
        return _ceil_bound(
            threshold * np.sqrt((left_sizes * right_sizes).astype(np.float64))
        )
    if measure == "dice":
        coefficient = threshold / 2.0
        return _ceil_bound(coefficient * (left_sizes + right_sizes).astype(np.float64))
    if measure == "qgram_count":
        return np.maximum(left_sizes, right_sizes) + threshold
    return np.full(len(left_sizes), ceil_bound(threshold), dtype=np.int64)


def prefix_lengths_arrays(measure: str, threshold: float, sizes):
    """Vector twin of :func:`repro.simjoin.filters.prefix_length`."""
    if measure == "overlap":
        lengths = np.maximum(sizes - ceil_bound(threshold) + 1, 0)
    else:
        lower, _ = size_bounds_arrays(measure, threshold, sizes)
        lower = np.maximum(lower, 1)
        bound = overlap_bounds_arrays(measure, threshold, sizes, lower)
        lengths = np.maximum(sizes - bound + 1, 0)
    return np.where(sizes == 0, 0, lengths)


def scores_arrays(measure: str, overlap, left_sizes, right_sizes):
    """Vector twin of :func:`repro.simjoin.filters.similarity` and of the
    :mod:`repro.text.sim.token_based` set measures.

    All inputs are exact int64; int64 true division, ``np.sqrt``, and
    float64 elementwise products are IEEE-correctly-rounded, so each
    element equals the scalar formula's float bit-for-bit.  For the
    normalized measures an empty side scores 0.0 and two empty sides 1.0.
    """
    if measure == "overlap":
        return overlap.astype(np.float64)
    if measure == "qgram_count":
        return (overlap - np.maximum(left_sizes, right_sizes)).astype(np.float64)
    if len(overlap) and np.count_nonzero(left_sizes * right_sizes) < len(overlap):
        # The formulas divide by the sizes: score the empty sides apart.
        empty = (left_sizes == 0) | (right_sizes == 0)
        scores = (left_sizes == right_sizes).astype(np.float64)
        scores[~empty] = scores_arrays(
            measure, overlap[~empty], left_sizes[~empty], right_sizes[~empty]
        )
        return scores
    if measure == "jaccard":
        return overlap / (left_sizes + right_sizes - overlap)
    if measure == "cosine":
        return overlap / np.sqrt((left_sizes * right_sizes).astype(np.float64))
    if measure == "dice":
        return (2.0 * overlap) / (left_sizes + right_sizes)
    if measure == "overlap_coefficient":
        return overlap / np.minimum(left_sizes, right_sizes)
    raise ConfigurationError(f"no array scorer for measure {measure!r}")


# ----------------------------------------------------------------------
# CSR corpus structures
# ----------------------------------------------------------------------
class ArrayRecords:
    """One side's records as a CSR matrix with sorted indices per row.

    Each side of a :class:`~repro.index.store.PairEncoding` is a token
    incidence: row *i* holds record *i*'s token ids with int64 ones as
    data, and ``sizes[i]`` is its distinct-token count.  Each side of a
    :class:`~repro.index.store.VectorPair` holds bucket weights instead
    (float64 data; ``sizes[i]`` its bucket count).
    """

    __slots__ = ("key", "keys", "sizes", "matrix", "dim")

    def __init__(self, key: str, keys: list, sizes, matrix, dim: int):
        self.key = key
        self.keys = keys
        self.sizes = sizes
        self.matrix = matrix
        self.dim = dim


class ArrayIndex:
    """The corpus (right) side prepared for batched probing.

    The row-major incidence ``matrix`` (``n_rows x dim``, sorted rows:
    exact overlaps are merged out of it at candidate pairs only) and the
    pre-transposed prefix incidence ``prefix_t`` (``dim x n_rows``, so a
    probe batch hits scipy's ``csr @ csr`` fast path), plus the sizes,
    prefix lengths and last prefix ids the filters read — all derived on
    construction and on unpickling rather than persisted.
    Keyed by (encoding, measure, threshold).
    """

    __slots__ = ("key", "keys", "sizes", "prefix_sizes", "prefix_last", "bitmaps", "matrix",
                 "prefix_t", "n_rows", "dim")

    def __init__(self, key: str, keys: list, matrix, prefix_t, dim: int):
        self.key = key
        self.keys = keys
        self.sizes = np.diff(matrix.indptr).astype(np.int64)
        self.prefix_sizes = np.bincount(prefix_t.indices, minlength=len(keys))
        self.prefix_last = _head_last(matrix.indptr, matrix.indices, self.prefix_sizes)
        self.bitmaps = row_bitmaps(matrix.indptr, matrix.indices)
        self.matrix = matrix
        self.prefix_t = prefix_t
        self.n_rows = len(keys)
        self.dim = dim

    def __reduce__(self):
        return ArrayIndex, (self.key, self.keys, self.matrix, self.prefix_t, self.dim)


def _indptr(counts):
    """CSR row pointers for rows of ``counts`` entries (int64)."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _ragged_take(starts, counts):
    """The row pointers and flat source positions of rows that take
    ``counts[i]`` consecutive entries from ``starts[i]`` on."""
    indptr = _indptr(counts)
    offsets = np.arange(int(indptr[-1]), dtype=np.int64)
    return indptr, np.repeat(starts - indptr[:-1], counts) + offsets


def _array_records(key: str, keys: list, indptr, indices, dim: int) -> ArrayRecords:
    width = max(dim, 1)
    matrix = _sparse.csr_matrix(
        (np.ones(len(indices), dtype=np.int64), indices, indptr),
        shape=(len(keys), width),
    )
    return ArrayRecords(key, keys, np.diff(indptr), matrix, width)


def take_rows(key: str, keys: list, lengths, indices, rows, dim: int) -> ArrayRecords:
    """Row ``rows[i]`` of a block of rows laid end to end in ``indices``
    (row *j* is ``lengths[j]`` long) as row *i* of an :class:`ArrayRecords`
    keyed by ``keys``."""
    starts = np.cumsum(lengths) - lengths
    new_indptr, take = _ragged_take(starts[rows], lengths[rows])
    return _array_records(key, keys, new_indptr, indices[take], dim)


def _head_last(indptr, indices, lengths):
    """The last id of each CSR row's ``lengths``-long head (arbitrary
    for an empty head, which no product entry ever reads)."""
    ends = np.maximum(indptr[:-1] + lengths - 1, 0)
    return indices[ends] if len(indices) else ends


def row_bitmaps(indptr, indices):
    """One ``uint64`` word per CSR row with bit ``id & 63`` set for each
    of its ids (0 for an empty row)."""
    bits = np.left_shift(np.uint64(1), (indices[: indptr[-1]] & 63).astype(np.uint64))
    words = np.zeros(len(indptr) - 1, dtype=np.uint64)
    # reduceat gives an empty segment its start's bit: skip empty rows.
    filled = indptr[:-1] < indptr[1:]
    words[filled] = np.bitwise_or.reduceat(bits, indptr[:-1][filled])
    return words


def csr_prefix_slice(matrix, lengths):
    """Per-row head slice of a CSR matrix (row *i* keeps ``lengths[i]``).

    Token ids are stored sorted, so the head of a row *is* its prefix
    under the global frequency ordering.
    """
    indptr = matrix.indptr.astype(np.int64)
    counts = np.minimum(np.asarray(lengths, dtype=np.int64), np.diff(indptr))
    new_indptr, take = _ragged_take(indptr[:-1], counts)
    return _sparse.csr_matrix(
        (np.ones(len(take), dtype=matrix.data.dtype), matrix.indices[take], new_indptr),
        shape=matrix.shape,
    )


def build_array_index(key: str, arrays: ArrayRecords, measure: str, threshold: float) -> ArrayIndex:
    """Prepare one side's :class:`ArrayRecords` as the probed corpus."""
    lengths = prefix_lengths_arrays(measure, threshold, arrays.sizes)
    prefix = csr_prefix_slice(arrays.matrix, lengths)
    return ArrayIndex(key, arrays.keys, arrays.matrix, prefix.T.tocsr(), arrays.dim)


def build_probe_matrix(rows: Sequence[Sequence[int]], dim: int):
    """A CSR matrix from sorted encoded rows, ``dim`` columns wide.

    Token ids at or past ``dim`` are dropped; sorted ids put them at the
    tail of each row, so the surviving head is a prefix of the row.
    """
    width = max(dim, 1)
    kept = [ids[: bisect_left(ids, width)] for ids in rows]
    counts = np.fromiter((len(ids) for ids in kept), dtype=np.int64, count=len(kept))
    indptr = _indptr(counts)
    total = int(indptr[-1])
    indices = np.fromiter(
        (token for ids in kept for token in ids), dtype=np.int64, count=total
    )
    return _sparse.csr_matrix(
        (np.ones(total, dtype=np.int64), indices, indptr), shape=(len(kept), width)
    )


# ----------------------------------------------------------------------
# The batched filter-verify probe
# ----------------------------------------------------------------------
def _compress(mask, *columns):
    """Each column at ``mask``: one ``flatnonzero`` and a take per column,
    a few times quicker than a boolean index per column."""
    at = np.flatnonzero(mask)
    return tuple(column[at] for column in columns)


def batch_set_sim_probe(
    probe_matrix,
    true_sizes,
    index: ArrayIndex,
    measure: str,
    threshold: float,
):
    """Filter-verify a probe batch against an :class:`ArrayIndex`.

    Per probe row the candidates are the corpus rows sharing a prefix
    token inside the size window; survivors, scores and their
    right-position order equal the brute-force join's exactly.

    ``true_sizes`` are the probes' true distinct-token counts (which can
    exceed row nnz when queries carry out-of-universe tokens).

    Each product entry meets the size window, the bitmap filter, the
    positional bound, then exact verification.  Returns
    ``(result_indptr, positions, scores, candidate_counts, bitmap_kept,
    verified)``: flat survivor arrays sorted by (probe row, corpus
    position), sliced per probe row by ``result_indptr``; per-row
    candidate counts taken after the size window, before the other
    filters; the numbers of pairs kept by the bitmap filter and verified.
    """
    n_probe = probe_matrix.shape[0]
    n_rows = index.n_rows
    lower, upper = size_bounds_arrays(measure, threshold, true_sizes)
    lengths = prefix_lengths_arrays(measure, threshold, true_sizes)
    prefix_matrix = csr_prefix_slice(probe_matrix, lengths)
    # With nothing sliced off either side the candidate product already
    # holds exact overlaps; otherwise they are computed at kept pairs.
    counts_from_candidates = (
        prefix_matrix.nnz == probe_matrix.nnz and index.prefix_t.nnz == index.matrix.nnz
    )
    probe_nnz = np.diff(probe_matrix.indptr)
    probe_bitmaps = row_bitmaps(probe_matrix.indptr, probe_matrix.indices)
    probe_prefix = np.diff(prefix_matrix.indptr)
    probe_last = _head_last(prefix_matrix.indptr, prefix_matrix.indices, probe_prefix)
    probe_rest = probe_nnz - probe_prefix
    # A probe row's product entries number at most the summed posting
    # lengths of its prefix tokens; chunks are cut on that running bound,
    # so the working set tracks candidates however hot a shared token is.
    postings = np.diff(index.prefix_t.indptr)
    bound = _indptr(postings[prefix_matrix.indices])[prefix_matrix.indptr]

    out_rows = [np.zeros(0, dtype=np.int64)]
    out_cols = [np.zeros(0, dtype=np.int64)]
    out_scores = [np.zeros(0, dtype=np.float64)]
    candidate_counts = np.zeros(n_probe, dtype=np.int64)
    bitmap_kept = verified = 0
    cuts = [0]
    while cuts[-1] < n_probe:
        fits = np.searchsorted(bound, bound[cuts[-1]] + CHUNK_TARGET_NNZ, side="right")
        cuts.append(max(cuts[-1] + 1, int(fits) - 1))
    for start, stop in zip(cuts[:-1], cuts[1:]):
        cand = prefix_matrix[start:stop] @ index.prefix_t
        # Product rows are grouped but their columns unsorted: filter the
        # raw entries, and order only the survivors at the end.
        rows = np.repeat(np.arange(start, stop, dtype=np.int64), np.diff(cand.indptr))
        cols, shared = cand.indices, cand.data
        right_sizes = index.sizes[cols]
        keep = (right_sizes >= lower[rows]) & (right_sizes <= upper[rows])
        candidate_counts[start:stop] = np.bincount(rows - start, keep, stop - start)
        if not counts_from_candidates:
            needed = overlap_bounds_arrays(measure, threshold, true_sizes[rows], right_sizes)
            # Bitmap filter, overlap <= (nnz_l + |r| - popcount(b_l ^ b_r)) // 2
            # (compared doubled): a bit set in one word only stands for an id
            # of that row the other lacks.  Out-of-universe probe tokens are
            # in no corpus row, so the probe side counts nnz, not true size.
            # It runs on the raw entries beside the window: one compress for both.
            differ = np.bitwise_count(probe_bitmaps[rows] ^ index.bitmaps[cols])
            keep &= probe_nnz[rows] + right_sizes - differ >= 2 * needed
            rows, cols, right_sizes, shared, needed = _compress(
                keep, rows, cols, right_sizes, shared, needed
            )
            bitmap_kept += len(rows)
            # Positional bound: the owner of the smaller last prefix id has its tail left.
            owner = probe_last[rows] <= index.prefix_last[cols]
            rest = np.where(owner, probe_rest[rows], right_sizes - index.prefix_sizes[cols])
            rows, cols, right_sizes = _compress(
                shared + rest >= needed, rows, cols, right_sizes
            )
        else:
            rows, cols, right_sizes, shared = _compress(keep, rows, cols, right_sizes, shared)
            bitmap_kept += len(rows)
        if len(rows) == 0:
            continue
        verified += len(rows)
        if counts_from_candidates:
            overlap = shared
        else:
            # Sampled product: one sorted-row merge per kept pair.
            shared = probe_matrix[rows].multiply(index.matrix[cols])
            overlap = np.asarray(shared.sum(axis=1)).ravel()
        scores = scores_arrays(measure, overlap, true_sizes[rows], right_sizes)
        survived = scores >= threshold
        out_rows.append(rows[survived])
        out_cols.append(cols[survived])
        out_scores.append(scores[survived])

    rows = np.concatenate(out_rows)
    positions = np.concatenate(out_cols)  # int64: promoted by the seed array
    order = np.argsort(rows * n_rows + positions)
    result_indptr = _indptr(np.bincount(rows, minlength=n_probe))
    scores = np.concatenate(out_scores)[order]
    return result_indptr, positions[order], scores, candidate_counts, bitmap_kept, verified

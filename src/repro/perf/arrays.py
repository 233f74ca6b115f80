"""Columnar CSR kernels: the batched body of the hot paths.

Every per-pair loop of the set-similarity joins and of the live index's
reads — filter-verify candidate collection and verification — is one
routine here, :func:`filter_verify`, run over a batch of probe rows of
any size, one row included, as a handful of ``numpy`` operations on
plain CSR arrays (the vector branch's kernels, on scipy matrices, are in
:mod:`repro.index.ann`):

* an :class:`ArrayIndex` is a corpus's CSR token rows (a fingerprinted
  :class:`repro.index.IndexStore` artifact) plus its prefix postings,
  token-major in the same two-array layout;
* candidates of a chunk of probe rows are their prefix postings, coded
  ``probe_row * n_rows + row`` in int32 and sorted once: runs of equal
  codes are the unique pairs and their shared prefix ids;
* the bitmap filter (Sandes, Teodoro & Melo's) gives every row one
  ``uint64`` word with bit ``id & 63`` set per id, and
  ``overlap <= (nnz_l + |r| - popcount(b_l ^ b_r)) // 2``: exact while
  ids stay under 64, loose once rows set most bits — so it runs in
  front of the positional bound, not instead of it;
* the positional bound (ppjoin's) needs both prefixes to be heads of
  rows sorted by one id order: shared ids up to the smaller last prefix
  id are all counted, past it the owner of that id has only its tail;
* exact overlaps, at the pairs every filter kept, come from one ragged
  gather of their rows and a ``searchsorted`` membership test — exact
  ints, so the score formulas reproduce the scalar floats bit for bit;
* size-window and prefix bounds are vectorized replicas of
  :mod:`repro.simjoin.filters`, decision for decision, tabulated by size.

**Byte-identity is the contract**: for any corpus and any probe batch
the survivors, float scores and (probe row, position) order equal the
brute-force ``naive_set_sim_join``'s (``tests/test_kernel_arrays.py``).

Observability: callers report batched kernel calls through
:func:`observe_kernel_batch` (``kernel_batch_calls_total{op}``,
``kernel_batch_rows_total{op}``, ``kernel_batch_candidates_total{op}``,
``kernel_batch_verified_total{op}``, ``kernel_batch_seconds{op}``).
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs import get_registry
from repro.perf.kernels import BOUND_EPS, ceil_bound

#: Upper bound on the prefix postings gathered per probe chunk (and so
#: on the pairs filtered and verified at once): cache-sized chunks.
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
    return np.full(len(right_sizes), ceil_bound(threshold), dtype=np.int64)


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
    """One side's token incidence as CSR arrays: row *i* is record *i*'s
    sorted token ids ``indices[indptr[i]:indptr[i + 1]]`` (int64
    ``indptr``, int32 ``indices``), each below ``dim``; ``sizes[i]`` is
    its distinct-token count.  Each side of a
    :class:`~repro.index.store.PairEncoding` is one."""

    __slots__ = ("key", "keys", "indptr", "indices", "dim")

    def __init__(self, key: str, keys: list, indptr, indices, dim: int):
        self.key, self.keys, self.indptr, self.indices, self.dim = key, keys, indptr, indices, dim

    @property
    def sizes(self):
        return np.diff(self.indptr)


class ArrayIndex:
    """The corpus (right) side prepared for probing: its CSR rows
    (``indptr``/``indices``, sorted, read at candidate pairs only) and its
    prefix postings, token-major (token *t*'s are the ascending rows
    ``postings[posting_indptr[t]:posting_indptr[t + 1]]``), plus what the
    filters read — sizes, prefix lengths, last prefix ids, row bitmaps —
    derived on construction and on unpickling, never persisted.  Keyed by
    (encoding, measure, threshold).
    """

    __slots__ = ("key", "keys", "sizes", "prefix_sizes", "prefix_last", "bitmaps", "indptr",
                 "indices", "posting_indptr", "postings", "n_rows", "dim", "posting_sizes",
                 "whole")

    def __init__(self, key: str, keys: list, indptr, indices, posting_indptr, postings, dim: int):
        self.key, self.keys, self.indptr, self.indices, self.dim = key, keys, indptr, indices, dim
        self.posting_indptr, self.postings = posting_indptr, postings
        self.n_rows, self.sizes = len(keys), np.diff(indptr)
        self.prefix_sizes = np.bincount(postings, minlength=len(keys))
        self.prefix_last = _head_last(indptr, indices, self.prefix_sizes)
        self.bitmaps = row_bitmaps(indptr, indices)
        # One zero past the last token: extension ids clip to it.
        self.posting_sizes = np.append(np.diff(posting_indptr), 0)
        self.whole = len(postings) == indptr[-1]

    def __reduce__(self):
        return ArrayIndex, (self.key, self.keys, self.indptr, self.indices, self.posting_indptr,
                            self.postings, self.dim)

    def posting_lengths(self, ids):
        """The prefix posting length of each id (0 for an id past the
        universe, which no row here holds)."""
        return self.posting_sizes.take(ids, mode="clip")

    def posting_rows(self, ids, lengths):
        """The rows posted under ``ids`` (``lengths`` long), end to end."""
        _, take = _ragged_take(self.posting_indptr.take(ids, mode="clip"), lengths)
        return self.postings[take]


def _indptr(counts):
    """CSR row pointers for rows of ``counts`` entries (int64)."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    counts.cumsum(out=indptr[1:])
    return indptr


def _ragged_take(starts, counts):
    """The row pointers and flat source positions of rows that take
    ``counts[i]`` consecutive entries from ``starts[i]`` on."""
    indptr = _indptr(counts)
    return indptr, (starts - indptr[:-1]).repeat(counts) + np.arange(indptr[-1])


def take_values(values: list, positions) -> list:
    """``values`` at an int array of positions, as a list."""
    return list(map(values.__getitem__, positions.tolist()))


def take_rows(key: str, keys: list, lengths, indices, rows, dim: int) -> ArrayRecords:
    """Row ``rows[i]`` of a block of rows laid end to end in ``indices``
    (row *j* is ``lengths[j]`` long) as row *i* of an :class:`ArrayRecords`
    keyed by ``keys``.  Rows are gathered a chunk of about
    ``CHUNK_TARGET_NNZ`` ids at a time, so no position array as long as
    the output is ever held beside it."""
    starts = np.cumsum(lengths)
    starts -= lengths
    counts = lengths[rows]
    indptr = _indptr(counts)
    gathered = np.empty(indptr[-1], np.int32)
    step = max(1, CHUNK_TARGET_NNZ // int(counts.max(initial=1)))
    for lo in range(0, len(rows), step):
        hi = min(lo + step, len(rows))
        _, take = _ragged_take(starts[rows[lo:hi]], counts[lo:hi])
        gathered[indptr[lo] : indptr[hi]] = indices[take]
    return ArrayRecords(key, keys, indptr, gathered, max(dim, 1))


def _head_last(indptr, indices, lengths):
    """The last id of each CSR row's ``lengths``-long head (arbitrary
    for an empty head, which no pair ever reads)."""
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


def build_array_index(key: str, rows: ArrayRecords, measure: str, threshold: float) -> ArrayIndex:
    """Prepare one side's :class:`ArrayRecords` as the probed corpus: the
    head of each row (ids are sorted, so the head is the prefix), posted
    under its ids by :func:`posting_lists`."""
    lengths = np.minimum(prefix_lengths_arrays(measure, threshold, rows.sizes), rows.sizes)
    posting_indptr, postings = posting_lists(rows, lengths)
    return ArrayIndex(key, rows.keys, rows.indptr, rows.indices, posting_indptr, postings, rows.dim)


def posting_lists(rows: ArrayRecords, lengths=None):
    """The CSR transpose of each row's first ``lengths[i]`` ids (whole rows
    by default): ``(indptr, rows)``, id *t*'s rows ascending at
    ``rows[indptr[t]:indptr[t + 1]]``.  The codes ``id * n_rows + row`` are
    unique, so one plain sort orders them by id and each list ascends (a
    stable argsort of the ids took 8x as long)."""
    n_rows = len(rows.indptr) - 1
    if lengths is None:
        lengths = rows.sizes
    ids = rows.indices[_ragged_take(rows.indptr[:-1], lengths)[1]]
    codes = ids * np.int64(n_rows) + np.arange(n_rows).repeat(lengths)
    codes.sort()
    return _indptr(np.bincount(ids, minlength=rows.dim)), (codes % n_rows).astype(np.int32)


def _flat_rows(rows):
    """Row pointers and ids of sequences of ids laid end to end."""
    indptr = _indptr(np.fromiter(map(len, rows), np.int64, len(rows)))
    return indptr, np.fromiter(chain.from_iterable(rows), np.int64, indptr[-1])


# ----------------------------------------------------------------------
# The filter-verify probe
# ----------------------------------------------------------------------
_SIZE_TABLES: dict = {}
#: Longest tabulated overlap bound; past it the filters compute the bound
#: per pair (equal values).
NEEDED_TABLE_MAX = 1 << 20


def size_table(measure: str, threshold: float, max_size: int) -> tuple:
    """``(lower, upper, prefix length, needed)`` by size up to at least
    ``max_size``, computed once per ``(measure, threshold)`` and regrown
    by doubling.  ``upper`` is floored: an int size is within the float
    iff within its floor.  ``needed`` is jaccard's or dice's overlap bound
    by ``l + r``, up to the last size plus its upper (else ``None``, also
    when a threshold near 0 puts that past ``NEEDED_TABLE_MAX``)."""
    table = _SIZE_TABLES.get((measure, threshold))
    if table is None or len(table[0]) <= max_size:
        sizes = np.arange(max(64, 2 * max_size + 1))
        lower, upper = size_bounds_arrays(measure, threshold, sizes)
        upper = np.minimum(np.floor(upper), 2.0**62).astype(np.int64)
        needed = None
        if measure in ("jaccard", "dice") and sizes[-1] + upper[-1] < NEEDED_TABLE_MAX:
            totals = np.arange(sizes[-1] + upper[-1] + 1)
            needed = overlap_bounds_arrays(measure, threshold, 0, totals)
        table = (lower, upper, prefix_lengths_arrays(measure, threshold, sizes), needed)
        _SIZE_TABLES[measure, threshold] = table
    return table


class ProbeBatch:
    """Probe rows and the per-row values the filters read, derived once
    for every segment :func:`filter_verify` probes.  Row *q* is the sorted
    ids ``ids[indptr[q]:indptr[q + 1]]`` of a value of ``sizes[q]`` tokens
    (ids of tokens no segment holds are dropped, but count); ``width``
    exceeds every probe and segment id."""

    __slots__ = ("measure", "threshold", "width", "n", "indptr", "ids", "sizes", "nnz",
                 "lower", "upper", "needed", "prefix_indptr", "prefix_ids", "bitmaps", "last",
                 "rest", "whole")

    def __init__(self, indptr, ids, sizes, measure: str, threshold: float, width: int):
        self.measure, self.threshold, self.width, self.n = measure, threshold, width, len(sizes)
        start = indptr[0]
        self.indptr = indptr = indptr - start
        self.ids = ids = ids[start : start + indptr[-1]]
        self.sizes, self.nnz = sizes, indptr[1:] - indptr[:-1]
        lower, upper, lengths, self.needed = size_table(measure, threshold, sizes.max(initial=0))
        self.lower, self.upper = lower[sizes], upper[sizes]
        prefix = np.minimum(lengths[sizes], self.nnz)
        self.prefix_indptr, take = _ragged_take(indptr[:-1], prefix)
        self.prefix_ids, self.bitmaps = ids[take], row_bitmaps(indptr, ids)
        self.last, self.rest = _head_last(indptr, ids, prefix), self.nnz - prefix
        self.whole = not self.rest.any()

    @classmethod
    def from_rows(cls, rows, sizes, measure: str, threshold: float, width: int) -> "ProbeBatch":
        """A batch of sorted id tuples and their true sizes."""
        if len(rows) != 1:
            indptr, ids = _flat_rows(rows)
            return cls(indptr, ids, np.array(sizes, dtype=np.int64), measure, threshold, width)
        # One row: the same values as one-element tuples of numpy scalars,
        # worked out in Python, which is cheaper here than a numpy call each.
        (row,), (size,), batch = rows, sizes, cls.__new__(cls)
        lower, upper, lengths, batch.needed = size_table(measure, threshold, size)
        nnz, word = len(row), 0
        prefix = min(int(lengths[size]), nnz)
        for token in row:
            word |= 1 << (token & 63)
        batch.measure, batch.threshold, batch.width, batch.n = measure, threshold, width, 1
        batch.ids = np.array(row, dtype=np.int64)
        batch.indptr, batch.prefix_indptr = (0, nnz), (0, prefix)
        batch.prefix_ids = batch.ids[:prefix]
        batch.sizes, batch.nnz = (np.int64(size),), (np.int64(nnz),)
        batch.lower, batch.upper, batch.bitmaps = (lower[size],), (upper[size],), (np.uint64(word),)
        batch.last = (np.int64(row[prefix - 1] if prefix else 0),)
        batch.rest, batch.whole = (np.int64(nnz - prefix),), prefix == nnz
        return batch


def _recount(at, per_query):
    """``per_query`` (pairs per probe row of a chunk, ``None`` for a chunk
    of one row) once the pairs are cut down to positions ``at``."""
    if per_query is None:
        return None
    bounds = at.searchsorted(_indptr(per_query))
    return bounds[1:] - bounds[:-1]


def filter_verify(batch: ProbeBatch, segment, dead=None):
    """Filter-verify a probe batch against one segment (an
    :class:`ArrayIndex`, or the live delta, which has the same probe
    attributes and posting methods); ``dead`` masks tombstoned rows.

    A chunk of probe rows gathers the rows posted under its prefix ids,
    codes each pair ``probe_row * n_rows + row`` and sorts the codes: runs
    of equal codes are the unique pairs, their lengths the shared prefix
    ids.  Then the size window, tombstones, bitmap filter and positional
    bound, and exact overlaps of what is left; with nothing sliced off
    either side, the shared prefix ids are the overlaps.  Returns
    ``(hits, positions, scores, candidate_counts, bitmap_kept, verified)``:
    survivors by (probe row, position), ``hits[q]`` of them probe row
    *q*'s, and the funnel (per-row candidates are counted after the
    window and tombstones).
    """
    n, n_rows, measure, threshold = batch.n, segment.n_rows, batch.measure, batch.threshold
    lengths = segment.posting_lengths(batch.prefix_ids)
    cuts = [0, n]  # one row (or none) is one chunk
    if n > 1:
        # A row's candidates number at most its summed posting lengths:
        # chunks are cut on that running bound, and capped so codes fit int32.
        bound = _indptr(lengths)[batch.prefix_indptr]
        most, cuts = max(1, np.iinfo(np.int32).max // max(n_rows, 1)), [0]
        while cuts[-1] < n:
            fits = int(bound.searchsorted(bound[cuts[-1]] + CHUNK_TARGET_NNZ, side="right"))
            cuts.append(min(max(cuts[-1] + 1, fits - 1), cuts[-1] + most))
    exact = batch.whole and segment.whole
    counts, hits = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    out_rows, out_scores = [], []
    bitmap_kept = verified = 0
    for start, stop in zip(cuts, cuts[1:]):
        lo, hi = batch.prefix_indptr[start], batch.prefix_indptr[stop]
        codes = segment.posting_rows(batch.prefix_ids[lo:hi], lengths[lo:hi])
        if not len(codes):
            continue
        per_query = None  # pairs per probe row; a one-row chunk reads scalars
        if stop - start > 1:
            offsets = np.arange(stop - start, dtype=codes.dtype) * n_rows
            codes += offsets.repeat(bound[start + 1 : stop + 1] - bound[start:stop])
        codes.sort()
        edges = np.empty(len(codes) + 1, dtype=bool)
        edges[0] = edges[-1] = True
        np.not_equal(codes[1:], codes[:-1], out=edges[1:-1])
        runs = edges.nonzero()[0]
        shared, rows = runs[1:] - runs[:-1], codes[runs[:-1]].astype(np.intp)
        if stop - start > 1:
            firsts = rows.searchsorted(offsets)
            per_query = np.append(firsts[1:], len(rows)) - firsts
            rows -= offsets.repeat(per_query)

        def spread(values):  # a per-row value at each pair, as per_query is now
            return values[start] if per_query is None else values[start:stop].repeat(per_query)

        sizes = segment.sizes[rows]
        keep = (sizes >= spread(batch.lower)) & (sizes <= spread(batch.upper))
        if dead is not None:
            keep[dead[rows]] = False
        if per_query is None:
            counts[start] = np.count_nonzero(keep)
        else:
            counts[start:stop] = _recount(keep.nonzero()[0], per_query)
        if not exact:
            left = spread(batch.sizes)
            if batch.needed is None:
                needed = overlap_bounds_arrays(measure, threshold, left, sizes)
            else:  # clipped past the window, where the pair is out anyway
                needed = batch.needed.take(left + sizes, mode="clip")
            # Bitmap filter, overlap <= (nnz_l + |r| - popcount(b_l ^ b_r)) // 2
            # (compared doubled): a bit set in one word only stands for an id
            # of that row the other lacks.  Ids outside every segment are in
            # no row, so the probe side counts nnz, not true size.
            differ = np.bitwise_count(spread(batch.bitmaps) ^ segment.bitmaps[rows])
            keep &= spread(batch.nnz) + sizes - differ >= needed + needed
        at = keep.nonzero()[0]
        per_query, rows, sizes, shared = _recount(at, per_query), rows[at], sizes[at], shared[at]
        bitmap_kept += len(rows)
        if not exact:
            # Positional bound: the owner of the smaller last prefix id has its tail left.
            tail = sizes - segment.prefix_sizes[rows]
            owner = spread(batch.last) <= segment.prefix_last[rows]
            np.copyto(tail, spread(batch.rest), where=owner)
            at = (shared + tail >= needed[at]).nonzero()[0]
            per_query, rows, sizes = _recount(at, per_query), rows[at], sizes[at]
        if not len(rows):
            continue
        verified += len(rows)
        overlap = shared
        if not exact:
            probe = batch.ids[batch.indptr[start] : batch.indptr[stop]]
            overlap = sorted_overlaps(
                probe, batch.nnz[start:stop], per_query, segment, rows, sizes, batch.width
            )
        scores = scores_arrays(measure, overlap, spread(batch.sizes), sizes)
        at = (scores >= threshold).nonzero()[0]
        per_query, rows, scores = _recount(at, per_query), rows[at], scores[at]
        hits[start:stop] = len(rows) if per_query is None else per_query
        out_rows.append(rows)
        out_scores.append(scores)
    if len(out_rows) != 1:
        out_rows = [np.concatenate(out_rows) if out_rows else np.zeros(0, dtype=np.intp)]
        out_scores = [np.concatenate(out_scores) if out_scores else np.zeros(0)]
    return hits, out_rows[0], out_scores[0], counts, bitmap_kept, verified


def sorted_overlaps(probe, probe_nnz, per_query, records, rows, sizes, width: int):
    """Exact overlaps of pairs (probe row *q*, row ``rows[i]`` of CSR
    ``records``, ``sizes[i] > 0`` ids), probe row *q*'s pairs the next
    ``per_query[q]`` (``None``: one probe row): the rows gathered end to
    end, each id looked up in its probe row's sorted ids (``probe``,
    ``probe_nnz[q]`` each, all below ``width``), hits summed per pair."""
    offsets, take = _ragged_take(records.indptr[rows], sizes)
    tokens = records.indices[take]
    if per_query is not None:
        # Probe row q's ids become q * width + id: still one sorted array.
        shift = np.arange(len(per_query)) * width
        probe = probe + shift.repeat(probe_nnz)
        tokens = tokens + shift.repeat(per_query).repeat(sizes)
    found = probe.take(probe.searchsorted(tokens), mode="clip") == tokens
    return np.add.reduceat(found, offsets[:-1])


def pair_overlaps(left: ArrayRecords, right: ArrayRecords, l_rows, r_rows):
    """The overlap of ``left`` row ``l_rows[i]`` and ``right`` row
    ``r_rows[i]`` (two sides of one encoding), 0 for an empty one: each
    pair one probe row of :func:`sorted_overlaps`, in cache-sized chunks."""
    l_sizes, r_sizes = left.sizes[l_rows], right.sizes[r_rows]
    overlap = np.zeros(len(l_rows), np.int64)
    both = np.flatnonzero((l_sizes > 0) & (r_sizes > 0))
    step = max(1, CHUNK_TARGET_NNZ // int((l_sizes + r_sizes).max(initial=1)))
    for at in np.split(both, range(step, len(both), step)):
        probe = left.indices[_ragged_take(left.indptr[l_rows[at]], l_sizes[at])[1]]
        ones = np.ones(len(at), np.int64)
        overlap[at] = sorted_overlaps(probe, l_sizes[at], ones, right, r_rows[at], r_sizes[at],
                                      left.dim)
    return overlap


# ----------------------------------------------------------------------
# Sorted int64 codes: candidate-set algebra and the equality join.  A set
# of pairs is a sorted, repeat-free code array (``PairCodes`` in
# repro.blocking.base); numpy's set routines (``union1d``, ``intersect1d``,
# ``setdiff1d``, bare ``unique``) cost tens of times these on int64 codes.
# ----------------------------------------------------------------------
def unique_sorted(codes):
    """``codes`` sorted, each value once: sort + adjacent difference."""
    codes = np.sort(codes)
    keep = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def union_sorted(a, b):
    return unique_sorted(np.concatenate([a, b]))


def _members(a, b):
    """Which codes of ``a`` occur in sorted ``b``."""
    return b.take(b.searchsorted(a), mode="clip") == a if len(b) else np.zeros(len(a), bool)


def intersect_sorted(a, b):
    return a[_members(a, b)]


def difference_sorted(a, b):
    return a[~_members(a, b)]


def equal_id_pairs(l_ids, r_ids):
    """Positions ``(i, j)`` of every pair with ``l_ids[i] == r_ids[j]``, in
    (i, j) order; a negative id pairs with nothing.  A sort-merge: the
    right positions grouped by id (stable, so ascending within an id),
    then one ragged take of each left id's group."""
    r_rows = np.flatnonzero(r_ids >= 0)
    by_id = r_rows[np.argsort(r_ids[r_rows], kind="stable")]
    n_ids = max(int(l_ids.max(initial=-1)), int(r_ids.max(initial=-1))) + 1
    indptr = _indptr(np.bincount(r_ids[r_rows], minlength=n_ids))
    l_rows = np.flatnonzero(l_ids >= 0)
    ids = l_ids[l_rows]
    counts = indptr[ids + 1] - indptr[ids]
    return l_rows.repeat(counts), by_id[_ragged_take(indptr[ids], counts)[1]]

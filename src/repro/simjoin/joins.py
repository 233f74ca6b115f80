"""Set-similarity and edit-distance joins over tables.

The join algorithms follow the standard filter-verify design: tokenize,
apply the size filter, generate candidates through a prefix-filter inverted
index, and verify each candidate exactly.  ``naive_set_sim_join`` computes
the same result by brute force and exists as the benchmark baseline that
motivates this package (py_stringsimjoin in the paper).

Both filtered joins run on the integer kernels of :mod:`repro.perf`:
every distinct string is tokenized and encoded once, as a CSR row of
dense token ids ranked by global frequency.  Their probe body is
:func:`repro.perf.arrays.filter_verify` — the routine the live index
reads with too — once over every probe row.  The joins run serially: a
multicore run partitions the probe table with
:func:`repro.perf.parallel.parallel_map_partitions`, whose concatenated
output holds the whole join's pairs in its order.
:func:`edit_distance_join` encodes each string's q-gram bag as a set of
occurrence-tagged grams, runs the ``"qgram_count"`` bound (the q-gram
count filter) and verifies with batched Levenshtein.  Every join returns one ``(_id, l_id, r_id,
score)`` table built from key and score lists.

All of the build-side intermediates — string records, value tokens, the
``TokenUniverse`` encodings and the CSR corpus arrays — come from the
process-default :class:`repro.index.IndexStore`, so a join over content
the store has already seen (a repeated blocker run, another rule over
the same attribute, a Smurf threshold-sweep iteration) skips straight to
the probe/verify phase.  Content fingerprints guarantee a mutated table
or a different tokenizer rebuilds rather than reusing.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.exceptions import ConfigurationError
from repro.index.store import get_index_store
from repro.obs import get_registry
from repro.perf import arrays
from repro.simjoin.filters import similarity, validate_measure, validate_threshold
from repro.table.table import Table
from repro.text.sim.edit_based import Levenshtein, number_items
from repro.text.tokenizers import QgramBagTokenizer, Tokenizer


def _observe_join(
    join: str,
    measure: str,
    seconds: float,
    probes: int,
    candidates: int,
    bitmap_kept: int,
    survivors: int,
    verified: int,
) -> None:
    """Record one join's filter-verify funnel in the metrics registry."""
    reg = get_registry()
    labels = {"join": join, "measure": measure}
    reg.counter("simjoin_calls_total", **labels).inc()
    reg.counter("simjoin_probes_total", **labels).inc(probes)
    reg.counter("simjoin_candidates_total", **labels).inc(candidates)
    reg.counter("simjoin_bitmap_kept_total", **labels).inc(bitmap_kept)
    reg.counter("simjoin_verified_total", **labels).inc(verified)
    reg.counter("simjoin_survivors_total", **labels).inc(survivors)
    reg.gauge("simjoin_survival_ratio", **labels).set(
        survivors / candidates if candidates else 0.0
    )
    reg.histogram("simjoin_seconds", **labels).observe(seconds)


def _result_table(l_ids: list, r_ids: list, scores: list) -> Table:
    """The ``(_id, l_id, r_id, score)`` table every join returns."""
    return Table({"_id": range(len(scores)), "l_id": l_ids, "r_id": r_ids, "score": scores})


def _probe(left, index, measure: str, threshold: float):
    """The batched kernel over every row of ``left``: survivor rows,
    positions and scores in (row, position) order, the candidate,
    bitmap-kept and verified counts, and the kernel's seconds."""
    started = time.perf_counter()
    batch = arrays.ProbeBatch(left.indptr, left.indices, left.sizes, measure, threshold, index.dim)
    hits, positions, scores, counts, bitmap_kept, verified = arrays.filter_verify(batch, index)
    seconds = time.perf_counter() - started
    rows = np.repeat(np.arange(len(left.keys)), hits)
    return rows, positions, scores, int(counts.sum()), bitmap_kept, verified, seconds


def set_sim_join(
    ltable: Table,
    rtable: Table,
    l_key: str,
    r_key: str,
    l_column: str,
    r_column: str,
    tokenizer: Tokenizer,
    measure: str = "jaccard",
    threshold: float = 0.7,
    n_jobs: int = 1,
    kernel: str = "auto",
) -> Table:
    """Join two tables on set similarity of a tokenized string column.

    Returns a table with columns ``(_id, l_id, r_id, score)`` holding every
    pair whose similarity is at least ``threshold``.

    Parameters mirror py_stringsimjoin: the key columns identify rows, the
    join columns are tokenized with ``tokenizer``, and ``measure`` is one of
    ``jaccard``, ``cosine``, ``dice``, or ``overlap`` (absolute threshold).
    ``n_jobs`` and ``kernel`` select nothing: the join runs serially on
    one probe path, and they accept only ``1`` and ``"auto"``.  They
    survive because ``benchmarks/spine/join_batch.py`` passes them and
    that file may only change in a benchmark PR; remove them when that
    file stops.  Partition the left table with
    :func:`~repro.perf.parallel.parallel_map_partitions` to use more cores.
    """
    if n_jobs != 1:
        raise ConfigurationError(
            f"n_jobs= accepts only 1, got {n_jobs!r}; partition the left table "
            "with parallel_map_partitions to use more cores"
        )
    if kernel != "auto":
        raise ConfigurationError(f"kernel= accepts only 'auto', got {kernel!r}")
    l_keys, r_keys, rows, positions, scores = set_sim_join_positions(
        ltable, rtable, l_key, r_key, l_column, r_column, tokenizer, measure, threshold
    )
    return _result_table(
        arrays.take_values(l_keys, rows), arrays.take_values(r_keys, positions), scores.tolist()
    )


def set_sim_join_positions(
    ltable: Table, rtable: Table, l_key: str, r_key: str, l_column: str, r_column: str,
    tokenizer: Tokenizer, measure: str, threshold: float,
) -> tuple:
    """:func:`set_sim_join`'s pairs as record positions: ``(l_keys, r_keys,
    rows, positions, scores)``, where pair *i* joins left record
    ``rows[i]`` (key ``l_keys[rows[i]]``) with right record
    ``positions[i]``.  A side's records are its rows with a non-missing
    ``column`` value, in row order."""
    measure = validate_measure(measure)
    validate_threshold(measure, threshold)
    join_started = time.perf_counter()

    # Every build-side artifact — tokenization, universe encodings, the
    # CSR corpus — comes from the index store: built once per content
    # fingerprint, served to every later call.  A served encoding
    # fetches none of the token artifacts it was built from.
    store = get_index_store()
    encoding = store.join_encoding(ltable, rtable, l_key, r_key, l_column, r_column, tokenizer)
    array_index = store.array_index(encoding, measure, threshold)
    left = encoding.left
    n_probe = len(left.keys)
    rows, positions, scores, n_candidates, n_kept, n_verified, seconds = _probe(
        left, array_index, measure, threshold
    )
    arrays.observe_kernel_batch(
        "set_sim_join", n_probe, n_candidates, seconds, verified=n_verified
    )
    _observe_join(
        "set_sim",
        measure,
        time.perf_counter() - join_started,
        probes=n_probe,
        candidates=n_candidates,
        bitmap_kept=n_kept,
        survivors=len(rows),
        verified=n_verified,
    )
    return left.keys, array_index.keys, rows, positions, scores


def naive_set_sim_join(
    ltable: Table,
    rtable: Table,
    l_key: str,
    r_key: str,
    l_column: str,
    r_column: str,
    tokenizer: Tokenizer,
    measure: str = "jaccard",
    threshold: float = 0.7,
) -> Table:
    """Brute-force O(n*m) reference implementation of :func:`set_sim_join`."""
    measure = validate_measure(measure)
    store = get_index_store()
    left = store.tokenized_column(ltable, l_key, l_column, tokenizer)
    right = store.tokenized_column(rtable, r_key, r_column, tokenizer)
    l_sets, r_sets = (
        arrays.take_values(list(side.token_sets.values()), side.value_rows)
        for side in (left, right)
    )
    l_ids, r_ids, scores = [], [], []
    for l_id, l_set in zip(left.keys, l_sets):
        for r_id, r_set in zip(right.keys, r_sets):
            score = similarity(measure, l_set, r_set)
            if score >= threshold:
                l_ids.append(l_id)
                r_ids.append(r_id)
                scores.append(score)
    return _result_table(l_ids, r_ids, scores)


def edit_distance_join(
    ltable: Table,
    rtable: Table,
    l_key: str,
    r_key: str,
    l_column: str,
    r_column: str,
    threshold: float = 2,
    q: int = 2,
) -> Table:
    """Join rows whose string values are within edit distance ``threshold``.

    Strings within edit distance d share at least
    ``max(|x|, |y|) - q + 1 - q * d`` of their unpadded q-grams, counted
    as bags (the count filter).  Each value's bag is encoded as a *set*
    of occurrence-tagged grams
    (:class:`~repro.text.tokenizers.QgramBagTokenizer`), so the filter is
    the batched set kernel's ``"qgram_count"`` bound, probed like
    :func:`set_sim_join`.  Two strings of at most
    ``q - 1 + q * d`` characters need no shared gram; those pairs come
    from a cross product of length buckets instead.  Every pair then
    meets the length filter ``||x| - |y|| <= d``, and each distinct pair
    of values is verified once by :meth:`Levenshtein.batch_raw_score`.
    The ``score`` column holds the distance as an ``int``; a float
    threshold keeps its meaning (distance <= threshold).
    """
    if not math.isfinite(threshold) or threshold < 0:
        raise ConfigurationError(
            f"edit-distance threshold must be finite and >= 0, got {threshold}"
        )
    join_started = time.perf_counter()
    d = math.floor(threshold)
    measure, bound = "qgram_count", -q * d
    store = get_index_store()
    tokenizer = QgramBagTokenizer(q)
    left = store.record_columns(ltable, l_key, l_column)
    right = store.record_columns(rtable, r_key, r_column)
    encoding = store.join_encoding(ltable, rtable, l_key, r_key, l_column, r_column, tokenizer)
    index = store.array_index(encoding, measure, bound)
    strings, l_values, r_values = number_items(left.values, right.values)
    n_strings = len(strings)
    lengths = np.fromiter(map(len, strings), np.int64, n_strings)
    l_len, r_len = lengths[l_values], lengths[r_values]
    vacuous = q - 1 + q * d
    short_right = np.flatnonzero(r_len <= vacuous)
    short_right = short_right[np.argsort(r_len[short_right], kind="stable")]
    short_len = r_len[short_right]
    levenshtein = Levenshtein()

    rows, cols, _, n_candidates, n_kept, _, _ = _probe(encoding.left, index, measure, bound)
    # The kernel found some pairs of two short strings too.
    both_short = (l_len[rows] <= vacuous) & (r_len[cols] <= vacuous)
    rows, cols = rows[~both_short], cols[~both_short]
    short = np.flatnonzero(l_len <= vacuous)
    lo = np.searchsorted(short_len, l_len[short] - d)
    hi = np.searchsorted(short_len, l_len[short] + d, side="right")
    _, take = arrays._ragged_take(lo, hi - lo)
    # Pairs of two short strings bypass the kernel's filters.
    bypassed = len(take) - int(both_short.sum())
    n_candidates += bypassed
    n_kept += bypassed
    rows = np.concatenate([rows, np.repeat(short, hi - lo)])
    cols = np.concatenate([cols, short_right[take]])
    close = np.abs(l_len[rows] - r_len[cols]) <= d
    rows, cols = rows[close], cols[close]
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    n_verified = len(rows)
    pairs, inverse = np.unique(l_values[rows] * n_strings + r_values[cols], return_inverse=True)
    distances = levenshtein.batch_raw_score(
        arrays.take_values(strings, pairs // n_strings),
        arrays.take_values(strings, pairs % n_strings),
    )[inverse]
    match = distances <= d
    rows, cols, distances = rows[match], cols[match], distances[match]
    _observe_join(
        "edit_distance",
        "levenshtein",
        time.perf_counter() - join_started,
        probes=len(left.values),
        candidates=n_candidates,
        bitmap_kept=n_kept,
        survivors=len(rows),
        verified=n_verified,
    )
    return _result_table(
        arrays.take_values(encoding.left.keys, rows),
        arrays.take_values(encoding.right.keys, cols),
        distances.tolist(),
    )

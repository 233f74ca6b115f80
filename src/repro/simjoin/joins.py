"""Set-similarity and edit-distance joins over tables.

The join algorithms follow the standard filter-verify design: tokenize,
apply the size filter, generate candidates through a prefix-filter inverted
index, and verify each candidate exactly.  ``naive_set_sim_join`` computes
the same result by brute force and exists as the benchmark baseline that
motivates this package (py_stringsimjoin in the paper).

The filtered join runs on the integer kernels of :mod:`repro.perf`: every
distinct string is tokenized once and encoded once, as a CSR row of
dense token ids ranked by global frequency that each of its records
shares.  :func:`set_sim_join` has one probe body, the batched CSR kernel of
:mod:`repro.perf.arrays`: candidates for a whole span of probe rows are
one sparse product of prefix incidences, the size window is a vector
comparison, and exact overlaps are computed only at the surviving pairs.
:func:`probe_encoded` is the same filter-verify step for *one* record
against dict postings (a ``bisect`` size window, then a bitmask
intersection or a merge scan with ppjoin-style early exit); only
:class:`repro.index.delta.LiveIndex` calls it, for point probes and its
mutable delta segment.  Both joins accept ``n_jobs`` and fan the probe
side out over a process pool; shards are contiguous and merged in
order, so parallel output is byte-identical to serial.

All of the build-side intermediates — string records, token sets, the
``TokenUniverse`` encodings, the CSR corpus matrices, and the edit
join's q-gram index — come from the process-default
:class:`repro.index.IndexStore`, so a join over content the store has
already seen (a repeated blocker run, another rule over the same
attribute, a Smurf threshold-sweep iteration) skips straight to the
probe/verify phase.  Content fingerprints guarantee a mutated table or a
different tokenizer rebuilds rather than reusing.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right

from repro.exceptions import ConfigurationError
from repro.index.store import get_index_store
from repro.obs import get_registry
from repro.perf import arrays
from repro.perf.kernels import BOUND_EPS, bounded_overlap, token_mask
from repro.perf.parallel import effective_n_jobs, run_sharded, split_evenly
from repro.simjoin.filters import (
    prefix_length,
    similarity,
    size_bounds,
    validate_measure,
    validate_threshold,
)
from repro.table.table import Table
from repro.text.sim.edit_based import Levenshtein
from repro.text.tokenizers import Tokenizer

_OUTPUT_COLUMNS = ("_id", "l_id", "r_id", "score")


def _string_records(table: Table, key: str, column: str) -> list[tuple]:
    """(key, str value) for each row with a non-missing value.

    Served from the index store; the returned list is the shared cached
    artifact and must not be mutated.
    """
    return get_index_store().string_records(table, key, column)


def _tokenize_column(table: Table, key: str, column: str, tokenizer: Tokenizer):
    """Yield (key, token_set); token sets come from the index store.

    The sets are the store's shared per-distinct-value artifacts —
    callers must treat them as read-only.
    """
    tokenized = get_index_store().tokenized_column(table, key, column, tokenizer)
    for row_key, value in tokenized.records:
        yield row_key, tokenized.token_sets[value]


def _observe_join(
    join: str,
    measure: str,
    seconds: float,
    probes: int,
    candidates: int,
    survivors: int,
    verified: int | None = None,
) -> None:
    """Record one join's filter-verify funnel in the metrics registry.

    Shard workers run in forked processes, so per-shard counts travel
    back with the shard results and are accounted here, in the parent —
    a registry increment inside a worker would die with the fork.
    """
    reg = get_registry()
    labels = {"join": join, "measure": measure}
    reg.counter("simjoin_calls_total", **labels).inc()
    reg.counter("simjoin_probes_total", **labels).inc(probes)
    reg.counter("simjoin_candidates_total", **labels).inc(candidates)
    if verified is not None:
        reg.counter("simjoin_verified_total", **labels).inc(verified)
    reg.counter("simjoin_survivors_total", **labels).inc(survivors)
    reg.gauge("simjoin_survival_ratio", **labels).set(
        survivors / candidates if candidates else 0.0
    )
    reg.histogram("simjoin_seconds", **labels).observe(seconds)


def probe_encoded(
    left_ids,
    left_size: int,
    index: dict,
    right_enc: list,
    right_masks: list | None,
    scorer,
    overlap_bound,
    measure: str,
    threshold: float,
    use_prefix_filter: bool = True,
    skip: set[int] | None = None,
) -> tuple[list[tuple], int]:
    """Filter-verify one encoded probe record against a prefix index.

    The scalar twin of :func:`probe_encoded_batch`, same bounds math and
    same answers: the live-index read path (:mod:`repro.index.delta`, and
    through it :mod:`repro.serve`) runs it for point probes, for batches
    too small to amortize a CSR probe, and for the delta segment.

    ``left_ids`` is the record's sorted token ids; ``left_size`` is its
    *true* distinct-token count, which can exceed ``len(left_ids)`` when
    a serving query holds tokens outside the corpus universe (those
    tokens can never overlap the corpus, so dropping them from the probe
    is lossless while the size still enters every bound and score).
    ``skip`` is an optional set of right *positions* to exclude — the
    live index's tombstones; excluded positions are dropped before
    verification and never counted as candidates.  Verification uses the
    bitmask kernel when ``right_masks`` is given, the bounded merge scan
    otherwise.  Returns the ``(r_id, score)`` survivors in
    right-position order plus the candidate count.
    """
    if not left_size:
        return [], 0
    lower, upper = size_bounds(measure, threshold, left_size)
    # The float upper bound can round epsilon low; admit the edge.
    upper += BOUND_EPS
    probe = (
        left_ids[: prefix_length(measure, threshold, left_size)]
        if use_prefix_filter
        else left_ids
    )
    candidates: set[int] = set()
    collect = candidates.update
    for token in probe:
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
    if right_masks is not None:
        left_mask = token_mask(left_ids)
        for position in sorted(candidates):
            r_id, right = right_enc[position]
            overlap = (left_mask & right_masks[position]).bit_count()
            score = scorer(overlap, left_size, len(right))
            if score >= threshold:
                results.append((r_id, score))
    else:
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
    use_prefix_filter: bool = True,
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
    to :func:`probe_encoded` on that query, and the verified-pair count:
    the kernel :class:`repro.serve.MatchServer`'s micro-batching queue
    and :meth:`repro.index.delta.LiveIndex.search_batch` amortize their
    batches through.
    """
    probe_matrix = arrays.build_probe_matrix(
        [ids for ids, _ in queries], array_index.dim
    )
    true_sizes = arrays.np.fromiter(
        (size for _, size in queries), dtype=arrays.np.int64, count=len(queries)
    )
    indptr, positions, scores, counts, verified = arrays.batch_set_sim_probe(
        probe_matrix,
        true_sizes,
        array_index,
        measure,
        threshold,
        use_prefix_filter,
        arrays.skip_mask(skip, array_index.n_rows),
    )
    matches = arrays.emit_matches(indptr, positions, scores, array_index.keys)
    return list(zip(matches, counts.tolist())), verified


def _result_table(rows: list[tuple]) -> Table:
    table = Table.from_rows(
        (
            {"_id": i, "l_id": l_id, "r_id": r_id, "score": score}
            for i, (l_id, r_id, score) in enumerate(rows)
        ),
        columns=list(_OUTPUT_COLUMNS),
    )
    if table.num_rows == 0:
        table = Table({name: [] for name in _OUTPUT_COLUMNS})
    return table


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
    use_prefix_filter: bool = True,
    n_jobs: int = 1,
    kernel: str = "auto",
) -> Table:
    """Join two tables on set similarity of a tokenized string column.

    Returns a table with columns ``(_id, l_id, r_id, score)`` holding every
    pair whose similarity is at least ``threshold``.

    Parameters mirror py_stringsimjoin: the key columns identify rows, the
    join columns are tokenized with ``tokenizer``, and ``measure`` is one of
    ``jaccard``, ``cosine``, ``dice``, or ``overlap`` (absolute threshold).
    ``n_jobs`` fans the probe side out over a process pool: the probe rows
    are cut into contiguous ascending spans (CSR row slicing is view-cheap)
    with one batched kernel call per span, so forked output is
    byte-identical to serial.  ``kernel`` selects nothing: there is one
    probe path, and the parameter accepts only ``"auto"``.  It survives
    because ``benchmarks/spine/join_batch.py`` passes it and that file may
    only change in a benchmark PR; remove it when that file stops.
    """
    measure = validate_measure(measure)
    validate_threshold(measure, threshold)
    if kernel != "auto":
        raise ConfigurationError(f"kernel= accepts only 'auto', got {kernel!r}")

    join_started = time.perf_counter()

    # Every build-side artifact — tokenization, universe encodings, the
    # CSR corpus — comes from the index store: built once per content
    # fingerprint, served to every later call.
    store = get_index_store()
    ltable.require_columns([l_key, l_column])
    rtable.require_columns([r_key, r_column])
    encoding = store.pair_encoding(
        store.tokenized_column(ltable, l_key, l_column, tokenizer),
        store.tokenized_column(rtable, r_key, r_column, tokenizer),
    )
    array_index = store.array_index(encoding, measure, threshold, use_prefix_filter)
    left_arrays = store.pair_arrays(encoding, side="left")
    left_keys = left_arrays.keys
    right_keys = array_index.keys
    n_probe = len(left_keys)
    n_shards = max(1, min(effective_n_jobs(n_jobs), n_probe))
    cuts = [n_probe * i // n_shards for i in range(n_shards + 1)]
    # Spans are ranges, not index lists: sized (so run_sharded's
    # small-work gate sees the true row count) but cheap to pickle.
    spans = [range(start, stop) for start, stop in zip(cuts[:-1], cuts[1:])]

    def join_shard(span: range) -> tuple[list[tuple], int, int, float]:
        start, stop = span.start, span.stop
        shard_started = time.perf_counter()
        indptr, positions, scores, counts, verified = arrays.batch_set_sim_probe(
            left_arrays.matrix[start:stop],
            left_arrays.sizes[start:stop],
            array_index,
            measure,
            threshold,
            use_prefix_filter,
        )
        seconds = time.perf_counter() - shard_started
        position_list = positions.tolist()
        score_list = scores.tolist()
        boundaries = indptr.tolist()
        results = [
            (left_keys[start + row], right_keys[position_list[i]], score_list[i])
            for row in range(len(boundaries) - 1)
            for i in range(boundaries[row], boundaries[row + 1])
        ]
        return results, int(counts.sum()), verified, seconds

    shard_outputs = run_sharded(spans, join_shard, n_jobs)
    rows = [row for results, _, _, _ in shard_outputs for row in results]
    n_candidates = sum(count for _, count, _, _ in shard_outputs)
    n_verified = sum(verified for _, _, verified, _ in shard_outputs)
    arrays.observe_kernel_batch(
        "set_sim_join",
        n_probe,
        n_candidates,
        sum(seconds for _, _, _, seconds in shard_outputs),
        verified=n_verified,
    )
    _observe_join(
        "set_sim",
        measure,
        time.perf_counter() - join_started,
        probes=n_probe,
        candidates=n_candidates,
        survivors=len(rows),
        verified=n_verified,
    )
    return _result_table(rows)


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
    left_records = list(_tokenize_column(ltable, l_key, l_column, tokenizer))
    right_records = list(_tokenize_column(rtable, r_key, r_column, tokenizer))
    results = []
    for l_id, left_tokens in left_records:
        for r_id, right_tokens in right_records:
            score = similarity(measure, left_tokens, right_tokens)
            if score >= threshold:
                results.append((l_id, r_id, score))
    return _result_table(results)


def edit_distance_join(
    ltable: Table,
    rtable: Table,
    l_key: str,
    r_key: str,
    l_column: str,
    r_column: str,
    threshold: int = 2,
    q: int = 2,
    n_jobs: int = 1,
) -> Table:
    """Join rows whose string values are within edit distance ``threshold``.

    Candidate generation uses the classic q-gram count filter: strings
    within edit distance d share at least
    ``max(|x|, |y|) - q + 1 - q * d`` (positional-free) q-grams, plus the
    length filter ``||x| - |y|| <= d``.  Survivors are verified with exact
    Levenshtein distance; the output ``score`` column holds the distance.
    Q-gram bags are computed once per distinct string, and ``n_jobs``
    fans the probe side out over a process pool.
    """
    if threshold < 0:
        raise ConfigurationError(f"edit-distance threshold must be >= 0, got {threshold}")
    join_started = time.perf_counter()
    levenshtein = Levenshtein()

    store = get_index_store()
    left_records = store.string_records(ltable, l_key, l_column)
    right_records = store.string_records(rtable, r_key, r_column)

    # Repeated attribute values (cities, states) share one gram-count
    # bag; bags and the inverted index below are store artifacts, reused
    # across calls over the same content.
    left_bags = store.gram_bags(ltable, l_key, l_column, q)

    # The classic count filter bounds the *bag* overlap of q-grams, so the
    # index records per-record gram multiplicities and probing accumulates
    # min(left count, right count) per gram.
    index = store.gram_index(rtable, r_key, r_column, q).index
    # When max(|x|, |y|) <= q - 1 + q*d the count filter requires zero
    # shared q-grams, so short pairs are candidates even with no shared
    # gram and cannot be reached through the inverted index.
    vacuous_bound = q - 1 + q * threshold
    short_right = [
        position
        for position, (_, value) in enumerate(right_records)
        if len(value) <= vacuous_bound
    ]

    def join_shard(shard: list[tuple]) -> tuple[list[tuple], int]:
        results: list[tuple] = []
        n_candidates = 0
        for l_id, left_value in shard:
            counts: dict[int, int] = {}
            for gram, left_count in left_bags[left_value].items():
                for position, right_count in index.get(gram, ()):
                    counts[position] = counts.get(position, 0) + min(
                        left_count, right_count
                    )
            candidates = set(counts)
            if len(left_value) <= vacuous_bound:
                candidates.update(short_right)
            n_candidates += len(candidates)
            for position in sorted(candidates):
                r_id, right_value = right_records[position]
                if abs(len(left_value) - len(right_value)) > threshold:
                    continue
                required = max(len(left_value), len(right_value)) - q + 1 - q * threshold
                if required > 0 and counts.get(position, 0) < required:
                    continue
                distance = levenshtein.get_raw_score(left_value, right_value)
                if distance <= threshold:
                    results.append((l_id, r_id, distance))
        return results, n_candidates

    shards = split_evenly(left_records, effective_n_jobs(n_jobs))
    shard_outputs = run_sharded(shards, join_shard, n_jobs)
    rows = [row for results, _ in shard_outputs for row in results]
    _observe_join(
        "edit_distance",
        "levenshtein",
        time.perf_counter() - join_started,
        probes=len(left_records),
        candidates=sum(count for _, count in shard_outputs),
        survivors=len(rows),
    )
    return _result_table(rows)

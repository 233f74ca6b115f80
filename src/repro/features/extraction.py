"""Feature-vector extraction from candidate sets.

``extract_feature_vecs`` is the guide step that turns a candidate set into
the learner's input: one row per candidate pair with one column per
feature.  It validates the candidate set's catalog metadata first
(self-containment) and carries the FK columns through so predictions can
be traced back to the original tuples.

The pass is columnar: FK columns become base-row positions once; per
``(l_attr, r_attr)`` group the referenced cells are numbered,
``np.unique(l_id * n_r + r_id)`` is both the dedup and the scatter index,
and each feature runs once over the distinct value pairs — through its
batch form when it has one, its scalar function otherwise.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from typing import Any

import numpy as np

from repro.blocking.base import CANDSET_ID
from repro.catalog.catalog import Catalog, get_catalog
from repro.catalog.checks import validate_candset
from repro.exceptions import ConfigurationError
from repro.features.feature import Feature, FeatureTable, TokenSetBatch
from repro.ml.impute import SimpleImputer
from repro.obs import get_registry, trace_span, use_registry
from repro.perf.parallel import effective_n_jobs, run_sharded
from repro.table.table import Table

#: Counter of value pairs scored by scalar code, by ``reason``; the kernel
#: that hands a pair to its scalar form counts ``long_string`` itself.
SCALAR_FALLBACK = "feature_scalar_fallback_pairs_total"


def _base_positions(table: Table, key: str, fk_values: list[Any]) -> np.ndarray:
    """Row position in ``table`` of each FK value."""
    table.validate_key(key)
    position = {value: i for i, value in enumerate(table.column(key))}
    return np.fromiter((position[value] for value in fk_values), np.int64, len(fk_values))


def _number_values(column: list[Any], positions: np.ndarray):
    """``(id per position, value per id, unhashable flag per id)`` for the
    cells ``positions`` reference; equal ids mean interchangeable cells.

    Cells merge when they are equal, of one type and print alike: type and
    ``repr`` split what ``==`` and ``hash`` conflate — ``1`` / ``1.0`` /
    ``True``, ``0.0`` / ``-0.0``, ``Decimal("1.0")`` / ``Decimal("1.00")``.
    An unhashable cell is never merged: one id per base row.
    """
    referenced, where = np.unique(positions, return_inverse=True)
    values = [column[position] for position in referenced.tolist()]
    numbers = np.arange(len(values), dtype=np.int64)
    unhashable = np.zeros(len(values), bool)
    first: dict[Any, int] = {}
    for number, value in enumerate(values):
        kind = type(value)
        key = (kind, value) if kind is str else (kind, value, repr(value))
        try:
            numbers[number] = first.setdefault(key, number)
        except TypeError:
            unhashable[number] = True
    return numbers[where], values, unhashable


def _evaluate(features: list[Feature], lefts: list[Any], rights: list[Any]) -> list[Any]:
    """Each feature over the value pairs: a float64 array from a batch
    form, a plain list from the scalar function."""
    overlaps: dict[int, tuple] = {}  # id(tokenizer) -> TokenSetBatch.overlaps(...)
    columns: list[Any] = []
    for feature in features:
        batch = feature.batch
        if batch is None:
            values = [feature(l_value, r_value) for l_value, r_value in zip(lefts, rights)]
        elif isinstance(batch, TokenSetBatch):
            # One instance tokenizes one way: its features share the overlaps.
            shared = id(batch.tokenizer)
            if shared not in overlaps:
                overlaps[shared] = batch.overlaps(lefts, rights)
            values = batch.scores(*overlaps[shared])
        else:
            values = np.asarray(batch(lefts, rights), np.float64)
            if values.shape != (len(lefts),):
                raise ConfigurationError(
                    f"batch form of {feature.name!r} returned shape {values.shape}, "
                    f"not ({len(lefts)},)"
                )
        columns.append(values)
    return columns


def extract_feature_vecs(
    candset: Table,
    feature_table: FeatureTable,
    catalog: Catalog | None = None,
    label_column: str | None = None,
    n_jobs: int = 1,
) -> Table:
    """Compute feature vectors for each pair of a candidate set.

    Returns a table with ``_id``, both FK columns, one column per feature
    (NaN where an attribute value is missing), and — when ``label_column``
    is given — that column copied through from the candidate set.  Every
    value equals per-pair ``feature(l_value, r_value)``.  ``n_jobs`` fans
    the distinct value pairs out over one process pool; output is
    byte-identical to serial.
    """
    cat = catalog if catalog is not None else get_catalog()
    meta = validate_candset(candset, cat)
    if label_column is not None:
        candset.require_columns([label_column])
    fk_l, fk_r = candset.column(meta.fk_ltable), candset.column(meta.fk_rtable)
    l_rows = _base_positions(meta.ltable, cat.get_key(meta.ltable), fk_l)
    r_rows = _base_positions(meta.rtable, cat.get_key(meta.rtable), fk_r)

    by_attrs: dict[tuple[str, str], list[Feature]] = {}
    for feature in feature_table:
        by_attrs.setdefault((feature.l_attr, feature.r_attr), []).append(feature)
    registry = get_registry()
    # Per attribute pair: label, features, distinct value pairs (two parallel
    # lists), each candset row's position among them.
    groups: list[tuple[str, list[Feature], list[Any], list[Any], np.ndarray]] = []
    misses = 0
    for (l_attr, r_attr), features in by_attrs.items():
        l_ids, l_values, l_loose = _number_values(meta.ltable.column(l_attr), l_rows)
        r_ids, r_values, r_loose = _number_values(meta.rtable.column(r_attr), r_rows)
        n_r = max(len(r_values), 1)
        distinct, inverse = np.unique(l_ids * n_r + r_ids, return_inverse=True)
        l_at, r_at = np.divmod(distinct, n_r)
        misses += len(distinct) * len(features)
        # A scalar evaluation counts once: under ``unhashable`` when such a
        # cell is why the pair was not merged, else under ``no_batch_form``.
        loose = int((l_loose[l_at] | r_loose[r_at]).sum())
        for feature in features:
            if feature.batch is None:
                registry.counter(SCALAR_FALLBACK, reason="unhashable").inc(loose)
                registry.counter(SCALAR_FALLBACK, reason="no_batch_form").inc(len(distinct) - loose)
            else:
                registry.counter("feature_batch_pairs_total", measure=feature.measure_name).inc(
                    len(distinct)
                )
        lefts = [l_values[i] for i in l_at.tolist()]
        rights = [r_values[i] for i in r_at.tolist()]
        groups.append((f"{l_attr}|{r_attr}", features, lefts, rights, inverse))
    parent = os.getpid()

    def evaluate(shard: range):
        """Every ``shard.step``-th distinct pair of each group (a stride: an
        even share of each group's cost); from a forked child also what it
        counted, a kernel's ``long_string`` say, which would die with it."""
        forked = os.getpid() != parent
        columns = []
        with use_registry() if forked else nullcontext() as counted:
            for label, features, lefts, rights, _ in groups:
                lefts, rights = lefts[shard.start :: shard.step], rights[shard.start :: shard.step]
                with trace_span(
                    "feature_group", group=label, distinct_pairs=len(lefts), features=len(features)
                ):
                    columns.append(_evaluate(features, lefts, rights))
        return columns, counted.counters() if forked else {}

    # One pool per call; ranges, so ``run_sharded`` can size them (in evaluations).
    jobs = effective_n_jobs(n_jobs)
    shards = [range(j, misses, jobs) for j in range(jobs)]
    parts = run_sharded(shards, evaluate, n_jobs)
    by_name: dict[str, list[Any]] = {}
    for g, (_, features, lefts, _, inverse) in enumerate(groups):
        for k, feature in enumerate(features):
            values: Any = [None] * len(lefts) if feature.batch is None else np.empty(len(lefts))
            for shard, (columns, _) in zip(shards, parts):
                values[shard.start :: shard.step] = columns[g][k]
            if feature.batch is None:
                by_name[feature.name] = [values[row] for row in inverse.tolist()]
            else:
                by_name[feature.name] = values[inverse].tolist()
    for _, counted in parts:
        for (name, labels), amount in counted.items():
            registry.counter(name, **dict(labels)).inc(amount)

    columns: dict[str, list[Any]] = {
        CANDSET_ID: list(candset.column(meta.key)),
        meta.fk_ltable: list(fk_l),
        meta.fk_rtable: list(fk_r),
    }
    for feature in feature_table:
        columns[feature.name] = by_name[feature.name]
    # Misses = distinct evaluations actually performed; hits = repeated
    # occurrences served by the global dedup.
    registry.counter("feature_cache_hits_total").inc(len(fk_l) * len(by_name) - misses)
    registry.counter("feature_cache_misses_total").inc(misses)
    registry.counter("feature_vectors_total").inc(len(fk_l))
    if label_column is not None:
        columns[label_column] = list(candset.column(label_column))

    result = Table(columns)
    cat.set_candset_metadata(
        result, meta.key, meta.fk_ltable, meta.fk_rtable, meta.ltable, meta.rtable
    )
    return result


def feature_matrix(
    fv_table: Table,
    feature_names: list[str],
    impute: bool = True,
    imputer: SimpleImputer | None = None,
) -> np.ndarray:
    """Turn feature-vector columns into a float matrix for the learners.

    With ``impute=True`` (default) NaNs are filled by ``imputer`` (a fresh
    mean-imputer if none given).  Pass a pre-fit imputer to apply training
    statistics to a prediction set.
    """
    fv_table.require_columns(feature_names)
    matrix = np.column_stack(
        [np.asarray(fv_table.column(name), dtype=np.float64) for name in feature_names]
    )
    if not impute:
        return matrix
    if imputer is None:
        imputer = SimpleImputer(strategy="mean")
        return imputer.fit_transform(matrix)
    if imputer.is_fitted:
        return imputer.transform(matrix)
    return imputer.fit_transform(matrix)


def label_vector(fv_table: Table, label_column: str = "label") -> np.ndarray:
    """Extract the integer label column as an array."""
    fv_table.require_columns([label_column])
    return np.asarray(fv_table.column(label_column), dtype=np.int64)

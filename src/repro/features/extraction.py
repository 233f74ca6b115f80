"""Feature-vector extraction from candidate sets.

``extract_feature_vecs`` is the guide step that turns a candidate set into
the learner's input: one row per candidate pair with one column per
feature.  It validates the candidate set's catalog metadata first
(self-containment) and carries the FK columns through so predictions can
be traced back to the original tuples.

The pass is columnar: FK columns become base-row positions once, and
:func:`feature_columns` (which blocking rules check pairs with too) runs
per ``(l_attr, r_attr)`` group: the referenced cells are numbered,
``np.unique(l_id * n_r + r_id)`` is both the dedup and the scatter index,
one :class:`~repro.features.feature.ValueView` prepares each cell's text,
float or exact key once, and each feature runs once over the distinct
value pairs — through its batch form when it has one, its scalar
function otherwise.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.blocking.base import CANDSET_ID
from repro.catalog.catalog import Catalog, get_catalog
from repro.catalog.checks import resolve_candset
from repro.exceptions import ConfigurationError
from repro.features.feature import SCALAR_FALLBACK, Feature, FeatureTable, ValueView
from repro.ml.impute import SimpleImputer
from repro.obs import get_registry, trace_span
from repro.table.table import Table


def _evaluate(features: list[Feature], view: ValueView) -> list[Any]:
    """Each feature over the view's pairs: a float64 array from a batch
    form, a plain list from the scalar function."""
    columns: list[Any] = []
    for feature in features:
        batch = feature.batch
        if batch is None:
            values = [feature(l_value, r_value) for l_value, r_value in zip(*view.cells())]
        elif hasattr(batch, "scores"):
            values = batch.scores(view)
        else:  # a plain ``batch(lefts, rights)`` callable
            values = np.asarray(batch(*view.cells()), np.float64)
            if values.shape != (len(view.left),):
                raise ConfigurationError(
                    f"batch form of {feature.name!r} returned shape {values.shape}, "
                    f"not ({len(view.left)},)"
                )
        columns.append(values)
    return columns


def feature_columns(
    sides: tuple[tuple[Table, str], tuple[Table, str]], l_rows: np.ndarray, r_rows: np.ndarray,
    features: Sequence[Feature],
) -> list[Any]:
    """Each feature at the pairs (row ``l_rows[i]``, row ``r_rows[i]``) of
    ``sides``, ``((ltable, l_key), (rtable, r_key))``: a float64 column
    from a batch form, else a list of the scalar function's results.
    Every value equals per-pair ``feature(l_value, r_value)``."""
    by_attrs: dict[tuple[str, str], list[Feature]] = {}
    for feature in features:
        by_attrs.setdefault((feature.l_attr, feature.r_attr), []).append(feature)
    registry = get_registry()
    by_name: dict[str, Any] = {}
    misses = 0
    for (l_attr, r_attr), group in by_attrs.items():
        label = f"{l_attr}|{r_attr}"
        with trace_span("feature_values", group=label) as span:
            view_sides = (*sides[0], l_attr), (*sides[1], r_attr)
            view, inverse = ValueView.at_rows(view_sides, l_rows, r_rows)
            span.labels["left_values"], span.labels["right_values"] = map(str, map(len, view.rows))
            for column in {getattr(f.batch, "column", None) for f in group} - {None}:
                getattr(view, column)
        distinct = len(view.left)
        misses += distinct * len(group)
        # A scalar evaluation counts once: under ``unhashable`` when such a
        # cell is why the pair was not merged, else under ``no_batch_form``.
        loose = int((view.loose[view.left] | view.loose[view.right]).sum())
        for feature in group:
            if feature.batch is None:
                registry.counter(SCALAR_FALLBACK, reason="unhashable").inc(loose)
                registry.counter(SCALAR_FALLBACK, reason="no_batch_form").inc(distinct - loose)
            else:
                registry.counter("feature_batch_pairs_total", measure=feature.measure_name).inc(
                    distinct
                )
        with trace_span(
            "feature_group", group=label, distinct_pairs=distinct, features=len(group)
        ):
            values_by_feature = _evaluate(group, view)
        for feature, values in zip(group, values_by_feature):
            if feature.batch is None:
                by_name[feature.name] = [values[row] for row in inverse.tolist()]
            else:
                by_name[feature.name] = np.asarray(values, np.float64)[inverse]
    # Misses = distinct evaluations actually performed; hits = repeated
    # occurrences served by the dedup.
    registry.counter("feature_cache_hits_total").inc(len(l_rows) * len(by_name) - misses)
    registry.counter("feature_cache_misses_total").inc(misses)
    return [by_name[feature.name] for feature in features]


def extract_feature_vecs(
    candset: Table,
    feature_table: FeatureTable,
    catalog: Catalog | None = None,
    label_column: str | None = None,
) -> Table:
    """Compute feature vectors for each pair of a candidate set.

    Returns a table with ``_id``, both FK columns, one column per feature
    (:func:`feature_columns` at the pairs' base rows), and — when
    ``label_column`` is given — that column copied through from the
    candidate set.
    """
    cat = catalog if catalog is not None else get_catalog()
    meta, l_rows, r_rows = resolve_candset(candset, cat)
    if label_column is not None:
        candset.require_columns([label_column])
    fk_l, fk_r = candset.column(meta.fk_ltable), candset.column(meta.fk_rtable)
    l_key, r_key = cat.get_key(meta.ltable), cat.get_key(meta.rtable)
    values = feature_columns(
        ((meta.ltable, l_key), (meta.rtable, r_key)), l_rows, r_rows, feature_table.features()
    )

    columns: dict[str, list[Any]] = {
        CANDSET_ID: list(candset.column(meta.key)),
        meta.fk_ltable: list(fk_l),
        meta.fk_rtable: list(fk_r),
    }
    for feature, column in zip(feature_table, values):
        if isinstance(column, np.ndarray):  # one float object per bit pattern: -0.0 stays -0.0
            bits, codes = np.unique(column.view(np.int64), return_inverse=True)
            column = bits.view(np.float64).astype(object)[codes].tolist()
        columns[feature.name] = column
    get_registry().counter("feature_vectors_total").inc(len(fk_l))
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

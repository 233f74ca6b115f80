"""Feature-vector extraction from candidate sets.

``extract_feature_vecs`` is the guide step that turns a candidate set into
the learner's input: one row per candidate pair with one column per
feature.  It validates the candidate set's catalog metadata first
(self-containment) and carries the FK columns through so predictions can
be traced back to the original tuples.

The pass is columnar: FK columns become base-row positions once; per
``(l_attr, r_attr)`` group the referenced cells are numbered,
``np.unique(l_id * n_r + r_id)`` is both the dedup and the scatter index,
one :class:`~repro.features.feature.ValueView` prepares each cell's text,
float or exact key once, and each feature runs once over the distinct
value pairs — through its batch form when it has one, its scalar
function otherwise.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.blocking.base import CANDSET_ID, key_positions
from repro.catalog.catalog import Catalog, get_catalog
from repro.catalog.checks import validate_candset
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


def extract_feature_vecs(
    candset: Table,
    feature_table: FeatureTable,
    catalog: Catalog | None = None,
    label_column: str | None = None,
) -> Table:
    """Compute feature vectors for each pair of a candidate set.

    Returns a table with ``_id``, both FK columns, one column per feature
    (NaN where an attribute value is missing), and — when ``label_column``
    is given — that column copied through from the candidate set.  Every
    value equals per-pair ``feature(l_value, r_value)``.
    """
    cat = catalog if catalog is not None else get_catalog()
    meta = validate_candset(candset, cat)
    if label_column is not None:
        candset.require_columns([label_column])
    fk_l, fk_r = candset.column(meta.fk_ltable), candset.column(meta.fk_rtable)
    l_key, r_key = cat.get_key(meta.ltable), cat.get_key(meta.rtable)
    l_rows = key_positions(meta.ltable, l_key, fk_l)
    r_rows = key_positions(meta.rtable, r_key, fk_r)

    by_attrs: dict[tuple[str, str], list[Feature]] = {}
    for feature in feature_table:
        by_attrs.setdefault((feature.l_attr, feature.r_attr), []).append(feature)
    registry = get_registry()
    by_name: dict[str, list[Any]] = {}
    misses = 0
    for (l_attr, r_attr), features in by_attrs.items():
        label = f"{l_attr}|{r_attr}"
        with trace_span("feature_values", group=label) as span:
            sides = (meta.ltable, l_key, l_attr), (meta.rtable, r_key, r_attr)
            view, inverse = ValueView.at_rows(sides, l_rows, r_rows)
            span.labels["left_values"], span.labels["right_values"] = map(str, map(len, view.rows))
            for column in {getattr(f.batch, "column", None) for f in features} - {None}:
                getattr(view, column)
        distinct = len(view.left)
        misses += distinct * len(features)
        # A scalar evaluation counts once: under ``unhashable`` when such a
        # cell is why the pair was not merged, else under ``no_batch_form``.
        loose = int((view.loose[view.left] | view.loose[view.right]).sum())
        for feature in features:
            if feature.batch is None:
                registry.counter(SCALAR_FALLBACK, reason="unhashable").inc(loose)
                registry.counter(SCALAR_FALLBACK, reason="no_batch_form").inc(distinct - loose)
            else:
                registry.counter("feature_batch_pairs_total", measure=feature.measure_name).inc(
                    distinct
                )
        with trace_span(
            "feature_group", group=label, distinct_pairs=distinct, features=len(features)
        ):
            values_by_feature = _evaluate(features, view)
        for feature, values in zip(features, values_by_feature):
            if feature.batch is None:
                by_name[feature.name] = [values[row] for row in inverse.tolist()]
            else:  # one float object per bit pattern, shared by its rows: -0.0 stays -0.0
                bits, codes = np.unique(
                    np.asarray(values, np.float64).view(np.int64), return_inverse=True
                )
                by_name[feature.name] = bits.view(np.float64).astype(object)[codes[inverse]].tolist()

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

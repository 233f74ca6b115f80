"""Automatic feature generation (the guide's "Creating Feature Vectors").

Given two tables, pair up corresponding attributes, infer each pair's
type, and instantiate the tokenizer x measure grid appropriate to that
type — e.g. a person-name attribute (medium string) gets Jaccard over
words and 3-grams, Monge-Elkan, cosine, and Levenshtein, while a numeric
attribute gets exact match and relative-difference features.

The output is a :class:`~repro.features.feature.FeatureTable` the user can
trim and extend before extraction, per the paper's customizability
principle.
"""

from __future__ import annotations

from repro.exceptions import SchemaError
from repro.features.feature import (
    Feature,
    FeatureTable,
    make_exact_feature,
    make_numeric_feature,
    make_string_feature,
    make_token_feature,
)
from repro.table.schema import ColumnType, infer_column_type
from repro.table.table import Table
from repro.text.sim.edit_based import JaroWinkler, Levenshtein
from repro.text.sim.generic import abs_norm, rel_diff
from repro.text.sim.hybrid import MongeElkan
from repro.text.sim.token_based import Cosine, Dice, Jaccard, OverlapCoefficient
from repro.text.tokenizers import QgramTokenizer, WhitespaceTokenizer


def get_attr_corres(
    ltable: Table, rtable: Table, l_key: str = "id", r_key: str = "id"
) -> list[tuple[str, str]]:
    """Correspond attributes by identical name, excluding the keys."""
    r_columns = set(rtable.columns)
    return [
        (name, name)
        for name in ltable.columns
        if name in r_columns and name != l_key and name != r_key
    ]


def _merged_type(l_type: ColumnType, r_type: ColumnType) -> ColumnType:
    """Combine the two sides' inferred types into one feature-gen type."""
    if l_type == r_type:
        return l_type
    if ColumnType.UNKNOWN in (l_type, r_type):
        return l_type if r_type == ColumnType.UNKNOWN else r_type
    string_order = [
        ColumnType.SHORT_STRING,
        ColumnType.MEDIUM_STRING,
        ColumnType.LONG_STRING,
    ]
    if l_type in string_order and r_type in string_order:
        return max(l_type, r_type, key=string_order.index)
    # Mixed numeric/string and similar: fall back to medium string.
    return ColumnType.MEDIUM_STRING


def _features_for_pair(l_attr: str, r_attr: str, merged: ColumnType) -> list[Feature]:
    prefix = l_attr if l_attr == r_attr else f"{l_attr}_{r_attr}"
    ws = WhitespaceTokenizer(return_set=True)
    qg3 = QgramTokenizer(q=3, return_set=True)

    if merged == ColumnType.NUMERIC:
        return [
            make_exact_feature(f"{prefix}_exact", l_attr, r_attr),
            make_numeric_feature(f"{prefix}_abs_norm", l_attr, r_attr, abs_norm, "abs_norm"),
            make_numeric_feature(f"{prefix}_rel_diff", l_attr, r_attr, rel_diff, "rel_diff"),
        ]
    if merged == ColumnType.BOOLEAN:
        return [make_exact_feature(f"{prefix}_exact", l_attr, r_attr)]
    if merged == ColumnType.SHORT_STRING:
        return [
            make_exact_feature(f"{prefix}_exact", l_attr, r_attr),
            make_string_feature(f"{prefix}_lev_sim", l_attr, r_attr, Levenshtein(), "lev_sim"),
            make_string_feature(f"{prefix}_jaro_winkler", l_attr, r_attr, JaroWinkler(), "jaro_winkler"),
            make_token_feature(f"{prefix}_jaccard_qgm3", l_attr, r_attr, qg3, Jaccard(), "jaccard"),
        ]
    if merged == ColumnType.MEDIUM_STRING:
        return [
            make_token_feature(f"{prefix}_jaccard_ws", l_attr, r_attr, ws, Jaccard(), "jaccard"),
            make_token_feature(f"{prefix}_jaccard_qgm3", l_attr, r_attr, qg3, Jaccard(), "jaccard"),
            make_token_feature(f"{prefix}_cosine_ws", l_attr, r_attr, ws, Cosine(), "cosine"),
            make_string_feature(f"{prefix}_lev_sim", l_attr, r_attr, Levenshtein(), "lev_sim"),
            make_string_feature(
                f"{prefix}_monge_elkan",
                l_attr,
                r_attr,
                _MongeElkanOnWords(),
                "monge_elkan",
            ),
            make_exact_feature(f"{prefix}_exact", l_attr, r_attr),
        ]
    if merged == ColumnType.LONG_STRING:
        return [
            make_token_feature(f"{prefix}_jaccard_ws", l_attr, r_attr, ws, Jaccard(), "jaccard"),
            make_token_feature(f"{prefix}_cosine_ws", l_attr, r_attr, ws, Cosine(), "cosine"),
            make_token_feature(f"{prefix}_dice_ws", l_attr, r_attr, ws, Dice(), "dice"),
            make_token_feature(
                f"{prefix}_overlap_coeff_ws", l_attr, r_attr, ws, OverlapCoefficient(), "overlap_coeff"
            ),
        ]
    # UNKNOWN: only exact equality is safe.
    return [make_exact_feature(f"{prefix}_exact", l_attr, r_attr)]


class _MongeElkanOnWords:
    """Adapter: Monge-Elkan consumes token lists; expose a string API."""

    def __init__(self) -> None:
        self._measure = MongeElkan()
        self._tokenize = WhitespaceTokenizer().tokenize

    def get_sim_score(self, left: str, right: str) -> float:
        return self._measure.get_raw_score(self._tokenize(left), self._tokenize(right))

    def sim_score_ids(self, strings: list[str], left_ids, right_ids):
        return self._measure.raw_score_ids(list(map(str.split, strings)), left_ids, right_ids)


def get_features_for_matching(
    ltable: Table,
    rtable: Table,
    l_key: str = "id",
    r_key: str = "id",
    attr_corres: list[tuple[str, str]] | None = None,
) -> FeatureTable:
    """Auto-generate a feature table for matching two tables.

    ``attr_corres`` overrides the default same-name correspondence.
    """
    if attr_corres is None:
        attr_corres = get_attr_corres(ltable, rtable, l_key, r_key)
    if not attr_corres:
        raise SchemaError(
            "no corresponding attributes between the tables; pass attr_corres"
        )
    table = FeatureTable()
    for l_attr, r_attr in attr_corres:
        ltable.require_columns([l_attr])
        rtable.require_columns([r_attr])
        merged = _merged_type(
            infer_column_type(ltable.column(l_attr)),
            infer_column_type(rtable.column(r_attr)),
        )
        for feature in _features_for_pair(l_attr, r_attr, merged):
            table.add(feature)
    return table


def get_features_for_blocking(
    ltable: Table,
    rtable: Table,
    l_key: str = "id",
    r_key: str = "id",
    attr_corres: list[tuple[str, str]] | None = None,
) -> FeatureTable:
    """Feature table for learning blocking rules.

    Restricted to join-executable features (token and exact kinds) plus
    numeric exactness, so every extracted rule can be executed at scale.
    """
    full = get_features_for_matching(ltable, rtable, l_key, r_key, attr_corres)
    return FeatureTable([f for f in full if f.is_join_executable])

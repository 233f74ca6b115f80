"""Feature objects: named similarity functions over an attribute pair.

A feature such as ``jaccard(3gram(A.name), 3gram(B.name))`` (the paper's
Section 4.1 example) is represented as a :class:`Feature` carrying enough
structure — attribute pair, similarity kind, tokenizer, measure — that
downstream tools can do more than call it: the rule-based blocker and
Falcon's rule executor translate *token-similarity* features into scalable
sim joins instead of evaluating them pairwise.

Feature values are floats; missing attribute values yield NaN, which the
feature-vector extractor leaves for the imputer to fill.

A feature may also carry a *batch form*, a :class:`ViewBatch` whose
``scores(view)`` gives each value pair of a :class:`ValueView` the float
``function`` gives it, or a plain ``batch(lefts, rights)`` callable over
parallel value lists.  The extractor calls it once over each attribute
pair's distinct value pairs; the makers below attach one where they can.
A token feature's batch form reads the index store's encoding of both
sides' :func:`~repro.blocking.base.text_view` of its attributes (whole
base columns unless its pairs touch few rows, so blockers, rule joins and
every extraction over the same column and tokenizer spec share one
artifact) and takes each pair's overlap with
:func:`repro.perf.arrays.pair_overlaps`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

import numpy as np

from repro.blocking.base import TEXT, few_rows, record_numbers, text_view
from repro.exceptions import ConfigurationError
from repro.index.fingerprints import column_fingerprint
from repro.index.store import get_index_store
from repro.obs import get_registry
from repro.perf import arrays
from repro.table.schema import is_missing, present_mask
from repro.table.table import Row, Table
from repro.text.sim.edit_based import number_items
from repro.text.sim.generic import abs_norm, abs_norm_arrays, exact_match, rel_diff
from repro.text.sim.generic import rel_diff_arrays, to_float
from repro.text.sim.token_based import Cosine, Dice, Jaccard, OverlapCoefficient
from repro.text.tokenizers import Tokenizer

NAN = float("nan")

# Similarity kinds drive executability of blocking rules:
# 'token'  - set similarity over tokens (join-executable)
# 'exact'  - exact equality (join-executable)
# 'edit'   - character-level similarity (pairwise only)
# 'numeric'- numeric comparison (pairwise only)
# 'blackbox' - arbitrary user function (pairwise only)
SIM_KINDS = ("token", "exact", "edit", "numeric", "blackbox")


@dataclass
class Feature:
    """A named similarity feature over one attribute from each table."""

    name: str
    l_attr: str
    r_attr: str
    sim_kind: str
    measure_name: str
    function: Callable[[Any, Any], float]
    tokenizer: Tokenizer | None = None
    batch: Callable[[Sequence[Any], Sequence[Any]], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.sim_kind not in SIM_KINDS:
            raise ConfigurationError(
                f"sim_kind must be one of {SIM_KINDS}, got {self.sim_kind!r}"
            )

    def __call__(self, l_value: Any, r_value: Any) -> float:
        """Evaluate the feature on a pair of attribute values."""
        return self.function(l_value, r_value)

    def apply_rows(self, l_row: Row, r_row: Row) -> float:
        """Evaluate the feature on a pair of rows."""
        return self.function(l_row[self.l_attr], r_row[self.r_attr])

    @property
    def is_join_executable(self) -> bool:
        """Can a 'feature >= t' predicate be executed as a join?"""
        return self.sim_kind in ("token", "exact")

    def __repr__(self) -> str:
        return (
            f"Feature({self.name!r}: {self.measure_name} over "
            f"A.{self.l_attr} x B.{self.r_attr})"
        )


class FeatureTable:
    """The mutable global feature set F of the guide.

    The paper stresses customizability: PyMatcher auto-generates a feature
    set, stores it in a variable F, and gives the user ways to delete
    features and declaratively add more.  This class is that F.
    """

    def __init__(self, features: list[Feature] | None = None):
        self._features: dict[str, Feature] = {}
        for feature in features or []:
            self.add(feature)

    def add(self, feature: Feature) -> None:
        """Add a feature; names must be unique."""
        if feature.name in self._features:
            raise ConfigurationError(f"duplicate feature name {feature.name!r}")
        self._features[feature.name] = feature

    def remove(self, name: str) -> None:
        """Delete a feature by name."""
        if name not in self._features:
            raise ConfigurationError(f"no feature named {name!r}")
        del self._features[name]

    def get(self, name: str) -> Feature:
        """Look up a feature by name."""
        try:
            return self._features[name]
        except KeyError:
            raise ConfigurationError(
                f"no feature named {name!r}; have {self.names()}"
            ) from None

    def names(self) -> list[str]:
        """All feature names, in insertion order."""
        return list(self._features)

    def features(self) -> list[Feature]:
        """All features, in insertion order."""
        return list(self._features.values())

    def subset(self, names: list[str]) -> "FeatureTable":
        """A new FeatureTable with only the named features."""
        return FeatureTable([self.get(name) for name in names])

    def __len__(self) -> int:
        return len(self._features)

    def __contains__(self, name: str) -> bool:
        return name in self._features

    def __iter__(self):
        return iter(self._features.values())

    def __repr__(self) -> str:
        return f"FeatureTable({len(self)} features)"


#: Counter of value pairs scored by scalar code, by ``reason``.
SCALAR_FALLBACK = "feature_scalar_fallback_pairs_total"


def number_values(column: list[Any], positions: np.ndarray):
    """``(id per position, value per id, unhashable flag per id, base row
    per id)`` for the cells ``positions`` reference; equal ids mean
    interchangeable cells.

    Cells merge when they are equal, of one type and print alike: type and
    ``repr`` split what ``==`` and ``hash`` conflate — ``1`` / ``1.0`` /
    ``True``, ``0.0`` / ``-0.0``, ``Decimal("1.0")`` / ``Decimal("1.00")``.
    An unhashable cell is never merged: one id per base row.
    """
    seen = np.zeros(len(column), bool)
    seen[positions] = True  # positions are rows: a mask, not a sort, numbers them
    referenced, where = np.flatnonzero(seen), (np.cumsum(seen) - 1)[positions]
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
    return numbers[where], values, unhashable, referenced


class ValueView:
    """One attribute pair's numbered cells (both sides in one list, with
    :func:`number_values`'s unhashable flags) and the value pairs to score,
    as ``left`` / ``right`` id arrays into them.  ``sides`` names where the
    cells live, ``((ltable, l_key, l_attr), (rtable, r_key, r_attr))``:
    value *i* is row ``rows[0][i]`` of the left table, and value
    ``len(rows[0]) + j`` row ``rows[1][j]`` of the right.  A column is
    computed once per cell on first use and shared by every feature
    scoring the pairs."""

    def __init__(self, values: list[Any], loose: np.ndarray, left, right, sides, rows):
        self.values, self.loose, self.left, self.right = values, loose, left, right
        self.sides, self.rows = sides, rows

    @classmethod
    def at_rows(cls, sides, l_rows: np.ndarray, r_rows: np.ndarray):
        """The view of the distinct value pairs at the base rows
        ``(l_rows[i], r_rows[i])`` of ``sides``, and each pair's index
        among them."""
        (l_ids, l_values, l_loose, l_base), (r_ids, r_values, r_loose, r_base) = (
            number_values(table.column(attr), rows)
            for (table, _, attr), rows in zip(sides, (l_rows, r_rows))
        )
        n_r = max(len(r_values), 1)
        distinct, inverse = np.unique(l_ids * n_r + r_ids, return_inverse=True)
        l_at, r_at = np.divmod(distinct, n_r)
        view = cls(
            l_values + r_values, np.concatenate([l_loose, r_loose]), l_at,
            r_at + len(l_values), sides, (l_base, r_base),
        )
        return view, inverse

    def cells(self) -> tuple[list[Any], list[Any]]:
        """The pairs' cells, as two parallel lists."""
        values = self.values
        return [values[i] for i in self.left.tolist()], [values[i] for i in self.right.tolist()]

    @cached_property
    def missing(self) -> np.ndarray:
        """:func:`is_missing` per cell."""
        return ~present_mask(self.values)

    @cached_property
    def text(self) -> tuple[list[str], np.ndarray]:
        """The distinct lower-cased texts, numbered across both sides, and
        each cell's id among them."""
        texts, ids, _ = number_items(map(str.lower, map(str, self.values)), ())
        return texts, ids

    @cached_property
    def text_views(self) -> list[tuple[tuple, np.ndarray]]:
        """Per side, a :func:`~repro.blocking.base.text_view` of its attribute
        as a store side ``(view, key, TEXT, column fingerprint)``, and each
        value's record number in it (-1 without a text).  A side's values
        on :func:`~repro.blocking.base.few_rows` view just those rows, so a
        small candset over a large table costs what its cells cost; otherwise the
        view is the whole column, whose artifacts blockers, rule joins and
        every extraction over that column and tokenizer spec share.  A
        ``TEXT`` attribute is a text view already and is read as it is."""
        sides = []
        for (table, key, attr), rows in zip(self.sides, self.rows):
            whole = not few_rows(len(rows), table)
            if not whole:
                picked = rows.tolist()
                table = Table({name: [table.column(name)[r] for r in picked] for name in (key, attr)})
            view = table if attr == TEXT else text_view(table, key, [attr])
            numbers = record_numbers(view)
            fingerprint = column_fingerprint(view, key, TEXT)
            sides.append(((view, key, TEXT, fingerprint), numbers[rows] if whole else numbers))
        return sides

    @cached_property
    def floats(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`to_float` per cell (NaN for ``None``) and where it is not ``None``."""
        floats = [to_float(value) for value in self.values]
        ok = np.fromiter((value is not None for value in floats), bool, len(floats))
        return np.array([NAN if value is None else value for value in floats], np.float64), ok

    @cached_property
    def keys(self) -> np.ndarray:
        """Exact-match key id per present hashable cell, equal ids meaning
        ``==``: a ``str`` compares lower-cased, a cell unequal to itself
        gets its own id."""
        ids: dict[Any, int] = {}
        keys = np.zeros(len(self.values), np.int64)
        for i in np.flatnonzero(~(self.missing | self.loose)).tolist():
            key = self.values[i].lower() if isinstance(self.values[i], str) else self.values[i]
            keys[i] = ids.setdefault(key if key == key else object(), len(ids))
        return keys

    def over_text(self, kernel) -> np.ndarray:
        """NaN where either cell is missing, else ``kernel(texts, left_ids,
        right_ids)`` over the text ids of the other pairs."""
        keep = np.flatnonzero(~(self.missing[self.left] | self.missing[self.right]))
        texts, ids = self.text
        out = np.full(len(self.left), NAN)
        out[keep] = kernel(texts, ids[self.left[keep]], ids[self.right[keep]])
        return out


class ViewBatch:
    """A feature's batch form: ``scores(view)`` gives one float64 per pair
    of a :class:`ValueView`, equal to the scalar function's.  ``column``
    names the view column it reads, which the extractor builds first."""

    def __init__(self, column: str, scores: Callable[[ValueView], np.ndarray]):
        self.column, self.scores = column, scores

    def __call__(self, lefts: Sequence[Any], rights: Sequence[Any]) -> np.ndarray:
        """Scores over parallel value sequences: a view over two tables
        built from them, one row per value."""
        rows = np.arange(len(lefts))
        sides = tuple((Table({"row": rows.tolist(), "value": list(values)}), "row", "value")
                      for values in (lefts, rights))
        view, inverse = ValueView.at_rows(sides, rows, rows)
        return self.scores(view)[inverse]


#: Set measures with a :func:`repro.perf.arrays.scores_arrays` twin.
_ARRAY_MEASURES = {
    Jaccard: "jaccard",
    Cosine: "cosine",
    Dice: "dice",
    OverlapCoefficient: "overlap_coefficient",
}


def make_token_feature(
    name: str,
    l_attr: str,
    r_attr: str,
    tokenizer: Tokenizer,
    measure,
    measure_name: str,
) -> Feature:
    """Build a token-similarity feature (join-executable)."""

    def function(l_value: Any, r_value: Any) -> float:
        if is_missing(l_value) or is_missing(r_value):
            return NAN
        l_tokens = tokenizer.tokenize_cached(str(l_value).lower())
        r_tokens = tokenizer.tokenize_cached(str(r_value).lower())
        return float(measure.get_raw_score(l_tokens, r_tokens))

    def scores(view: ValueView) -> np.ndarray:
        (l_side, l_records), (r_side, r_records) = view.text_views
        encoding = get_index_store().sides_encoding(l_side, r_side, tokenizer)
        l_at, r_at = l_records[view.left], r_records[view.right - len(l_records)]
        out = np.full(len(view.left), NAN)
        recorded = (l_at >= 0) & (r_at >= 0)
        l_at, r_at = l_at[recorded], r_at[recorded]
        overlap = arrays.pair_overlaps(encoding.left, encoding.right, l_at, r_at)
        out[recorded] = arrays.scores_arrays(
            array_measure, overlap, encoding.left.sizes[l_at], encoding.right.sizes[r_at]
        )
        # A present cell whose text is blank (a non-str printing as spaces)
        # is no store record: the scalar function scores its pairs.
        present = ~(view.missing[view.left] | view.missing[view.right])
        blank = np.flatnonzero(present & ~recorded).tolist()
        get_registry().counter(SCALAR_FALLBACK, reason="blank_text").inc(len(blank))
        for i in blank:
            out[i] = function(view.values[view.left[i]], view.values[view.right[i]])
        return out

    array_measure = _ARRAY_MEASURES.get(type(measure))
    batch = ViewBatch("text_views", scores) if array_measure else None
    return Feature(name, l_attr, r_attr, "token", measure_name, function, tokenizer, batch)


def make_string_feature(
    name: str, l_attr: str, r_attr: str, measure, measure_name: str
) -> Feature:
    """Build a character-level (edit-based) similarity feature; a measure's
    ``sim_score_ids(strings, left_ids, right_ids)`` twin gives it its batch
    form."""

    def function(l_value: Any, r_value: Any) -> float:
        if is_missing(l_value) or is_missing(r_value):
            return NAN
        return float(measure.get_sim_score(str(l_value).lower(), str(r_value).lower()))

    kernel = getattr(measure, "sim_score_ids", None)
    batch = ViewBatch("text", lambda view: view.over_text(kernel)) if kernel else None
    return Feature(name, l_attr, r_attr, "edit", measure_name, function, batch=batch)


def make_exact_feature(name: str, l_attr: str, r_attr: str) -> Feature:
    """Build an exact-equality feature (join-executable)."""

    def function(l_value: Any, r_value: Any) -> float:
        if isinstance(l_value, str):
            l_value = l_value.lower()
        if isinstance(r_value, str):
            r_value = r_value.lower()
        return exact_match(l_value, r_value)

    def scores(view: ValueView) -> np.ndarray:
        keys, l, r = view.keys, view.left, view.right
        out = np.where(view.missing[l] | view.missing[r], NAN, keys[l] == keys[r])
        loose = np.flatnonzero(view.loose[l] | view.loose[r]).tolist()
        get_registry().counter(SCALAR_FALLBACK, reason="unhashable").inc(len(loose))
        for i in loose:
            out[i] = function(view.values[l[i]], view.values[r[i]])
        return out

    batch = ViewBatch("keys", scores)
    return Feature(name, l_attr, r_attr, "exact", "exact_match", function, batch=batch)


def make_numeric_feature(
    name: str, l_attr: str, r_attr: str, measure, measure_name: str
) -> Feature:
    """Build a numeric-comparison feature; :func:`abs_norm` and
    :func:`rel_diff` have array twins and so a batch form."""
    arrays_form = {abs_norm: abs_norm_arrays, rel_diff: rel_diff_arrays}.get(measure)

    def scores(view: ValueView) -> np.ndarray:
        (floats, ok), l, r = view.floats, view.left, view.right
        return np.where(ok[l] & ok[r], arrays_form(floats[l], floats[r]), NAN)

    batch = ViewBatch("floats", scores) if arrays_form else None
    return Feature(name, l_attr, r_attr, "numeric", measure_name, measure, batch=batch)


def make_blackbox_feature(name: str, l_attr: str, r_attr: str, function) -> Feature:
    """Wrap an arbitrary user function as a feature (pairwise only)."""
    return Feature(name, l_attr, r_attr, "blackbox", "blackbox", function)

"""Feature objects: named similarity functions over an attribute pair.

A feature such as ``jaccard(3gram(A.name), 3gram(B.name))`` (the paper's
Section 4.1 example) is represented as a :class:`Feature` carrying enough
structure — attribute pair, similarity kind, tokenizer, measure — that
downstream tools can do more than call it: the rule-based blocker and
Falcon's rule executor translate *token-similarity* features into scalable
sim joins instead of evaluating them pairwise.

Feature values are floats; missing attribute values yield NaN, which the
feature-vector extractor leaves for the imputer to fill.

A feature may also carry a *batch form*: ``batch(lefts, rights)`` over
parallel value sequences returns a float64 array equal, element for
element, to ``function``.  The extractor calls it once over the distinct
value pairs; the makers below attach one where the measure has a kernel.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.perf import arrays
from repro.table.schema import is_missing
from repro.table.table import Row
from repro.text.sim.edit_based import number_items
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


def _present(lefts: Sequence[Any], rights: Sequence[Any]):
    """Positions where neither value is missing, and those values as
    lower-cased text: what the string and token features compare."""
    keep = [
        i for i, (l, r) in enumerate(zip(lefts, rights)) if not (is_missing(l) or is_missing(r))
    ]
    return keep, [str(lefts[i]).lower() for i in keep], [str(rights[i]).lower() for i in keep]


#: Set measures with a :func:`repro.perf.arrays.scores_arrays` twin.
_ARRAY_MEASURES = {
    Jaccard: "jaccard",
    Cosine: "cosine",
    Dice: "dice",
    OverlapCoefficient: "overlap_coefficient",
}


class TokenSetBatch:
    """Batch form of a token-set feature.  :meth:`overlaps` is the costly
    half and depends only on the tokenizer, so the extractor computes it
    once per attribute pair and tokenizer for every feature's :meth:`scores`."""

    def __init__(self, tokenizer: Tokenizer, measure: str):
        self.tokenizer = tokenizer
        self.measure = measure

    def overlaps(self, lefts: Sequence[Any], rights: Sequence[Any]):
        """``(n, keep, overlap, left_sizes, right_sizes)``, the last three
        over the kept (non-missing) pairs.  Each distinct text is tokenized
        once and the tokens dropped at return (no ``tokenize_cached``)."""
        keep, l_text, r_text = _present(lefts, rights)
        texts, l_rows, r_rows = number_items(l_text, r_text)
        ids: dict[str, int] = {}
        token_sets = [
            sorted({ids.setdefault(token, len(ids)) for token in self.tokenizer.tokenize(text)})
            for text in texts
        ]
        matrix = arrays.build_probe_matrix(token_sets, len(ids))
        sizes = np.diff(matrix.indptr).astype(np.int64)
        l_sizes, r_sizes = sizes[l_rows], sizes[r_rows]
        overlap = np.empty(len(keep), np.int64)
        step = max(1, arrays.CHUNK_TARGET_NNZ // int((l_sizes + r_sizes).max(initial=1)))
        for start in range(0, len(keep), step):
            at = slice(start, start + step)
            # Sampled product, as in the join kernel: one sorted-row merge per pair.
            shared = matrix[l_rows[at]].multiply(matrix[r_rows[at]])
            overlap[at] = np.asarray(shared.sum(axis=1)).ravel()
        return len(lefts), keep, overlap, l_sizes, r_sizes

    def scores(self, n: int, keep, overlap, left_sizes, right_sizes) -> np.ndarray:
        out = np.full(n, NAN)
        out[keep] = arrays.scores_arrays(self.measure, overlap, left_sizes, right_sizes)
        return out

    def __call__(self, lefts: Sequence[Any], rights: Sequence[Any]) -> np.ndarray:
        return self.scores(*self.overlaps(lefts, rights))


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

    array_measure = _ARRAY_MEASURES.get(type(measure))
    batch = TokenSetBatch(tokenizer, array_measure) if array_measure else None
    return Feature(name, l_attr, r_attr, "token", measure_name, function, tokenizer, batch)


def make_string_feature(
    name: str, l_attr: str, r_attr: str, measure, measure_name: str
) -> Feature:
    """Build a character-level (edit-based) similarity feature; a measure's
    ``batch_sim_score(lefts, rights)`` twin gives it its batch form."""

    def function(l_value: Any, r_value: Any) -> float:
        if is_missing(l_value) or is_missing(r_value):
            return NAN
        return float(measure.get_sim_score(str(l_value).lower(), str(r_value).lower()))

    def batch(lefts: Sequence[Any], rights: Sequence[Any]) -> np.ndarray:
        keep, l_text, r_text = _present(lefts, rights)
        scores = np.full(len(lefts), NAN)
        scores[keep] = measure.batch_sim_score(l_text, r_text)
        return scores

    if not hasattr(measure, "batch_sim_score"):
        batch = None
    return Feature(name, l_attr, r_attr, "edit", measure_name, function, batch=batch)


def make_exact_feature(name: str, l_attr: str, r_attr: str) -> Feature:
    """Build an exact-equality feature (join-executable)."""
    from repro.text.sim.generic import exact_match

    def function(l_value: Any, r_value: Any) -> float:
        if isinstance(l_value, str):
            l_value = l_value.lower()
        if isinstance(r_value, str):
            r_value = r_value.lower()
        return exact_match(l_value, r_value)

    return Feature(name, l_attr, r_attr, "exact", "exact_match", function)


def make_numeric_feature(
    name: str, l_attr: str, r_attr: str, measure, measure_name: str
) -> Feature:
    """Build a numeric-comparison feature."""
    return Feature(name, l_attr, r_attr, "numeric", measure_name, measure)


def make_blackbox_feature(name: str, l_attr: str, r_attr: str, function) -> Feature:
    """Wrap an arbitrary user function as a feature (pairwise only)."""
    return Feature(name, l_attr, r_attr, "blackbox", "blackbox", function)

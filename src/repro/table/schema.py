"""Column type inference for the table substrate.

Feature generation (``repro.features``) decides which tokenizers and
similarity measures apply to an attribute pair based on the inferred type
of each attribute: numeric, boolean, short string (1 word), medium string
(1-5 words), or long string / textual.  This module implements that
inference over :class:`repro.table.Table` columns.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from itertools import compress, repeat
from numbers import Real
from operator import eq, is_not
from typing import TYPE_CHECKING, Any

from repro.table.table import Table

if TYPE_CHECKING:
    import numpy as np


class ColumnType(Enum):
    """Semantic type of a column, used to drive feature generation."""

    NUMERIC = "numeric"
    BOOLEAN = "boolean"
    SHORT_STRING = "short_string"  # about one word, e.g. a state code
    MEDIUM_STRING = "medium_string"  # a few words, e.g. a person name
    LONG_STRING = "long_string"  # free text, e.g. a product description
    UNKNOWN = "unknown"  # all missing, or mixed beyond recognition


# Above this average word count a string column is considered free text.
_LONG_STRING_WORDS = 6.0
# At or below this average word count a string column is a single token.
_SHORT_STRING_WORDS = 1.0


def is_missing(value: Any) -> bool:
    """True for the ecosystem's missing-value markers (None, NaN, '').

    NaN is any real number unequal to itself: a ``float``, or a numpy
    floating scalar (``np.float32`` and ``np.float16`` do not subclass
    ``float``; numpy registers them as ``numbers.Real``).  A blank is a
    ``str`` of only whitespace."""
    if value is None:
        return True
    if isinstance(value, str):
        return not value.strip()
    return isinstance(value, (float, Real)) and value != value


#: Cell types a number's missing test (NaN) reads in one C-level pass.
_NUMBERS = {int, float, bool}


def present_mask(values: Sequence[Any]) -> np.ndarray:
    """``not is_missing(value)`` per value, as a bool array.  A column of
    ``str`` or of ``int`` / ``float`` / ``bool`` cells (either with
    ``None``) is decided in C-level passes: ``None`` by identity, a
    string by ``str.strip``, a number by ``value == value`` (false for
    NaN only); any other column per cell."""
    import numpy  # lazily: ``import repro`` does not load numpy

    n = len(values)
    kinds = set(map(type, values))
    nones = type(None) in kinds
    kinds.discard(type(None))
    if kinds <= _NUMBERS:
        present = numpy.fromiter(map(eq, values, values), bool, n)
        if nones:
            present &= numpy.fromiter(map(is_not, values, repeat(None)), bool, n)
        return present
    if kinds != {str}:
        return numpy.fromiter((not is_missing(value) for value in values), bool, n)
    if not nones:
        return numpy.fromiter(map(bool, map(str.strip, values)), bool, n)
    present = numpy.fromiter(map(is_not, values, repeat(None)), bool, n)
    strings = compress(values, present.tolist())
    present[present] = numpy.fromiter(map(bool, map(str.strip, strings)), bool, int(present.sum()))
    return present


def infer_value_type(value: Any) -> ColumnType:
    """Infer the type of a single non-missing value."""
    if isinstance(value, bool):
        return ColumnType.BOOLEAN
    if isinstance(value, (int, float)):
        return ColumnType.NUMERIC
    if isinstance(value, str):
        words = len(value.split())
        if words <= _SHORT_STRING_WORDS:
            return ColumnType.SHORT_STRING
        if words <= _LONG_STRING_WORDS:
            return ColumnType.MEDIUM_STRING
        return ColumnType.LONG_STRING
    return ColumnType.UNKNOWN


def infer_column_type(values: list[Any]) -> ColumnType:
    """Infer a column's type from its values.

    Strings are classified by *average* word count; a column mixing numbers
    and strings is treated as string-typed (numbers are rendered to text by
    feature extraction), and an all-missing column is ``UNKNOWN``.
    """
    present = [v for v in values if not is_missing(v)]
    if not present:
        return ColumnType.UNKNOWN
    if all(isinstance(v, bool) for v in present):
        return ColumnType.BOOLEAN
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in present):
        return ColumnType.NUMERIC
    word_counts = [len(str(v).split()) for v in present]
    mean_words = sum(word_counts) / len(word_counts)
    if mean_words <= _SHORT_STRING_WORDS:
        return ColumnType.SHORT_STRING
    if mean_words <= _LONG_STRING_WORDS:
        return ColumnType.MEDIUM_STRING
    return ColumnType.LONG_STRING


def infer_schema(table: Table) -> dict[str, ColumnType]:
    """Infer the type of every column in ``table``."""
    return {name: infer_column_type(table.column(name)) for name in table.columns}

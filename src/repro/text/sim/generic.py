"""Generic value-level similarity helpers used by feature generation.

These mirror Magellan's built-in feature functions for non-string
attributes: exact match, absolute-difference norm, and relative difference.
All handle missing values by returning ``float('nan')``, which feature
extraction later imputes; downstream learners never see NaN.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.table.schema import is_missing

NAN = float("nan")


def exact_match(left: Any, right: Any) -> float:
    """1.0 when values are equal, 0.0 otherwise; NaN when either missing."""
    if is_missing(left) or is_missing(right):
        return NAN
    return 1.0 if left == right else 0.0


def to_float(value: Any) -> float | None:
    """``float(value)``, or None when it is missing or does not convert."""
    if is_missing(value):
        return None
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return None


def abs_norm(left: Any, right: Any) -> float:
    """1 - |l - r| / max(|l|, |r|) for numeric values, in [0, 1]."""
    left_value, right_value = to_float(left), to_float(right)
    if left_value is None or right_value is None:
        return NAN
    scale = max(abs(left_value), abs(right_value))
    if scale == 0.0:
        return 1.0
    score = 1.0 - abs(left_value - right_value) / scale
    return max(score, 0.0)


def rel_diff(left: Any, right: Any) -> float:
    """Relative difference |l - r| / ((|l| + |r|) / 2); 0 means equal."""
    left_value, right_value = to_float(left), to_float(right)
    if left_value is None or right_value is None:
        return NAN
    scale = (abs(left_value) + abs(right_value)) / 2.0
    if scale == 0.0:
        return 0.0
    return abs(left_value - right_value) / scale


def abs_norm_arrays(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """:func:`abs_norm` past the conversion, one pair per element."""
    l_abs, r_abs = np.abs(left), np.abs(right)
    # Python's max(a, b) keeps a unless b > a, so a NaN lands where it does.
    scale = np.where(r_abs > l_abs, r_abs, l_abs)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = 1.0 - np.abs(left - right) / scale
    return np.where(scale == 0.0, 1.0, np.where(0.0 > score, 0.0, score))


def rel_diff_arrays(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """:func:`rel_diff` past the conversion, one pair per element."""
    scale = (np.abs(left) + np.abs(right)) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(scale == 0.0, 0.0, np.abs(left - right) / scale)

"""Filters for set-similarity joins: size, prefix, and overlap bounds.

The join algorithms in :mod:`repro.simjoin.joins` prune the cross product
with three classic filters before verifying candidates exactly:

* **size filter** — a record of size s can only match records whose size
  lies in a measure-specific interval around s;
* **overlap bound** — the minimum token overlap two records must share to
  reach the similarity threshold;
* **prefix filter** — under a global token ordering, matching records must
  share a token within a short prefix of each record.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.exceptions import ConfigurationError
from repro.perf.kernels import ceil_bound
from repro.perf.tokens import TokenUniverse

SET_MEASURES = ("jaccard", "cosine", "dice", "overlap")


def validate_measure(measure: str) -> str:
    """Normalize and validate a set-similarity measure name."""
    measure = measure.lower()
    if measure not in SET_MEASURES:
        raise ConfigurationError(
            f"unknown set-similarity measure {measure!r}; expected one of {SET_MEASURES}"
        )
    return measure


def validate_threshold(measure: str, threshold: float) -> None:
    """Reject a threshold outside a (validated) measure's domain.

    ``overlap`` takes an absolute token count, the others a similarity in
    ``(0, 1]``; a non-finite value has no bound to compute either way.
    """
    if not math.isfinite(threshold):
        raise ConfigurationError(f"threshold must be finite, got {threshold}")
    if measure == "overlap":
        if threshold < 1:
            raise ConfigurationError(f"overlap threshold must be >= 1, got {threshold}")
    elif not 0.0 < threshold <= 1.0:
        raise ConfigurationError(
            f"threshold for {measure} must be in (0, 1], got {threshold}"
        )


def size_bounds(measure: str, threshold: float, size: int) -> tuple[int, float]:
    """Inclusive (lower, upper) bounds on partner-set size.

    For ``overlap`` the threshold is an absolute count and only the lower
    bound applies (upper bound is infinite).

    Lower bounds are guarded against float rounding (see
    :data:`repro.perf.kernels.ceil_bound`): a product landing epsilon
    above an integer must not ceil past it, or the filter would drop true
    matches.  The float upper bound can round epsilon *low*, so comparison
    sites must compare with a ``BOUND_EPS`` allowance.
    """
    measure = validate_measure(measure)
    if measure == "jaccard":
        return ceil_bound(threshold * size), size / threshold
    if measure == "cosine":
        return ceil_bound(threshold * threshold * size), size / (threshold * threshold)
    if measure == "dice":
        return (
            ceil_bound(threshold / (2.0 - threshold) * size),
            (2.0 - threshold) / threshold * size,
        )
    # overlap
    return ceil_bound(threshold), math.inf


def overlap_lower_bound(
    measure: str, threshold: float, left_size: int, right_size: int
) -> int:
    """Minimum token overlap required for the pair to reach the threshold."""
    measure = validate_measure(measure)
    if measure == "jaccard":
        return ceil_bound(threshold / (1.0 + threshold) * (left_size + right_size))
    if measure == "cosine":
        return ceil_bound(threshold * math.sqrt(left_size * right_size))
    if measure == "dice":
        return ceil_bound(threshold / 2.0 * (left_size + right_size))
    return ceil_bound(threshold)


def similarity(measure: str, left: set[str], right: set[str]) -> float:
    """Exact set-similarity for the verification step."""
    measure = validate_measure(measure)
    if not left and not right:
        return 1.0 if measure != "overlap" else 0.0
    if not left or not right:
        return 0.0
    overlap = len(left & right)
    if measure == "jaccard":
        return overlap / (len(left) + len(right) - overlap)
    if measure == "cosine":
        return overlap / math.sqrt(len(left) * len(right))
    if measure == "dice":
        return 2.0 * overlap / (len(left) + len(right))
    return float(overlap)


def prefix_length(measure: str, threshold: float, size: int) -> int:
    """Length of the record prefix that the prefix filter must index/probe.

    A pair meeting the threshold shares at least one token within this
    prefix of each record (tokens sorted by the global ordering).
    """
    measure = validate_measure(measure)
    if size == 0:
        return 0
    if measure == "overlap":
        return max(size - ceil_bound(threshold) + 1, 0)
    # Minimum overlap this record needs with its *smallest* admissible
    # partner; sharing fewer than that from anywhere means sharing at
    # least one token in the prefix of length size - bound + 1.
    lower, _ = size_bounds(measure, threshold, size)
    lower = max(lower, 1)
    bound = overlap_lower_bound(measure, threshold, size, lower)
    return max(size - bound + 1, 0)


class TokenOrder:
    """Global token ordering by ascending corpus frequency.

    Rare tokens sort first, which makes prefixes maximally selective.
    Unknown tokens are treated as rarest (frequency 0).  The ordering is
    computed by :class:`repro.perf.tokens.TokenUniverse` (which subsumes
    this class); TokenOrder remains as the string-level public API.
    """

    def __init__(self, corpus: Iterable[Iterable[str]]):
        self.universe = TokenUniverse(corpus)

    def rank(self, token: str) -> tuple[int, str]:
        """Sort key for a token (unknown tokens first)."""
        return self.universe.rank(token)

    def order(self, tokens: Iterable[str]) -> list[str]:
        """Distinct tokens sorted by the global ordering."""
        return self.universe.order(tokens)

"""Integer-set overlap kernel and per-measure scorers.

Records are encoded by :class:`repro.perf.tokens.TokenUniverse` as sorted
tuples of int ids.  :func:`bounded_overlap` computes the overlap of two
records with a merge scan over the two sorted arrays with ppjoin-style
early exit: as soon as the overlap accumulated so far plus the remaining
length of the advanced side cannot reach the required bound, the pair
is abandoned.

The scorers avoid the per-pair ``validate_measure`` + ``math.ceil`` calls
of :mod:`repro.simjoin.filters` by binding the measure once; the formulas
are bit-for-bit identical to :func:`repro.simjoin.filters.similarity` so
filtered and naive joins produce identical floats.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from repro.exceptions import ConfigurationError

# Float-rounding guard for filter bounds.  The bound formulas are exact in
# real arithmetic but float products can land epsilon *above* an integer
# (0.4/1.4 * 7 == 2.0000000000000004), and ceiling that overstates the
# requirement — an unsound filter that drops true matches.  Bounds must
# only ever err toward admitting a pair (verification is exact), so lower
# bounds ceil ``value - BOUND_EPS`` and upper bounds widen by ``BOUND_EPS``.
BOUND_EPS = 1e-9


def ceil_bound(value: float) -> int:
    """``math.ceil`` that forgives float error just above an integer."""
    return math.ceil(value - BOUND_EPS)


def bounded_overlap(a: Sequence[int], b: Sequence[int], needed: int) -> int:
    """Overlap of two sorted int arrays, or ``-1`` on early exit.

    Returns the exact intersection size when it is at least ``needed``;
    returns ``-1`` as soon as the remaining elements of either array can
    no longer lift the overlap to ``needed``.
    """
    la, lb = len(a), len(b)
    i = j = overlap = 0
    while i < la and j < lb:
        ai = a[i]
        bj = b[j]
        if ai == bj:
            overlap += 1
            i += 1
            j += 1
        elif ai < bj:
            i += 1
            if overlap + (la - i) < needed:
                return -1
        else:
            j += 1
            if overlap + (lb - j) < needed:
                return -1
    return overlap


def make_scorer(measure: str) -> Callable[[int, int, int], float]:
    """A ``(overlap, left_size, right_size) -> score`` function.

    The formulas mirror :func:`repro.simjoin.filters.similarity` exactly
    (same operations on the same ints) so scores are identical floats.
    Callers guarantee both sizes are positive.
    """
    if measure == "jaccard":
        return lambda overlap, la, lb: overlap / (la + lb - overlap)
    if measure == "cosine":
        return lambda overlap, la, lb: overlap / math.sqrt(la * lb)
    if measure == "dice":
        return lambda overlap, la, lb: 2.0 * overlap / (la + lb)
    if measure == "overlap":
        return lambda overlap, la, lb: float(overlap)
    raise ConfigurationError(f"no scorer for measure {measure!r}")


def make_overlap_bound(measure: str, threshold: float) -> Callable[[int, int], int]:
    """A ``(left_size, right_size) -> minimum required overlap`` function.

    Same bounds as :func:`repro.simjoin.filters.overlap_lower_bound`, with
    the measure and threshold bound once instead of validated per pair.
    """
    ceil = math.ceil
    eps = BOUND_EPS
    if measure == "jaccard":
        coefficient = threshold / (1.0 + threshold)
        return lambda la, lb: ceil(coefficient * (la + lb) - eps)
    if measure == "cosine":
        sqrt = math.sqrt
        return lambda la, lb: ceil(threshold * sqrt(la * lb) - eps)
    if measure == "dice":
        coefficient = threshold / 2.0
        return lambda la, lb: ceil(coefficient * (la + lb) - eps)
    if measure == "overlap":
        required = ceil_bound(threshold)
        return lambda la, lb: required
    raise ConfigurationError(f"no overlap bound for measure {measure!r}")

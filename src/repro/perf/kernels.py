"""The float-rounding guard every filter bound shares.

The size, overlap and prefix bounds of :mod:`repro.simjoin.filters` (which
the live index in :mod:`repro.index.delta` reads) and their vector twins in
:mod:`repro.perf.arrays` all ceil float products; this module holds the one
epsilon they ceil with.  It stays apart from :mod:`repro.simjoin.filters`
because :mod:`repro.perf.arrays` needs it and ``repro.simjoin`` imports the
index store, which imports :mod:`repro.perf.arrays`.
"""

from __future__ import annotations

import math

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

"""Candidate-set algebra: union, intersection, and difference.

The guide encourages experimenting with multiple blockers ("executing both
on A' and B' and examining their output"); combining their outputs needs
set operations over candidate sets that preserve catalog metadata.

Each operand becomes a sorted array of pair codes ranked by key
(:class:`~repro.blocking.base.PairCodes`), the operation is one sorted-code
helper of :mod:`repro.perf.arrays`, and the result is built in key-pair
order.
"""

from __future__ import annotations

from repro.blocking.base import PairCodes, candset_from_positions
from repro.catalog.catalog import Catalog, get_catalog
from repro.catalog.checks import resolve_candset
from repro.exceptions import SchemaError
from repro.perf import arrays
from repro.table.table import Table


def _combine(a: Table, b: Table, catalog: Catalog | None, operation) -> Table:
    cat = catalog if catalog is not None else get_catalog()
    (meta_a, *pos_a), (meta_b, *pos_b) = resolve_candset(a, cat), resolve_candset(b, cat)
    if meta_a.ltable is not meta_b.ltable or meta_a.rtable is not meta_b.rtable:
        raise SchemaError(
            "candidate sets were built over different base tables; "
            "set operations require the same A and B"
        )
    ltable, rtable = meta_a.ltable, meta_a.rtable
    l_key, r_key = cat.get_key(ltable), cat.get_key(rtable)
    codes = PairCodes.by_key(ltable, rtable, l_key, r_key)
    operands = [arrays.unique_sorted(codes.encode(*pos)) for pos in (pos_a, pos_b)]
    l_pos, r_pos = codes.decode(operation(*operands))
    return candset_from_positions(l_pos, r_pos, ltable, rtable, l_key, r_key, catalog=cat)


def candset_union(a: Table, b: Table, catalog: Catalog | None = None) -> Table:
    """Pairs present in either candidate set."""
    return _combine(a, b, catalog, arrays.union_sorted)


def candset_intersection(a: Table, b: Table, catalog: Catalog | None = None) -> Table:
    """Pairs present in both candidate sets."""
    return _combine(a, b, catalog, arrays.intersect_sorted)


def candset_difference(a: Table, b: Table, catalog: Catalog | None = None) -> Table:
    """Pairs in ``a`` but not in ``b``."""
    return _combine(a, b, catalog, arrays.difference_sorted)

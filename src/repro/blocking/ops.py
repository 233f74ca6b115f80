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

from repro.blocking.base import PairCodes, candset_from_positions, key_positions
from repro.catalog.catalog import Catalog, get_catalog
from repro.catalog.checks import validate_candset
from repro.exceptions import SchemaError
from repro.perf import arrays
from repro.table.table import Table


def _combine(a: Table, b: Table, catalog: Catalog | None, operation) -> Table:
    cat = catalog if catalog is not None else get_catalog()
    metas = validate_candset(a, cat), validate_candset(b, cat)
    if metas[0].ltable is not metas[1].ltable or metas[0].rtable is not metas[1].rtable:
        raise SchemaError(
            "candidate sets were built over different base tables; "
            "set operations require the same A and B"
        )
    ltable, rtable = metas[0].ltable, metas[0].rtable
    l_key, r_key = cat.get_key(ltable), cat.get_key(rtable)
    codes = PairCodes.by_key(ltable, rtable, l_key, r_key)
    operands = [
        arrays.unique_sorted(
            codes.encode(
                key_positions(ltable, l_key, candset.column(meta.fk_ltable)),
                key_positions(rtable, r_key, candset.column(meta.fk_rtable)),
            )
        )
        for candset, meta in zip((a, b), metas)
    ]
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

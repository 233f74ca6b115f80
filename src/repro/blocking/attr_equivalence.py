"""Hash and attribute-equivalence blockers: keep pairs that agree on a value.

The classic EM blocker (e.g. "persons residing in different states are
dropped", Figure 1 of the paper).  ``block_tables`` runs as an equality
join on the blocking value (:func:`~repro.blocking.base.value_ids`),
so it never materializes the cross product.  Missing values never match
anything (a pair with a missing blocking value is dropped), matching
Magellan's semantics.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.blocking.base import (
    Blocker,
    candset_from_positions,
    observe_blocking,
    picked_rows,
    value_ids,
)
from repro.catalog.catalog import Catalog
from repro.perf import arrays
from repro.table.schema import is_missing
from repro.table.table import Table


class HashBlocker(Blocker):
    """Keep pairs whose rows hash to the same bucket.

    ``l_hash``/``r_hash`` map a row to a bucket value (``None`` drops the
    row).  Covers schemes like "first 3 letters of the lowercased name".
    """

    def __init__(self, l_hash, r_hash=None):
        self.l_hash = l_hash
        self.r_hash = r_hash if r_hash is not None else l_hash

    def _buckets(self, table: Table, side: int) -> list[Any]:
        """Each row's bucket on ``side`` (0 left, 1 right)."""
        return list(map((self.l_hash, self.r_hash)[side], table.rows()))

    def keep(self, ltable: Table, rtable: Table, l_pos, r_pos) -> np.ndarray:
        """The pairs whose buckets, over :func:`picked_rows`, are equal."""
        (ltable, l_pos), (rtable, r_pos) = picked_rows(ltable, l_pos), picked_rows(rtable, r_pos)
        l_ids, r_ids = value_ids(self._buckets(ltable, 0), self._buckets(rtable, 1))
        l_ids, r_ids = l_ids[l_pos], r_ids[r_pos]
        return (l_ids >= 0) & (l_ids == r_ids)

    def block_tables(
        self,
        ltable: Table,
        rtable: Table,
        l_key: str = "id",
        r_key: str = "id",
        l_output_attrs: Sequence[str] = (),
        r_output_attrs: Sequence[str] = (),
        catalog: Catalog | None = None,
    ) -> Table:
        ltable.require_columns([l_key])
        rtable.require_columns([r_key])
        ids = value_ids(self._buckets(ltable, 0), self._buckets(rtable, 1))
        l_pos, r_pos = arrays.equal_id_pairs(*ids)
        observe_blocking(self, len(l_pos))
        return candset_from_positions(
            l_pos, r_pos, ltable, rtable, l_key, r_key, l_output_attrs, r_output_attrs, catalog
        )


class AttrEquivalenceBlocker(HashBlocker):
    """Keep pairs with equal values of ``l_block_attr``/``r_block_attr``:
    a hash blocker whose bucket is the value itself (none when missing)."""

    def __init__(self, l_block_attr: str, r_block_attr: str | None = None):
        self.l_block_attr = l_block_attr
        self.r_block_attr = r_block_attr if r_block_attr is not None else l_block_attr

    def _buckets(self, table: Table, side: int) -> list[Any]:
        attr = (self.l_block_attr, self.r_block_attr)[side]
        table.require_columns([attr])
        return [None if is_missing(value) else value for value in table.column(attr)]

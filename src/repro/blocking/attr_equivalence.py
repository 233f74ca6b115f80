"""Hash and attribute-equivalence blockers: keep pairs that agree on a value.

The classic EM blocker (e.g. "persons residing in different states are
dropped", Figure 1 of the paper).  ``block_tables`` runs as an equality
join on the blocking value (:func:`~repro.blocking.base.equal_value_pairs`),
so it never materializes the cross product.  Missing values never match
anything (a pair with a missing blocking value is dropped), matching
Magellan's semantics.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial
from typing import Any

from repro.blocking.base import (
    Blocker,
    candset_from_positions,
    equal_value_pairs,
    observe_blocking,
)
from repro.catalog.catalog import Catalog
from repro.table.schema import is_missing
from repro.table.table import Row, Table


class HashBlocker(Blocker):
    """Keep pairs whose rows hash to the same bucket.

    ``l_hash``/``r_hash`` map a row to a bucket value (``None`` drops the
    row).  Covers schemes like "first 3 letters of the lowercased name".
    """

    def __init__(self, l_hash, r_hash=None):
        self.l_hash = l_hash
        self.r_hash = r_hash if r_hash is not None else l_hash

    def block_tuples(self, l_row: Row, r_row: Row) -> bool:
        l_value = self.l_hash(l_row)
        r_value = self.r_hash(r_row)
        if l_value is None or r_value is None:
            return True
        return l_value != r_value

    def _buckets(self, table: Table, side: int) -> list[Any]:
        """Each row's bucket on ``side`` (0 left, 1 right)."""
        return list(map((self.l_hash, self.r_hash)[side], table.rows()))

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
        l_pos, r_pos = equal_value_pairs(self._buckets(ltable, 0), self._buckets(rtable, 1))
        observe_blocking(self, len(l_pos))
        return candset_from_positions(
            l_pos, r_pos, ltable, rtable, l_key, r_key, l_output_attrs, r_output_attrs, catalog
        )


def _present(attr: str, row: Row) -> Any:
    value = row[attr]
    return None if is_missing(value) else value


class AttrEquivalenceBlocker(HashBlocker):
    """Keep pairs with equal values of ``l_block_attr``/``r_block_attr``:
    a hash blocker whose bucket is the value itself."""

    def __init__(self, l_block_attr: str, r_block_attr: str | None = None):
        self.l_block_attr = l_block_attr
        self.r_block_attr = r_block_attr if r_block_attr is not None else l_block_attr
        super().__init__(partial(_present, self.l_block_attr), partial(_present, self.r_block_attr))

    def _buckets(self, table: Table, side: int) -> list[Any]:
        attr = (self.l_block_attr, self.r_block_attr)[side]
        table.require_columns([attr])
        return [None if is_missing(value) else value for value in table.column(attr)]

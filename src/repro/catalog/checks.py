"""Self-containment validators.

The paper's running example (Section 4.1): a command Z is about to operate
on candidate set C and needs the FK constraint between C and base table A
to be true.  Because some other tool may have deleted rows from A without
updating the catalog, Z first *checks* the constraint; if it no longer
holds, Z warns and stops rather than silently computing garbage.  These
functions implement those checks for all downstream commands.
"""

from __future__ import annotations

import warnings
from itertools import repeat
from typing import TYPE_CHECKING

from repro.catalog.catalog import Catalog, TableMetadata, get_catalog
from repro.exceptions import ForeignKeyConstraintError, KeyConstraintError
from repro.table.table import Table

if TYPE_CHECKING:
    import numpy as np


class StaleMetadataWarning(UserWarning):
    """Issued when catalog metadata is found to be stale but tolerable."""


def check_fk_constraint(
    child: Table, fk_column: str, parent: Table, parent_key: str
) -> np.ndarray:
    """Verify every FK value in ``child`` exists as a key in ``parent``.

    Raises :class:`ForeignKeyConstraintError` on dangling (or unhashable)
    references and :class:`KeyConstraintError` if the parent key is invalid.
    Returns each FK value's row in ``parent``, read off the ``{key: row}``
    dict that is also the key check: each key and FK value is hashed once.
    """
    import numpy  # lazily: ``import repro.catalog`` does not load numpy

    keys = parent.column(parent_key)
    try:
        position = dict(zip(keys, range(len(keys))))
    except TypeError:  # an unhashable key: validate_key raises, a missing key first
        position = {}
    if None in position or len(position) < len(keys):
        parent.validate_key(parent_key)
    fks = child.column(fk_column)
    try:
        rows = numpy.fromiter(map(position.get, fks, repeat(-1)), numpy.int64, len(fks))
    except TypeError:
        raise ForeignKeyConstraintError(
            f"{fk_column!r} contains unhashable values, which match no {parent_key!r} "
            "in the parent table"
        ) from None
    dangling = numpy.flatnonzero(rows < 0)
    if len(dangling):
        raise ForeignKeyConstraintError(
            f"{len(dangling)} value(s) in {fk_column!r} have no matching "
            f"{parent_key!r} in the parent table (e.g. {[fks[i] for i in dangling[:3]]})"
        )
    return rows


def resolve_candset(
    candset: Table, catalog: Catalog | None = None
) -> tuple[TableMetadata, np.ndarray, np.ndarray]:
    """Check a candidate set's key, then both FK constraints into its base
    tables, and return its :class:`TableMetadata` and each pair's left and
    right base row.  Nothing is cached: a base table may change between
    the commands that read a candidate set."""
    cat = catalog if catalog is not None else get_catalog()
    meta = cat.get_candset_metadata(candset)
    candset.validate_key(meta.key)
    l_pos = check_fk_constraint(candset, meta.fk_ltable, meta.ltable, cat.get_key(meta.ltable))
    r_pos = check_fk_constraint(candset, meta.fk_rtable, meta.rtable, cat.get_key(meta.rtable))
    return meta, l_pos, r_pos


def validate_candset(
    candset: Table,
    catalog: Catalog | None = None,
    strict: bool = True,
) -> TableMetadata:
    """Validate a candidate set's full metadata before a tool uses it.

    Checks the candidate set's own key and both FK constraints into its
    base tables.  With ``strict=True`` (the default) a violated constraint
    raises; with ``strict=False`` it instead emits a
    :class:`StaleMetadataWarning` and continues — the paper notes tools may
    choose either, depending on the nature of the command.

    Returns the validated :class:`TableMetadata` record.
    """
    cat = catalog if catalog is not None else get_catalog()
    try:
        return resolve_candset(candset, cat)[0]
    except (ForeignKeyConstraintError, KeyConstraintError) as exc:
        if strict:
            raise
        warnings.warn(
            f"candidate-set metadata is stale: {exc}", StaleMetadataWarning, stacklevel=2
        )
    return cat.get_candset_metadata(candset)

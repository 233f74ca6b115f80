"""The standalone metadata catalog.

Section 4.1 of the paper: tables are held in generic data structures
(there: pandas dataframes, here: :class:`repro.table.Table`) which cannot
carry EM metadata, so keys and key-foreign-key (FK) relationships live in a
*standalone catalog* keyed by table object.  Because other tools may mutate
a table without telling the catalog, every consumer of metadata must
*re-validate* it before trusting it (self-containment); the validators for
that live in :mod:`repro.catalog.checks` and on this class.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import CatalogError
from repro.table.table import Table

_RAISE = object()


@dataclass
class TableMetadata:
    """Metadata the catalog tracks for one table.

    ``key`` is the name of the table's key column.  For a candidate set
    (the output of blocking), ``fk_ltable``/``fk_rtable`` name the columns
    holding foreign keys into ``ltable``/``rtable``.
    """

    key: str | None = None
    fk_ltable: str | None = None
    fk_rtable: str | None = None
    ltable: Table | None = None
    rtable: Table | None = None
    properties: dict[str, Any] = field(default_factory=dict)

    def is_candset(self) -> bool:
        """True when this metadata describes a blocking candidate set."""
        return (
            self.fk_ltable is not None
            and self.fk_rtable is not None
            and self.ltable is not None
            and self.rtable is not None
        )


class Catalog:
    """Maps table objects to their :class:`TableMetadata`.

    Entries are held via weak references so dropping a table drops its
    metadata; the catalog never keeps a table alive.
    """

    def __init__(self) -> None:
        self._entries: "weakref.WeakKeyDictionary[Table, TableMetadata]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    # Generic access
    # ------------------------------------------------------------------
    def metadata_for(self, table: Table) -> TableMetadata:
        """Return (creating if needed) the metadata record for a table."""
        entry = self._entries.get(table)
        if entry is None:
            entry = TableMetadata()
            self._entries[table] = entry
        return entry

    def has_metadata(self, table: Table) -> bool:
        """True if the catalog has any record for this table."""
        return table in self._entries

    def clear(self) -> None:
        """Drop all catalog entries (used by tests)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def set_key(self, table: Table, key: str) -> None:
        """Declare ``key`` as the table's key column, validating it first."""
        table.validate_key(key)
        self.metadata_for(table).key = key

    def get_key(self, table: Table, default: Any = _RAISE) -> str | None:
        """Return the table's key column name.

        Raises :class:`CatalogError` when no key is recorded, unless a
        ``default`` is supplied.
        """
        entry = self._entries.get(table)
        key = entry.key if entry else None
        if key is None:
            if default is _RAISE:
                raise CatalogError("table has no key recorded in the catalog")
            return default
        return key

    # ------------------------------------------------------------------
    # Candidate-set metadata
    # ------------------------------------------------------------------
    def set_candset_metadata(
        self,
        candset: Table,
        key: str,
        fk_ltable: str,
        fk_rtable: str,
        ltable: Table,
        rtable: Table,
    ) -> None:
        """Record the full metadata of a blocking candidate set."""
        candset.validate_key(key)
        candset.require_columns([fk_ltable, fk_rtable])
        entry = self.metadata_for(candset)
        entry.key = key
        entry.fk_ltable = fk_ltable
        entry.fk_rtable = fk_rtable
        entry.ltable = ltable
        entry.rtable = rtable

    def get_candset_metadata(self, candset: Table) -> TableMetadata:
        """Return candidate-set metadata, raising if it is incomplete."""
        entry = self._entries.get(candset)
        if entry is None or not entry.is_candset():
            raise CatalogError(
                "table has no candidate-set metadata (key, fk_ltable, "
                "fk_rtable, ltable, rtable) recorded in the catalog"
            )
        return entry

    def copy_metadata(self, source: Table, target: Table) -> Table:
        """Copy the source table's metadata record onto the target table,
        and return the target."""
        entry = self._entries.get(source)
        if entry is None:
            raise CatalogError("source table has no metadata to copy")
        self._entries[target] = TableMetadata(
            key=entry.key,
            fk_ltable=entry.fk_ltable,
            fk_rtable=entry.fk_rtable,
            ltable=entry.ltable,
            rtable=entry.rtable,
            properties=dict(entry.properties),
        )
        return target

    # ------------------------------------------------------------------
    # Free-form properties
    # ------------------------------------------------------------------
    def set_property(self, table: Table, name: str, value: Any) -> None:
        """Attach an arbitrary named property to a table."""
        self.metadata_for(table).properties[name] = value

    def get_property(self, table: Table, name: str, default: Any = _RAISE) -> Any:
        """Read a named property, raising unless a default is given."""
        entry = self._entries.get(table)
        if entry is None or name not in entry.properties:
            if default is _RAISE:
                raise CatalogError(f"table has no property {name!r}")
            return default
        return entry.properties[name]


_GLOBAL_CATALOG = Catalog()


def get_catalog() -> Catalog:
    """Return the process-wide catalog instance."""
    return _GLOBAL_CATALOG


def reset_catalog() -> None:
    """Clear the process-wide catalog (for test isolation)."""
    _GLOBAL_CATALOG.clear()

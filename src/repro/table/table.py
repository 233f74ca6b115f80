"""A lightweight column-oriented table: the ecosystem's pandas substitute.

Magellan deliberately stores data in *generic, well-known* structures
(pandas DataFrames) so that tools from different packages interoperate.
pandas is not available in this environment, so :class:`Table` plays the
same role: a plain relational table with named, heterogenous columns and no
EM-specific behaviour.  All EM metadata (keys, key-foreign-key constraints)
lives *outside* the table in :mod:`repro.catalog`, exactly as the paper
prescribes.

Values are ordinary Python objects; missing values are ``None``.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from itertools import repeat
from operator import is_
from typing import Any

from repro.exceptions import KeyConstraintError, SchemaError

Row = dict[str, Any]


class Table:
    """A column-oriented table with named columns of equal length.

    Parameters
    ----------
    columns:
        Mapping of column name to a sequence of values.  All columns must
        have the same length.  Values are stored as plain Python lists.

    Examples
    --------
    >>> t = Table({"id": [1, 2], "name": ["Dave Smith", "Dan Smith"]})
    >>> t.num_rows
    2
    >>> t.row(0)["name"]
    'Dave Smith'
    """

    def __init__(self, columns: Mapping[str, Sequence[Any]] | None = None):
        self._columns: dict[str, list[Any]] = {}
        self._num_rows = 0
        if columns:
            lengths = {len(values) for values in columns.values()}
            if len(lengths) > 1:
                raise SchemaError(
                    f"columns have unequal lengths: "
                    f"{ {name: len(v) for name, v in columns.items()} }"
                )
            self._columns = {name: list(values) for name, values in columns.items()}
            self._num_rows = lengths.pop() if lengths else 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls, rows: Iterable[Mapping[str, Any]], columns: Sequence[str] | None = None
    ) -> "Table":
        """Build a table from an iterable of row dicts.

        If ``columns`` is omitted, the column order is taken from the first
        row; missing values in later rows become ``None``.
        """
        rows = list(rows)
        if columns is None:
            if not rows:
                return cls()
            columns = list(rows[0].keys())
        data: dict[str, list[Any]] = {name: [] for name in columns}
        for row in rows:
            for name in columns:
                data[name].append(row.get(name))
        return cls(data)

    def copy(self) -> "Table":
        """Return a deep-enough copy (new column lists, shared cell values)."""
        return Table({name: list(values) for name, values in self._columns.items()})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def columns(self) -> list[str]:
        """Column names, in insertion order."""
        return list(self._columns)

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return self._num_rows

    def __len__(self) -> int:
        return self._num_rows

    def __contains__(self, column: str) -> bool:
        return column in self._columns

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self._columns == other._columns

    # Identity hashing: tables are mutable, but the catalog needs to key
    # metadata by table object (as Magellan keys its catalog by dataframe).
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"Table({self._num_rows} rows x {len(self._columns)} cols: {self.columns})"

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def column(self, name: str) -> list[Any]:
        """Return the values of one column (the live list; do not mutate)."""
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(f"no such column: {name!r}; have {self.columns}") from None

    def __getitem__(self, name: str) -> list[Any]:
        return self.column(name)

    def require_columns(self, names: Iterable[str]) -> None:
        """Raise :class:`SchemaError` unless every name is a column."""
        missing = [name for name in names if name not in self._columns]
        if missing:
            raise SchemaError(f"missing columns {missing}; have {self.columns}")

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def row(self, index: int) -> Row:
        """Return row ``index`` as a dict (new dict each call)."""
        if not -self._num_rows <= index < self._num_rows:
            raise IndexError(f"row index {index} out of range for {self._num_rows} rows")
        return {name: values[index] for name, values in self._columns.items()}

    def rows(self) -> Iterator[Row]:
        """Iterate over rows as dicts."""
        for i in range(self._num_rows):
            yield self.row(i)

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    def to_rows(self) -> list[Row]:
        """Materialize all rows as a list of dicts."""
        return list(self.rows())

    # ------------------------------------------------------------------
    # Mutation (returns self for chaining where cheap, new Table otherwise)
    # ------------------------------------------------------------------
    def add_column(self, name: str, values: Sequence[Any]) -> "Table":
        """Add (or replace) a column in place and return ``self``."""
        if self._columns and len(values) != self._num_rows:
            raise SchemaError(
                f"column {name!r} has {len(values)} values, table has {self._num_rows} rows"
            )
        self._columns[name] = list(values)
        if not self._num_rows:
            self._num_rows = len(values)
        return self

    def drop_columns(self, names: Iterable[str]) -> "Table":
        """Return a new table without the given columns."""
        drop = set(names)
        self.require_columns(drop)
        return Table({n: v for n, v in self._columns.items() if n not in drop})

    def rename_columns(self, mapping: Mapping[str, str]) -> "Table":
        """Return a new table with columns renamed per ``mapping``."""
        self.require_columns(mapping)
        return Table({mapping.get(n, n): v for n, v in self._columns.items()})

    def append_row(self, row: Mapping[str, Any]) -> "Table":
        """Append one row in place (missing columns become ``None``)."""
        if not self._columns:
            for name, value in row.items():
                self._columns[name] = [value]
            self._num_rows = 1
            return self
        for name, values in self._columns.items():
            values.append(row.get(name))
        self._num_rows += 1
        return self

    # ------------------------------------------------------------------
    # Relational operations (all return new tables)
    # ------------------------------------------------------------------
    def project(self, names: Sequence[str]) -> "Table":
        """Return a new table with only the given columns, in that order."""
        self.require_columns(names)
        return Table({name: self._columns[name] for name in names})

    def select(self, predicate: Callable[[Row], bool]) -> "Table":
        """Return the rows for which ``predicate(row)`` is true."""
        keep = [i for i in range(self._num_rows) if predicate(self.row(i))]
        return self.take(keep)

    def take(self, indices: Sequence[int]) -> "Table":
        """Return a new table with the rows at the given positions."""
        return Table(
            {name: [values[i] for i in indices] for name, values in self._columns.items()}
        )

    def head(self, n: int) -> "Table":
        """Return the first ``n`` rows."""
        return self.take(range(min(n, self._num_rows)))

    def sample(self, n: int, seed: int | None = None) -> "Table":
        """Return ``n`` rows sampled uniformly without replacement."""
        n = min(n, self._num_rows)
        rng = random.Random(seed)
        return self.take(sorted(rng.sample(range(self._num_rows), n)))

    def sort_by(self, name: str, reverse: bool = False) -> "Table":
        """Return a new table sorted by one column (None sorts first)."""
        values = self.column(name)
        order = sorted(
            range(self._num_rows),
            key=lambda i: (values[i] is not None, values[i]),
            reverse=reverse,
        )
        return self.take(order)

    def concat(self, other: "Table") -> "Table":
        """Stack another table with the same columns below this one."""
        if set(other.columns) != set(self.columns):
            raise SchemaError(
                f"cannot concat tables with different columns: "
                f"{self.columns} vs {other.columns}"
            )
        return Table(
            {name: self._columns[name] + other.column(name) for name in self.columns}
        )

    def unique_values(self, name: str) -> set[Any]:
        """Distinct values of one column (``None`` included if present)."""
        return set(self.column(name))

    # ------------------------------------------------------------------
    # Key handling
    # ------------------------------------------------------------------
    def validate_key(self, name: str) -> None:
        """Raise :class:`KeyConstraintError` unless ``name`` is a valid key.

        A valid key column has no ``None`` values, no unhashable values
        and no duplicates.
        """
        values = self.column(name)
        if any(map(is_, values, repeat(None))):
            raise KeyConstraintError(f"key column {name!r} contains missing values")
        try:
            distinct = len(set(values))
        except TypeError:
            raise KeyConstraintError(f"key column {name!r} contains unhashable values") from None
        if distinct != len(values):
            raise KeyConstraintError(f"key column {name!r} contains duplicates")

    def index_by(self, name: str) -> dict[Any, Row]:
        """Return a mapping from key value to row dict.

        The column must be a valid key (validated before indexing).
        """
        self.validate_key(name)
        return {row[name]: row for row in self.rows()}

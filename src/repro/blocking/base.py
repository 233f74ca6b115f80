"""Blocker base class and candidate-set construction.

A blocker consumes two tables A and B and produces a *candidate set*: a
table whose rows reference a pair (one A-tuple, one B-tuple) that survived
blocking.  Following the paper's space-efficiency principle, the candidate
set carries only the pair of foreign keys — ``ltable_<key>`` and
``rtable_<key>`` — plus optional user-requested output attributes, and the
key/FK metadata is recorded in the catalog rather than in the table.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.catalog.catalog import Catalog, get_catalog
from repro.catalog.checks import check_fk_constraint, resolve_candset
from repro.exceptions import SchemaError
from repro.index.store import use_index_store
from repro.obs import get_registry
from repro.perf import arrays
from repro.simjoin.joins import set_sim_join_positions
from repro.table.schema import present_mask
from repro.table.table import Row, Table
from repro.text.tokenizers import Tokenizer

CANDSET_ID = "_id"
TEXT = "_text"
#: Pairs of A x B per ``keep`` call of :meth:`Blocker.block_tables`' scan.
SCAN_CHUNK_PAIRS = 1 << 18


def text_view(table: Table, key: str, columns: Sequence[str]) -> Table:
    """``key`` and one ``TEXT`` column: each row's non-missing ``columns``
    values as ``str``, joined with a space and lowercased, or ``None``
    when every value is missing.

    The one text the token tools read: the overlap and rule blockers join
    it over one column, the blocking debugger and the samplers tokenize
    it over several.  Store fingerprints ignore column names, so a view
    of one unchanged column hits the artifacts of any earlier view of it.
    """
    parts, present = [], []
    for name in columns:  # C-level passes per column
        values = table.column(name)
        parts.append(list(map(str.lower, map(str, values))))
        present.append(present_mask(values))
    # Rows with every cell present join in one pass; a row missing one
    # takes a Python step, and a row missing all has no text.
    if len(parts) == 1:
        texts = parts[0]
    else:
        texts = list(map(" ".join, zip(*parts))) if parts else [None] * table.num_rows
    gaps = np.flatnonzero(~np.logical_and.reduce(present, axis=0, initial=True))
    oks = [mask.tolist() for mask in present] if len(gaps) else []
    for row in gaps.tolist():
        kept = [part[row] for part, ok in zip(parts, oks) if ok[row]]
        texts[row] = " ".join(kept) if kept else None
    return Table({key: table.column(key), TEXT: texts})


def present_numbers(values: Sequence[Any]) -> np.ndarray:
    """Each value's place among the non-missing ``values``, or -1: a
    row's record number in the store's artifacts of its column."""
    present = present_mask(values)
    return np.where(present, np.cumsum(present) - 1, -1)


def record_numbers(view: Table) -> np.ndarray:
    """Each row's record number in the store's artifacts of a
    :func:`text_view` (its place among the rows with a text), or -1."""
    return present_numbers(view.column(TEXT))


def record_rows(view: Table) -> np.ndarray:
    """The row of each record of a :func:`text_view`, in record order."""
    return np.flatnonzero(record_numbers(view) >= 0)


def few_rows(count: int, table: Table) -> bool:
    """Whether ``count`` distinct rows are under a quarter of ``table``'s:
    then a blocker's ``keep`` and a feature's text view read just those
    rows, else the whole column, whose artifacts other commands share."""
    return 4 * count < table.num_rows


def picked_rows(table: Table, pos: np.ndarray) -> tuple[Table, np.ndarray]:
    """``(table, pos)`` as a ``keep`` reads them: positions on
    :func:`few_rows` as a table of just those rows and each position's
    place in it, else as they are."""
    seen = np.zeros(table.num_rows, bool)
    seen[pos] = True
    rows = np.flatnonzero(seen)
    if not few_rows(len(rows), table):
        return table, pos
    return table.take(rows.tolist()), (np.cumsum(seen) - 1)[pos]


def artifact_key(table: Table) -> str:
    """The column keying ``table``'s store artifacts when a blocker reads
    it by row: its catalog key, so a filter reads what ``block_tables``
    built, else its first column (rows are read by position)."""
    return get_catalog().get_key(table, None) or table.columns[0]


def observe_blocking(
    blocker: "Blocker | str", pair_count: int, seconds: float | None = None
) -> None:
    """Record one blocking call's surviving-pair count in the registry.

    Every ``block_tables``/``block_candset`` implementation calls this
    with its output size (and wall seconds when it times itself), so the
    per-blocker funnel — how many pairs each blocker lets through — is
    observable across all workflow stacks.
    """
    name = blocker if isinstance(blocker, str) else type(blocker).__name__
    registry = get_registry()
    registry.counter("blocking_calls_total", blocker=name).inc()
    registry.counter("blocking_pairs_total", blocker=name).inc(pair_count)
    if seconds is not None:
        registry.histogram("blocking_seconds", blocker=name).observe(seconds)


def fk_column_names(l_key: str, r_key: str) -> tuple[str, str]:
    """Names of the candidate set's foreign-key columns."""
    return f"ltable_{l_key}", f"rtable_{r_key}"


def key_order(table: Table, key: str) -> np.ndarray:
    """``table``'s row positions in ascending ``key`` order."""
    keys = table.column(key)
    try:
        return np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64)
    except TypeError as exc:
        raise SchemaError(f"key column {key!r} holds values that do not sort: {exc}") from None


class PairCodes:
    """Pairs of rows of two tables as int64 codes ``l_rank * n_r + r_rank``,
    where a row's rank is its place in ``l_order`` / ``r_order``.

    Sorted codes are pairs in (left rank, right rank) order: ``by_key``
    ranks rows by key, so its code order is ``sorted()`` of the key pairs.
    """

    def __init__(self, l_order: np.ndarray, r_order: np.ndarray):
        self.l_order, self.r_order = l_order, r_order
        self.l_rank, self.r_rank = np.argsort(l_order), np.argsort(r_order)
        self.n_r = max(len(r_order), 1)

    @classmethod
    def by_key(cls, ltable: Table, rtable: Table, l_key: str, r_key: str) -> "PairCodes":
        return cls(key_order(ltable, l_key), key_order(rtable, r_key))

    def encode(self, l_pos: np.ndarray, r_pos: np.ndarray) -> np.ndarray:
        return self.l_rank[l_pos] * self.n_r + self.r_rank[r_pos]

    def decode(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        l_rank, r_rank = np.divmod(codes, self.n_r)
        return self.l_order[l_rank], self.r_order[r_rank]


def value_ids(l_values: Sequence[Any], r_values: Sequence[Any]) -> tuple[np.ndarray, np.ndarray]:
    """Each value's id, from one dict over both sides, so equal ids are
    the dict's equality (``1 == 1.0 == True``); ``None`` is -1.  The
    equality join is :func:`~repro.perf.arrays.equal_id_pairs` of them."""
    ids: dict[Any, int] = {}

    def number(values: Sequence[Any]) -> np.ndarray:
        numbered = (-1 if value is None else ids.setdefault(value, len(ids)) for value in values)
        return np.fromiter(numbered, np.int64, len(values))

    return number(l_values), number(r_values)


def text_join_positions(
    views: tuple[Table, Table], l_key: str, r_key: str, tokenizer: Tokenizer, measure: str,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row positions and scores of the pairs whose texts in the
    :func:`text_view` ``views`` join under ``measure`` at ``threshold``,
    in (left row, right row) order."""
    _, _, rows, positions, scores = set_sim_join_positions(
        *views, l_key, r_key, TEXT, TEXT, tokenizer, measure, threshold
    )
    l_rows, r_rows = map(record_rows, views)
    return l_rows[rows], r_rows[positions], scores


def _candset(
    fks: tuple[list, list], positions: tuple, ltable: Table, rtable: Table, l_key: str,
    r_key: str, l_output_attrs: Sequence[str], r_output_attrs: Sequence[str], catalog,
) -> Table:
    """The one candidate-set builder: ``_id`` a range, the two FK columns,
    each output attribute one take of its base column at ``positions`` (a
    side's ``None``: its checked FKs' rows); then the catalog registration.
    An output attribute that repeats, or that names the key (the FK column
    already carries it), is taken once or not at all."""
    cat = catalog if catalog is not None else get_catalog()
    fk_l, fk_r = fk_column_names(l_key, r_key)
    candset = Table({CANDSET_ID: range(len(fks[0])), fk_l: fks[0], fk_r: fks[1]})
    for side, fk, table, key, attrs, pos in (
        ("ltable", fk_l, ltable, l_key, l_output_attrs, positions[0]),
        ("rtable", fk_r, rtable, r_key, r_output_attrs, positions[1]),
    ):
        if attrs and pos is None:
            pos = check_fk_constraint(candset, fk, table, key)
        for attr in dict.fromkeys(attrs):
            if attr != key:
                candset.add_column(f"{side}_{attr}", arrays.take_values(table.column(attr), pos))
    cat.set_key(ltable, l_key)
    cat.set_key(rtable, r_key)
    cat.set_candset_metadata(candset, CANDSET_ID, fk_l, fk_r, ltable, rtable)
    return candset


def candset_from_positions(
    l_pos: np.ndarray, r_pos: np.ndarray, ltable: Table, rtable: Table, l_key: str, r_key: str,
    l_output_attrs: Sequence[str] = (), r_output_attrs: Sequence[str] = (),
    catalog: Catalog | None = None,
) -> Table:
    """The candidate set of the pairs (``ltable`` row ``l_pos[i]``,
    ``rtable`` row ``r_pos[i]``), in that order: how a blocker that knows
    its pairs' row positions hands them over."""
    fks = arrays.take_values(ltable.column(l_key), l_pos), arrays.take_values(
        rtable.column(r_key), r_pos
    )
    return _candset(
        fks, (l_pos, r_pos), ltable, rtable, l_key, r_key, l_output_attrs, r_output_attrs, catalog
    )


def make_candset(
    pairs: Iterable[tuple[Any, Any]],
    ltable: Table,
    rtable: Table,
    l_key: str,
    r_key: str,
    l_output_attrs: Sequence[str] = (),
    r_output_attrs: Sequence[str] = (),
    catalog: Catalog | None = None,
) -> Table:
    """Build a candidate-set table from (l_key_value, r_key_value) pairs.

    Registers the candidate set's metadata (key ``_id``, both FKs, the base
    tables) in the catalog so downstream tools can validate it.  A side's
    keys are checked here only when it takes output attributes; otherwise
    a dangling one fails :func:`~repro.catalog.checks.validate_candset` later.
    """
    fks = tuple(map(list, zip(*pairs))) or ([], [])
    return _candset(
        fks, (None, None), ltable, rtable, l_key, r_key, l_output_attrs, r_output_attrs, catalog
    )


def candset_pairs(candset: Table, catalog: Catalog | None = None) -> list[tuple[Any, Any]]:
    """Return the (l_key_value, r_key_value) pairs of a candidate set."""
    cat = catalog if catalog is not None else get_catalog()
    meta = cat.get_candset_metadata(candset)
    return list(zip(candset.column(meta.fk_ltable), candset.column(meta.fk_rtable)))


class Blocker:
    """Base class for blockers.

    A blocker's one decision is :meth:`keep`, which pairs of rows survive:
    :meth:`block_candset` is one ``keep`` over a candidate set,
    :meth:`block_tuples` one over a pair, :meth:`block_tables` a scan of
    A x B through it unless an index replaces it.  The default ``keep``
    runs a subclass's :meth:`block_tuples` per pair.
    """

    def keep(
        self, ltable: Table, rtable: Table, l_pos: np.ndarray, r_pos: np.ndarray
    ) -> np.ndarray:
        """Mask of the pairs (``ltable`` row ``l_pos[i]``, ``rtable`` row
        ``r_pos[i]``) that survive the blocker."""
        if type(self).block_tuples is Blocker.block_tuples:
            raise NotImplementedError(f"{type(self).__name__} defines no keep or block_tuples")
        l_rows, r_rows = list(ltable.rows()), list(rtable.rows())
        pairs = zip(l_pos.tolist(), r_pos.tolist())
        return np.fromiter((not self.block_tuples(l_rows[l], r_rows[r]) for l, r in pairs), bool)

    def block_tuples(self, l_row: Row, r_row: Row) -> bool:
        """Return ``True`` when the pair should be *dropped* (blocked):
        :meth:`keep` of the two rows as one-row tables, under a store of
        its own so single pairs do not fill the shared one."""
        tables = (Table({name: [value] for name, value in row.items()}) for row in (l_row, r_row))
        first = np.zeros(1, np.int64)
        with use_index_store():
            return not self.keep(*tables, first, first)[0]

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
        """Apply the blocker to A x B and return the candidate set: here
        :meth:`keep` over A x B in chunks, in (left row, right row) order."""
        started = time.perf_counter()
        ltable.require_columns([l_key])
        rtable.require_columns([r_key])
        total, n_r = ltable.num_rows * rtable.num_rows, max(rtable.num_rows, 1)
        kept = [np.zeros(0, np.int64)]
        for start in range(0, total, SCAN_CHUNK_PAIRS):
            codes = np.arange(start, min(start + SCAN_CHUNK_PAIRS, total))
            kept.append(codes[self.keep(ltable, rtable, *np.divmod(codes, n_r))])
        l_pos, r_pos = np.divmod(np.concatenate(kept), n_r)
        observe_blocking(self, len(l_pos), time.perf_counter() - started)
        return candset_from_positions(
            l_pos, r_pos, ltable, rtable, l_key, r_key, l_output_attrs, r_output_attrs, catalog
        )

    def block_candset(
        self,
        candset: Table,
        catalog: Catalog | None = None,
    ) -> Table:
        """Further filter an existing candidate set with this blocker.

        Resolves the candidate set first (self-containment), then keeps
        the pairs :meth:`keep` keeps, in their order, and
        registers the result against the same base tables.

        For most blockers this is a *pair-local* filter, each pair kept
        on its own two rows, so a chain of such filters yields the same
        pairs in the same order however it is arranged (only the cost
        differs).  ``SortedNeighborhoodBlocker`` and ``CanopyBlocker``
        decide over whole tables (their ``keep`` raises), and
        ``VectorBlocker(top_k=...)`` ranks each left record's partners
        against each other, so its place in a chain matters.
        """
        cat = catalog if catalog is not None else get_catalog()
        meta, l_pos, r_pos = resolve_candset(candset, cat)
        keep = np.flatnonzero(self.keep(meta.ltable, meta.rtable, l_pos, r_pos)).tolist()
        observe_blocking(self, len(keep))
        result = candset.take(keep)
        result.add_column(CANDSET_ID, list(range(len(keep))))
        cat.set_candset_metadata(
            result, meta.key, meta.fk_ltable, meta.fk_rtable, meta.ltable, meta.rtable
        )
        return result

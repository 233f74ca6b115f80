"""Overlap blocker: keep pairs whose attribute tokens overlap enough.

The workhorse blocker for dirty string attributes: tokenize one attribute
from each side and keep pairs sharing at least ``overlap_size`` tokens.
``block_tables`` delegates to the filtered overlap join in
:mod:`repro.simjoin`, so it scales like the sim-join and never enumerates
the cross product.

For long-running deployments the right table need not be frozen:
:meth:`OverlapBlocker.live_index` wraps it in a
:class:`repro.index.LiveIndex` carrying this blocker's exact semantics
(lowercasing, tokenizer, overlap threshold), and
:meth:`OverlapBlocker.block_live` blocks new left rows against that
index — equal output to :meth:`block_tables` over the index's current
records, while ``upsert``/``delete`` absorb right-table churn without a
rebuild.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.blocking.base import (
    TEXT,
    Blocker,
    artifact_key,
    candset_from_positions,
    make_candset,
    observe_blocking,
    picked_rows,
    record_numbers,
    text_join_positions,
    text_view,
)
from repro.catalog.catalog import Catalog
from repro.exceptions import ConfigurationError
from repro.index.delta import LiveIndex
from repro.index.store import IndexStore, get_index_store
from repro.perf import arrays
from repro.table.table import Table
from repro.text.tokenizers import QgramTokenizer, Tokenizer, WhitespaceTokenizer


class OverlapBlocker(Blocker):
    """Keep pairs with token overlap >= ``overlap_size`` on an attribute.

    ``word_level=True`` uses whitespace tokens of the lowercased value;
    otherwise character q-grams of size ``q``.
    """

    def __init__(
        self,
        l_block_attr: str,
        r_block_attr: str | None = None,
        overlap_size: int = 1,
        word_level: bool = True,
        q: int = 3,
    ):
        if overlap_size < 1:
            raise ConfigurationError(f"overlap_size must be >= 1, got {overlap_size}")
        self.l_block_attr = l_block_attr
        self.r_block_attr = r_block_attr if r_block_attr is not None else l_block_attr
        self.overlap_size = overlap_size
        self.word_level = word_level
        self.q = q

    def _tokenizer(self) -> Tokenizer:
        if self.word_level:
            return WhitespaceTokenizer(return_set=True)
        return QgramTokenizer(q=self.q, return_set=True)

    def _views(self, ltable: Table, rtable: Table, l_key: str, r_key: str) -> tuple[Table, Table]:
        ltable.require_columns([l_key, self.l_block_attr])
        rtable.require_columns([r_key, self.r_block_attr])
        return text_view(ltable, l_key, [self.l_block_attr]), text_view(
            rtable, r_key, [self.r_block_attr]
        )

    def keep(self, ltable: Table, rtable: Table, l_pos, r_pos) -> np.ndarray:
        """The pairs whose records in the encoding :meth:`block_tables`
        joins (over :func:`picked_rows`) share ``overlap_size`` tokens; a
        row without one shares none."""
        keys = artifact_key(ltable), artifact_key(rtable)
        (ltable, l_pos), (rtable, r_pos) = picked_rows(ltable, l_pos), picked_rows(rtable, r_pos)
        views = self._views(ltable, rtable, *keys)
        encoding = get_index_store().join_encoding(*views, *keys, TEXT, TEXT, self._tokenizer())
        l_rec, r_rec = (record_numbers(view)[pos] for view, pos in zip(views, (l_pos, r_pos)))
        both = np.flatnonzero((l_rec >= 0) & (r_rec >= 0))
        overlap = np.zeros(len(l_pos), np.int64)
        records = encoding.left, encoding.right
        overlap[both] = arrays.pair_overlaps(*records, l_rec[both], r_rec[both])
        return overlap >= self.overlap_size

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
        views = self._views(ltable, rtable, l_key, r_key)
        l_pos, r_pos, _ = text_join_positions(
            views, l_key, r_key, self._tokenizer(), "overlap", self.overlap_size
        )
        observe_blocking(self, len(l_pos))
        return candset_from_positions(
            l_pos, r_pos, ltable, rtable, l_key, r_key, l_output_attrs, r_output_attrs, catalog
        )

    # ------------------------------------------------------------------
    # Live blocking
    # ------------------------------------------------------------------
    def live_index(
        self,
        rtable: Table,
        r_key: str = "id",
        store: IndexStore | None = None,
        name: str = "overlap-block",
    ) -> LiveIndex:
        """A :class:`LiveIndex` over the right table with this blocker's
        semantics baked in (lowercasing via ``normalize``, this
        tokenizer, overlap >= ``overlap_size``).  Upsert/delete right
        records on it, then block against it with :meth:`block_live`.
        """
        rtable.require_columns([r_key, self.r_block_attr])
        return LiveIndex.from_table(
            rtable,
            r_key,
            self.r_block_attr,
            tokenizer=self._tokenizer(),
            measure="overlap",
            threshold=self.overlap_size,
            normalize=str.lower,
            store=store,
            name=name,
        )

    def block_live(
        self,
        ltable: Table,
        live: LiveIndex,
        l_key: str = "id",
        rtable: Table | None = None,
        l_output_attrs: Sequence[str] = (),
        r_output_attrs: Sequence[str] = (),
        catalog: Catalog | None = None,
    ) -> Table:
        """Block left rows against a live right-side index.

        Produces the same candidate set as :meth:`block_tables` run
        against the index's *current* records.  ``rtable`` (defaulting
        to ``live.to_table()``) supplies the right rows for
        ``r_output_attrs`` projection.
        """
        l_view = ltable.project([l_key, self.l_block_attr])
        joined = live.join_table(l_view, l_key, self.l_block_attr)
        pairs = list(zip(joined.column("l_id"), joined.column("r_id")))
        observe_blocking(self, len(pairs))
        if rtable is None:
            rtable = live.to_table()
        return make_candset(
            pairs, ltable, rtable, l_key, live.key, l_output_attrs, r_output_attrs, catalog
        )

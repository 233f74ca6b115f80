"""Canopy-clustering blocker (McCallum, Nigam & Ungar 2000).

A classic cheap-similarity blocker: records from both tables are grouped
into overlapping *canopies* using an inexpensive token-overlap measure
with two thresholds — a loose one for canopy membership and a tight one
for removing records from further consideration as canopy centers.  A
pair survives blocking when the two records share at least one canopy.
The tokens are the index store's encoding of both tables' text views,
and a center's candidates come off its CSR transpose.

Complements the other blockers when no single attribute is reliable: the
canopy measure runs over the concatenation of all (or chosen) attributes.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.blocking.base import (
    TEXT,
    Blocker,
    make_candset,
    observe_blocking,
    record_numbers,
    text_view,
)
from repro.catalog.catalog import Catalog
from repro.exceptions import ConfigurationError
from repro.index.store import get_index_store
from repro.perf import arrays
from repro.table.table import Table
from repro.text.tokenizers import WhitespaceTokenizer


class CanopyBlocker(Blocker):
    """Overlapping canopies over the union of both tables' records.

    Parameters
    ----------
    attrs:
        Attributes whose lowercased whitespace tokens form the cheap
        representation (``None``: all shared non-key attributes).
    loose, tight:
        Jaccard thresholds: a record joins a canopy when its similarity
        to the center is >= ``loose``; it stops being a future center
        candidate when >= ``tight``.  Requires ``tight >= loose``.
    seed:
        Center-selection order (canopies are order-dependent).

    Note: like sorted-neighborhood, canopy blocking is defined over whole
    tables; per-pair ``keep`` (so ``block_candset`` and ``block_tuples``)
    raises.
    """

    def __init__(
        self,
        attrs: Sequence[str] | None = None,
        loose: float = 0.2,
        tight: float = 0.6,
        seed: int = 0,
    ):
        if not 0.0 < loose <= tight <= 1.0:
            raise ConfigurationError(
                f"need 0 < loose <= tight <= 1, got loose={loose} tight={tight}"
            )
        self.attrs = list(attrs) if attrs is not None else None
        self.loose = loose
        self.tight = tight
        self.seed = seed

    def keep(self, ltable: Table, rtable: Table, l_pos, r_pos) -> np.ndarray:
        raise NotImplementedError(
            "canopy blocking is defined over whole tables, not single pairs"
        )

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
        if self.attrs is None:
            attrs = [
                name
                for name in ltable.columns
                if name in set(rtable.columns) and name not in (l_key, r_key)
            ]
        else:
            attrs = self.attrs
            ltable.require_columns(attrs)
            rtable.require_columns(attrs)
        if not attrs:
            # Without a single measured attribute every record's token
            # set is empty, every canopy is a singleton, and the blocker
            # silently returns zero pairs — a misconfiguration, not a
            # legitimate empty result.
            raise ConfigurationError(
                "canopy blocking has no attributes to measure: the two "
                "tables share no non-key attributes (pass attrs= explicitly)"
                if self.attrs is None
                else "canopy blocking needs at least one attribute, got attrs=[]"
            )

        # Every row of both tables is a record, left rows first; its tokens
        # are its store row of the pair's encoding, none without a text.
        views = [text_view(ltable, l_key, attrs), text_view(rtable, r_key, attrs)]
        encoding = get_index_store().join_encoding(
            *views, l_key, r_key, TEXT, TEXT, WhitespaceTokenizer(return_set=True)
        )
        left, right = encoding.left, encoding.right
        l_numbers, r_numbers = map(record_numbers, views)
        # Row -1 is the empty one past both sides' rows.
        rows = np.concatenate([l_numbers, np.where(r_numbers < 0, -1, r_numbers + len(left.keys))])
        lengths = np.concatenate([left.sizes, right.sizes, [0]])
        indices = np.concatenate([left.indices, right.indices])
        records = arrays.take_rows("", [], lengths, indices, rows, left.dim)
        sizes, (indptr, postings) = records.sizes, arrays.posting_lists(records)

        rng = random.Random(self.seed)
        order = list(range(len(rows)))
        rng.shuffle(order)
        center = np.ones(len(rows), bool)
        canopies = []
        for position in order:
            if not center[position]:
                continue
            center[position] = False
            ids = records.indices[records.indptr[position] : records.indptr[position + 1]]
            # The records sharing a token with the center, by Jaccard.
            seen = arrays.unique_sorted(
                postings[arrays._ragged_take(indptr[ids], indptr[ids + 1] - indptr[ids])[1]]
            ) if len(ids) else np.array([position])
            centers = np.full(len(seen), position)
            overlap = arrays.pair_overlaps(records, records, centers, seen)
            similarity = arrays.scores_arrays("jaccard", overlap, sizes[centers], sizes[seen])
            canopies.append(seen[similarity >= self.loose])
            center[seen[similarity >= self.tight]] = False

        # Pairs sharing a canopy, across sides only.
        l_ids, r_ids, n_l = ltable.column(l_key), rtable.column(r_key), ltable.num_rows
        pairs: set[tuple[Any, Any]] = set()
        for members in canopies:
            lefts = members[members < n_l].tolist()
            rights = (members[members >= n_l] - n_l).tolist()
            pairs.update((l_ids[l], r_ids[r]) for l in lefts for r in rights)
        observe_blocking(self, len(pairs))
        return make_candset(
            sorted(pairs, key=lambda p: (str(p[0]), str(p[1]))),
            ltable, rtable, l_key, r_key, l_output_attrs, r_output_attrs, catalog,
        )

"""Canopy-clustering blocker (McCallum, Nigam & Ungar 2000).

A classic cheap-similarity blocker: records from both tables are grouped
into overlapping *canopies* using an inexpensive token-overlap measure
with two thresholds — a loose one for canopy membership and a tight one
for removing records from further consideration as canopy centers.  A
pair survives blocking when the two records share at least one canopy.

Complements the other blockers when no single attribute is reliable: the
canopy measure runs over the concatenation of all (or chosen) attributes.
"""

from __future__ import annotations

import random
from collections import defaultdict
from collections.abc import Sequence
from typing import Any

from repro.blocking.base import TEXT, Blocker, make_candset, observe_blocking, text_view
from repro.catalog.catalog import Catalog
from repro.exceptions import ConfigurationError
from repro.table.table import Row, Table
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
    tables; per-pair ``block_tuples`` raises.
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

    def block_tuples(self, l_row: Row, r_row: Row) -> bool:
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

        # Side-tagged records: ('l'|'r', key value, token set).
        records: list[tuple[str, Any, frozenset[str]]] = []
        tokenize = WhitespaceTokenizer(return_set=True).tokenize
        for side, table, key in (("l", ltable, l_key), ("r", rtable, r_key)):
            view = text_view(table, key, attrs)
            for key_value, text in zip(view.column(key), view.column(TEXT)):
                records.append((side, key_value, frozenset(tokenize(text or ""))))

        # Inverted index for candidate retrieval during canopy growth.
        index: dict[str, list[int]] = defaultdict(list)
        for position, (_, _, tokens) in enumerate(records):
            for token in tokens:
                index[token].append(position)

        rng = random.Random(self.seed)
        order = list(range(len(records)))
        rng.shuffle(order)
        center_candidates = set(order)
        canopy_of: dict[int, list[int]] = defaultdict(list)  # record -> canopies
        canopy_id = 0
        for position in order:
            if position not in center_candidates:
                continue
            center_candidates.discard(position)
            _, _, center_tokens = records[position]
            members = {position}
            if center_tokens:
                seen: set[int] = set()
                for token in center_tokens:
                    seen.update(index[token])
                for other in seen:
                    other_tokens = records[other][2]
                    union = len(center_tokens | other_tokens)
                    similarity = (
                        len(center_tokens & other_tokens) / union if union else 0.0
                    )
                    if similarity >= self.loose:
                        members.add(other)
                        if similarity >= self.tight:
                            center_candidates.discard(other)
            for member in members:
                canopy_of[member].append(canopy_id)
            canopy_id += 1

        # Pairs sharing a canopy, across sides only.
        by_canopy: dict[int, tuple[list[Any], list[Any]]] = defaultdict(
            lambda: ([], [])
        )
        for position, canopies in canopy_of.items():
            side, key_value, _ = records[position]
            for canopy in canopies:
                by_canopy[canopy][0 if side == "l" else 1].append(key_value)
        pairs: set[tuple[Any, Any]] = set()
        for l_ids, r_ids in by_canopy.values():
            for l_id in l_ids:
                for r_id in r_ids:
                    pairs.add((l_id, r_id))
        observe_blocking(self, len(pairs))
        return make_candset(
            sorted(pairs, key=lambda p: (str(p[0]), str(p[1]))),
            ltable, rtable, l_key, r_key, l_output_attrs, r_output_attrs, catalog,
        )

"""Blocking debugger: find likely matches that blocking dropped.

Table 3 of the paper lists the "blocking debugger" as one of the pain-point
tools.  Assessing a blocker's recall is hard because the dropped pairs are,
by construction, not in the output; the debugger searches A x B for pairs
with high textual similarity that are *absent* from the candidate set and
surfaces the top-k for the user to inspect.  The search is a Jaccard
:func:`~repro.simjoin.set_sim_join` at descending thresholds, so it never
enumerates the cross product.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.blocking.base import TEXT, text_view
from repro.catalog.catalog import Catalog, get_catalog
from repro.catalog.checks import validate_candset
from repro.exceptions import ConfigurationError
from repro.index.store import get_index_store
from repro.simjoin.joins import set_sim_join
from repro.table.table import Table
from repro.text.tokenizers import WhitespaceTokenizer


def debug_blocker(
    candset: Table,
    output_size: int = 50,
    attr_corres: list[tuple[str, str]] | None = None,
    catalog: Catalog | None = None,
) -> Table:
    """Return the top likely-match pairs missing from the candidate set.

    Pairs are scored by Jaccard similarity of the whitespace tokens of
    their (corresponding) attributes' :func:`text_view`; only pairs
    sharing at least one token are considered.  The join runs at
    thresholds halving from 0.5 and stops at the first that leaves
    ``output_size`` pairs outside the candidate set; its last rung,
    ``1 / (widest left + widest right)``, is below every positive
    Jaccard.  The output table has ``l_id``, ``r_id``, ``similarity``
    sorted by descending similarity, ties by ``str`` of the ids.
    """
    if output_size < 1:
        raise ConfigurationError(f"output_size must be >= 1, got {output_size}")
    cat = catalog if catalog is not None else get_catalog()
    meta = validate_candset(candset, cat)
    ltable, rtable = meta.ltable, meta.rtable
    l_key = cat.get_key(ltable)
    r_key = cat.get_key(rtable)
    if attr_corres is None:
        shared = [
            name
            for name in ltable.columns
            if name in set(rtable.columns) and name not in (l_key, r_key)
        ]
        attr_corres = [(name, name) for name in shared]
    l_view = text_view(ltable, l_key, [pair[0] for pair in attr_corres])
    r_view = text_view(rtable, r_key, [pair[1] for pair in attr_corres])
    fk_columns = (candset.column(meta.fk_ltable), candset.column(meta.fk_rtable))

    tokenizer = WhitespaceTokenizer(return_set=True)
    encoding = get_index_store().join_encoding(
        l_view, r_view, l_key, r_key, TEXT, TEXT, tokenizer
    )
    widest = [int(side.sizes.max(initial=0)) for side in (encoding.left, encoding.right)]
    floor = 1.0 / sum(widest) if all(widest) else 1.0
    threshold, missed = 1.0, []
    while len(missed) < output_size and threshold > floor:
        threshold = max(threshold / 2, floor)
        joined = set_sim_join(
            l_view, r_view, l_key, r_key, TEXT, TEXT, tokenizer, threshold=threshold
        )
        found = list(zip(joined.column("l_id"), joined.column("r_id")))
        # Look the candset's pairs up in the join's, not the other way
        # round: no set of the whole candset is built.
        in_candset = set(found).intersection(zip(*fk_columns))
        missed = [
            (score, *pair)
            for pair, score in zip(found, joined.column("score"))
            if pair not in in_candset
        ]
    top = heapq.nsmallest(
        output_size, missed, key=lambda item: (-item[0], str(item[1]), str(item[2]))
    )
    return Table(
        {
            "l_id": [l_id for _, l_id, _ in top],
            "r_id": [r_id for _, _, r_id in top],
            "similarity": [score for score, _, _ in top],
        }
    )


def blocking_recall(
    candset: Table,
    gold_pairs: set[tuple[Any, Any]],
    catalog: Catalog | None = None,
) -> float:
    """Fraction of gold matches that survived blocking.

    Available in benchmarks/tests where gold is known; the interactive
    debugger above is the no-gold production tool.
    """
    if not gold_pairs:
        return 1.0
    cat = catalog if catalog is not None else get_catalog()
    meta = validate_candset(candset, cat)
    survivors = set(
        zip(candset.column(meta.fk_ltable), candset.column(meta.fk_rtable))
    )
    return len(gold_pairs & survivors) / len(gold_pairs)

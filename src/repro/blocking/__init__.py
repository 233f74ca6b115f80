"""Blocking: cheap heuristics that prune A x B before matching."""

from repro.blocking.attr_equivalence import AttrEquivalenceBlocker, HashBlocker
from repro.blocking.base import (
    CANDSET_ID,
    Blocker,
    candset_pairs,
    fk_column_names,
    make_candset,
    text_view,
)
from repro.blocking.black_box import BlackBoxBlocker
from repro.blocking.canopy import CanopyBlocker
from repro.blocking.debugger import blocking_recall, debug_blocker
from repro.blocking.ops import candset_difference, candset_intersection, candset_union
from repro.blocking.overlap import OverlapBlocker
from repro.blocking.rule_based import RuleBasedBlocker
from repro.blocking.rules import (
    BlockingRule,
    Predicate,
    execute_rules,
    parse_predicate,
    parse_rule,
)
from repro.blocking.sorted_neighborhood import SortedNeighborhoodBlocker
from repro.blocking.vector import VectorBlocker

__all__ = [
    "AttrEquivalenceBlocker",
    "BlackBoxBlocker",
    "CanopyBlocker",
    "Blocker",
    "BlockingRule",
    "CANDSET_ID",
    "HashBlocker",
    "OverlapBlocker",
    "Predicate",
    "RuleBasedBlocker",
    "SortedNeighborhoodBlocker",
    "VectorBlocker",
    "blocking_recall",
    "candset_difference",
    "candset_intersection",
    "candset_pairs",
    "candset_union",
    "debug_blocker",
    "execute_rules",
    "fk_column_names",
    "make_candset",
    "parse_predicate",
    "parse_rule",
    "text_view",
]

"""Rule-based blocker: user- or Falcon-supplied rules over features."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.blocking.base import (
    Blocker,
    PairCodes,
    artifact_key,
    candset_from_positions,
    observe_blocking,
)
from repro.blocking.rules import BlockingRule, candidate_positions, check_rules, parse_rule
from repro.catalog.catalog import Catalog
from repro.exceptions import ConfigurationError
from repro.features.feature import FeatureTable
from repro.table.table import Table


class RuleBasedBlocker(Blocker):
    """Blocks a pair when *any* of its rules drops it.

    :meth:`keep` checks every rule over the pairs' feature columns
    (:func:`~repro.blocking.rules.check_rules`).  ``block_tables`` joins
    the cheapest join-executable rule and checks the others on the pairs
    left (:func:`~repro.blocking.rules.candidate_positions`); with no
    executable rule it is the scan of A x B through ``keep``.  Both
    decide a pair alike: a missing value satisfies no predicate, and a
    join never emits its pair, so an executable rule drops the pair and
    any other rule keeps it.  Pairs come in key order when every rule
    joins, else in row order.
    """

    def __init__(self, rules: list[BlockingRule] | None = None):
        self.rules: list[BlockingRule] = list(rules or [])

    def add_rule(
        self,
        specs: list[str] | str,
        feature_table: FeatureTable,
        name: str = "",
    ) -> BlockingRule:
        """Add a rule from declarative predicate specs; returns the rule."""
        rule = parse_rule(specs, feature_table, name=name or f"rule_{len(self.rules) + 1}")
        self.rules.append(rule)
        return rule

    def keep(self, ltable: Table, rtable: Table, l_pos, r_pos) -> np.ndarray:
        if not self.rules:
            raise ConfigurationError("RuleBasedBlocker has no rules")
        sides = (ltable, artifact_key(ltable)), (rtable, artifact_key(rtable))
        return check_rules(list(enumerate(self.rules)), sides, l_pos, r_pos)

    @property
    def is_join_executable(self) -> bool:
        return bool(self.rules) and all(rule.is_executable for rule in self.rules)

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
        if not self.rules:
            raise ConfigurationError("RuleBasedBlocker has no rules")
        args = ltable, rtable, l_key, r_key, l_output_attrs, r_output_attrs, catalog
        if not any(rule.is_executable for rule in self.rules):
            return super().block_tables(*args)
        if self.is_join_executable:
            codes = PairCodes.by_key(ltable, rtable, l_key, r_key)
        else:  # the scan's order
            codes = PairCodes(np.arange(ltable.num_rows), np.arange(rtable.num_rows))
        l_pos, r_pos = candidate_positions(self.rules, ltable, rtable, l_key, r_key, codes)
        observe_blocking(self, len(l_pos))
        return candset_from_positions(l_pos, r_pos, *args)

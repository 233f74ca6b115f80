"""Blocking rules: predicates, conjunctions, and scalable execution.

A blocking rule is a conjunction of predicates over features; a pair is
*dropped* when every predicate holds (Figure 4.b of the paper: ``ISBN
match < 1 -> drop``, ``ISBN match >= 1 AND #pages match < 1 -> drop``).

Rules can be evaluated per pair, but the point of Falcon is that the
retained rules are executed *at scale*: the survivors of a rule
``p1 AND p2 -> drop`` are the pairs satisfying ``NOT p1 OR NOT p2``, and
when each complement is a "similarity above threshold" predicate over a
token or exact feature, each complement term runs as a filtered sim join.
The candidate set is the intersection of every rule's survivors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.blocking.base import TEXT, PairCodes, equal_value_pairs, text_join_positions, text_view
from repro.exceptions import ConfigurationError, WorkflowError
from repro.features.feature import Feature, FeatureTable
from repro.perf import arrays
from repro.simjoin.filters import SET_MEASURES
from repro.table.table import Row, Table

_OPS = {
    "<=": lambda value, threshold: value <= threshold,
    "<": lambda value, threshold: value < threshold,
    ">=": lambda value, threshold: value >= threshold,
    ">": lambda value, threshold: value > threshold,
}
_COMPLEMENT = {"<=": ">", "<": ">=", ">=": "<", ">": "<="}


@dataclass(frozen=True)
class Predicate:
    """``feature <op> threshold`` over a pair of rows.

    A NaN feature value (missing data) satisfies no predicate, so a rule
    containing it cannot fire and the pair survives — blocking must never
    drop a pair just because data is missing.
    """

    feature: Feature
    op: str
    threshold: float

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ConfigurationError(f"op must be one of {sorted(_OPS)}, got {self.op!r}")

    def holds_value(self, value: float) -> bool:
        if value != value:  # NaN
            return False
        return _OPS[self.op](value, self.threshold)

    def holds(self, l_row: Row, r_row: Row) -> bool:
        return self.holds_value(self.feature.apply_rows(l_row, r_row))

    def complement(self) -> "Predicate":
        """The negation, as a predicate with the flipped operator."""
        return Predicate(self.feature, _COMPLEMENT[self.op], self.threshold)

    @property
    def is_join_executable(self) -> bool:
        """Are the pairs this predicate holds for exactly a join's output?

        True for a token feature on a set-similarity measure, or an exact
        feature, when the predicate implies a shared token (or equal
        values): ``>= t`` with ``0 < t <= 1`` or ``> t`` with ``0 <= t < 1``.
        """
        t, kind = self.threshold, self.feature.sim_kind
        if not ((self.op == ">=" and 0 < t <= 1) or (self.op == ">" and 0 <= t < 1)):
            return False
        measure = self.feature.measure_name.lower()
        # ``overlap`` counts shared tokens: its thresholds are not in (0, 1].
        return kind == "exact" or (kind == "token" and measure in SET_MEASURES
                                   and measure != "overlap")

    def __str__(self) -> str:
        return f"{self.feature.name} {self.op} {self.threshold:.4f}"


@dataclass
class BlockingRule:
    """Drop a pair when ALL predicates hold (a conjunction)."""

    predicates: tuple[Predicate, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.predicates:
            raise ConfigurationError("a blocking rule needs at least one predicate")
        self.predicates = tuple(self.predicates)

    def drops(self, l_row: Row, r_row: Row) -> bool:
        """True when the pair should be dropped by this rule."""
        return all(predicate.holds(l_row, r_row) for predicate in self.predicates)

    @property
    def is_executable(self) -> bool:
        """True when the rule's survivors can be computed by joins.

        Survivors are the union of the predicates' complements, so every
        complement must itself be join-executable.
        """
        return all(p.complement().is_join_executable for p in self.predicates)

    def __str__(self) -> str:
        body = " AND ".join(str(p) for p in self.predicates)
        label = self.name or "rule"
        return f"{label}: IF {body} THEN drop"


def parse_predicate(spec: str, feature_table: FeatureTable) -> Predicate:
    """Parse ``"<feature_name> <op> <threshold>"`` into a Predicate.

    This is the declarative rule syntax of the guide, e.g.
    ``"name_jaccard_ws < 0.4"``.
    """
    parts = spec.split()
    if len(parts) != 3:
        raise ConfigurationError(
            f"predicate spec must be '<feature> <op> <value>', got {spec!r}"
        )
    name, op, raw_threshold = parts
    feature = feature_table.get(name)
    try:
        threshold = float(raw_threshold)
    except ValueError:
        raise ConfigurationError(f"invalid threshold in {spec!r}") from None
    return Predicate(feature, op, threshold)


def parse_rule(
    specs: list[str] | str, feature_table: FeatureTable, name: str = ""
) -> BlockingRule:
    """Parse one rule from predicate spec strings (AND-ed together)."""
    if isinstance(specs, str):
        specs = [specs]
    return BlockingRule(
        tuple(parse_predicate(spec, feature_table) for spec in specs), name=name
    )


# ----------------------------------------------------------------------
# Scalable execution
# ----------------------------------------------------------------------
def _complement_codes(predicate: Predicate, ltable, rtable, l_key, r_key, codes):
    """Codes of the pairs satisfying the *complement* of a rule predicate,
    via a join."""
    complement = predicate.complement()
    if not complement.is_join_executable:
        raise WorkflowError(f"predicate {predicate} has no join-executable complement")
    feature = predicate.feature

    if feature.sim_kind == "exact":
        # exact_match > t (t < 1) means equality.
        l_pos, r_pos = equal_value_pairs(
            text_view(ltable, l_key, [feature.l_attr]).column(TEXT),
            text_view(rtable, r_key, [feature.r_attr]).column(TEXT),
        )
    else:
        # token similarity: run the filtered sim join at the complement's
        # threshold; a strict '>' is emulated by nudging the threshold.
        threshold = complement.threshold
        if complement.op == ">":
            threshold = min(threshold + 1e-9, 1.0)
        l_pos, r_pos = text_join_positions(
            ltable, rtable, l_key, r_key, feature.l_attr, feature.r_attr,
            feature.tokenizer, feature.measure_name, threshold,
        )
    return codes.encode(l_pos, r_pos)


def candidate_codes(
    rules: list[BlockingRule], ltable: Table, rtable: Table, l_key: str, r_key: str,
    codes: PairCodes,
) -> np.ndarray:
    """Sorted ``codes`` of the pairs surviving every rule: the intersection
    over rules of the union of each rule's predicate complements."""
    if not rules:
        raise WorkflowError("no blocking rules to execute")
    result = None
    for rule in rules:
        if not rule.is_executable:
            raise WorkflowError(f"rule is not join-executable: {rule}")
        survivors = arrays.unique_sorted(
            np.concatenate([
                _complement_codes(predicate, ltable, rtable, l_key, r_key, codes)
                for predicate in rule.predicates
            ])
        )
        result = survivors if result is None else arrays.intersect_sorted(result, survivors)
        if not len(result):
            break
    return result


def execute_rule_survivors(
    rule: BlockingRule,
    ltable: Table,
    rtable: Table,
    l_key: str = "id",
    r_key: str = "id",
) -> set[tuple[Any, Any]]:
    """Pairs of A x B *not* dropped by the rule, computed via joins."""
    return execute_rules([rule], ltable, rtable, l_key, r_key)


def execute_rules(
    rules: list[BlockingRule],
    ltable: Table,
    rtable: Table,
    l_key: str = "id",
    r_key: str = "id",
) -> set[tuple[Any, Any]]:
    """Candidate pairs surviving *all* rules (intersection of survivors)."""
    codes = PairCodes(np.arange(ltable.num_rows), np.arange(rtable.num_rows))
    l_pos, r_pos = codes.decode(candidate_codes(rules, ltable, rtable, l_key, r_key, codes))
    return set(
        zip(
            arrays.take_values(ltable.column(l_key), l_pos),
            arrays.take_values(rtable.column(r_key), r_pos),
        )
    )

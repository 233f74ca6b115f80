"""Rule-based matching and ML+rules combination.

Section 6 of the paper: "the most accurate EM workflows are likely to
involve a combination of ML and rules."  This module provides:

* :class:`BooleanRuleMatcher` — match when any positive rule fires
  (a disjunction of conjunctive predicates over features);
* :class:`ThresholdMatcher` — the simplest rule: one feature vs. a cutoff
  (the usual "company baseline" in the deployment benchmarks);
* :class:`MLRuleMatcher` — an ML matcher whose output is overridden by
  hand-crafted positive and negative rules.
"""

from __future__ import annotations

import numpy as np

from repro.blocking.rules import Predicate, all_hold, parse_predicate
from repro.exceptions import ConfigurationError
from repro.features.feature import FeatureTable
from repro.matchers.ml_matcher import MLMatcher
from repro.table.table import Table


class MatchRule:
    """A conjunction of predicates over feature *values* in a fv-table."""

    def __init__(self, predicates: list[Predicate], name: str = ""):
        if not predicates:
            raise ConfigurationError("a match rule needs at least one predicate")
        self.predicates = list(predicates)
        self.name = name

    @classmethod
    def parse(
        cls, specs: list[str] | str, feature_table: FeatureTable, name: str = ""
    ) -> "MatchRule":
        if isinstance(specs, str):
            specs = [specs]
        return cls([parse_predicate(s, feature_table) for s in specs], name=name)

    def fires(self, fv_table: Table) -> np.ndarray:
        """Mask of the fv-table rows the rule fires on (``None`` and NaN
        satisfy no predicate)."""
        names = [predicate.feature.name for predicate in self.predicates]
        fv_table.require_columns(names)
        columns = {name: np.asarray(fv_table.column(name), np.float64) for name in names}
        return all_hold(self.predicates, columns)

    def __str__(self) -> str:
        body = " AND ".join(str(p) for p in self.predicates)
        return f"{self.name or 'rule'}: IF {body} THEN match"


class BooleanRuleMatcher:
    """Predicts match when any of its rules fires."""

    def __init__(self, rules: list[MatchRule] | None = None, name: str = "BooleanRuleMatcher"):
        self.rules = list(rules or [])
        self.name = name

    def add_rule(
        self, specs: list[str] | str, feature_table: FeatureTable, name: str = ""
    ) -> MatchRule:
        """Parse and append one match rule; returns it."""
        rule = MatchRule.parse(specs, feature_table, name or f"rule_{len(self.rules) + 1}")
        self.rules.append(rule)
        return rule

    def predict(
        self, fv_table: Table, output_column: str = "predicted", append: bool = True
    ) -> Table:
        """Append 0/1 predictions: 1 when any rule fires."""
        if not self.rules:
            raise ConfigurationError("BooleanRuleMatcher has no rules")
        fires = np.logical_or.reduce([rule.fires(fv_table) for rule in self.rules])
        target = fv_table if append else fv_table.copy()
        target.add_column(output_column, fires.astype(int).tolist())
        return target


class ThresholdMatcher:
    """Match when a single feature value reaches a threshold."""

    def __init__(self, feature_name: str, threshold: float, name: str | None = None):
        self.feature_name = feature_name
        self.threshold = threshold
        self.name = name or f"threshold({feature_name} >= {threshold})"

    def predict(
        self, fv_table: Table, output_column: str = "predicted", append: bool = True
    ) -> Table:
        fv_table.require_columns([self.feature_name])
        fires = np.asarray(fv_table.column(self.feature_name), np.float64) >= self.threshold
        target = fv_table if append else fv_table.copy()
        target.add_column(output_column, fires.astype(int).tolist())
        return target


class MLRuleMatcher:
    """ML predictions overridden by hand-crafted rules.

    ``positive_rules`` force a pair to match; ``negative_rules`` force it
    to not match (and win over positive rules, mirroring Magellan's
    "rules correct obvious ML mistakes" usage).
    """

    def __init__(
        self,
        ml_matcher: MLMatcher,
        positive_rules: list[MatchRule] | None = None,
        negative_rules: list[MatchRule] | None = None,
        name: str | None = None,
    ):
        self.ml_matcher = ml_matcher
        self.positive_rules = list(positive_rules or [])
        self.negative_rules = list(negative_rules or [])
        self.name = name or f"MLRule({ml_matcher.name})"

    def fit(self, fv_table: Table, feature_names: list[str], label_column: str = "label"):
        self.ml_matcher.fit(fv_table, feature_names, label_column)
        return self

    def predict(
        self, fv_table: Table, output_column: str = "predicted", append: bool = True
    ) -> Table:
        target = self.ml_matcher.predict(fv_table, output_column, append=append)
        predictions = np.asarray(target.column(output_column))
        for rules, value in ((self.positive_rules, 1), (self.negative_rules, 0)):
            for rule in rules:
                predictions = np.where(rule.fires(target), value, predictions)
        target.add_column(output_column, predictions.tolist())
        return target


def eval_matches(
    fv_table: Table,
    gold_column: str = "label",
    predicted_column: str = "predicted",
) -> dict:
    """Evaluate predictions in a feature-vector table against gold labels.

    Returns precision/recall/F1 and the row ids of false positives and
    false negatives — the raw material of the match debugger.
    """
    fv_table.require_columns([gold_column, predicted_column])
    gold = np.asarray(fv_table.column(gold_column), dtype=np.int64)
    predicted = np.asarray(fv_table.column(predicted_column), dtype=np.int64)
    from repro.ml.metrics import precision_recall_f1

    precision, recall, f1 = precision_recall_f1(gold, predicted)
    ids = fv_table.column("_id") if "_id" in fv_table else list(range(fv_table.num_rows))
    false_positives = [ids[i] for i in np.nonzero((predicted == 1) & (gold == 0))[0]]
    false_negatives = [ids[i] for i in np.nonzero((predicted == 0) & (gold == 1))[0]]
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "false_positives": false_positives,
        "false_negatives": false_negatives,
    }

"""Blocking-rule extraction from random-forest trees (Figure 4).

Falcon Step 3: every root-to-"No"-leaf branch of every tree in the learned
forest is a *candidate blocking rule* — a conjunction of predicates that,
when satisfied, predicts non-match and may therefore drop the pair during
blocking.  Candidate rules are then evaluated for precision (here: against
the labels collected during active learning, standing in for the lay
user's rule review) and only precise, join-executable rules are retained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blocking.rules import BlockingRule, Predicate, all_hold
from repro.features.feature import FeatureTable
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier


def extract_rules_from_tree(
    tree: DecisionTreeClassifier,
    feature_table: FeatureTable,
    negative_label: int = 0,
    max_depth: int | None = None,
) -> list[BlockingRule]:
    """Candidate blocking rules: one per root-to-negative-leaf path.

    Walks the tree's pre-order arrays: node ``at`` has its left child at
    ``at + 1`` and its right child at ``right_[at]``.  Rules come out in
    pre-order, the ``<=`` branch before the ``>`` one.
    """
    tree.check_fitted()
    names = tree.feature_names_
    feature, threshold, right = (a.tolist() for a in (tree.feature_, tree.threshold_, tree.right_))
    rules: list[BlockingRule] = []

    def walk(at: int, predicates: list[Predicate]) -> None:
        if feature[at] < 0:
            label = int(tree.classes_[np.argmax(tree.counts_[at])])
            if label == negative_label and predicates:
                rules.append(BlockingRule(tuple(predicates)))
            return
        if max_depth is not None and len(predicates) >= max_depth:
            return
        column = feature_table.get(names[feature[at]])
        walk(at + 1, predicates + [Predicate(column, "<=", threshold[at])])
        walk(right[at], predicates + [Predicate(column, ">", threshold[at])])

    walk(0, [])
    return rules


def extract_rules_from_forest(
    forest: RandomForestClassifier,
    feature_table: FeatureTable,
    negative_label: int = 0,
    max_depth: int | None = None,
) -> list[BlockingRule]:
    """Candidate rules from every tree of the forest, named and deduplicated."""
    seen: set[str] = set()
    rules: list[BlockingRule] = []
    for t, tree in enumerate(forest.trees_):
        for rule in extract_rules_from_tree(tree, feature_table, negative_label, max_depth):
            signature = " AND ".join(str(p) for p in rule.predicates)
            if signature in seen:
                continue
            seen.add(signature)
            rule.name = f"rule_{len(rules) + 1}(tree_{t})"
            rules.append(rule)
    return rules


def rule_fires(
    rule: BlockingRule, X: np.ndarray, feature_names: list[str]
) -> np.ndarray:
    """Boolean mask of the rows (feature vectors) the rule would drop."""
    return all_hold(rule.predicates, dict(zip(feature_names, X.T)))


@dataclass
class RuleEvaluation:
    """Precision/coverage of one candidate rule on labeled data."""

    rule: BlockingRule
    coverage: int  # labeled pairs the rule drops
    mistakes: int  # dropped pairs that were actually matches
    precision: float
    executable: bool


def evaluate_rules(
    rules: list[BlockingRule],
    X: np.ndarray,
    y: np.ndarray,
    feature_names: list[str],
    negative_label: int = 0,
) -> list[RuleEvaluation]:
    """Score each candidate rule on the labeled sample."""
    evaluations = []
    for rule in rules:
        fires = rule_fires(rule, X, feature_names)
        coverage = int(fires.sum())
        mistakes = int(np.sum(fires & (y != negative_label)))
        precision = (coverage - mistakes) / coverage if coverage else 0.0
        evaluations.append(
            RuleEvaluation(rule, coverage, mistakes, precision, rule.is_executable)
        )
    return evaluations


def select_precise_rules(
    evaluations: list[RuleEvaluation],
    min_precision: float = 0.95,
    min_coverage: int = 5,
    max_rules: int | None = None,
    require_executable: bool = True,
) -> list[BlockingRule]:
    """Retain precise, sufficiently-covering (and executable) rules.

    Rules are ranked by (precision, coverage); ``max_rules`` caps how many
    survive — more rules means more aggressive blocking, since a pair must
    survive *every* rule.
    """
    qualified = [
        evaluation
        for evaluation in evaluations
        if evaluation.precision >= min_precision
        and evaluation.coverage >= min_coverage
        and (evaluation.executable or not require_executable)
    ]
    qualified.sort(key=lambda e: (-e.precision, -e.coverage))
    if max_rules is not None:
        qualified = qualified[:max_rules]
    return [evaluation.rule for evaluation in qualified]

"""Falcon: self-service EM via active learning and learned blocking rules."""

from repro.falcon.active import ActiveLearningResult, active_learn_forest
from repro.falcon.falcon import (
    FALCON_STAGES,
    FalconConfig,
    FalconResult,
    WorkflowContext,
    run_falcon,
)
from repro.falcon.rules import (
    RuleEvaluation,
    evaluate_rules,
    extract_rules_from_forest,
    extract_rules_from_tree,
    rule_fires,
    select_precise_rules,
)

__all__ = [
    "ActiveLearningResult",
    "FALCON_STAGES",
    "FalconConfig",
    "FalconResult",
    "RuleEvaluation",
    "WorkflowContext",
    "active_learn_forest",
    "evaluate_rules",
    "extract_rules_from_forest",
    "extract_rules_from_tree",
    "rule_fires",
    "run_falcon",
    "select_precise_rules",
]

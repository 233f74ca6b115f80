"""The how-to guide and the ecosystem's command inventory (Table 3).

A how-to guide "is not a user manual on how to use a tool.  Rather, it is
a step-by-step instruction to the user ... an (often complex) algorithm
for the user to follow."  :data:`DEVELOPMENT_GUIDE` encodes the
development-stage guide of Figure 2 and :data:`PRODUCTION_GUIDE` the
production-stage one; each step lists the *commands* (public callables of
this ecosystem) that support it, mirroring the paper's Table 3, whose
reproduction simply counts this inventory.

Every command entry names a real attribute path; :func:`resolve_command`
imports it, so the inventory cannot drift from the code (a test asserts
resolvability of every entry).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Command:
    """One user-facing tool: a public callable of some package."""

    name: str
    path: str  # "module:attr" or "module:attr.method"
    package: str  # the ecosystem package it ships in


@dataclass(frozen=True)
class GuideStep:
    """One step of a how-to guide."""

    name: str
    instruction: str
    commands: tuple[Command, ...] = field(default_factory=tuple)


def resolve_command(command: Command) -> Any:
    """Import and return the object a command entry points to."""
    module_name, _, attr_path = command.path.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in attr_path.split("."):
        obj = getattr(obj, part)
    return obj


def _cmd(name: str, path: str, package: str) -> Command:
    return Command(name, path, package)


_TBL = "repro.table"
_CAT = "repro.catalog"
_TXT = "repro.text"
_SJN = "repro.simjoin"
_SMP = "repro.sampling"
_BLK = "repro.blocking"
_FTR = "repro.features"
_MCH = "repro.matchers"
_LBL = "repro.labeling"
_MLP = "repro.ml"


DEVELOPMENT_GUIDE: tuple[GuideStep, ...] = (
    GuideStep(
        "read_write_data",
        "Load tables A and B into generic tables; record key metadata.",
        (
            _cmd("read_csv", "repro.table:read_csv", _TBL),
            _cmd("write_csv", "repro.table:write_csv", _TBL),
            _cmd("read_csv_metadata", "repro.table:read_csv_metadata", _TBL),
            _cmd("write_csv_metadata", "repro.table:write_csv_metadata", _TBL),
            _cmd("Table.from_rows", "repro.table:Table.from_rows", _TBL),
            _cmd("Table.to_rows", "repro.table:Table.to_rows", _TBL),
        ),
    ),
    GuideStep(
        "down_sample",
        "If A and B are large, down-sample them so matches survive.",
        (
            _cmd("down_sample", "repro.sampling:down_sample", _SMP),
            _cmd("naive_down_sample", "repro.sampling:naive_down_sample", _SMP),
        ),
    ),
    GuideStep(
        "data_exploration",
        "Profile schemas, types, value distributions; detect dirty data.",
        (
            _cmd("infer_schema", "repro.table:infer_schema", _TBL),
            _cmd("infer_column_type", "repro.table:infer_column_type", _TBL),
            _cmd("Table.unique_values", "repro.table:Table.unique_values", _TBL),
            _cmd("Table.head", "repro.table:Table.head", _TBL),
            _cmd("profile_missingness", "repro.cleaning:profile_missingness", "repro.cleaning"),
            _cmd("detect_generic_values", "repro.cleaning:detect_generic_values", "repro.cleaning"),
            _cmd("isolate_rows", "repro.cleaning:isolate_rows", "repro.cleaning"),
            _cmd("clean_em_dataset", "repro.cleaning:clean_em_dataset", "repro.cleaning"),
        ),
    ),
    GuideStep(
        "blocking",
        "Experiment with blockers; combine and debug their outputs.",
        (
            _cmd("AttrEquivalenceBlocker", "repro.blocking:AttrEquivalenceBlocker", _BLK),
            _cmd("HashBlocker", "repro.blocking:HashBlocker", _BLK),
            _cmd("OverlapBlocker", "repro.blocking:OverlapBlocker", _BLK),
            _cmd("RuleBasedBlocker", "repro.blocking:RuleBasedBlocker", _BLK),
            _cmd("SortedNeighborhoodBlocker", "repro.blocking:SortedNeighborhoodBlocker", _BLK),
            _cmd("BlackBoxBlocker", "repro.blocking:BlackBoxBlocker", _BLK),
            _cmd("CanopyBlocker", "repro.blocking:CanopyBlocker", _BLK),
            _cmd("candset_union", "repro.blocking:candset_union", _BLK),
            _cmd("candset_intersection", "repro.blocking:candset_intersection", _BLK),
            _cmd("candset_difference", "repro.blocking:candset_difference", _BLK),
            _cmd("debug_blocker", "repro.blocking:debug_blocker", _BLK),
            _cmd("blocking_recall", "repro.blocking:blocking_recall", _BLK),
            _cmd("set_sim_join", "repro.simjoin:set_sim_join", _SJN),
            _cmd("edit_distance_join", "repro.simjoin:edit_distance_join", _SJN),
            _cmd("WhitespaceTokenizer", "repro.text:WhitespaceTokenizer", _TXT),
            _cmd("QgramTokenizer", "repro.text:QgramTokenizer", _TXT),
            _cmd("AlphabeticTokenizer", "repro.text:AlphabeticTokenizer", _TXT),
            _cmd("AlphanumericTokenizer", "repro.text:AlphanumericTokenizer", _TXT),
            _cmd("DelimiterTokenizer", "repro.text:DelimiterTokenizer", _TXT),
            _cmd("Jaccard", "repro.text:sim.Jaccard", _TXT),
            _cmd("Levenshtein", "repro.text:sim.Levenshtein", _TXT),
            _cmd("JaroWinkler", "repro.text:sim.JaroWinkler", _TXT),
        ),
    ),
    GuideStep(
        "sampling",
        "Take a sample S from the candidate set C for labeling.",
        (
            _cmd("sample_candset", "repro.sampling:sample_candset", _SMP),
            _cmd("weighted_sample_candset", "repro.sampling:weighted_sample_candset", _SMP),
        ),
    ),
    GuideStep(
        "labeling",
        "Label the sampled pairs match/no-match (with undo and budget).",
        (
            _cmd("LabelingSession", "repro.labeling:LabelingSession", _LBL),
            _cmd("LabelingSession.label_candset", "repro.labeling:LabelingSession.label_candset", _LBL),
            _cmd("LabelingSession.undo", "repro.labeling:LabelingSession.undo", _LBL),
            _cmd("ConsensusLabeler", "repro.labeling:ConsensusLabeler", _LBL),
            _cmd("ConsoleLabeler", "repro.labeling:ConsoleLabeler", _LBL),
        ),
    ),
    GuideStep(
        "feature_vectors",
        "Generate features automatically, customize F, extract vectors.",
        (
            _cmd("get_attr_corres", "repro.features:get_attr_corres", _FTR),
            _cmd("get_features_for_matching", "repro.features:get_features_for_matching", _FTR),
            _cmd("get_features_for_blocking", "repro.features:get_features_for_blocking", _FTR),
            _cmd("FeatureTable.add", "repro.features:FeatureTable.add", _FTR),
            _cmd("FeatureTable.remove", "repro.features:FeatureTable.remove", _FTR),
            _cmd("make_token_feature", "repro.features:make_token_feature", _FTR),
            _cmd("make_string_feature", "repro.features:make_string_feature", _FTR),
            _cmd("make_exact_feature", "repro.features:make_exact_feature", _FTR),
            _cmd("make_numeric_feature", "repro.features:make_numeric_feature", _FTR),
            _cmd("make_blackbox_feature", "repro.features:make_blackbox_feature", _FTR),
            _cmd("extract_feature_vecs", "repro.features:extract_feature_vecs", _FTR),
            _cmd("feature_matrix", "repro.features:feature_matrix", _FTR),
            _cmd("match_schemas", "repro.schema_matching:match_schemas", "repro.schema_matching"),
            _cmd("suggest_attr_corres", "repro.schema_matching:suggest_attr_corres", "repro.schema_matching"),
        ),
    ),
    GuideStep(
        "matching",
        "Cross-validate candidate matchers, select and apply the best.",
        (
            _cmd("DTMatcher", "repro.matchers:DTMatcher", _MCH),
            _cmd("RFMatcher", "repro.matchers:RFMatcher", _MCH),
            _cmd("LogRegMatcher", "repro.matchers:LogRegMatcher", _MCH),
            _cmd("SVMMatcher", "repro.matchers:SVMMatcher", _MCH),
            _cmd("NBMatcher", "repro.matchers:NBMatcher", _MCH),
            _cmd("XGMatcher", "repro.matchers:XGMatcher", _MCH),
            _cmd("KNNMatcher", "repro.matchers:KNNMatcher", _MCH),
            _cmd("DeepMatcher", "repro.matchers:DeepMatcher", _MCH),
            _cmd("select_matcher", "repro.matchers:select_matcher", _MCH),
            _cmd("cross_validate", "repro.ml:cross_validate", _MLP),
            _cmd("debug_wrong_predictions", "repro.matchers:debug_wrong_predictions", _MCH),
            _cmd("feature_separation_report", "repro.matchers:feature_separation_report", _MCH),
            _cmd("cluster_matches", "repro.postprocess:cluster_matches", "repro.postprocess"),
            _cmd("enforce_one_to_one", "repro.postprocess:enforce_one_to_one", "repro.postprocess"),
            _cmd("merge_matches", "repro.postprocess:merge_matches", "repro.postprocess"),
            _cmd("dedupe_table", "repro.postprocess:dedupe_table", "repro.postprocess"),
            _cmd("self_block_table", "repro.postprocess:self_block_table", "repro.postprocess"),
        ),
    ),
    GuideStep(
        "computing_accuracy",
        "Check quality on a labeled hold-out; iterate on earlier steps.",
        (
            _cmd("eval_matches", "repro.matchers:eval_matches", _MCH),
            _cmd("precision_score", "repro.ml:precision_score", _MLP),
            _cmd("recall_score", "repro.ml:recall_score", _MLP),
            _cmd("f1_score", "repro.ml:f1_score", _MLP),
        ),
    ),
    GuideStep(
        "adding_rules",
        "Add hand-crafted rules before/after the ML matcher.",
        (
            _cmd("BooleanRuleMatcher", "repro.matchers:BooleanRuleMatcher", _MCH),
            _cmd("ThresholdMatcher", "repro.matchers:ThresholdMatcher", _MCH),
            _cmd("MLRuleMatcher", "repro.matchers:MLRuleMatcher", _MCH),
            _cmd("MatchRule.parse", "repro.matchers:MatchRule.parse", _MCH),
            _cmd("parse_rule", "repro.blocking:parse_rule", _BLK),
            _cmd("parse_predicate", "repro.blocking:parse_predicate", _BLK),
        ),
    ),
    GuideStep(
        "managing_metadata",
        "Keep keys and FK constraints valid in the standalone catalog.",
        (
            _cmd("get_catalog", "repro.catalog:get_catalog", _CAT),
            _cmd("Catalog.set_key", "repro.catalog:Catalog.set_key", _CAT),
            _cmd("Catalog.get_key", "repro.catalog:Catalog.get_key", _CAT),
            _cmd("Catalog.set_candset_metadata", "repro.catalog:Catalog.set_candset_metadata", _CAT),
            _cmd("Catalog.get_candset_metadata", "repro.catalog:Catalog.get_candset_metadata", _CAT),
            _cmd("Catalog.copy_metadata", "repro.catalog:Catalog.copy_metadata", _CAT),
            _cmd("Catalog.set_property", "repro.catalog:Catalog.set_property", _CAT),
            _cmd("Catalog.get_property", "repro.catalog:Catalog.get_property", _CAT),
            _cmd("validate_candset", "repro.catalog:validate_candset", _CAT),
            _cmd("check_fk_constraint", "repro.catalog:check_fk_constraint", _CAT),
        ),
    ),
)


PRODUCTION_GUIDE: tuple[GuideStep, ...] = (
    GuideStep(
        "capture_workflow",
        "Capture the accurate development workflow as a runnable script.",
        (
            _cmd("MagellanWorkflow", "repro.pipeline:MagellanWorkflow", "repro.pipeline"),
            _cmd("MagellanWorkflow.add_step", "repro.pipeline:MagellanWorkflow.add_step", "repro.pipeline"),
            _cmd("MagellanWorkflow.run", "repro.pipeline:MagellanWorkflow.run", "repro.pipeline"),
        ),
    ),
    GuideStep(
        "scale_out",
        "Partition the data and execute on multiple cores.",
        (
            _cmd("partition_table", "repro.pipeline:partition_table", "repro.pipeline"),
            _cmd("parallel_map_partitions", "repro.pipeline:parallel_map_partitions", "repro.pipeline"),
        ),
    ),
    GuideStep(
        "orchestrate",
        "Express the workflow as an operator DAG on the shared runtime.",
        (
            _cmd("OperatorGraph", "repro.runtime:OperatorGraph", "repro.runtime"),
            _cmd("OperatorGraph.add", "repro.runtime:OperatorGraph.add", "repro.runtime"),
            _cmd("chain_graph", "repro.runtime:chain_graph", "repro.runtime"),
            _cmd("run_graph", "repro.runtime:run_graph", "repro.runtime"),
            _cmd("use_tracer", "repro.obs:use_tracer", "repro.obs"),
            _cmd("Tracer.write_jsonl", "repro.obs:Tracer.write_jsonl", "repro.obs"),
        ),
    ),
    GuideStep(
        "operate",
        "Log, checkpoint, recover from crashes, monitor progress.",
        (
            _cmd("CheckpointedRun", "repro.pipeline:CheckpointedRun", "repro.pipeline"),
            _cmd("CheckpointedRun.execute", "repro.pipeline:CheckpointedRun.execute", "repro.pipeline"),
            _cmd("CheckpointedRun.completed_partitions", "repro.pipeline:CheckpointedRun.completed_partitions", "repro.pipeline"),
            _cmd("GraphCheckpoint", "repro.runtime:GraphCheckpoint", "repro.runtime"),
        ),
    ),
    GuideStep(
        "cope_with_new_data",
        "Match arriving data batches against the frozen workflow.",
        (
            _cmd("IncrementalMatcher", "repro.pipeline:IncrementalMatcher", "repro.pipeline"),
            _cmd("IncrementalMatcher.process_batch", "repro.pipeline:IncrementalMatcher.process_batch", "repro.pipeline"),
        ),
    ),
)


def command_counts(guide: tuple[GuideStep, ...] = DEVELOPMENT_GUIDE) -> dict[str, int]:
    """Number of commands per guide step (Table 3's Column E)."""
    return {step.name: len(step.commands) for step in guide}


def package_inventory(
    guides: tuple[tuple[GuideStep, ...], ...] = (DEVELOPMENT_GUIDE, PRODUCTION_GUIDE),
) -> dict[str, int]:
    """Number of distinct commands each package contributes."""
    per_package: dict[str, set[str]] = {}
    for guide in guides:
        for step in guide:
            for command in step.commands:
                per_package.setdefault(command.package, set()).add(command.name)
    return {package: len(names) for package, names in sorted(per_package.items())}

"""CloudMatcher's service registry (Table 4 of the paper).

CloudMatcher 2.0 "extracts a set of basic services from the Falcon EM
workflow ... then allows users to flexibly combine them"; Appendix D
counts 18 basic services and 2 composite services.  Each service here is
atomic, interoperable (they communicate only through the
:class:`~repro.falcon.falcon.WorkflowContext`), and tagged with the
execution-engine kind that runs it: user interaction, crowd, or batch.

The Falcon services are wrappers: their bodies are the rows of
:data:`repro.falcon.FALCON_STAGES`, and this module only puts Table 4's
name, kind, description and human seconds on them
(:data:`FALCON_SERVICES`).  The stock workflow (:func:`falcon_calls`) is
derived from the same table, and the two composites run its graph
(:func:`repro.cloud.dag.run_stock_workflow`).  What is written here
is what is not Falcon: upload, profile, metadata, down-sampling, labeling,
undo, crowd cost, report, monitor, accuracy and export.

A service's ``run(ctx)`` returns the simulated human/crowd seconds it
consumed.  A service is also callable on the context, so it is itself the
operator of a workflow graph node (:mod:`repro.cloud.dag`), and its
machine seconds are that node's runtime record's.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from repro.blocking.base import candset_pairs
from repro.exceptions import ServiceError
from repro.falcon.falcon import FALCON_STAGES, WorkflowContext
from repro.table.schema import infer_schema


class ServiceKind(Enum):
    """Which execution engine runs the service."""

    USER_INTERACTION = "user_interaction"
    CROWD = "crowd"
    BATCH = "batch"


@dataclass(frozen=True)
class Service:
    """One registered (micro)service."""

    name: str
    kind: ServiceKind
    description: str
    run: Callable[[WorkflowContext], float]
    composite: bool = False
    core: bool = True  # False for utilities beyond the paper's Table 4

    def __call__(self, ctx: WorkflowContext) -> float:
        """Run the service: a workflow graph's operator over its context."""
        return self.run(ctx)


class ServiceRegistry:
    """Name -> Service map; the ecosystem's 'list of services' (Table 4)."""

    def __init__(self) -> None:
        self._services: dict[str, Service] = {}

    def register(self, service: Service) -> Service:
        """Add a service; names must be unique."""
        if service.name in self._services:
            raise ServiceError(f"duplicate service name {service.name!r}")
        self._services[service.name] = service
        return service

    def get(self, name: str) -> Service:
        """Look up a service by name."""
        try:
            return self._services[name]
        except KeyError:
            raise ServiceError(
                f"no service named {name!r}; have {sorted(self._services)}"
            ) from None

    def names(self, composite: bool | None = None) -> list[str]:
        """Service names, optionally filtered by compositeness."""
        return [
            name
            for name, service in self._services.items()
            if composite is None or service.composite == composite
        ]

    def services(self) -> list[Service]:
        """All registered services, in registration order."""
        return list(self._services.values())

    def __len__(self) -> int:
        return len(self._services)

    def __contains__(self, name: str) -> bool:
        return name in self._services


# ----------------------------------------------------------------------
# Basic service implementations
# ----------------------------------------------------------------------
def _svc_upload_tables(ctx: WorkflowContext) -> float:
    ctx.dataset.register(ctx.catalog)
    ctx.put("ltable", ctx.dataset.ltable)
    ctx.put("rtable", ctx.dataset.rtable)
    # Uploading two tables through the web UI: a fixed human cost.
    return 60.0


def _svc_profile_dataset(ctx: WorkflowContext) -> float:
    profile = {
        "l_rows": ctx.dataset.ltable.num_rows,
        "r_rows": ctx.dataset.rtable.num_rows,
        "l_schema": {k: v.value for k, v in infer_schema(ctx.dataset.ltable).items()},
        "r_schema": {k: v.value for k, v in infer_schema(ctx.dataset.rtable).items()},
    }
    ctx.put("profile", profile)
    return 0.0


def _svc_edit_metadata(ctx: WorkflowContext) -> float:
    ctx.catalog.set_key(ctx.dataset.ltable, ctx.dataset.l_key)
    ctx.catalog.set_key(ctx.dataset.rtable, ctx.dataset.r_key)
    # Confirming keys in the UI.
    return 20.0


def _svc_down_sample(ctx: WorkflowContext) -> float:
    from repro.sampling.down_sample import down_sample

    size = ctx.config.sample_size
    if ctx.dataset.ltable.num_rows > size * 4:
        l_sample, r_sample = down_sample(
            ctx.dataset.ltable,
            ctx.dataset.rtable,
            size * 4,
            l_key=ctx.dataset.l_key,
            r_key=ctx.dataset.r_key,
            seed=ctx.config.random_state,
        )
        ctx.put("l_dev", l_sample)
        ctx.put("r_dev", r_sample)
    else:
        ctx.put("l_dev", ctx.dataset.ltable)
        ctx.put("r_dev", ctx.dataset.rtable)
    return 0.0


def _svc_label_pairs(ctx: WorkflowContext) -> float:
    """Label an explicit list of pairs (slot 'pairs_to_label')."""
    pairs = ctx.get("pairs_to_label")
    before = ctx.session.labeler.labeling_seconds
    ctx.put("labels", ctx.session.ask_many(pairs))
    return ctx.session.labeler.labeling_seconds - before


def _svc_compute_accuracy(ctx: WorkflowContext) -> float:
    """Accuracy against the dataset's gold pairs (benchmark-only service)."""
    predicted = set(candset_pairs(ctx.get("matches"), ctx.catalog))
    gold = ctx.dataset.gold_pairs
    tp = len(predicted & gold)
    precision = tp / len(predicted) if predicted else 0.0
    recall = tp / len(gold) if gold else 1.0
    ctx.put("accuracy", {"precision": precision, "recall": recall, "tp": tp})
    return 0.0


def _svc_crowdsource_labels(ctx: WorkflowContext) -> float:
    """Marker service: labeling is already routed through ctx.session,
    whose labeler may be a CrowdLabeler; this service reports its cost."""
    labeler = ctx.session.labeler
    ctx.put(
        "crowd_cost",
        {
            "questions": labeler.questions_asked,
            "dollars": getattr(labeler, "dollar_cost", 0.0),
        },
    )
    return 0.0


def _svc_export_results(ctx: WorkflowContext) -> float:
    matches = ctx.get("matches")
    ctx.put("export", matches.to_rows())
    return 0.0


def _svc_undo_labels(ctx: WorkflowContext) -> float:
    """Undo the last N labels (slot 'undo_count') — the AmFam lesson."""
    count = ctx.get("undo_count")
    ctx.put("undone", ctx.session.undo(count))
    return 5.0 * count


def _svc_generate_report(ctx: WorkflowContext) -> float:
    """Render a markdown report of the run so far (profiling/browsing)."""
    from repro.reporting import em_run_report

    accuracy = ctx.artifacts.get("accuracy")
    report_accuracy = None
    if accuracy is not None:
        precision, recall = accuracy["precision"], accuracy["recall"]
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        report_accuracy = {
            "precision": precision, "recall": recall, "f1": f1,
            "false_positives": [], "false_negatives": [],
        }
    ctx.put(
        "report",
        em_run_report(
            ctx.task_name,
            ctx.dataset.ltable,
            ctx.dataset.rtable,
            candset=ctx.artifacts.get("candset"),
            accuracy=report_accuracy,
            notes=[f"questions asked: {ctx.session.questions_asked}"],
        ),
    )
    return 0.0


def _svc_monitor_workflow(ctx: WorkflowContext) -> float:
    ctx.put(
        "status",
        {
            "questions_asked": ctx.session.questions_asked,
            "remaining_budget": ctx.session.remaining_budget,
            "artifacts": sorted(ctx.artifacts),
        },
    )
    return 0.0


# ----------------------------------------------------------------------
# Falcon as services
# ----------------------------------------------------------------------
#: Table 4's names for Falcon: stage of ``FALCON_STAGES`` -> (workflow
#: node, service).  Rule evaluation and selection are one service, because
#: what the user reviews is the set of retained rules.
FALCON_SERVICES: dict[str, tuple[str, str]] = {
    "sample": ("sample", "sample_pairs"),
    "blocking_features": ("blk_features", "generate_blocking_features"),
    "sample_vectors": ("sample_vectors", "extract_sample_vectors"),
    "learn_blocking": ("learn_blocking", "active_learn_blocking"),
    "extract_rules": ("extract_rules", "extract_blocking_rules"),
    "evaluate_rules": ("evaluate_rules", "evaluate_blocking_rules"),
    "select_rules": ("evaluate_rules", "evaluate_blocking_rules"),
    "execute_blocking": ("execute_rules", "execute_blocking_rules"),
    "matching_features": ("match_features", "generate_matching_features"),
    "candidate_vectors": ("candidate_vectors", "extract_candidate_vectors"),
    "learn_matching": ("learn_matching", "active_learn_matching"),
    "predict": ("apply", "apply_classifier"),
}


def _falcon(service: str) -> Callable[[WorkflowContext], float]:
    """The Falcon stage(s) served under a Table 4 name, as one ``run``."""
    bodies = [
        body
        for stage, body, _deps, _description in FALCON_STAGES
        if FALCON_SERVICES[stage][1] == service
    ]
    return lambda ctx: sum(body(ctx) for body in bodies)


def _svc_evaluate_blocking_rules(ctx: WorkflowContext) -> float:
    human = _falcon("evaluate_blocking_rules")(ctx)
    # The lay user reviews each retained rule (~15s per rule).
    return human + 15.0 * len(ctx.get("rules"))


def _svc_train_classifier(ctx: WorkflowContext) -> float:
    """Publish the forest the matching stage learned as the task's matcher."""
    ctx.put("matcher", ctx.get("matching_stage").forest)
    return 0.0


def falcon_calls() -> list[tuple[str, str, list[str]]]:
    """The stock Falcon workflow: ``(node, service, predecessors)`` in run order.

    ``FALCON_STAGES`` under Table 4's names, inside what only the cloud
    has: upload, key review and profiling in front (a candidate set needs
    the keys, feature generation the schemas), the learned matcher
    published before it is applied, and the export at the end.
    """
    calls = [
        ("upload", "upload_tables", []),
        ("metadata", "edit_metadata", ["upload"]),
        ("profile", "profile_dataset", ["upload"]),
    ]
    node_of: dict[str, str] = {}
    for stage, _body, deps, _description in FALCON_STAGES:
        node_of[stage], service = FALCON_SERVICES[stage]
        if node_of[stage] == calls[-1][0]:
            continue  # the second stage of one service
        after = [node_of[dep] for dep in deps] or ["profile"]
        if stage == "sample":
            after.append("metadata")
        if stage == "predict":
            calls.append(("train", "train_classifier", after))
            after = ["train"]
        calls.append((node_of[stage], service, after))
    calls.append(("export", "export_results", [calls[-1][0]]))
    return calls


def _composite(registry: ServiceRegistry, through: str | None) -> Callable[[WorkflowContext], float]:
    """The stock workflow's graph, run up to node ``through``."""

    def run(ctx: WorkflowContext) -> float:
        from repro.cloud.dag import run_stock_workflow  # dag builds on this module

        return run_stock_workflow(ctx, registry, through).sim_seconds()

    return run


def build_default_registry() -> ServiceRegistry:
    """The stock CloudMatcher registry: 18 basic + 2 composite services."""
    registry = ServiceRegistry()
    U, C, B = ServiceKind.USER_INTERACTION, ServiceKind.CROWD, ServiceKind.BATCH
    basic = [  # ``None``: the service is the Falcon stage FALCON_SERVICES names
        ("upload_tables", U, "Upload tables A and B", _svc_upload_tables),
        ("profile_dataset", B, "Profile schemas and sizes", _svc_profile_dataset),
        ("edit_metadata", U, "Review/edit key metadata", _svc_edit_metadata),
        ("down_sample", B, "Intelligently down-sample large tables", _svc_down_sample),
        ("sample_pairs", B, "Sample tuple pairs from A x B", None),
        ("generate_blocking_features", B, "Auto-generate blocking features", None),
        ("generate_matching_features", B, "Auto-generate matching features", None),
        ("extract_sample_vectors", B, "Feature vectors for the sample", None),
        ("extract_candidate_vectors", B, "Feature vectors for the candidate set", None),
        ("label_pairs", U, "Label a given list of pairs", _svc_label_pairs),
        ("crowdsource_labels", C, "Route labeling to crowd workers", _svc_crowdsource_labels),
        ("active_learn_blocking", U, "Active learning for blocking (forest F)", None),
        ("active_learn_matching", U, "Active learning for matching (forest G)", None),
        ("extract_blocking_rules", B, "Extract candidate rules from forest F", None),
        ("evaluate_blocking_rules", U, "Review/retain precise rules", _svc_evaluate_blocking_rules),
        ("execute_blocking_rules", B, "Join one rule, check the rest on its pairs", None),
        ("train_classifier", B, "Train the matcher on labeled pairs", _svc_train_classifier),
        ("apply_classifier", B, "Apply the matcher to the candidate set", None),
    ]
    for name, kind, description, fn in basic:
        registry.register(Service(name, kind, description, fn or _falcon(name)))
    registry.register(
        Service(
            "get_blocking_rules",
            U,
            "Composite: learn + review blocking rules",
            _composite(registry, "evaluate_rules"),
            composite=True,
        )
    )
    registry.register(
        Service(
            "falcon",
            U,
            "Composite: the end-to-end Falcon workflow",
            _composite(registry, None),
            composite=True,
        )
    )
    # Extra utilities that are part of the envisioned ecosystem but not
    # counted among the paper's 18 basic services.
    registry.register(Service("compute_accuracy", B, "Score matches against gold", _svc_compute_accuracy, core=False))
    registry.register(Service("export_results", B, "Export the match table", _svc_export_results, core=False))
    registry.register(Service("undo_labels", U, "Undo the last N labels", _svc_undo_labels, core=False))
    registry.register(Service("monitor_workflow", B, "Report workflow status", _svc_monitor_workflow, core=False))
    registry.register(Service("generate_report", B, "Render a markdown run report", _svc_generate_report, core=False))
    return registry


DEFAULT_REGISTRY = build_default_registry()

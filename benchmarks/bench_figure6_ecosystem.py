"""Figure 6 — The envisioned Magellan ecosystem.

The figure's claim is architectural: the same EM capability is available
both as on-premise Python packages (PyMatcher-style, called directly) and
as interoperable (micro)services composed on demand (CloudMatcher 2.0).
This bench demonstrates the claim operationally: the composite ``falcon``
service and a user-assembled workflow of basic services produce the same
matches on the same task, and the on-prem ``run_falcon`` call agrees too.
Both cloud paths run through ``repro.runtime.run_graph``, so under a
tracer they record the same workflow nodes, one span each.  It also
prints the ecosystem inventory: on-prem packages vs services.
"""

from __future__ import annotations

from _report import format_table, report
from conftest import once

from repro.blocking import candset_pairs
from repro.cloud import (
    DEFAULT_REGISTRY,
    CloudMatcher20,
    WorkflowContext,
    build_falcon_workflow,
)
from repro.datasets import build_cloudmatcher_dataset, cloudmatcher_scenario
from repro.falcon import FalconConfig, run_falcon
from repro.labeling import LabelingSession, OracleLabeler
from repro.obs import use_tracer
from repro.pipeline import package_inventory
from repro.runtime import OperatorGraph


def _context(dataset):
    return WorkflowContext(
        dataset=dataset,
        session=LabelingSession(OracleLabeler(dataset.gold_pairs), budget=600),
        config=FalconConfig(sample_size=600, blocking_budget=100,
                            matching_budget=200, random_state=0),
        task_name=dataset.name,
    )


def match_pairs_of(matches):
    return set(candset_pairs(matches))


def node_names(tracer):
    """The workflow nodes a traced run recorded, one name per node span."""
    return sorted(span.labels["node"] for span in tracer.spans if "node" in span.labels)


def run():
    scenario = cloudmatcher_scenario("restaurants")

    # (a) composite cloud service
    dataset_a = build_cloudmatcher_dataset(scenario)
    context_a = _context(dataset_a)
    with use_tracer() as composite_tracer:
        DEFAULT_REGISTRY.get("falcon").run(context_a)
    composite_matches = match_pairs_of(context_a.get("matches"))

    # (b) user-assembled workflow of basic services through the 2.0 facade
    dataset_b = build_cloudmatcher_dataset(scenario)
    context_b = _context(dataset_b)
    matcher = CloudMatcher20()
    workflow = build_falcon_workflow("assembled", matcher.registry)
    assert isinstance(workflow, OperatorGraph)
    matcher.submit_custom(workflow, context_b)
    with use_tracer() as assembled_tracer:
        matcher.run(score_against_gold=False)
    assembled_matches = match_pairs_of(context_b.get("matches"))

    # (c) the on-prem Python package path
    dataset_c = build_cloudmatcher_dataset(scenario)
    on_prem = run_falcon(
        dataset_c,
        LabelingSession(OracleLabeler(dataset_c.gold_pairs), budget=600),
        FalconConfig(sample_size=600, blocking_budget=100, matching_budget=200,
                     random_state=0),
    )
    nodes = (node_names(composite_tracer), node_names(assembled_tracer))
    return composite_matches, assembled_matches, on_prem.match_pairs, nodes


def test_figure6_ecosystem_interoperability(benchmark):
    composite, assembled, on_prem, (composite_nodes, assembled_nodes) = once(benchmark, run)
    inventory = package_inventory()
    rows = [
        {"Layer": "on-premise Python packages", "Count": len(inventory),
         "Detail": ", ".join(sorted(inventory))},
        {"Layer": "cloud services (basic)", "Count": 18,
         "Detail": "user-composable via CloudMatcher 2.0"},
        {"Layer": "cloud services (composite)", "Count": 2,
         "Detail": "get_blocking_rules, falcon"},
    ]
    report(
        "figure6",
        "The envisioned Magellan ecosystem: packages + services agree",
        format_table(rows)
        + f"\n\ncomposite-service matches : {len(composite)}"
        + f"\nassembled-workflow matches: {len(assembled)}"
        + f"\non-prem package matches   : {len(on_prem)}"
        + f"\ncomposite / assembled node spans: {len(composite_nodes)} / {len(assembled_nodes)}"
        + "\n(identical outputs across all three paths: the ecosystem's"
          "\n tools interoperate rather than duplicate)",
    )
    assert composite == assembled == on_prem
    # A front-end that bypasses run_graph records no node spans.
    assert composite_nodes and composite_nodes == assembled_nodes

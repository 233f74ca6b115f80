"""Integration test: a crowd-labeled EM workflow through CloudMatcher 1.0."""

import pytest

from repro.cloud import CloudMatcher10, ServiceKind
from repro.crowd import CrowdLabeler
from repro.datasets import DirtinessConfig, make_em_dataset
from repro.datasets.entities import book
from repro.falcon import FalconConfig
from repro.labeling import LabelingSession


@pytest.fixture
def crowd_task():
    dataset = make_em_dataset(
        book, 200, 200, match_fraction=0.5,
        dirtiness=DirtinessConfig.light(), seed=41, name="crowd-task",
    )
    crowd = CrowdLabeler(dataset.gold_pairs, replication=3, seed=0)
    session = LabelingSession(crowd, budget=500)
    return dataset, crowd, session


def test_crowd_workflow_end_to_end(crowd_task):
    dataset, crowd, session = crowd_task
    matcher = CloudMatcher10(on_cloud=True)
    matcher.submit(
        dataset, session,
        FalconConfig(sample_size=400, blocking_budget=100, matching_budget=200,
                     random_state=0),
        use_crowd=True,
    )
    makespan, results = matcher.run()
    result = results[0]

    # Crowd paid per assignment (3 per question) and took wall-clock time.
    assert crowd.assignments == 3 * crowd.questions_asked
    assert result.cost.crowd_dollars == pytest.approx(
        crowd.assignments * crowd.price_per_assignment
    )
    assert result.cost.labeling_seconds > 0
    # On-cloud run: compute dollars are a number, not '-'.
    assert result.cost.compute_dollars is not None
    # Crowd noise tolerated: accuracy still decent on a clean-ish task.
    assert result.accuracy["precision"] > 0.8
    assert result.accuracy["recall"] > 0.6
    # The labeling fragments ran on the crowd engine.
    crowd_engine = matcher.metamanager.engines[ServiceKind.CROWD]
    graph = matcher.metamanager.runs[0].graph
    executed_services = {
        graph.nodes[node].fn.name
        for record in crowd_engine.executions
        for node in record.fragment.nodes
    }
    assert "active_learn_blocking" in executed_services
    assert "active_learn_matching" in executed_services


def test_crowd_workflow_cost_row_renders(crowd_task):
    dataset, crowd, session = crowd_task
    matcher = CloudMatcher10(on_cloud=True)
    matcher.submit(dataset, session, FalconConfig(sample_size=300, random_state=0),
                   use_crowd=True)
    _, results = matcher.run(score_against_gold=False)
    row = results[0].cost.as_row()
    assert row["Crowd"].startswith("$")
    assert row["Compute"].startswith("$")
    assert row["Questions"].isdigit()

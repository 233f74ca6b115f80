"""Failure-injection tests: how the ecosystem behaves when things break.

The paper's production concerns — crash recovery, stale metadata, flaky
humans, misbehaving services — are exercised here by injecting failures
into otherwise healthy workflows and asserting the failure is loud,
precise, and recoverable.
"""

import pytest

from repro.blocking import OverlapBlocker
from repro.cloud import (
    DEFAULT_REGISTRY,
    CloudMatcher10,
    CloudMatcher20,
    ServiceKind,
    WorkflowContext,
    build_default_registry,
)
from repro.cloud.services import Service
from repro.datasets import DirtinessConfig, make_em_dataset
from repro.datasets.entities import person
from repro.exceptions import (
    BudgetExhaustedError,
    ForeignKeyConstraintError,
    ReproError,
    ServiceError,
    WorkflowError,
)
from repro.falcon import FalconConfig, run_falcon
from repro.labeling import LabelingSession, OracleLabeler
from repro.labeling.oracle import BaseLabeler
from repro.runtime import OperatorGraph
from repro.table import Table


def dataset_fixture(seed=91):
    return make_em_dataset(
        person, 80, 80, match_fraction=0.5,
        dirtiness=DirtinessConfig.light(), seed=seed, name="failures",
    )


class FlakyLabeler(BaseLabeler):
    """Answers correctly until it crashes at a configured question."""

    def __init__(self, gold, crash_at: int):
        super().__init__(seconds_per_label=1.0)
        self._oracle = OracleLabeler(gold)
        self.crash_at = crash_at

    def label(self, pair):
        self.questions_asked += 1
        if self.questions_asked == self.crash_at:
            raise RuntimeError("labeler walked away")
        return self._oracle.label(pair)


class TestLabelingFailures:
    def test_labeler_crash_propagates_and_session_stays_consistent(self):
        ds = dataset_fixture()
        session = LabelingSession(FlakyLabeler(ds.gold_pairs, crash_at=3))
        pairs = sorted(ds.gold_pairs)[:5]
        session.ask(pairs[0])
        session.ask(pairs[1])
        with pytest.raises(RuntimeError, match="walked away"):
            session.ask(pairs[2])
        # The failed question was not recorded; the session can continue
        # once the labeler recovers.
        assert session.questions_asked == 2
        assert pairs[2] not in session.labels

    def test_budget_exhaustion_mid_workflow_is_typed(self):
        ds = dataset_fixture()
        session = LabelingSession(OracleLabeler(ds.gold_pairs), budget=5)
        with pytest.raises(BudgetExhaustedError):
            run_falcon(ds, session, FalconConfig(sample_size=200, random_state=0))
        # and it is catchable as the ecosystem base error
        session2 = LabelingSession(OracleLabeler(ds.gold_pairs), budget=5)
        with pytest.raises(ReproError):
            run_falcon(ds, session2, FalconConfig(sample_size=200, random_state=0))


class TestMetadataFailures:
    def test_mutated_base_table_detected_downstream(self):
        ds = dataset_fixture()
        candset = OverlapBlocker("name", overlap_size=1).block_tables(
            ds.ltable, ds.rtable, "id", "id"
        )
        # Another tool rewrites A's keys behind the catalog's back.
        ds.ltable.add_column("id", [f"x{i}" for i in range(ds.ltable.num_rows)])
        from repro.features import extract_feature_vecs, get_features_for_matching

        features = get_features_for_matching(ds.ltable, ds.rtable)
        with pytest.raises(ForeignKeyConstraintError):
            extract_feature_vecs(candset, features)


class TestServiceFailures:
    def _context(self, ds):
        return WorkflowContext(
            dataset=ds,
            session=LabelingSession(OracleLabeler(ds.gold_pairs), budget=300),
            config=FalconConfig(sample_size=200, blocking_budget=60,
                                matching_budget=100, random_state=0),
            task_name="flaky",
        )

    def test_failing_service_aborts_its_workflow(self):
        ds = dataset_fixture()

        def boom(ctx):
            raise RuntimeError("service crashed")

        registry_service = Service("boom", ServiceKind.BATCH, "always fails", boom)
        workflow = OperatorGraph("doomed")
        workflow.add("upload", DEFAULT_REGISTRY.get("upload_tables"))
        workflow.add("boom", registry_service, deps=["upload"])
        matcher = CloudMatcher10()
        matcher.metamanager.submit(workflow, self._context(ds))
        with pytest.raises(RuntimeError, match="service crashed"):
            matcher.metamanager.run_all()

    def test_engine_state_survives_failed_fragment(self):
        ds = dataset_fixture()

        def boom(ctx):
            raise RuntimeError("down")

        workflow = OperatorGraph("doomed")
        workflow.add("boom", Service("boom", ServiceKind.BATCH, "fails", boom))
        matcher = CloudMatcher10()
        doomed = matcher.metamanager.submit(workflow, self._context(ds))
        with pytest.raises(RuntimeError):
            matcher.metamanager.run_all()
        # Operator removes the doomed run; the same engines then serve a
        # healthy workflow.
        matcher.metamanager.runs.remove(doomed)
        ds2 = dataset_fixture(seed=92)
        matcher.submit(
            ds2, LabelingSession(OracleLabeler(ds2.gold_pairs), budget=300),
            FalconConfig(sample_size=200, blocking_budget=60, matching_budget=100,
                         random_state=0),
        )
        makespan, results = matcher.run(score_against_gold=False)
        assert results[-1].context.has("matches")

    def test_removing_a_failed_task_keeps_the_next_result_its_own(self):
        """Each result comes from its own run: once a failed task's run is
        removed, the healthy task's result carries its name and context."""
        def boom(ctx):
            raise RuntimeError("down")

        registry = build_default_registry()
        registry.register(Service("boom", ServiceKind.BATCH, "fails", boom))
        workflow = OperatorGraph("doomed")
        workflow.add("boom", registry.get("boom"))
        matcher = CloudMatcher20(registry=registry)
        doomed = matcher.submit_custom(workflow, self._context(dataset_fixture()))
        with pytest.raises(RuntimeError, match="down"):
            matcher.run()
        matcher.metamanager.runs.remove(doomed)
        healthy = dataset_fixture(seed=92)
        context = matcher.submit(
            healthy, LabelingSession(OracleLabeler(healthy.gold_pairs), budget=300),
            FalconConfig(sample_size=200, blocking_budget=60, matching_budget=100,
                         random_state=0),
        )
        _, results = matcher.run(score_against_gold=False)
        assert [result.task_name for result in results] == [healthy.name]
        assert results[0].context is context
        assert context.has("matches")

    def test_non_service_node_is_rejected_at_submission(self):
        """A workflow node must run a registry Service: admission names the
        node and nothing runs."""
        ran = []
        workflow = OperatorGraph("odd")
        workflow.add("upload", DEFAULT_REGISTRY.get("upload_tables"))
        workflow.add("plain", lambda ctx: ran.append(ctx), deps=["upload"])
        context = self._context(dataset_fixture())
        matcher = CloudMatcher20()
        with pytest.raises(WorkflowError, match="'plain'"):
            matcher.metamanager.submit(workflow, context)
        with pytest.raises(WorkflowError, match="'plain'"):
            matcher.submit_custom(workflow, context)
        assert matcher.metamanager.runs == [] and ran == []
        assert not context.has("ltable")

    def test_unregistered_service_is_rejected_by_submit_custom(self):
        stray = Service("stray", ServiceKind.BATCH, "not in the registry", lambda ctx: 0.0)
        workflow = OperatorGraph("stray-workflow")
        workflow.add("stray", stray)
        matcher = CloudMatcher20()
        with pytest.raises(ServiceError, match="unregistered service 'stray'"):
            matcher.submit_custom(workflow, self._context(dataset_fixture()))
        assert matcher.metamanager.runs == []


class TestInputFailures:
    def test_blocker_missing_column_is_schema_error(self):
        ds = dataset_fixture()
        from repro.exceptions import SchemaError

        with pytest.raises(SchemaError, match="no_such"):
            OverlapBlocker("no_such").block_tables(ds.ltable, ds.rtable, "id", "id")

    def test_candset_ops_on_unregistered_table(self):
        from repro.blocking import candset_union
        from repro.exceptions import CatalogError

        naked = Table({"_id": [0], "ltable_id": ["a"], "rtable_id": ["b"]})
        with pytest.raises(CatalogError):
            candset_union(naked, naked)

    def test_cli_survives_missing_file(self, capsys):
        from repro.cli import main

        with pytest.raises((SystemExit, FileNotFoundError)):
            main(["profile", "/nonexistent/file.csv"])

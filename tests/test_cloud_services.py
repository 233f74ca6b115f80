"""Unit tests for individual CloudMatcher services and the Falcon sampler."""

from dataclasses import replace

import pytest

from repro.cloud import DEFAULT_REGISTRY, ServiceKind, WorkflowContext
from repro.datasets import DirtinessConfig, make_em_dataset
from repro.datasets.entities import restaurant
from repro.exceptions import ConfigurationError, ServiceError
from repro.falcon import FalconConfig
from repro.falcon.falcon import _sample_pairs
from repro.catalog import get_catalog
from repro.labeling import LabelingSession, OracleLabeler


@pytest.fixture
def context():
    dataset = make_em_dataset(
        restaurant, 150, 150, match_fraction=0.5,
        dirtiness=DirtinessConfig.light(), seed=31, name="svc-test",
    )
    return WorkflowContext(
        dataset=dataset,
        session=LabelingSession(OracleLabeler(dataset.gold_pairs), budget=400),
        config=FalconConfig(sample_size=300, blocking_budget=80,
                            matching_budget=120, random_state=0),
        task_name="svc-test",
    )


def run_service(name, context):
    return DEFAULT_REGISTRY.get(name).run(context)


class TestBasicServices:
    def test_upload_registers_tables(self, context):
        human = run_service("upload_tables", context)
        assert human > 0  # uploading costs user time
        assert context.get("ltable") is context.dataset.ltable

    def test_profile(self, context):
        run_service("upload_tables", context)
        run_service("profile_dataset", context)
        profile = context.get("profile")
        assert profile["l_rows"] == 150
        assert "name" in profile["l_schema"]

    def test_edit_metadata(self, context):
        run_service("edit_metadata", context)
        assert get_catalog().get_key(context.dataset.ltable) == "id"

    def test_down_sample_small_table_passthrough(self, context):
        run_service("down_sample", context)
        assert context.get("l_dev") is context.dataset.ltable

    def test_sample_pairs_contains_matches(self, context):
        run_service("sample_pairs", context)
        sample = context.get("sample")
        pairs = set(zip(sample["ltable_id"], sample["rtable_id"]))
        assert len(pairs & context.dataset.gold_pairs) >= 10

    def test_label_pairs(self, context):
        context.put("pairs_to_label", sorted(context.dataset.gold_pairs)[:3])
        human = run_service("label_pairs", context)
        assert context.get("labels") == [1, 1, 1]
        assert human > 0

    def test_undo_labels(self, context):
        context.session.ask(sorted(context.dataset.gold_pairs)[0])
        context.put("undo_count", 1)
        run_service("undo_labels", context)
        assert context.session.questions_asked == 0
        assert len(context.get("undone")) == 1

    def test_monitor(self, context):
        run_service("monitor_workflow", context)
        status = context.get("status")
        assert status["questions_asked"] == 0
        assert status["remaining_budget"] == 400

    def test_crowdsource_reports_cost(self, context):
        run_service("crowdsource_labels", context)
        assert context.get("crowd_cost")["dollars"] == 0.0  # oracle, not crowd

    def test_dependency_error_when_out_of_order(self, context):
        with pytest.raises(ServiceError, match="not available"):
            run_service("extract_blocking_rules", context)


class TestCompositeServices:
    def test_get_blocking_rules(self, context):
        run_service("get_blocking_rules", context)
        assert context.has("rules")
        assert context.has("rule_evaluations")
        # only the blocking stage labeled
        assert context.session.questions_asked <= context.config.blocking_budget

    def test_falcon_produces_matches(self, context):
        run_service("falcon", context)
        assert context.get("matches").num_rows > 0
        assert context.has("export")


    def test_services_work_in_the_context_catalog(self, context):
        """Every service registers and reads metadata in ``ctx.catalog``,
        the catalog ``run_falcon(catalog=...)`` carries on the same context."""
        from repro.catalog import Catalog

        context.catalog = Catalog()
        run_service("falcon", context)
        run_service("compute_accuracy", context)
        assert context.get("accuracy")["precision"] > 0.8
        assert not get_catalog().has_metadata(context.get("candset"))

class TestSamplePairs:
    def test_pool_has_both_classes(self):
        dataset = make_em_dataset(
            restaurant, 200, 200, match_fraction=0.5,
            dirtiness=DirtinessConfig.moderate(), seed=32,
        )
        sample = _sample_pairs(dataset, 400, seed=0, catalog=get_catalog())
        pairs = set(zip(sample["ltable_id"], sample["rtable_id"]))
        matches = len(pairs & dataset.gold_pairs)
        assert matches >= 20  # likely-match half is effective
        assert matches <= len(pairs) - 20  # random half provides negatives

    def test_sample_size_respected(self):
        dataset = make_em_dataset(
            restaurant, 100, 100, match_fraction=0.5, seed=33,
        )
        sample = _sample_pairs(dataset, 250, seed=0, catalog=get_catalog())
        assert sample.num_rows <= 250 + 125  # probing half may overshoot slightly

    def test_registered_in_catalog(self):
        dataset = make_em_dataset(restaurant, 80, 80, seed=34)
        sample = _sample_pairs(dataset, 100, seed=0, catalog=get_catalog())
        assert get_catalog().get_candset_metadata(sample).ltable is dataset.ltable

    @pytest.mark.parametrize("side, name", [("ltable", "left"), ("rtable", "right")])
    def test_an_empty_side_is_named_before_sampling(self, side, name):
        dataset = make_em_dataset(restaurant, 50, 50, seed=1)
        dataset = replace(dataset, **{side: getattr(dataset, side).take([])})
        with pytest.raises(ConfigurationError, match=f"the {name} table is empty"):
            _sample_pairs(dataset, 40, seed=0, catalog=get_catalog())


class TestServiceKinds:
    def test_labeling_services_are_user_kind(self):
        for name in ("label_pairs", "active_learn_blocking", "active_learn_matching"):
            assert DEFAULT_REGISTRY.get(name).kind == ServiceKind.USER_INTERACTION

    def test_heavy_services_are_batch_kind(self):
        for name in ("execute_blocking_rules", "extract_candidate_vectors",
                     "apply_classifier"):
            assert DEFAULT_REGISTRY.get(name).kind == ServiceKind.BATCH

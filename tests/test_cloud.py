"""Tests for CloudMatcher: services, DAGs, fragments, engines, facade."""

import pytest

from repro.cloud import (
    DEFAULT_REGISTRY,
    CloudMatcher01,
    CloudMatcher10,
    CloudMatcher20,
    CostModel,
    MetaManager,
    ServiceKind,
    ServiceRegistry,
    WorkflowContext,
    build_falcon_workflow,
    decompose_fragments,
)
from repro.cloud.services import Service
from repro.datasets import DirtinessConfig, make_em_dataset
from repro.datasets.entities import restaurant
from repro.exceptions import ServiceError, WorkflowError
from repro.falcon import FalconConfig
from repro.labeling import LabelingSession, OracleLabeler
from repro.obs import use_tracer
from repro.runtime import OperatorGraph


def small_dataset(seed=0, n=150):
    return make_em_dataset(
        restaurant, n, n, match_fraction=0.5,
        dirtiness=DirtinessConfig.light(), seed=seed, name=f"cloud-test-{seed}",
    )


def make_context(dataset, budget=400):
    session = LabelingSession(OracleLabeler(dataset.gold_pairs), budget=budget)
    return WorkflowContext(
        dataset=dataset,
        session=session,
        config=FalconConfig(sample_size=400, blocking_budget=100,
                            matching_budget=200, random_state=0),
        task_name=dataset.name,
    )


def custom_workflow(registry):
    """A user-assembled workflow that skips rule learning (CloudMatcher 2.0)."""
    workflow = OperatorGraph("custom")
    workflow.add("upload", registry.get("upload_tables"))
    workflow.add("block", registry.get("execute_blocking_rules"), deps=["upload"])
    workflow.add("features", registry.get("generate_matching_features"), deps=["upload"])
    workflow.add("vectors", registry.get("extract_candidate_vectors"), deps=["block", "features"])
    workflow.add("learn", registry.get("active_learn_matching"), deps=["vectors"])
    workflow.add("train", registry.get("train_classifier"), deps=["learn"])
    workflow.add("apply", registry.get("apply_classifier"), deps=["train"])
    return workflow


class TestRegistry:
    def test_table4_counts(self):
        """Appendix D: 18 basic services and 2 composite services."""
        core = [s for s in DEFAULT_REGISTRY.services() if s.core]
        assert len([s for s in core if not s.composite]) == 18
        assert len([s for s in core if s.composite]) == 2

    def test_composite_names(self):
        composites = DEFAULT_REGISTRY.names(composite=True)
        assert "falcon" in composites
        assert "get_blocking_rules" in composites

    def test_get_unknown(self):
        with pytest.raises(ServiceError):
            DEFAULT_REGISTRY.get("teleport")

    def test_duplicate_registration(self):
        registry = ServiceRegistry()
        service = Service("x", ServiceKind.BATCH, "d", lambda ctx: 0.0)
        registry.register(service)
        with pytest.raises(ServiceError):
            registry.register(service)

    def test_every_service_kind_valid(self):
        for service in DEFAULT_REGISTRY.services():
            assert isinstance(service.kind, ServiceKind)
            assert service.description


class TestContext:
    def test_put_get(self, small_person_dataset):
        context = make_context(small_person_dataset)
        context.put("x", 42)
        assert context.get("x") == 42
        assert context.has("x")

    def test_missing_artifact(self, small_person_dataset):
        context = make_context(small_person_dataset)
        with pytest.raises(ServiceError, match="not available"):
            context.get("nope")


class TestWorkflowDag:
    def test_falcon_workflow_builds(self):
        workflow = build_falcon_workflow("t", DEFAULT_REGISTRY)
        assert len(workflow) == 16
        order = workflow.topological_order()
        assert order.index("upload") < order.index("sample")
        assert order.index("learn_blocking") < order.index("execute_rules")

    def test_duplicate_node_rejected(self):
        workflow = OperatorGraph("w")
        service = DEFAULT_REGISTRY.get("profile_dataset")
        workflow.add("a", service)
        with pytest.raises(WorkflowError):
            workflow.add("a", service)

    def test_unknown_predecessor(self):
        workflow = OperatorGraph("w")
        with pytest.raises(WorkflowError):
            workflow.add("a", DEFAULT_REGISTRY.get("profile_dataset"), deps=["zzz"])
        # A node cannot follow itself, and a rejected call leaves no trace.
        with pytest.raises(WorkflowError):
            workflow.add("a", DEFAULT_REGISTRY.get("profile_dataset"), deps=["a"])
        assert len(workflow) == 0

    def test_fragments_are_same_kind(self):
        workflow = build_falcon_workflow("t", DEFAULT_REGISTRY)
        fragments, _ = decompose_fragments(workflow)
        for fragment in fragments:
            kinds = {workflow.nodes[node].fn.kind for node in fragment.nodes}
            assert kinds == {fragment.kind}
        # every node lands in exactly one fragment
        all_nodes = [node for fragment in fragments for node in fragment.nodes]
        assert sorted(all_nodes) == sorted(workflow.topological_order())

    def test_fragment_dag_acyclic_topological(self):
        """Every fragment's predecessors come before it, and each is the
        fragment of one of its nodes' predecessors."""
        for workflow in (
            build_falcon_workflow("t", DEFAULT_REGISTRY),
            custom_workflow(DEFAULT_REGISTRY),
            TestFalconWrittenOnce._assembled(DEFAULT_REGISTRY),
        ):
            fragments, deps = decompose_fragments(workflow)
            assert list(deps) == fragments
            fragment_of = {node: f for f in fragments for node in f.nodes}
            position = {f: i for i, f in enumerate(fragments)}
            for fragment, predecessors in deps.items():
                assert all(position[p] < position[fragment] for p in predecessors)
                assert set(predecessors) == {
                    fragment_of[before]
                    for node in fragment.nodes for before in workflow.predecessors(node)
                } - {fragment}

    def test_insertion_order_is_the_topological_order(self):
        workflow = TestFalconWrittenOnce._assembled(DEFAULT_REGISTRY)
        order = list(workflow.nodes)
        assert order == [
            "upload", "sample", "blk", "vec", "learn", "rules", "review", "block",
            "mat", "cand", "learn2", "train", "apply",
        ]
        assert workflow.topological_order() == order

    def test_stock_workflow_runs_as_singletons(self):
        """Merging the stock workflow's same-kind components makes a
        fragment-level cycle, so with or without crowd it falls back to one
        fragment per node; custom workflows do merge."""
        for use_crowd in (False, True):
            workflow = build_falcon_workflow("t", DEFAULT_REGISTRY, use_crowd=use_crowd)
            fragments, _ = decompose_fragments(workflow)
            assert [f.fragment_id for f in fragments] == [
                f"t/n_{node}" for node in workflow.topological_order()
            ]
        custom, _ = decompose_fragments(custom_workflow(DEFAULT_REGISTRY))
        assert [list(f.nodes) for f in custom] == [
            ["upload"], ["block", "features", "vectors"], ["learn"], ["train", "apply"],
        ]
        assert [f.fragment_id for f in custom] == [f"custom/f{i}" for i in range(4)]
        assembled, _ = decompose_fragments(TestFalconWrittenOnce._assembled(DEFAULT_REGISTRY))
        assert len(assembled) == 8

    def test_crowd_variant_retags_learning(self):
        workflow = build_falcon_workflow("t", DEFAULT_REGISTRY, use_crowd=True)
        assert workflow.node("learn_blocking").fn.kind == ServiceKind.CROWD
        assert workflow.node("learn_matching").fn.kind == ServiceKind.CROWD
        assert workflow.node("upload").fn.kind == ServiceKind.USER_INTERACTION


class TestEngines:
    def test_engine_rejects_wrong_kind(self, small_person_dataset):
        from repro.cloud.engines import ExecutionEngine, WorkflowRun

        workflow = build_falcon_workflow("t", DEFAULT_REGISTRY)
        fragments, _ = decompose_fragments(workflow)
        batch_fragment = next(f for f in fragments if f.kind == ServiceKind.BATCH)
        engine = ExecutionEngine(ServiceKind.CROWD)
        run = WorkflowRun(workflow, make_context(small_person_dataset))
        with pytest.raises(WorkflowError):
            engine.execute(batch_fragment, run, 0.0)

    def test_metamanager_single_workflow(self):
        dataset = small_dataset(seed=1)
        manager = MetaManager()
        context = make_context(dataset)
        manager.submit(build_falcon_workflow(dataset.name, DEFAULT_REGISTRY), context)
        makespan = manager.run_all()
        assert makespan > 0
        assert context.has("matches")

    def test_interleaving_beats_serial(self):
        def run(interleave):
            manager = MetaManager(interleave=interleave)
            for seed in (1, 2):
                dataset = small_dataset(seed=seed)
                manager.submit(
                    build_falcon_workflow(dataset.name, DEFAULT_REGISTRY),
                    make_context(dataset),
                )
            return manager.run_all()

        serial = run(False)
        interleaved = run(True)
        assert interleaved < serial

    def test_serial_dispatch_order_is_pinned(self):
        """``interleave=False`` runs one workflow's fragments to the end,
        wave by wave in fragment-DAG order, before the next workflow's."""
        manager = MetaManager(interleave=False)
        names = []
        for seed in (1, 2):
            dataset = small_dataset(seed=seed)
            names.append(dataset.name)
            manager.submit(
                build_falcon_workflow(dataset.name, DEFAULT_REGISTRY),
                make_context(dataset),
            )
        with use_tracer() as tracer:
            manager.run_all()
        order = [
            "upload", "metadata", "profile", "sample", "blk_features",
            "match_features", "sample_vectors", "learn_blocking", "extract_rules",
            "evaluate_rules", "execute_rules", "candidate_vectors",
            "learn_matching", "train", "apply", "export",
        ]
        assert [
            (span.labels["graph"], span.labels["node"])
            for span in tracer.spans if "node" in span.labels
        ] == [(name, node) for name in names for node in order]

    def test_empty_manager(self):
        assert MetaManager().run_all() == 0.0

    def test_user_engines_are_per_run(self):
        manager = MetaManager()
        run_a = manager.submit(build_falcon_workflow("a", DEFAULT_REGISTRY),
                               make_context(small_dataset(seed=3)))
        run_b = manager.submit(build_falcon_workflow("b", DEFAULT_REGISTRY),
                               make_context(small_dataset(seed=4)))
        engine_a = manager.engine_for(run_a, ServiceKind.USER_INTERACTION)
        engine_b = manager.engine_for(run_b, ServiceKind.USER_INTERACTION)
        assert engine_a is not engine_b
        assert manager.engine_for(run_a, ServiceKind.BATCH) is manager.engine_for(
            run_b, ServiceKind.BATCH
        )


class TestCloudMatcherFacade:
    def test_cm01_end_to_end(self):
        dataset = small_dataset(seed=5)
        matcher = CloudMatcher01()
        result = matcher.match(
            dataset,
            LabelingSession(OracleLabeler(dataset.gold_pairs), budget=400),
            FalconConfig(sample_size=400, blocking_budget=100,
                         matching_budget=200, random_state=0),
        )
        assert result.accuracy["precision"] > 0.8
        row = result.cost.as_row()
        assert row["Crowd"] == "-"  # single user, no crowd dollars
        assert int(row["Questions"]) <= 400

    def test_cm10_concurrent_results(self):
        matcher = CloudMatcher10()
        for seed in (6, 7):
            dataset = small_dataset(seed=seed)
            matcher.submit(
                dataset,
                LabelingSession(OracleLabeler(dataset.gold_pairs), budget=400),
                FalconConfig(sample_size=400, blocking_budget=100,
                             matching_budget=200, random_state=0),
            )
        makespan, results = matcher.run()
        assert len(results) == 2
        assert all(r.accuracy is not None for r in results)
        assert all(r.extras["finish_time"] <= makespan + 1e-9 for r in results)

    def test_cm20_custom_workflow(self):
        """The 2.0 story: a user who already knows the blocking rules can
        skip learning them."""
        dataset = small_dataset(seed=8)
        matcher = CloudMatcher20()
        context = make_context(dataset)
        # Pre-seed rules: empty -> the execute service falls back to an
        # overlap blocker; this is the 'user skips rule learning' path.
        context.put("rules", [])
        matcher.submit_custom(custom_workflow(matcher.registry), context)
        makespan, results = matcher.run()
        assert results[0].accuracy["precision"] > 0.7
        assert context.get("used_fallback") is True

    def test_cm20_label_only_service(self):
        dataset = small_dataset(seed=9)
        matcher = CloudMatcher20()
        context = make_context(dataset)
        context.put("pairs_to_label", sorted(dataset.gold_pairs)[:5])
        matcher.invoke_service("label_pairs", context)
        assert context.get("labels") == [1, 1, 1, 1, 1]

    def test_cost_model(self):
        model = CostModel(aws_dollars_per_hour=3.6)
        assert model.compute_cost(3600, on_cloud=True) == pytest.approx(3.6)
        assert model.compute_cost(3600, on_cloud=False) == 0.0
        assert model.crowd_cost(100) == pytest.approx(2.0)

    def test_cost_report_rendering(self):
        from repro.cloud import TaskCostReport

        report = TaskCostReport(
            questions=200, crowd_dollars=1.5, compute_dollars=None,
            labeling_seconds=7200, machine_seconds=90,
        )
        row = report.as_row()
        assert row["Crowd"] == "$1.50"
        assert row["Compute"] == "-"
        assert row["User/Crowd"] == "2.0h"
        assert row["Machine"] == "2m"


class TestFalconWrittenOnce:
    """``run_falcon``, the composite service, the stock workflow and a
    hand-assembled one are the same stage bodies: same answer, same
    ``falcon_*`` counters, same failure."""

    CONFIG = dict(sample_size=700, random_state=0)

    @staticmethod
    def _dataset():
        return make_em_dataset(
            restaurant, 250, 250, match_fraction=0.5,
            dirtiness=DirtinessConfig.light(), seed=3, name="written-once",
        )

    @staticmethod
    def _assembled(registry):
        """The stock Falcon DAG, wired by hand from basic services."""
        workflow = OperatorGraph("assembled")
        for node, service, after in [
            ("upload", "upload_tables", []),
            ("sample", "sample_pairs", ["upload"]),
            ("blk", "generate_blocking_features", ["upload"]),
            ("vec", "extract_sample_vectors", ["sample", "blk"]),
            ("learn", "active_learn_blocking", ["vec"]),
            ("rules", "extract_blocking_rules", ["learn"]),
            ("review", "evaluate_blocking_rules", ["rules"]),
            ("block", "execute_blocking_rules", ["review"]),
            ("mat", "generate_matching_features", ["upload"]),
            ("cand", "extract_candidate_vectors", ["block", "mat"]),
            ("learn2", "active_learn_matching", ["cand"]),
            ("train", "train_classifier", ["learn2"]),
            ("apply", "apply_classifier", ["train"]),
        ]:
            workflow.add(node, registry.get(service), deps=after)
        return workflow

    def _run(self, entry, **config):
        """(candset size, questions, rules, match digest, falcon_* counters)."""
        import hashlib

        from repro.blocking import candset_pairs
        from repro.falcon import run_falcon
        from repro.obs import use_registry

        dataset = self._dataset()
        session = LabelingSession(OracleLabeler(dataset.gold_pairs))
        config = FalconConfig(**{**self.CONFIG, **config})
        with use_registry() as metrics:
            if entry == "on_prem":
                result = run_falcon(dataset, session, config)
                candset, rules, matches = result.candset, result.rules, result.match_pairs
            else:
                if entry == "cm01":
                    context = CloudMatcher01().match(dataset, session, config).context
                else:
                    matcher = CloudMatcher20()
                    if entry == "cm10":
                        context = matcher.submit(dataset, session, config)
                    else:
                        context = WorkflowContext(dataset, session, config)
                        matcher.submit_custom(self._assembled(matcher.registry), context)
                    matcher.run()
                candset, rules = context.get("candset"), context.get("rules")
                matches = set(candset_pairs(context.get("matches")))
            counters = {
                key: value for key, value in metrics.counters().items()
                if key[0].startswith("falcon_")
            }
        digest = hashlib.sha256(repr(sorted(matches)).encode()).hexdigest()[:16]
        return (candset.num_rows, session.questions_asked,
                [str(rule) for rule in rules], digest, counters)

    def test_four_entry_points_one_answer(self):
        on_prem = self._run("on_prem")
        candidates, questions, rules, digest, counters = on_prem
        assert (candidates, questions, len(rules), digest) == (
            579, 271, 4, "12a3ad2f1797a875"
        )
        names = {name for name, _labels in counters}
        assert names >= {
            "falcon_candidates_total", "falcon_matches_total",
            "falcon_iterations_total", "falcon_questions_total", "falcon_labels_total",
        }
        assert counters[("falcon_candidates_total", ())] == candidates
        for entry in ("cm01", "cm10", "assembled"):
            assert self._run(entry) == on_prem, entry

    def test_empty_candidate_set_fails_alike(self):
        """No rule qualifies and the fallback attribute shares no token:
        every entry point stops in ``candidate_vectors`` with one message."""
        from repro.exceptions import ConfigurationError
        from repro.falcon import run_falcon

        def disjoint():
            dataset = small_dataset(seed=11, n=80)
            dataset.ltable.add_column("side", ["left"] * 80)
            dataset.rtable.add_column("side", ["right"] * 80)
            session = LabelingSession(OracleLabeler(dataset.gold_pairs))
            config = FalconConfig(sample_size=200, min_rule_precision=2.0,
                                  fallback_overlap_attr="side", random_state=0)
            return dataset, session, config

        message = "blocking produced an empty candidate set"
        def failed_nodes(tracer):
            return [span.labels["node"] for span in tracer.spans
                    if "node" in span.labels and span.error is not None]

        with use_tracer() as tracer, pytest.raises(ConfigurationError, match=message):
            run_falcon(*disjoint())
        assert failed_nodes(tracer) == ["candidate_vectors"]

        with use_tracer() as tracer, pytest.raises(ConfigurationError, match=message):
            CloudMatcher01().match(*disjoint())
        assert failed_nodes(tracer) == ["candidate_vectors"]

        matcher = CloudMatcher10()
        matcher.submit(*disjoint())
        with use_tracer() as tracer, pytest.raises(ConfigurationError, match=message):
            matcher.run()
        assert failed_nodes(tracer) == ["candidate_vectors"]


class TestOneSpanTree:
    """Every front-end runs its nodes through ``run_graph``: one
    ``<graph>/<node>`` span per node it ran, under its run's span, and
    the work a node does (index reads, learners, feature extraction)
    beneath that node's span, never at the root."""

    WORK = {"index_get", "ml_fit", "ml_predict", "feature_values"}

    @staticmethod
    def _nodes_and_work(tracer):
        """The node names in completion order and the names of the spans
        beneath nodes, checking that every span is a run, a node, or
        work under a node."""
        by_id = {span.span_id: span for span in tracer.spans}
        nodes, work = [], set()
        for span in tracer.spans:
            parent = by_id.get(span.parent_id)
            if "node" in span.labels:
                assert span.name == f"{span.labels['graph']}/{span.labels['node']}"
                assert parent is not None and parent.name == span.labels["graph"]
                nodes.append(span.labels["node"])
            elif "graph" in span.labels:
                assert parent is None or "node" in parent.labels, span.name
            else:
                while parent is not None and "node" not in parent.labels:
                    parent = by_id.get(parent.parent_id)
                assert parent is not None, f"{span.name} lies under no node span"
                work.add(span.name)
        return nodes, work

    def _check(self, run, expected_nodes):
        """Run ``run(context)`` over a fresh task under a tracer; its node
        spans must be ``expected_nodes``, once each; returns their order."""
        context = make_context(small_dataset(seed=2))
        with use_tracer() as tracer:
            run(context)
        nodes, work = self._nodes_and_work(tracer)
        assert sorted(nodes) == sorted(expected_nodes)
        assert len(nodes) == len(set(nodes))
        assert self.WORK <= work
        return nodes

    def test_cloudmatcher01(self):
        from repro.cloud.services import falcon_calls

        stock = [node for node, _service, _after in falcon_calls()]

        def run(context):
            CloudMatcher01().match(
                context.dataset, context.session, context.config, score_against_gold=False
            )

        assert self._check(run, stock) == stock

    def test_gold_scoring_is_a_one_node_run(self):
        """Scoring against gold runs ``compute_accuracy`` as a one-node
        graph of its own, after the 0.1 run's one root and 16 nodes."""
        from repro.cloud.services import falcon_calls

        dataset = small_dataset(seed=2)
        context = make_context(dataset)
        with use_tracer() as tracer:
            result = CloudMatcher01().match(dataset, context.session, context.config)
        roots = [span for span in tracer.spans if span.parent_id is None]
        nodes = [span for span in tracer.spans if "node" in span.labels]
        assert [span.name for span in roots] == [dataset.name, dataset.name]
        assert [span.labels["node"] for span in nodes] == [
            node for node, _service, _after in falcon_calls()
        ] + ["compute_accuracy"]
        assert nodes[-1].parent_id == roots[-1].span_id
        assert result.accuracy["precision"] > 0.8

    def test_invoked_services_are_one_node_runs(self):
        """CloudMatcher 2.0's direct invocation runs the service through
        ``run_graph``: one root run span and one ``<task>/<service>`` node
        span per call, the service's index reads beneath it, and the
        service's simulated seconds returned."""
        dataset = make_em_dataset(
            restaurant, 300, 300, dirtiness=DirtinessConfig.light(), seed=3
        )
        context = WorkflowContext(
            dataset, LabelingSession(OracleLabeler(dataset.gold_pairs)),
            FalconConfig(sample_size=20), task_name=dataset.name,
        )
        matcher = CloudMatcher20()
        seconds, index_gets = {}, []
        for name in ("upload_tables", "edit_metadata", "down_sample", "sample_pairs"):
            with use_tracer() as tracer:
                seconds[name] = matcher.invoke_service(name, context)
            roots = [span for span in tracer.spans if span.parent_id is None]
            nodes = [span for span in tracer.spans if "node" in span.labels]
            assert [span.name for span in roots] == [dataset.name]
            assert [span.name for span in nodes] == [f"{dataset.name}/{name}"]
            assert nodes[0].parent_id == roots[0].span_id
            index_gets += [span for span in tracer.spans if span.name == "index_get"]
        assert index_gets and all(span.parent_id is not None for span in index_gets)
        assert seconds == {
            "upload_tables": 60.0, "edit_metadata": 20.0, "down_sample": 0.0, "sample_pairs": 0.0,
        }

    @pytest.mark.parametrize(
        "composite, last", [("falcon", "export"), ("get_blocking_rules", "evaluate_rules")]
    )
    def test_composites(self, composite, last):
        from repro.cloud.services import falcon_calls

        stock = [node for node, _service, _after in falcon_calls()]
        expected = stock[: stock.index(last) + 1]
        sim = []
        nodes = self._check(
            lambda context: sim.append(DEFAULT_REGISTRY.get(composite).run(context)), expected
        )
        assert nodes == expected
        assert sim[0] > 0  # the composite still reports its services' human seconds

    def test_metamanager(self):
        from repro.cloud.services import falcon_calls

        def run(context):
            matcher = CloudMatcher10()
            matcher.submit(context.dataset, context.session, context.config)
            matcher.run(score_against_gold=False)

        self._check(run, [node for node, _service, _after in falcon_calls()])

    def test_run_falcon(self):
        from repro.falcon import FALCON_STAGES, run_falcon

        stages = [stage for stage, _body, _deps, _description in FALCON_STAGES]
        self._check(
            lambda context: run_falcon(context.dataset, context.session, context.config), stages
        )

    def test_machine_seconds_are_the_node_records(self):
        """CloudMatcher 0.1 bills the seconds its run's node spans took."""
        dataset = small_dataset(seed=2)
        context = make_context(dataset)
        with use_tracer() as tracer:
            result = CloudMatcher01().match(dataset, context.session, context.config)
        node_seconds = sum(span.seconds for span in tracer.spans if "node" in span.labels)
        assert 0 < result.cost.machine_seconds <= node_seconds

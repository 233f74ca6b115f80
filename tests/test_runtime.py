"""Tests for repro.runtime: the shared operator-DAG execution core.

Covers the IR, ``run_graph`` (each node once, the first failure raised),
the spans a run records (one per run, one per node, nested), the
partition checkpoint store behind ``CheckpointedRun`` (crash-resume of a
Figure-2-style workflow run per partition), and the equality of the
node-span multisets of serial and interleaved metamanager schedules.
"""

import json
import logging
from collections import Counter

import pytest

from repro.exceptions import WorkflowError
from repro.obs import Tracer, trace_span, use_tracer
from repro.pipeline import CheckpointedRun, MagellanWorkflow
from repro.runtime import (
    GraphCheckpoint,
    Operator,
    OperatorGraph,
    chain_graph,
    fingerprint,
    run_graph,
)
from repro.table import Table


def node_spans(tracer: Tracer) -> list:
    """The node spans a tracer kept, in completion order."""
    return [span for span in tracer.spans if "node" in span.labels]


def diamond_graph():
    """a -> (b, c) -> d over simple integer artifacts."""
    graph = OperatorGraph("diamond")
    graph.add("a", lambda s: s.__setitem__("x", 2))
    graph.add("b", lambda s: {"left": s["x"] * 10}, deps=("a",))
    graph.add("c", lambda s: {"right": s["x"] + 1}, deps=("a",))
    graph.add("d", lambda s: {"total": s["left"] + s["right"]}, deps=("b", "c"))
    return graph


class TestGraph:
    def test_duplicate_name_rejected(self):
        graph = OperatorGraph("g")
        graph.add("a", lambda s: None)
        with pytest.raises(WorkflowError, match="duplicate"):
            graph.add("a", lambda s: None)

    def test_unknown_dep_rejected(self):
        graph = OperatorGraph("g")
        with pytest.raises(WorkflowError, match="unknown operator"):
            graph.add("a", lambda s: None, deps=("zzz",))

    def test_empty_name_rejected(self):
        with pytest.raises(WorkflowError):
            Operator("", lambda s: None)

    def test_topological_order_deterministic(self):
        graph = diamond_graph()
        assert graph.topological_order() == ["a", "b", "c", "d"]

    def test_successors_predecessors(self):
        graph = diamond_graph()
        assert graph.successors("a") == ["b", "c"]
        assert graph.predecessors("d") == ("b", "c")

    def test_unknown_node_lookup(self):
        with pytest.raises(WorkflowError, match="no operator"):
            diamond_graph().node("zzz")

    def test_chain_graph_is_linear(self):
        graph = chain_graph("chain", [("s1", lambda s: None), ("s2", lambda s: None)])
        assert graph.predecessors("s2") == ("s1",)
        assert graph.topological_order() == ["s1", "s2"]

    def test_subgraph_drops_external_deps(self):
        sub = diamond_graph().subgraph(["b", "d"])
        assert sub.predecessors("b") == ()  # "a" is outside
        assert sub.predecessors("d") == ("b",)  # "c" is outside

    def test_contains_len_repr(self):
        graph = diamond_graph()
        assert "a" in graph and "zzz" not in graph
        assert len(graph) == 4
        assert "diamond" in repr(graph)


def permuted_diamonds():
    """The diamond DAG built under every valid insertion order."""
    specs = {
        "a": (),
        "b": ("a",),
        "c": ("a",),
        "d": ("b", "c"),
    }
    orders = [
        ["a", "b", "c", "d"],
        ["a", "c", "b", "d"],
    ]
    graphs = []
    for order in orders:
        graph = OperatorGraph("diamond")
        for name in order:
            graph.add(name, lambda s: None, deps=specs[name])
        graphs.append((order, graph))
    return graphs


class TestOrderDeterminism:
    """topological_order/subgraph are pure functions of the built graph."""

    def test_topological_order_is_stable_across_calls(self):
        for _, graph in permuted_diamonds():
            first = graph.topological_order()
            assert all(graph.topological_order() == first for _ in range(5))

    def test_topological_order_respects_deps_under_any_insertion(self):
        for _, graph in permuted_diamonds():
            order = graph.topological_order()
            position = {name: i for i, name in enumerate(order)}
            for name, operator in graph.nodes.items():
                assert all(position[dep] < position[name] for dep in operator.deps)

    def test_ties_break_by_insertion_order(self):
        for insertion, graph in permuted_diamonds():
            # b and c are unordered by deps; insertion decides, nothing else.
            assert graph.topological_order() == insertion

    def test_identical_builds_identical_order(self):
        built = [
            graph.topological_order()
            for _, graph in [permuted_diamonds()[0], permuted_diamonds()[0]]
        ]
        assert built[0] == built[1]

    def test_subgraph_preserves_relative_order(self):
        for _, graph in permuted_diamonds():
            parent_order = graph.topological_order()
            for keep in (["a", "d"], ["b", "d"], ["a", "b", "c"], ["c", "d"]):
                sub_order = graph.subgraph(keep).topological_order()
                assert sub_order == [n for n in parent_order if n in set(keep)]

    def test_subgraph_is_deterministic_across_calls(self):
        graph = permuted_diamonds()[1][1]
        first = graph.subgraph(["a", "b", "d"]).topological_order()
        for _ in range(5):
            assert graph.subgraph(["a", "b", "d"]).topological_order() == first


class TestRunGraph:
    def test_serial_executes_all(self):
        result = run_graph(diamond_graph())
        assert result.store["total"] == 23
        assert [r.name for r in result.records.values()] == ["a", "b", "c", "d"]

    def test_sim_seconds_recorded(self):
        graph = OperatorGraph("sim")
        graph.add("human", lambda s: 42.5)
        graph.add("check", lambda s: True, deps=("human",))
        with use_tracer() as tracer:
            result = run_graph(graph)
        assert result.sim_seconds() == pytest.approx(42.5)
        assert result.records["human"].sim_seconds == pytest.approx(42.5)
        assert [span.labels["sim_seconds"] for span in node_spans(tracer)] == ["42.5", "0.0"]

    def test_bool_return_is_not_sim_seconds(self):
        # bool is an int subclass: a predicate-style operator returning
        # True must not be billed as 1.0 simulated seconds.
        graph = OperatorGraph("pred")
        graph.add("check", lambda s: True)
        graph.add("deny", lambda s: False, deps=("check",))
        result = run_graph(graph)
        assert result.sim_seconds() == 0.0
        assert result.records["check"].sim_seconds == 0.0
        assert result.records["deny"].sim_seconds == 0.0
        # Real int/float returns are still simulated seconds.
        graph2 = OperatorGraph("sim2")
        graph2.add("crowd", lambda s: 3)
        assert run_graph(graph2).sim_seconds() == pytest.approx(3.0)

    def test_store_mutated_in_place(self):
        store = {"seed": 1}
        result = run_graph(
            chain_graph("c", [("double", lambda s: {"seed": s["seed"] * 2})]), store
        )
        assert result.store is store
        assert store["seed"] == 2

    def test_on_error_raise(self):
        """The first failure is recorded on its node's span, scheduling
        stops, the run span still closes, and the exception propagates."""
        ran = []
        graph = chain_graph("f", [
            ("before", lambda s: ran.append("before")),
            ("boom", lambda s: 1 / 0),
            ("after", lambda s: ran.append("after")),
        ])
        with use_tracer() as tracer:
            with pytest.raises(ZeroDivisionError):
                run_graph(graph)
        assert ran == ["before"]
        assert [(span.name, span.error is None) for span in tracer.spans] == [
            ("f/before", True), ("f/boom", False), ("f", False),
        ]
        assert "ZeroDivisionError" in tracer.spans[1].error

    def test_on_error_halt_returns_error(self):
        """A failing node halts the run: its error reaches the caller, no
        later node writes to the store or opens a span, and the run span
        closes exactly once."""
        graph = chain_graph(
            "f", [("boom", lambda s: 1 / 0), ("after", lambda s: {"ran": True})]
        )
        store = {}
        with use_tracer() as tracer:
            with pytest.raises(ZeroDivisionError):
                run_graph(graph, store)
        assert "ran" not in store  # scheduling stopped
        assert [span.name for span in tracer.spans if "node" not in span.labels] == ["f"]
        assert [span.labels["node"] for span in node_spans(tracer)] == ["boom"]

    def test_caller_owned_records_keep_a_failed_run(self):
        """The records mapping is filled as the store is: after a failure
        the caller holds the nodes that ran, the failed one last."""
        graph = chain_graph("f", [
            ("before", lambda s: 1.5), ("boom", lambda s: 1 / 0), ("after", lambda s: None),
        ])
        records = {}
        with pytest.raises(ZeroDivisionError):
            run_graph(graph, records=records)
        assert [(r.name, r.ok, r.sim_seconds) for r in records.values()] == [
            ("before", True, 1.5), ("boom", False, 0.0),
        ]
        assert "ZeroDivisionError" in records["boom"].error
        result = run_graph(chain_graph("g", [("a", lambda s: None)]), records={})
        assert result.records["a"].ok and result.seconds() == result.records["a"].seconds

    def test_nodes_log_on_the_runtime_logger(self, caplog):
        graph = chain_graph("f", [("ok", lambda s: None), ("boom", lambda s: 1 / 0)])
        with caplog.at_level(logging.INFO, logger="repro.runtime"):
            with pytest.raises(ZeroDivisionError):
                run_graph(graph)
        assert [
            (r.levelname, r.getMessage().split(" in ")[0].split(" after ")[0])
            for r in caplog.records
        ] == [
            ("INFO", "graph f: node ok starting"),
            ("INFO", "graph f: node ok finished"),
            ("INFO", "graph f: node boom starting"),
            ("ERROR", "graph f: node boom failed"),
        ]


class TestEvents:
    """A run records itself as spans: one for the run, one per node."""

    def test_event_sequence(self):
        with use_tracer() as tracer:
            run_graph(diamond_graph())
        # Completion order: the four nodes in ready-set order, then the run.
        assert [span.name for span in tracer.spans] == [
            "diamond/a", "diamond/b", "diamond/c", "diamond/d", "diamond",
        ]
        run = tracer.spans[-1]
        assert run.labels == {"graph": "diamond", "sim_at": "0.0"}
        assert all(span.parent_id == run.span_id for span in node_spans(tracer))
        assert all(span.error is None for span in tracer.spans)

    def test_subscriber_sees_events(self):
        """The installed tracer is a run's one subscriber: it sees every
        run, however many share it."""
        with use_tracer() as tracer:
            run_graph(diamond_graph())
            run_graph(diamond_graph())
        assert len(tracer) == 2 * (1 + 4)
        runs = [span for span in tracer.spans if "node" not in span.labels]
        assert len({span.span_id for span in runs}) == 2

    def test_unsubscribe(self):
        """Once the ``use_tracer`` block ends, later runs leave its tracer
        alone."""
        with use_tracer() as tracer:
            run_graph(diamond_graph())
        run_graph(diamond_graph())
        assert len(tracer) == 5

    def test_jsonl_roundtrip(self, tmp_path):
        with use_tracer() as tracer:
            run_graph(diamond_graph(), sim_at=7.5)
        path = tracer.write_jsonl(tmp_path / "spans.jsonl")
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == len(tracer)
        nodes = [row for row in rows if "node" in row["labels"]]
        assert {row["labels"]["node"] for row in nodes} == {"a", "b", "c", "d"}
        assert all(
            {"graph", "node", "sim_at", "sim_seconds"} == set(row["labels"]) for row in nodes
        )
        assert {row["labels"]["sim_at"] for row in rows} == {"7.5"}

    def test_node_timings(self):
        with use_tracer() as tracer:
            result = run_graph(diamond_graph())
        timings = {
            (span.labels["graph"], span.labels["node"]): span.seconds
            for span in node_spans(tracer)
        }
        assert set(timings) == {("diamond", n) for n in "abcd"}
        # A node's span encloses the node's own timed work.
        for name, record in result.records.items():
            assert timings[("diamond", name)] >= record.seconds

    def _nested_run(self):
        """Graph ``g`` whose node ``a`` opens span ``inner``, run under
        span ``outer``; returns the kept spans by name."""
        graph = OperatorGraph("g")

        def node_a(store):
            with trace_span("inner"):
                pass

        graph.add("a", node_a)
        with use_tracer() as tracer:
            with trace_span("outer"):
                run_graph(graph)
        return {span.name: span for span in tracer.spans}

    def test_span_opened_in_a_node_is_that_nodes_child(self):
        spans = self._nested_run()
        assert spans["inner"].parent_id == spans["g/a"].span_id

    def test_node_span_nests_under_the_run_span_under_the_callers(self):
        spans = self._nested_run()
        assert spans["g/a"].parent_id == spans["g"].span_id
        assert spans["g"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None


ORDER = ["sample", "block", "label", "train", "apply"]


def figure2_partition(crash_at=None, crash_id=None, log=None):
    """A Figure-2-style guide workflow (sample, block, label, train, apply)
    run over one partition of ``id``/``v`` rows, as ``CheckpointedRun``
    runs a captured workflow in production.  The step ``crash_at`` raises
    in the partition holding ``crash_id``; ``log`` collects the first id
    of every partition the workflow ran on."""

    def step(name, fn):
        def op(store):
            if name == crash_at and crash_id in store["part"].column("id"):
                raise KeyboardInterrupt(f"simulated crash in {name}")
            return fn(store)
        return op

    def fn(part: Table) -> Table:
        if log is not None:
            log.append(part.column("id")[0])
        workflow = MagellanWorkflow("figure2")
        for name, body in (
            ("sample", lambda s: {"sample": list(zip(s["part"].column("id"), s["part"].column("v")))}),
            ("block", lambda s: {"candset": [(i, v) for i, v in s["sample"] if v % 2 == 0]}),
            ("label", lambda s: {"labels": [v > 8 for _, v in s["candset"]]}),
            ("train", lambda s: {"threshold": 8}),
            ("apply", lambda s: {"matches": [i for i, v in s["candset"] if v > s["threshold"]]}),
        ):
            workflow.add_step(name, step(name, body))
        workflow.artifacts["part"] = part
        matches = workflow.run()["matches"]
        return Table({"id": matches, "match": [True] * len(matches)})

    return fn


def partition_rows(n=12):
    return Table({"id": list(range(n)), "v": [i % 7 * 3 for i in range(n)]})


class TestMemoAndCheckpoint:
    """Partition checkpoints are keyed by structural fingerprints; there is
    no in-process memo, so a rerun without a checkpoint recomputes."""

    def test_fingerprints_depend_on_structure(self, tmp_path):
        """A partition's key hashes (run id, node, partition count): the
        same run id resumes, another one in the directory starts empty."""
        CheckpointedRun("job", tmp_path).execute(partition_rows(), figure2_partition(), 3)
        store = GraphCheckpoint("job", tmp_path)
        assert store.completed_nodes() == {"part_0", "part_1", "part_2"}
        assert all(
            store.has(f"part_{i}", fingerprint("job", f"part_{i}", "n_partitions=3", ()))
            for i in range(3)
        )
        assert not store.has("part_0", fingerprint("other", "part_0", "n_partitions=3", ()))
        assert CheckpointedRun("other", tmp_path).completed_partitions() == set()

    def test_key_salts_fingerprint(self, tmp_path):
        """The partition count salts every key: checkpoints written with 3
        partitions are refused by a run asking for 4."""
        run = CheckpointedRun("job", tmp_path)
        run.execute(partition_rows(), figure2_partition(), n_partitions=3)
        with pytest.raises(WorkflowError, match="do not match 4 partitions"):
            run.execute(partition_rows(), figure2_partition(), n_partitions=4)

    def test_fingerprint_is_hex(self):
        assert len(fingerprint("x", 1)) == 32
        assert fingerprint("x") != fingerprint("y")

    def test_checkpoint_saves_and_restores(self, tmp_path):
        first = CheckpointedRun("run1", tmp_path).execute(
            partition_rows(), figure2_partition(), n_partitions=4
        )
        assert GraphCheckpoint("run1", tmp_path).completed_nodes() == {
            f"part_{i}" for i in range(4)
        }
        # A fresh process (new handles) restores every partition.
        log = []
        second = CheckpointedRun("run1", tmp_path).execute(
            partition_rows(), figure2_partition(log=log), n_partitions=4
        )
        assert log == []
        assert second == first


class TestCrashResume:
    """A crash at every step of the partition workflow: resume completes
    only the partitions that never finished."""

    @pytest.mark.parametrize("crash_at", ORDER)
    def test_resume_from_checkpoint(self, tmp_path, crash_at):
        baseline = CheckpointedRun("fresh", tmp_path).execute(
            partition_rows(), figure2_partition(), n_partitions=4
        )
        run = CheckpointedRun("prod", tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run.execute(partition_rows(), figure2_partition(crash_at, crash_id=6), 4)
        assert run.completed_partitions() == {0, 1}

        # Restart in a "new process": fresh handles, a healed workflow.
        executed = []
        result = CheckpointedRun("prod", tmp_path).execute(
            partition_rows(), figure2_partition(log=executed), n_partitions=4
        )
        # Only the crashed partition and the later ones run ...
        assert executed == [6, 9]
        # ... and the output equals the uninterrupted run's.
        assert result == baseline

    def test_crash_leaves_valid_manifest(self, tmp_path, monkeypatch):
        """A crash between a partition's pickle and its manifest entry
        leaves a manifest that loads and does not name that partition."""
        baseline = CheckpointedRun("fresh", tmp_path).execute(
            partition_rows(), figure2_partition(), n_partitions=4
        )
        save_manifest = GraphCheckpoint._save_manifest

        def crash_on_part_2(self, manifest):
            if "part_2" in manifest["nodes"]:
                raise KeyboardInterrupt("simulated crash before the manifest write")
            save_manifest(self, manifest)

        monkeypatch.setattr(GraphCheckpoint, "_save_manifest", crash_on_part_2)
        run = CheckpointedRun("prod", tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run.execute(partition_rows(), figure2_partition(), n_partitions=4)
        monkeypatch.undo()
        assert (tmp_path / "prod" / "node_part_2.pkl").exists()
        manifest = json.loads((tmp_path / "prod" / "manifest.json").read_text(encoding="utf-8"))
        assert set(manifest["nodes"]) == {"part_0", "part_1"}
        executed = []
        result = run.execute(partition_rows(), figure2_partition(log=executed), n_partitions=4)
        assert executed == [6, 9]
        assert result == baseline

class TestMetaManagerEvents:
    """Serial and interleaved schedules record the same node spans."""

    def _run(self, interleave):
        from repro.cloud import (
            DEFAULT_REGISTRY,
            MetaManager,
            build_falcon_workflow,
        )
        from tests.test_cloud import make_context, small_dataset

        manager = MetaManager(interleave=interleave)
        for seed in (1, 2):
            dataset = small_dataset(seed=seed)
            manager.submit(
                build_falcon_workflow(dataset.name, DEFAULT_REGISTRY),
                make_context(dataset),
            )
        with use_tracer() as tracer:
            manager.run_all()
        return manager, tracer

    def test_event_multiset_schedule_invariant(self):
        multisets = [
            Counter(
                (span.labels["graph"], span.labels["node"], span.error is not None)
                for span in node_spans(tracer)
            )
            for _, tracer in (self._run(False), self._run(True))
        ]
        assert multisets[0] == multisets[1]
        # 2 workflows x 16 services, each run exactly once, none failed.
        assert sum(multisets[0].values()) == 2 * 16
        assert all(count == 1 for count in multisets[0].values())
        assert not any(failed for _, _, failed in multisets[0])

    def test_event_log_export(self, tmp_path):
        _, tracer = self._run(True)
        path = tracer.write_jsonl(tmp_path / "cloud.jsonl")
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        nodes = [row for row in rows if "node" in row.get("labels", {})]
        assert len(nodes) == 2 * 16
        # Simulated timestamps propagate from the metamanager's clock.
        assert any(float(row["labels"]["sim_at"]) > 0 for row in nodes)

    def test_sim_seconds_labels_sum_to_each_engines_human_seconds(self):
        manager, tracer = self._run(True)
        sim = {
            (span.labels["graph"], span.labels["node"]): float(span.labels["sim_seconds"])
            for span in node_spans(tracer)
        }
        assert any(sim.values())
        for engine in manager.all_engines():
            nodes = [
                (execution.fragment.fragment_id.rpartition("/")[0], node)
                for execution in engine.executions
                for node in execution.fragment.nodes
            ]
            human = sum(execution.human_seconds for execution in engine.executions)
            assert sum(sim[node] for node in nodes) == pytest.approx(human)

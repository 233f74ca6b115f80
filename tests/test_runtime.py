"""Tests for repro.runtime: the shared operator-DAG execution core.

Covers the IR, ``run_graph`` (each node once, the first failure raised),
the structured event stream, the partition checkpoint store behind
``CheckpointedRun`` (crash-resume of a Figure-2-style workflow run per
partition), and per-node event-multiset equivalence between serial and
interleaved metamanager schedules.
"""

import json

import pytest

from repro.exceptions import WorkflowError
from repro.pipeline import CheckpointedRun, MagellanWorkflow
from repro.runtime import (
    NODE_FAIL,
    NODE_FINISH,
    NODE_START,
    RUN_FINISH,
    RUN_START,
    EventStream,
    GraphCheckpoint,
    Operator,
    OperatorGraph,
    chain_graph,
    fingerprint,
    read_jsonl,
    run_graph,
)
from repro.table import Table


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
        result = run_graph(graph)
        assert result.sim_seconds() == pytest.approx(42.5)
        assert result.records["human"].sim_seconds == pytest.approx(42.5)

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
        """The first failure is recorded, scheduling stops, the run still
        finishes its event stream, and the exception propagates."""
        ran = []
        graph = chain_graph("f", [
            ("before", lambda s: ran.append("before")),
            ("boom", lambda s: 1 / 0),
            ("after", lambda s: ran.append("after")),
        ])
        events = EventStream()
        with pytest.raises(ZeroDivisionError):
            run_graph(graph, events=events)
        assert ran == ["before"]
        assert [(e.event, e.node) for e in events] == [
            (RUN_START, None), (NODE_START, "before"), (NODE_FINISH, "before"),
            (NODE_START, "boom"), (NODE_FAIL, "boom"), (RUN_FINISH, None),
        ]
        assert "ZeroDivisionError" in events.of(NODE_FAIL)[0].error

    def test_on_error_halt_returns_error(self):
        """A failing node halts the run: its error reaches the caller, no
        later node writes to the store, and the run finishes exactly once."""
        graph = chain_graph(
            "f", [("boom", lambda s: 1 / 0), ("after", lambda s: {"ran": True})]
        )
        store, events = {}, EventStream()
        with pytest.raises(ZeroDivisionError):
            run_graph(graph, store, events=events)
        assert "ran" not in store  # scheduling stopped
        assert len(events.of(RUN_FINISH)) == 1
        assert [e.node for e in events.of(NODE_FAIL)] == ["boom"]


class TestEvents:
    def test_event_sequence(self):
        result = run_graph(diamond_graph())
        kinds = [e.event for e in result.events]
        assert kinds[0] == RUN_START and kinds[-1] == RUN_FINISH
        assert kinds.count(NODE_START) == kinds.count(NODE_FINISH) == 4

    def test_subscriber_sees_events(self):
        seen = []
        events = EventStream()
        events.subscribe(seen.append)
        run_graph(diamond_graph(), events=events)
        assert len(seen) == len(events.events)

    def test_unsubscribe(self):
        seen = []
        events = EventStream()
        sink = events.subscribe(seen.append)
        events.unsubscribe(sink)
        run_graph(diamond_graph(), events=events)
        assert seen == []

    def test_jsonl_roundtrip(self, tmp_path):
        result = run_graph(diamond_graph())
        path = result.events.write_jsonl(tmp_path / "events.jsonl")
        rows = read_jsonl(path)
        assert len(rows) == len(result.events.events)
        assert all(json.dumps(row) for row in rows)
        finish = [r for r in rows if r["event"] == NODE_FINISH]
        assert {r["node"] for r in finish} == {"a", "b", "c", "d"}
        assert all({"wall_seconds", "sim_seconds", "sim_at"} <= set(r) for r in finish)

    def test_node_timings(self):
        result = run_graph(diamond_graph())
        timings = result.events.node_timings()
        assert set(timings) == {("diamond", n) for n in "abcd"}

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
    """Serial and interleaved schedules emit the same per-node multiset."""

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
        manager.run_all()
        return manager

    def test_event_multiset_schedule_invariant(self):
        serial = self._run(False)
        interleaved = self._run(True)
        multiset = serial.events.node_multiset()
        assert multiset == interleaved.events.node_multiset()
        # 2 workflows x 16 services, each started and finished exactly once.
        assert sum(multiset.values()) == 2 * 16 * 2
        assert all(count == 1 for count in multiset.values())

    def test_event_log_export(self, tmp_path):
        manager = self._run(True)
        path = manager.write_event_log(tmp_path / "cloud.jsonl")
        rows = read_jsonl(path)
        assert {r["event"] for r in rows} >= {RUN_START, NODE_START, NODE_FINISH}
        finish = [r for r in rows if r["event"] == NODE_FINISH]
        # Simulated timestamps propagate from the metamanager's clock.
        assert any(r["sim_at"] > 0 for r in finish)

"""Tests for repro.runtime: the shared operator-DAG execution core.

Covers the IR, ``run_graph``, the structured event stream, memoization,
DAG-level checkpointing, and the two issue-mandated scenarios: crash-resume
via fault injection at every node of a Figure-2-style workflow, and
per-node event-multiset equivalence between serial and interleaved
metamanager schedules.
"""

import json

import pytest

from repro.exceptions import ConfigurationError, WorkflowError
from repro.runtime import (
    CACHE_HIT,
    CHECKPOINT_SAVED,
    NODE_FINISH,
    NODE_RETRY,
    NODE_START,
    RUN_FINISH,
    RUN_START,
    EventStream,
    GraphCheckpoint,
    NodeMemo,
    Operator,
    OperatorGraph,
    chain_graph,
    fingerprint,
    node_fingerprints,
    read_jsonl,
    run_graph,
)


def diamond_graph():
    """a -> (b, c) -> d over simple integer artifacts."""
    graph = OperatorGraph("diamond")
    graph.add("a", lambda s: s.__setitem__("x", 2), outputs=("x",))
    graph.add("b", lambda s: {"left": s["x"] * 10}, deps=("a",), outputs=("left",))
    graph.add("c", lambda s: {"right": s["x"] + 1}, deps=("a",), outputs=("right",))
    graph.add(
        "d",
        lambda s: {"total": s["left"] + s["right"]},
        deps=("b", "c"),
        outputs=("total",),
    )
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


class TestRowCountEvents:
    """NODE_FINISH events carry sized input/output rows for the planner."""

    def graph(self):
        graph = OperatorGraph("rows")
        graph.add("make", lambda s: {"items": list(range(10))}, outputs=("items",))
        graph.add(
            "shrink",
            lambda s: {"items": s["items"][:3]},
            deps=("make",),
            outputs=("items",),
        )
        return graph

    def finish_events(self, result):
        return {e.node: e for e in result.events.of(NODE_FINISH)}

    def test_rows_measured_before_and_after(self):
        finishes = self.finish_events(run_graph(self.graph()))
        assert finishes["make"].rows_in == 0
        assert finishes["make"].rows_out == 10
        # "shrink" overwrites the slot it reads: rows_in must still be the
        # pre-execution size, not the post-execution one.
        assert finishes["shrink"].rows_in == 10
        assert finishes["shrink"].rows_out == 3

    def test_unsized_artifacts_count_zero(self):
        graph = OperatorGraph("scalar")
        graph.add("a", lambda s: {"x": 42}, outputs=("x",))
        graph.add("b", lambda s: {"y": "a string"}, deps=("a",), outputs=("y",))
        finishes = self.finish_events(run_graph(graph))
        assert finishes["a"].rows_out == 0  # int has no rows
        assert finishes["b"].rows_in == 0
        assert finishes["b"].rows_out == 0  # strings deliberately uncounted

    def test_rows_in_event_dict_roundtrip(self):
        result = run_graph(self.graph())
        payload = self.finish_events(result)["shrink"].to_dict()
        assert payload["rows_in"] == 10 and payload["rows_out"] == 3


class TestRunGraph:
    def test_serial_executes_all(self):
        result = run_graph(diamond_graph())
        assert result.ok
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

    def test_retries(self):
        calls = {"n": 0}

        def flaky(store):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ValueError("transient")
            store["done"] = True

        graph = OperatorGraph("r")
        graph.add("flaky", flaky, retries=2)
        result = run_graph(graph)
        assert result.ok and result.store["done"]
        assert result.records["flaky"].attempts == 3
        assert len(result.events.of(NODE_RETRY)) == 2

    def test_on_error_raise(self):
        graph = chain_graph("f", [("boom", lambda s: 1 / 0), ("after", lambda s: None)])
        with pytest.raises(ZeroDivisionError):
            run_graph(graph)

    def test_on_error_continue_runs_dependents(self):
        graph = chain_graph(
            "f", [("boom", lambda s: 1 / 0), ("after", lambda s: {"ran": True})]
        )
        result = run_graph(graph, on_error="continue")
        assert not result.ok
        assert result.failed_nodes() == ["boom"]
        assert result.store["ran"] is True

    def test_on_error_halt_returns_error(self):
        graph = chain_graph(
            "f", [("boom", lambda s: 1 / 0), ("after", lambda s: {"ran": True})]
        )
        result = run_graph(graph, on_error="halt")
        assert isinstance(result.first_error, ZeroDivisionError)
        assert "ran" not in result.store  # scheduling stopped
        assert len(result.events.of(RUN_FINISH)) == 1

    def test_bad_on_error_rejected(self):
        with pytest.raises(ConfigurationError):
            run_graph(diamond_graph(), on_error="ignore")

    def test_undeclared_output_rejected(self):
        graph = OperatorGraph("g")
        graph.add("liar", lambda s: None, outputs=("never_written",))
        with pytest.raises(WorkflowError, match="did not write"):
            run_graph(graph)


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
        assert all("wall_seconds" in r and "cached" in r for r in finish)

    def test_node_timings(self):
        result = run_graph(diamond_graph())
        timings = result.events.node_timings()
        assert set(timings) == {("diamond", n) for n in "abcd"}

    def test_node_timings_separate_cached_from_real(self):
        # A cache restore must not masquerade as execution time: real
        # timings come from NODE_FINISH, cached ones from CACHE_HIT.
        memo = NodeMemo()
        events = EventStream()
        run_graph(diamond_graph(), memo=memo)
        run_graph(diamond_graph(), memo=memo, events=events)
        assert events.node_timings() == {}
        cached = events.node_timings(cached=True)
        assert set(cached) == {("diamond", n) for n in "abcd"}


class TestMemoAndCheckpoint:
    def test_fingerprints_depend_on_structure(self):
        g1, g2 = diamond_graph(), diamond_graph()
        assert node_fingerprints(g1) == node_fingerprints(g2)
        g3 = diamond_graph()
        g3.add("e", lambda s: None, deps=("d",), key="v2")
        fps = node_fingerprints(g3)
        assert fps["d"] == node_fingerprints(g1)["d"]

    def test_key_salts_fingerprint(self):
        g = OperatorGraph("g")
        g.add("a", lambda s: None, key="v1")
        h = OperatorGraph("g")
        h.add("a", lambda s: None, key="v2")
        assert node_fingerprints(g)["a"] != node_fingerprints(h)["a"]

    def test_fingerprint_is_hex(self):
        assert len(fingerprint("x", 1)) == 32
        assert fingerprint("x") != fingerprint("y")

    def test_memo_hits_on_rerun(self):
        memo = NodeMemo()
        counter = {"runs": 0}

        def expensive(store):
            counter["runs"] += 1
            return {"value": 7}

        def make():
            graph = OperatorGraph("memo")
            graph.add("expensive", expensive, outputs=("value",))
            return graph

        run_graph(make(), memo=memo)
        second = run_graph(make(), memo=memo)
        assert counter["runs"] == 1
        assert second.store["value"] == 7
        assert second.records["expensive"].cached
        hits = second.events.of(CACHE_HIT)
        assert len(hits) == 1 and hits[0].extra["source"] == "memo"

    def test_checkpoint_saves_and_restores(self, tmp_path):
        checkpoint = GraphCheckpoint("run1", tmp_path)
        first = run_graph(diamond_graph(), checkpoint=checkpoint)
        assert len(first.events.of(CHECKPOINT_SAVED)) == 4
        assert checkpoint.completed_nodes() == {"a", "b", "c", "d"}
        # A fresh process (new GraphCheckpoint object) serves all nodes.
        second = run_graph(
            diamond_graph(), checkpoint=GraphCheckpoint("run1", tmp_path)
        )
        assert dict(second.store) == dict(first.store)
        assert all(record.cached for record in second.records.values())

    def test_invalidate_forces_recompute(self, tmp_path):
        checkpoint = GraphCheckpoint("run1", tmp_path)
        run_graph(diamond_graph(), checkpoint=checkpoint)
        checkpoint.invalidate("d")
        result = run_graph(diamond_graph(), checkpoint=checkpoint)
        assert not result.records["d"].cached
        assert result.records["a"].cached


def figure2_graph(log=None):
    """A Figure-2-style guide workflow: sample, block, label, train, apply.

    Deterministic pure-store operators with declared outputs, so the graph
    is fully checkpointable.  ``log`` collects executed node names.
    """
    def step(name, fn):
        def op(store):
            if log is not None:
                log.append(name)
            return fn(store)
        return op

    graph = OperatorGraph("figure2")
    graph.add("sample", step("sample", lambda s: {"sample": list(range(10))}),
              outputs=("sample",))
    graph.add("block", step("block", lambda s: {"candset": [x for x in s["sample"] if x % 2 == 0]}),
              deps=("sample",), outputs=("candset",))
    graph.add("label", step("label", lambda s: {"labels": [x > 4 for x in s["candset"]]}),
              deps=("block",), outputs=("labels",))
    graph.add("train", step("train", lambda s: {"threshold": 4}),
              deps=("label",), outputs=("threshold",))
    graph.add("apply", step("apply", lambda s: {"matches": [x for x in s["candset"] if x > s["threshold"]]}),
              deps=("train",), outputs=("matches",))
    return graph


class TestCrashResume:
    """Fault injection at every node: resume completes only the remainder."""

    @pytest.mark.parametrize("crash_at", ["sample", "block", "label", "train", "apply"])
    def test_resume_from_checkpoint(self, tmp_path, crash_at):
        baseline = run_graph(figure2_graph())

        def crash(name):
            if name == crash_at:
                raise KeyboardInterrupt(f"simulated crash before {name}")

        checkpoint = GraphCheckpoint("prod", tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_graph(figure2_graph(), checkpoint=checkpoint, before_node=crash)

        order = ["sample", "block", "label", "train", "apply"]
        completed_before = set(order[: order.index(crash_at)])
        assert checkpoint.completed_nodes() == completed_before

        # Restart in a "new process": fresh checkpoint handle, fresh graph.
        executed = []
        result = run_graph(
            figure2_graph(log=executed),
            checkpoint=GraphCheckpoint("prod", tmp_path),
        )
        # Only nodes after the last checkpoint re-execute ...
        assert executed == order[order.index(crash_at):]
        # ... and the final artifacts equal the uninterrupted run's.
        assert dict(result.store) == dict(baseline.store)

    def test_crash_leaves_valid_manifest(self, tmp_path):
        checkpoint = GraphCheckpoint("prod", tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_graph(
                figure2_graph(),
                checkpoint=checkpoint,
                before_node=lambda n: (_ for _ in ()).throw(KeyboardInterrupt())
                if n == "train" else None,
            )
        manifest = json.loads(
            (tmp_path / "prod" / "manifest.json").read_text(encoding="utf-8")
        )
        assert set(manifest["nodes"]) == {"sample", "block", "label"}


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

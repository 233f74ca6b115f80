"""Tests for workflow capture, production execution, and the guide."""

import json
import logging
import multiprocessing
import os

import pytest

from repro.catalog import get_catalog
from repro.exceptions import ConfigurationError, WorkflowError
from repro.obs import get_registry, use_registry, use_tracer
from repro.perf.parallel import MIN_FORK_ITEMS
from repro.pipeline import (
    DEVELOPMENT_GUIDE,
    PRODUCTION_GUIDE,
    CheckpointedRun,
    MagellanWorkflow,
    command_counts,
    package_inventory,
    parallel_map_partitions,
    partition_table,
    resolve_command,
)
from repro.runtime import GraphCheckpoint, NodeRecord, fingerprint
from repro.table import Table


def numbers_table(n=20):
    return Table({"id": list(range(n)), "v": [i * 2 for i in range(n)]})


def double_v(part: Table) -> Table:
    """Module-level so it is picklable for the process pool."""
    return Table({"id": part.column("id"), "v": [x * 2 for x in part.column("v")]})


class TestWorkflowCapture:
    def test_runs_steps_in_order(self):
        workflow = MagellanWorkflow("w")
        workflow.add_step("one", lambda art: art.setdefault("trace", []).append(1))
        workflow.add_step("two", lambda art: art["trace"].append(2), "append 2")
        artifacts = workflow.run()
        assert artifacts["trace"] == [1, 2]
        assert workflow.graph.nodes["two"].description == "append 2"
        assert workflow.graph.nodes["two"].deps == ("one",)
        assert all(record.ok for record in workflow.records)
        assert workflow.total_seconds() >= 0

    def test_duplicate_step_rejected(self):
        workflow = MagellanWorkflow("w").add_step("a", lambda art: None)
        with pytest.raises(WorkflowError):
            workflow.add_step("a", lambda art: None)

    def test_failure_recorded_and_raised(self, caplog):
        workflow = MagellanWorkflow("w")
        workflow.add_step("boom", lambda art: 1 / 0)
        with caplog.at_level(logging.ERROR, logger="repro.runtime"):
            with pytest.raises(ZeroDivisionError):
                workflow.run()
        assert workflow.records[-1].ok is False
        assert "ZeroDivisionError" in workflow.records[-1].error
        assert [r.getMessage().split(" after ")[0] for r in caplog.records] == [
            "graph w: node boom failed"
        ]

    def test_records_are_the_runtime_node_records(self):
        workflow = MagellanWorkflow("w").add_step("a", lambda art: 2.5)
        with use_tracer() as tracer:
            workflow.run()
        (record,) = workflow.records
        assert isinstance(record, NodeRecord)
        assert (record.name, record.sim_seconds, record.error) == ("a", 2.5, None)
        (span,) = [span for span in tracer.spans if "node" in span.labels]
        assert span.name == "w/a" and span.seconds >= record.seconds

    def test_a_failed_run_keeps_the_records_of_the_steps_that_ran(self):
        workflow = MagellanWorkflow("w")
        workflow.add_step("one", lambda art: art.__setitem__("one", True))
        workflow.add_step("boom", lambda art: 1 / 0)
        workflow.add_step("after", lambda art: art.__setitem__("ran", True))
        with pytest.raises(ZeroDivisionError):
            workflow.run()
        assert [(r.name, r.ok) for r in workflow.records] == [("one", True), ("boom", False)]
        assert all(isinstance(r, NodeRecord) for r in workflow.records)
        assert "ran" not in workflow.artifacts

    def test_records_come_from_this_run_on_a_shared_stream(self):
        first = MagellanWorkflow("first").add_step("a", lambda art: None)
        second = MagellanWorkflow("second").add_step("b", lambda art: None)
        with use_tracer() as tracer:
            first.run()
            second.run()
            second.run()
        assert [r.name for r in second.records] == ["b"]
        assert [s.labels["node"] for s in tracer.spans if "node" in s.labels] == ["a", "b", "b"]


class TestPartitioning:
    def test_partition_covers_all_rows(self):
        parts = partition_table(numbers_table(23), 4)
        assert sum(part.num_rows for part in parts) == 23
        recombined = [v for part in parts for v in part.column("id")]
        assert recombined == list(range(23))

    def test_partition_more_than_rows(self):
        parts = partition_table(numbers_table(3), 10)
        assert sum(part.num_rows for part in parts) == 3

    def test_partition_validation(self):
        with pytest.raises(ConfigurationError):
            partition_table(numbers_table(), 0)

    def test_serial_map(self):
        result = parallel_map_partitions(numbers_table(10), double_v, n_workers=1)
        assert result.column("v") == [i * 4 for i in range(10)]

    def test_parallel_map_matches_serial(self):
        table = numbers_table(2 * MIN_FORK_ITEMS)  # past the gate: the map forks

        def double_v_and_pid(part: Table) -> Table:
            result = double_v(part)
            result.add_column("pid", [os.getpid()] * part.num_rows)
            return result

        serial = parallel_map_partitions(table, double_v_and_pid, n_workers=1)
        parallel = parallel_map_partitions(table, double_v_and_pid, n_workers=3)
        assert serial.project(["id", "v"]) == parallel.project(["id", "v"])
        assert set(serial.column("pid")) == {os.getpid()}
        assert set(parallel.column("pid")) - {os.getpid()}

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    @pytest.mark.parametrize("inner_map", ["parallel_map_partitions", "CheckpointedRun"])
    def test_fan_out_nests_in_a_partition_map(self, inner_map, tmp_path):
        """A fan-out inside a forked partition (a daemonic pool worker,
        which may not fork) runs inline instead of crashing."""
        inner = numbers_table(MIN_FORK_ITEMS)

        def outer(part: Table) -> Table:
            if inner_map == "parallel_map_partitions":
                mapped = parallel_map_partitions(inner, double_v, n_workers=2)
            else:
                run = CheckpointedRun(f"inner_{part.column('id')[0]}", tmp_path)
                mapped = run.execute(inner, double_v, n_partitions=4, n_jobs=2)
            return Table({"id": part.column("id"), "pid": [os.getpid()] * part.num_rows,
                          "inner": [sum(mapped.column("v"))] * part.num_rows})

        result = parallel_map_partitions(numbers_table(2 * MIN_FORK_ITEMS), outer, n_workers=2)
        assert set(result.column("pid")) - {os.getpid()}
        assert set(result.column("inner")) == {sum(i * 4 for i in range(MIN_FORK_ITEMS))}

    def test_partitions_keep_catalog_metadata(self):
        table = numbers_table(10)
        get_catalog().set_key(table, "id")
        for part in partition_table(table, 3):
            assert get_catalog().get_key(part) == "id"
        assert not get_catalog().has_metadata(partition_table(numbers_table(10), 3)[0])

    def test_workers_validation(self):
        with pytest.raises(ConfigurationError):
            parallel_map_partitions(numbers_table(), double_v, n_workers=0)


class TestCheckpointing:
    def test_full_run_writes_checkpoints(self, tmp_path):
        run = CheckpointedRun("job1", tmp_path)
        result = run.execute(numbers_table(12), double_v, n_partitions=3)
        assert result.column("v") == [i * 4 for i in range(12)]
        assert run.completed_partitions() == {0, 1, 2}
        manifest = json.loads((tmp_path / "job1" / "manifest.json").read_text(encoding="utf-8"))
        assert set(manifest["nodes"]) == {"part_0", "part_1", "part_2"}

    def test_crash_recovery_skips_done_partitions(self, tmp_path):
        calls = []

        def fn(part: Table) -> Table:
            calls.append(part.column("id")[0])
            if len(calls) == 3 and not getattr(fn, "healed", False):
                raise RuntimeError("simulated crash")
            return double_v(part)

        run = CheckpointedRun("job2", tmp_path)
        with pytest.raises(RuntimeError):
            run.execute(numbers_table(16), fn, n_partitions=4)
        assert run.completed_partitions() == {0, 1}

        # "Restart the process": resume; partitions 0-1 come from disk.
        fn.healed = True
        calls.clear()
        result = run.execute(numbers_table(16), fn, n_partitions=4)
        assert result.column("v") == [i * 4 for i in range(16)]
        assert calls == [8, 12]  # only partitions 2 and 3 recomputed

    def test_resume_with_different_partitioning_rejected(self, tmp_path):
        run = CheckpointedRun("job3", tmp_path)
        run.execute(numbers_table(8), double_v, n_partitions=2)
        with pytest.raises(WorkflowError):
            run.execute(numbers_table(8), double_v, n_partitions=4)

    def test_resumed_output_equals_fresh_output(self, tmp_path):
        """Checkpoints keep every value as it was: no string turns into a
        number or a None, no bool into a string."""
        table = Table({"id": list(range(6)), "v": ["42", "", "007", True, False, None]})

        def crash_on_last(part: Table) -> Table:
            if part.column("id")[0] == 4:
                raise RuntimeError("simulated crash")
            return part.copy()

        fresh = CheckpointedRun("fresh", tmp_path).execute(table, Table.copy, n_partitions=3)
        run = CheckpointedRun("resumed", tmp_path)
        with pytest.raises(RuntimeError):
            run.execute(table, crash_on_last, n_partitions=3)
        assert run.completed_partitions() == {0, 1}
        resumed = run.execute(table, Table.copy, n_partitions=3)
        assert resumed == fresh == table
        assert list(map(type, resumed.column("v"))) == list(map(type, table.column("v")))

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_crash_in_a_forked_partition_keeps_the_rest_of_its_wave(self, tmp_path):
        def fn(part: Table) -> Table:
            if part.column("id")[0] == 8 and not getattr(fn, "healed", False):
                raise RuntimeError("simulated crash")
            return double_v(part)

        run = CheckpointedRun("job4", tmp_path)
        with pytest.raises(WorkflowError, match="forked worker"):
            run.execute(numbers_table(16), fn, n_partitions=4, n_jobs=2)
        assert run.completed_partitions() == {0, 1, 3}
        fn.healed = True
        result = run.execute(numbers_table(16), fn, n_partitions=4, n_jobs=2)
        assert result.column("v") == [i * 4 for i in range(16)]

    def test_directory_in_the_csv_layout_is_rejected(self, tmp_path):
        """A run directory written before checkpoints were runtime nodes
        (a manifest listing ``completed`` partitions beside CSV parts)."""
        old = tmp_path / "job5"
        old.mkdir()
        (old / "manifest.json").write_text(
            json.dumps({"run_id": "job5", "n_partitions": 2, "completed": [0]}),
            encoding="utf-8",
        )
        (old / "part_0.csv").write_text("id,v\n0,0\n", encoding="utf-8")
        run = CheckpointedRun("job5", tmp_path)
        with pytest.raises(WorkflowError, match="not a graph checkpoint manifest"):
            run.execute(numbers_table(8), double_v, n_partitions=2)
        with pytest.raises(WorkflowError, match="not a graph checkpoint manifest"):
            run.completed_partitions()

    def test_a_run_directory_of_partition_graph_nodes_resumes(self, tmp_path):
        """A run directory written when each partition was a node of an
        ``OperatorGraph(run_id)`` keyed by the partition count."""
        table, n_partitions = numbers_table(12), 3
        checkpoint = GraphCheckpoint("job7", tmp_path)
        for index, part in enumerate(partition_table(table, n_partitions)):
            name = f"part_{index}"
            # The fingerprint of a dependency-free node ``name`` of that
            # graph, salted with the partition count.
            key = fingerprint("job7", name, f"n_partitions={n_partitions}", ())
            checkpoint.save(name, key, {name: double_v(part)})

        def never(part: Table) -> Table:
            raise AssertionError("a checkpointed partition was recomputed")

        result = CheckpointedRun("job7", tmp_path).execute(
            table, never, n_partitions=n_partitions
        )
        assert result.column("v") == [i * 4 for i in range(12)]

    def test_zero_jobs_is_rejected_before_any_partition_runs(self, tmp_path):
        run = CheckpointedRun("job8", tmp_path)
        with pytest.raises(ConfigurationError):
            run.execute(numbers_table(8), double_v, n_partitions=2, n_jobs=0)
        assert run.completed_partitions() == set()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_forked_partitions_count_and_return_what_serial_ones_do(self, tmp_path):
        def fn(part: Table) -> Table:
            get_registry().counter("partitions_total").inc()
            get_registry().counter("rows_total").inc(part.num_rows)
            result = double_v(part)
            result.add_column("pid", [os.getpid()] * part.num_rows)
            return result

        def run(run_id: str, n_jobs: int):
            with use_registry() as registry:
                result = CheckpointedRun(run_id, tmp_path).execute(
                    numbers_table(16), fn, n_partitions=4, n_jobs=n_jobs
                )
                return result, registry.counters()

        serial, serial_counters = run("serial", 1)
        forked, forked_counters = run("forked", 2)
        assert serial.project(["id", "v"]) == forked.project(["id", "v"])
        assert serial_counters == forked_counters
        assert serial_counters[("partitions_total", ())] == 4
        assert serial_counters[("rows_total", ())] == 16
        assert set(serial.column("pid")) == {os.getpid()}
        assert set(forked.column("pid")) - {os.getpid()}


class TestGuide:
    def test_every_command_resolves(self):
        for guide in (DEVELOPMENT_GUIDE, PRODUCTION_GUIDE):
            for step in guide:
                for command in step.commands:
                    assert resolve_command(command) is not None

    def test_guide_covers_table3_steps(self):
        names = [step.name for step in DEVELOPMENT_GUIDE]
        for expected in (
            "read_write_data", "down_sample", "data_exploration", "blocking",
            "sampling", "labeling", "feature_vectors", "matching",
            "computing_accuracy", "adding_rules", "managing_metadata",
        ):
            assert expected in names

    def test_command_counts_positive(self):
        counts = command_counts()
        assert all(count > 0 for count in counts.values())
        assert counts["blocking"] >= 15  # the richest step, as in the paper

    def test_package_inventory(self):
        inventory = package_inventory()
        assert "repro.blocking" in inventory
        assert sum(inventory.values()) >= 60

    def test_steps_have_instructions(self):
        for step in DEVELOPMENT_GUIDE + PRODUCTION_GUIDE:
            assert step.instruction

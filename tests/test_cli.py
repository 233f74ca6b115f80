"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.datasets import DirtinessConfig, make_em_dataset
from repro.datasets.entities import restaurant
from repro.labeling.console import ConsoleLabeler
from repro.table import Table, read_csv, write_csv


@pytest.fixture
def csv_pair(tmp_path):
    dataset = make_em_dataset(
        restaurant, 120, 120, match_fraction=0.5,
        dirtiness=DirtinessConfig.light(), seed=77,
    )
    l_path = tmp_path / "A.csv"
    r_path = tmp_path / "B.csv"
    gold_path = tmp_path / "gold.csv"
    write_csv(dataset.ltable, l_path)
    write_csv(dataset.rtable, r_path)
    write_csv(
        Table.from_rows([{"l_id": a, "r_id": b} for a, b in sorted(dataset.gold_pairs)]),
        gold_path,
    )
    return dataset, str(l_path), str(r_path), str(gold_path), tmp_path


class TestProfile:
    def test_profile_runs(self, csv_pair, capsys):
        _, l_path, _, _, _ = csv_pair
        assert main(["profile", l_path]) == 0
        out = capsys.readouterr().out
        assert "120 rows" in out
        assert "name" in out


class TestMatch:
    def test_match_with_gold(self, csv_pair, capsys):
        dataset, l_path, r_path, gold_path, tmp = csv_pair
        output = str(tmp / "matches.csv")
        code = main([
            "match", l_path, r_path, "--gold", gold_path,
            "--budget", "300", "--output", output,
        ])
        assert code == 0
        matches = read_csv(output)
        predicted = set(zip(matches["ltable_id"], matches["rtable_id"]))
        tp = len(predicted & dataset.gold_pairs)
        assert tp / max(len(predicted), 1) > 0.8

    def test_match_interactive_console(self, csv_pair, monkeypatch, tmp_path):
        """Drive the console labeler with scripted answers."""
        dataset, l_path, r_path, _, tmp = csv_pair
        gold = dataset.gold_pairs
        answers = []

        def fake_input(prompt):
            return answers.pop(0)

        # Prepare a tiny interactive dedupe-style run via ConsoleLabeler directly
        labeler = ConsoleLabeler(
            dataset.ltable, dataset.rtable,
            input_fn=fake_input, print_fn=lambda s: None,
        )
        pair = sorted(gold)[0]
        answers.extend(["bogus", "y"])
        assert labeler.label(pair) == 1
        answers.append("n")
        assert labeler.label(pair) == 0
        assert labeler.questions_asked == 2


class TestFalconCli:
    def test_falcon_with_gold(self, csv_pair, capsys):
        dataset, l_path, r_path, gold_path, tmp = csv_pair
        output = str(tmp / "falcon.csv")
        code = main([
            "falcon", l_path, r_path, "--gold", gold_path,
            "--budget", "300", "--output", output,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "questions asked" in out
        assert "precision=" in out
        matches = read_csv(output)
        assert matches.num_rows > 0

    def test_falcon_metrics_snapshot(self, csv_pair, capsys):
        from repro.obs import parse_prometheus_text, read_metrics_jsonl, use_registry

        dataset, l_path, r_path, gold_path, tmp = csv_pair
        metrics_path = tmp / "metrics.jsonl"
        with use_registry():
            code = main([
                "falcon", l_path, r_path, "--gold", gold_path,
                "--budget", "300", "--output", str(tmp / "falcon.csv"),
                "--metrics", str(metrics_path),
            ])
        assert code == 0
        names = {row["name"] for row in read_metrics_jsonl(metrics_path)}
        # Instrumentation from every layer lands in one snapshot.  (The
        # rules here join on exact matches only, so no set_sim_join runs.)
        assert "blocking_rule_joins_total" in names
        assert "blocking_pairs_total" in names
        assert "falcon_questions_total" in names
        assert "feature_cache_hits_total" in names
        assert "runtime_node_seconds" in names
        prom = parse_prometheus_text(
            metrics_path.with_suffix(".jsonl.prom").read_text(encoding="utf-8")
        )
        assert prom["types"]["falcon_questions_total"] == "counter"
        assert prom["types"]["runtime_node_seconds"] == "histogram"

    def test_falcon_events_and_metrics_written_on_failure(
        self, csv_pair, monkeypatch, capsys
    ):
        # Telemetry is the diagnostic artifact: a crashed run must still
        # flush its event log and metrics snapshot.
        from repro.obs import use_registry

        _, l_path, r_path, gold_path, tmp = csv_pair
        events_path = tmp / "events.jsonl"
        metrics_path = tmp / "metrics.jsonl"

        def explode(*args, **kwargs):
            raise RuntimeError("mid-run crash")

        monkeypatch.setattr("repro.falcon.run_falcon", explode)
        with use_registry():
            with pytest.raises(RuntimeError, match="mid-run crash"):
                main([
                    "falcon", l_path, r_path, "--gold", gold_path,
                    "--events", str(events_path), "--metrics", str(metrics_path),
                ])
        assert events_path.exists()
        assert metrics_path.exists()
        assert metrics_path.with_suffix(".jsonl.prom").exists()


class TestDedupeCli:
    def test_dedupe_with_gold(self, tmp_path, capsys):
        rows = [
            {"id": f"r{i}", "name": f"Unique Restaurant Number{i}", "city": "Madison"}
            for i in range(30)
        ]
        rows.append({"id": "dup", "name": "Unique Restaurant Number0", "city": "Madison"})
        table = Table.from_rows(rows)
        table_path = tmp_path / "T.csv"
        write_csv(table, table_path)
        gold_path = tmp_path / "gold.csv"
        write_csv(Table.from_rows([{"l": "dup", "r": "r0"}]), gold_path)
        output = str(tmp_path / "deduped.csv")
        code = main([
            "dedupe", str(table_path), "--column", "name", "--overlap", "3",
            "--gold", str(gold_path), "--output", output,
        ])
        assert code == 0
        deduped = read_csv(output)
        assert deduped.num_rows == 30


class TestSchemaMatchCli:
    def test_schema_match(self, tmp_path, capsys):
        ltable = Table({"id": [1, 2], "full_name": ["Dave Smith", "Ann Lee"],
                        "home_city": ["Madison", "Austin"]})
        rtable = Table({"id": [9, 8], "name": ["Dave Smith", "Ann Lee"],
                        "city": ["Madison", "Austin"]})
        l_path, r_path = tmp_path / "A.csv", tmp_path / "B.csv"
        write_csv(ltable, l_path)
        write_csv(rtable, r_path)
        code = main(["schema-match", str(l_path), str(r_path), "--threshold", "0.4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "full_name" in out and "name" in out

    def test_schema_match_nothing_found(self, tmp_path):
        ltable = Table({"id": [1], "alpha": [123]})
        rtable = Table({"id": [9], "zzz": ["totally different text"]})
        l_path, r_path = tmp_path / "A.csv", tmp_path / "B.csv"
        write_csv(ltable, l_path)
        write_csv(rtable, r_path)
        assert main(["schema-match", str(l_path), str(r_path)]) == 1


class TestServe:
    def test_serve_answers_query_file(self, tmp_path, capsys):
        import json

        corpus = Table(
            {
                "id": ["b1", "b2", "b3"],
                "name": ["dave smith", "dave smith jr", "ann chen"],
            }
        )
        corpus_path = tmp_path / "corpus.csv"
        write_csv(corpus, corpus_path)
        queries_path = tmp_path / "queries.txt"
        queries_path.write_text("dave smith\nalice\tann chen\n", encoding="utf-8")
        metrics_path = tmp_path / "serve-metrics.jsonl"
        code = main([
            "serve", str(corpus_path), "--column", "name",
            "--threshold", "0.4", "--queries", str(queries_path),
            "--metrics", str(metrics_path),
        ])
        assert code == 0
        out_lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        answers = [json.loads(line) for line in out_lines]
        assert len(answers) == 2
        first = answers[0]
        assert first["query"] == "dave smith"
        assert [c[0] for c in first["candidates"]][0] == "b1"
        assert answers[1]["tenant"] == "alice"
        assert [c[0] for c in answers[1]["candidates"]] == ["b3"]
        assert metrics_path.exists()
        names = {
            json.loads(line)["name"]
            for line in metrics_path.read_text().splitlines()
        }
        assert "serve_requests_total" in names
        assert "serve_request_seconds" in names

    @pytest.mark.parametrize("flag,value", [("--max-batch", "0"), ("--top-k", "-1")])
    def test_bad_scheduler_value_exits_before_serving(self, tmp_path, capsys, flag, value):
        from repro.exceptions import ConfigurationError

        corpus_path = tmp_path / "corpus.csv"
        write_csv(Table({"id": ["b1"], "name": ["dave smith"]}), corpus_path)
        queries_path = tmp_path / "queries.txt"
        queries_path.write_text("dave smith\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match=flag[2:].replace("-", "_")):
            main([
                "serve", str(corpus_path), "--column", "name",
                "--queries", str(queries_path), flag, value,
            ])
        assert not [line for line in capsys.readouterr().out.splitlines() if line.startswith("{")]


class TestIndexCli:
    @pytest.fixture
    def live_cache(self, tmp_path):
        from repro.index import IndexStore, LiveIndex

        corpus = Table(
            {
                "id": ["b1", "b2", "b3"],
                "name": ["dave smith", "dave smith jr", "ann chen"],
            }
        )
        cache_dir = tmp_path / "cache"
        store = IndexStore(cache_dir=cache_dir)
        live = LiveIndex.from_table(
            corpus, "id", "name", threshold=0.4, store=store, name="corpus-name"
        )
        live.upsert("b4", "dave m smith")
        live.delete("b3")
        live.save()
        return cache_dir

    def test_inspect_reports_delta_state(self, live_cache, capsys):
        assert main(["index", "inspect", "--cache-dir", str(live_cache)]) == 0
        out = capsys.readouterr().out
        assert "live index" in out
        assert "corpus-name" in out
        assert "tombstones" in out
        # Fingerprinted base artifacts are listed too.
        assert "records" in out and "encoding" in out

    def test_compact_folds_and_resaves(self, live_cache, capsys):
        from repro.index import list_live_indexes

        assert main(["index", "compact", "--cache-dir", str(live_cache)]) == 0
        out = capsys.readouterr().out
        assert "compacted 'corpus-name'" in out
        [manifest] = list_live_indexes(live_cache)
        assert manifest["delta_rows"] == 0
        assert manifest["tombstones"] == 0
        assert manifest["compactions"] == 1
        assert manifest["live_rows"] == 3

    def test_compact_without_live_indexes_errors(self, tmp_path, capsys):
        assert main(["index", "compact", "--cache-dir", str(tmp_path)]) == 1
        assert "no live indexes" in capsys.readouterr().out

    def test_build_warms_the_edit_distance_join(self, tmp_path, capsys):
        from repro.index import IndexStore, use_index_store
        from repro.obs import use_registry
        from repro.simjoin import edit_distance_join

        path = tmp_path / "A.csv"
        write_csv(Table({"id": [1, 2, 3], "name": ["kitten", "sitting", "mitten"]}), path)
        cache = str(tmp_path / "cache")
        assert main(["index", "build", str(path), "--column", "name", "--q", "2",
                     "--cache-dir", cache]) == 0
        table = read_csv(path)
        with use_registry() as registry, use_index_store(IndexStore(cache_dir=cache)):
            joined = edit_distance_join(table, table, "id", "id", "name", "name", threshold=3)
            counters = registry.counters()
        tiers = {dict(labels)["tier"] for (name, labels), _ in counters.items()
                 if name == "index_reuses_total" and dict(labels)["kind"] == "tokens"}
        assert tiers == {"disk", "memory"}  # one side from disk, the other from memory
        assert not any(name == "index_builds_total" and dict(labels)["kind"] == "tokens"
                       for name, labels in counters)
        assert joined.column("score") == [0, 3, 1, 3, 0, 3, 1, 3, 0]

    def test_retired_artifact_kinds_are_listed_swept_and_never_read(
        self, tmp_path, capsys, monkeypatch
    ):
        import pickle
        from pathlib import Path

        import repro.index.store as store_module
        from repro.index import IndexStore, LiveIndex, use_index_store
        from repro.simjoin import edit_distance_join

        cache = tmp_path / "cache"
        cache.mkdir()
        for name in ("grambags-0123abcd.pkl", "gramindex-4567ef01.pkl", "prefix-89abcdef.pkl"):
            (cache / name).write_bytes(pickle.dumps({"q-gram dict": name}))
        read = []
        load = pickle.load
        monkeypatch.setattr(
            store_module.pickle, "load",
            lambda handle: read.append(Path(handle.name).name) or load(handle),
        )
        path = tmp_path / "A.csv"
        write_csv(Table({"id": [1, 2], "name": ["kitten", "sitting"]}), path)
        assert main(["index", "build", str(path), "--cache-dir", str(cache)]) == 0
        table = read_csv(path)
        for _ in range(2):  # cold, then disk-warm
            with use_index_store(IndexStore(cache_dir=cache)):
                edit_distance_join(table, table, "id", "id", "name", "name", threshold=3)
        # A live index over the same column is the one that used to read
        # ``prefix`` pickles.
        with use_index_store(IndexStore(cache_dir=cache)) as store:
            LiveIndex.from_table(table, "id", "name", store=store)
        assert read and not [name for name in read if name.startswith(("gram", "prefix"))]
        capsys.readouterr()
        assert main(["index", "inspect", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "grambags" in out and "gramindex" in out and "prefix" in out
        IndexStore(cache_dir=cache).clear(disk=True)
        assert list(cache.glob("*.pkl")) == []

    def test_compacted_index_still_answers(self, live_cache):
        from repro.index import IndexStore, LiveIndex

        main(["index", "compact", "--cache-dir", str(live_cache)])
        loaded = LiveIndex.load(
            "corpus-name", store=IndexStore(cache_dir=live_cache)
        )
        matches, _ = loaded.search("dave smith")
        assert [key for key, _ in matches] == ["b1", "b2", "b4"]
        assert "b3" not in loaded


class TestPlannerRemoved:
    """The cost-based planner is gone: every front end runs the graph it
    compiled through ``run_graph``, and there is nothing left to switch."""

    def test_package_and_its_knobs_are_gone(self):
        import importlib
        import inspect
        from dataclasses import fields

        from repro.cloud.engines import ExecutionEngine, MetaManager
        from repro.falcon import run_falcon
        from repro.pipeline import MagellanWorkflow
        from repro.runtime import Operator

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.plan")
        for front_end in (MagellanWorkflow.run, run_falcon, ExecutionEngine, MetaManager):
            assert "optimize" not in inspect.signature(front_end).parameters
        assert "commutes" not in {f.name for f in fields(Operator)}
        assert "commutes" not in inspect.signature(MagellanWorkflow.add_step).parameters

    def test_plan_verb_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["plan", "explain", "A.csv", "B.csv", "--key", "id"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'plan'" in capsys.readouterr().err

    def test_workflow_runs_leave_no_stats_file(self, csv_pair, monkeypatch, capsys):
        from repro.index import use_index_store

        _, l_path, r_path, gold_path, tmp = csv_pair
        env_stats = tmp / "env-plan-stats.json"
        monkeypatch.setenv("REPRO_PLAN_STATS", str(env_stats))
        cache = tmp / "cache"
        with use_index_store():  # main() swaps the process store; restore it
            for verb in ("match", "falcon"):
                assert main([
                    verb, l_path, r_path, "--gold", gold_path, "--budget", "300",
                    "--output", str(tmp / f"{verb}.csv"), "--index-cache", str(cache),
                ]) == 0
        assert any(cache.iterdir())  # the cache was used ...
        assert not list(cache.rglob("plan-stats.json"))  # ... but not for this
        assert not env_stats.exists()

"""Tests for repro.obs: metrics registry, exporters, tracing, and the
``runtime_*`` series and spans a graph run writes.

Includes the property test that Prometheus text output round-trips
counter and histogram values through the parser.  Counters that forked
partitions increment reaching the parent is checked on the one caller
that forks, in ``tests/test_pipeline.py``.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
    parse_prometheus_text,
    per_registry,
    read_metrics_jsonl,
    to_prometheus_text,
    trace_span,
    use_registry,
    use_tracer,
    write_metrics_jsonl,
    write_prometheus_text,
)
from repro.runtime import OperatorGraph, run_graph


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("requests_total").inc()
        registry.counter("requests_total").inc(4)
        assert registry.counter("requests_total").value == 5

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("n").inc(-1)

    def test_labels_partition_series(self):
        registry = MetricsRegistry()
        registry.counter("calls_total", join="set_sim").inc()
        registry.counter("calls_total", join="edit_distance").inc(2)
        assert registry.counter("calls_total", join="set_sim").value == 1
        assert registry.counter("calls_total", join="edit_distance").value == 2
        assert len(registry) == 2

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.counter("c", a="1", b="2").inc()
        assert registry.counter("c", b="2", a="1").value == 1

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5.0)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value == 6.0

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError, match="registered as"):
            registry.gauge("x")

    def test_histogram_buckets_and_sum(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 100.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(101.05)
        cumulative = dict(histogram.cumulative())
        assert cumulative[0.1] == 1
        assert cumulative[1.0] == 3
        assert cumulative[math.inf] == 4

    def test_quantile_empty_histogram_is_zero(self):
        histogram = MetricsRegistry().histogram("h", buckets=(0.1, 1.0))
        assert histogram.quantile(0.5) == 0.0
        assert histogram.quantile(1.0) == 0.0

    def test_quantile_rejects_out_of_range_q(self):
        histogram = MetricsRegistry().histogram("h", buckets=(0.1, 1.0))
        histogram.observe(0.5)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError, match="quantile"):
                histogram.quantile(bad)

    def test_quantile_single_observation(self):
        # One observation in the (0.1, 1.0] bucket: every quantile
        # interpolates within that bucket toward its upper boundary.
        histogram = MetricsRegistry().histogram("h", buckets=(0.1, 1.0))
        histogram.observe(0.5)
        assert histogram.quantile(1.0) == pytest.approx(1.0)
        assert histogram.quantile(0.5) == pytest.approx(0.55)

    def test_quantile_first_bucket_interpolates_from_zero(self):
        histogram = MetricsRegistry().histogram("h", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        assert histogram.quantile(0.5) == pytest.approx(0.05)
        assert histogram.quantile(1.0) == pytest.approx(0.1)

    def test_quantile_overflow_bucket_clamps_to_last_boundary(self):
        histogram = MetricsRegistry().histogram("h", buckets=(0.1, 1.0))
        for _ in range(5):
            histogram.observe(50.0)  # all mass above the last boundary
        assert histogram.quantile(0.01) == 1.0
        assert histogram.quantile(1.0) == 1.0

    def test_quantile_q1_reaches_highest_occupied_bucket(self):
        histogram = MetricsRegistry().histogram("h", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.quantile(1.0) == pytest.approx(10.0)
        assert histogram.quantile(1 / 3) == pytest.approx(0.1)

    def test_timer_observes_into_histogram(self):
        registry = MetricsRegistry()
        with registry.timer("t"):
            pass
        assert registry.histogram("t").count == 1

    def test_use_registry_swaps_default(self):
        outer = get_registry()
        with use_registry() as inner:
            assert get_registry() is inner
            inner.counter("scoped").inc()
        assert get_registry() is outer
        assert outer.get("scoped") is None

    def test_per_registry_resolves_once_per_default_registry(self):
        resolved = []

        def resolve(registry):
            resolved.append(registry)
            return registry.counter("bound_total")

        bound = per_registry(resolve)
        with use_registry() as first:
            bound().inc()
            bound().inc()
            with use_registry() as second:
                bound().inc()
            bound().inc()
        assert resolved == [first, second, first]
        assert first.counter("bound_total").value == 3
        assert second.counter("bound_total").value == 1

    def test_snapshot_and_counters(self):
        registry = MetricsRegistry()
        registry.counter("a", k="v").inc(3)
        registry.gauge("g").set(1.5)
        snapshot = registry.snapshot()
        assert {entry["name"] for entry in snapshot} == {"a", "g"}
        assert registry.counters() == {("a", (("k", "v"),)): 3.0}


class TestExporters:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("probes_total", join="set_sim").inc(17)
        registry.gauge("survival_ratio", join="set_sim").set(0.25)
        histogram = registry.histogram("seconds", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        return registry

    def test_jsonl_roundtrip(self, tmp_path):
        registry = self._populated()
        path = write_metrics_jsonl(registry, tmp_path / "metrics.jsonl")
        rows = read_metrics_jsonl(path)
        assert {row["name"] for row in rows} == {
            "probes_total", "survival_ratio", "seconds",
        }
        by_name = {row["name"]: row for row in rows}
        assert by_name["probes_total"]["value"] == 17
        assert by_name["seconds"]["count"] == 4
        # Every line is independently parseable JSON.
        lines = path.read_text(encoding="utf-8").splitlines()
        assert all(json.loads(line) for line in lines)

    def test_prometheus_text_shape(self, tmp_path):
        registry = self._populated()
        text = to_prometheus_text(registry)
        assert "# TYPE probes_total counter" in text
        assert 'probes_total{join="set_sim"} 17.0' in text
        assert 'seconds_bucket{le="+Inf"} 4' in text
        assert "seconds_count 4" in text
        path = write_prometheus_text(registry, tmp_path / "metrics.prom")
        assert path.read_text(encoding="utf-8") == text

    def test_prometheus_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c", attr='we"ird\\nam\ne').inc()
        text = to_prometheus_text(registry)
        parsed = parse_prometheus_text(text)
        ((_, labels),) = list(parsed["samples"])
        assert dict(labels) == {"attr": 'we"ird\\nam\ne'}

    @settings(max_examples=25, deadline=None)
    @given(
        counts=st.dictionaries(
            st.text(
                alphabet="abcdefghij_", min_size=1, max_size=8
            ).filter(lambda s: not s.startswith("_")),
            st.integers(min_value=0, max_value=10**9),
            min_size=1,
            max_size=5,
        ),
        observations=st.lists(
            st.floats(
                min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
            ),
            max_size=20,
        ),
    )
    def test_prometheus_roundtrip_property(self, counts, observations):
        registry = MetricsRegistry()
        for label_value, count in counts.items():
            registry.counter("ops_total", kind=label_value).inc(count)
        histogram = registry.histogram("latency_seconds")
        for value in observations:
            histogram.observe(value)
        parsed = parse_prometheus_text(to_prometheus_text(registry))
        assert parsed["types"]["ops_total"] == "counter"
        for label_value, count in counts.items():
            key = ("ops_total", (("kind", label_value),))
            assert parsed["samples"][key] == pytest.approx(float(count))
        assert parsed["samples"][("latency_seconds_count", ())] == len(observations)
        assert parsed["samples"][("latency_seconds_sum", ())] == pytest.approx(
            math.fsum(observations), rel=1e-9, abs=1e-9
        )
        # Cumulative bucket counts reconstruct exactly.
        for boundary in DEFAULT_BUCKETS:
            key = ("latency_seconds_bucket", (("le", repr(float(boundary))),))
            expected = sum(1 for value in observations if value <= boundary)
            assert parsed["samples"][key] == expected


def instrumented_graph():
    """A diamond whose operators increment counters through the registry."""
    graph = OperatorGraph("obs-diamond")

    def work(name, updates):
        def op(store):
            get_registry().counter("node_runs_total", node=name).inc()
            get_registry().counter("rows_total").inc(updates["rows"])
            return {name: updates["rows"]}

        return op

    graph.add("a", work("a", {"rows": 2}))
    graph.add("b", work("b", {"rows": 10}), deps=("a",))
    graph.add("c", work("c", {"rows": 20}), deps=("a",))
    graph.add("d", work("d", {"rows": 1}), deps=("b", "c"))
    return graph


class TestRuntimeSink:
    def test_run_graph_feeds_registry_automatically(self):
        with use_registry() as registry:
            run_graph(instrumented_graph())
            key = ("runtime_runs_total", (("graph", "obs-diamond"),))
            assert registry.counters()[key] == 1.0
            histogram = registry.get("runtime_node_seconds", graph="obs-diamond")
            assert histogram.count == 4

    def test_shared_stream_not_double_counted(self):
        # The metamanager runs many graphs under one tracer and registry;
        # each run counts once.
        with use_registry() as registry, use_tracer():
            run_graph(instrumented_graph())
            run_graph(instrumented_graph())
            key = ("runtime_runs_total", (("graph", "obs-diamond"),))
            assert registry.counters()[key] == 2.0
            assert registry.get("runtime_node_seconds", graph="obs-diamond").count == 8


    def test_every_runtime_series_of_a_failed_run(self):
        """Names, labels and counts of the five ``runtime_*`` series for a
        run whose second node reports simulated seconds and third fails."""
        graph = OperatorGraph("obs-fail")
        graph.add("a", lambda s: None)
        graph.add("human", lambda s: 12.5, deps=("a",))
        graph.add("boom", lambda s: 1 / 0, deps=("human",))
        graph.add("after", lambda s: None, deps=("boom",))
        with use_registry() as registry:
            with pytest.raises(ZeroDivisionError):
                run_graph(graph)
        g = (("graph", "obs-fail"),)
        assert registry.counters() == {
            ("runtime_runs_total", g): 1.0,
            ("runtime_node_events_total", (("event", "node_start"),) + g): 3.0,
            ("runtime_node_events_total", (("event", "node_finish"),) + g): 2.0,
            ("runtime_node_events_total", (("event", "node_fail"),) + g): 1.0,
            ("runtime_sim_seconds_total", g): 12.5,
        }
        assert registry.get("runtime_node_seconds", graph="obs-fail").count == 3
        assert registry.get("runtime_run_seconds", graph="obs-fail").count == 1

class TestTracing:
    def test_nested_spans_record_parentage(self):
        tracer = Tracer()
        with tracer.span("outer", run="1"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans[1], tracer.spans[0]
        assert outer.name == "outer" and outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert outer.labels == {"run": "1"}
        assert outer.seconds >= inner.seconds >= 0.0

    def test_span_records_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        assert "nope" in tracer.spans[0].error

    def test_trace_span_uses_default_tracer(self):
        with use_tracer() as tracer:
            with trace_span("step", stage="blocking"):
                assert get_tracer() is tracer
        assert [span.name for span in tracer.spans] == ["step"]

    def test_default_tracer_keeps_nothing(self):
        default = get_tracer()
        with trace_span("step", stage="blocking") as span:
            span.labels["tier"] = "memory"  # callers may still label it
        run_graph(instrumented_graph())
        assert len(default.spans) == 0
        with use_tracer() as tracer:
            with trace_span("step"):
                pass
        assert [span.name for span in tracer.spans] == ["step"]
        assert len(get_tracer().spans) == 0

    def test_run_graph_spans_mirror_nodes(self):
        with use_tracer() as tracer:
            run_graph(instrumented_graph())
        nodes = [span for span in tracer.spans if "node" in span.labels]
        assert {span.name for span in nodes} == {f"obs-diamond/{n}" for n in "abcd"}
        assert all(span.labels["node"] in "abcd" for span in nodes)
        assert [span.name for span in tracer.spans if span not in nodes] == ["obs-diamond"]

    def test_jsonl_export(self, tmp_path):
        tracer = Tracer()
        with tracer.span("only"):
            pass
        path = tracer.write_jsonl(tmp_path / "spans.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["name"] == "only"


class TestThreadSafety:
    """Regression tests for the serving-driven concurrency contracts."""

    N_THREADS = 8
    N_OPS = 5000

    def _run_threads(self, target) -> None:
        import threading

        threads = [
            threading.Thread(target=target, args=(i,)) for i in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_counter_inc_exact_under_contention(self):
        # value += amount is a read-modify-write; without the instrument
        # lock, interleaved threads silently drop increments.
        registry = MetricsRegistry()
        counter = registry.counter("hits_total")

        def hammer(_: int) -> None:
            for _ in range(self.N_OPS):
                counter.inc()

        self._run_threads(hammer)
        assert counter.value == self.N_THREADS * self.N_OPS

    def test_interning_through_registry_under_contention(self):
        # Hammering through the intern path too: the (name, labels)
        # lookup must always land on the same instrument object.
        registry = MetricsRegistry()

        def hammer(_: int) -> None:
            for _ in range(1000):
                registry.counter("requests_total", tenant="t").inc()

        self._run_threads(hammer)
        assert registry.counter("requests_total", tenant="t").value == self.N_THREADS * 1000
        assert len(registry) == 1

    def test_histogram_observe_exact_under_contention(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("seconds", buckets=(1.0, 2.0))

        def hammer(i: int) -> None:
            for _ in range(1000):
                histogram.observe(0.5)

        self._run_threads(hammer)
        assert histogram.count == self.N_THREADS * 1000
        assert histogram.bucket_counts[0] == self.N_THREADS * 1000

    def test_span_ids_unique_across_threads(self):
        tracer = Tracer()

        def hammer(i: int) -> None:
            for _ in range(500):
                with tracer.span("work", thread=i):
                    pass

        self._run_threads(hammer)
        ids = [span.span_id for span in tracer.spans]
        assert len(ids) == self.N_THREADS * 500
        assert len(set(ids)) == len(ids), "span ids collided across threads"

    def test_span_nesting_is_per_thread(self):
        # Each thread's stack is thread-local: a thread's spans parent
        # onto its own enclosing span, never another thread's.
        import threading

        tracer = Tracer()
        barrier = threading.Barrier(4)

        def nest(i: int) -> None:
            with tracer.span("outer", thread=i):
                barrier.wait()
                with tracer.span("inner", thread=i):
                    pass

        threads = [threading.Thread(target=nest, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        by_id = {span.span_id: span for span in tracer.spans}
        for span in tracer.spans:
            if span.name == "inner":
                parent = by_id[span.parent_id]
                assert parent.labels["thread"] == span.labels["thread"]


class TestHistogramQuantile:
    def test_quantiles_interpolate_within_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("q", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            histogram.observe(value)
        assert histogram.quantile(0.25) == pytest.approx(1.0)
        assert histogram.quantile(1.0) == pytest.approx(4.0)
        assert 1.0 <= histogram.quantile(0.5) <= 2.0

    def test_overflow_clamps_to_last_boundary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("q", buckets=(1.0, 2.0))
        histogram.observe(100.0)
        assert histogram.quantile(0.99) == 2.0

    def test_empty_histogram_is_zero(self):
        registry = MetricsRegistry()
        assert registry.histogram("q").quantile(0.5) == 0.0

    def test_invalid_q_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("q").quantile(0.0)
        with pytest.raises(ConfigurationError):
            registry.histogram("q").quantile(1.5)

"""repro.obs — metrics and tracing for every subsystem.

The paper's production section names "logging ... monitoring" as a
first-class concern for EM workflows serving many users; this package is
that layer, and the one record every subsystem writes to — a runtime
graph run included (:func:`repro.runtime.run_graph` opens its run and
node spans and writes its ``runtime_*`` series here):

* :mod:`~repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms interned in a :class:`MetricsRegistry` (process default via
  :func:`get_registry`, swappable with :func:`use_registry`; hot paths
  bind theirs once per registry with :func:`per_registry`);
* :mod:`~repro.obs.tracing` — nested spans via the :func:`trace_span`
  context manager, kept only by a tracer installed with
  :func:`use_tracer` / :func:`set_tracer` (the process default keeps
  none) and exported with :meth:`Tracer.write_jsonl`;
* :mod:`~repro.obs.exporters` — JSONL snapshots and the Prometheus text
  exposition format (with a parser for round-trip verification).

Instrumented hot paths: simjoin filter/verify funnels, per-blocker pair
counts, feature-extraction cache hits, Falcon iteration/question
counters, cloud engine queue depth and fragment latency, and every
runtime node timing.  The CLI's ``--metrics PATH`` flag and
``benchmarks/_report.py`` snapshot the registry after a run.
"""

from repro.obs.exporters import (
    parse_prometheus_text,
    read_metrics_jsonl,
    to_prometheus_text,
    write_metrics_jsonl,
    write_prometheus_text,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    per_registry,
    set_registry,
    use_registry,
)
from repro.obs.tracing import (
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    trace_span,
    use_tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "get_registry",
    "get_tracer",
    "per_registry",
    "parse_prometheus_text",
    "read_metrics_jsonl",
    "set_registry",
    "set_tracer",
    "to_prometheus_text",
    "trace_span",
    "use_registry",
    "use_tracer",
    "write_metrics_jsonl",
    "write_prometheus_text",
]

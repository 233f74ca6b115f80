"""EventStream sinks that feed the metrics registry.

:func:`repro.runtime.run_graph` runs every node in the calling process
and emits its events there, so subscribing :func:`metrics_sink` to a
run's stream is enough to account runs, node timings and failures — no
operator code changes.  :func:`repro.runtime.run_graph` subscribes one
automatically for the duration of each run.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.runtime import events as ev
from repro.runtime.events import RunEvent


def metrics_sink(registry: MetricsRegistry | None = None) -> Callable[[RunEvent], None]:
    """A sink recording run/node counters and timing histograms.

    Series written (all labeled by ``graph``):

    * ``runtime_runs_total`` / ``runtime_run_seconds``
    * ``runtime_node_events_total`` (additionally labeled by ``event``)
    * ``runtime_node_seconds`` — execution wall time (finish + fail)
    * ``runtime_sim_seconds_total`` — simulated human/crowd seconds
    """

    def sink(event: RunEvent) -> None:
        # The default registry is resolved per event, not captured at
        # subscribe time, so ``use_registry`` blocks see events of runs
        # that subscribed outside them.
        reg = registry if registry is not None else get_registry()
        if event.node is None:
            if event.event == ev.RUN_START:
                reg.counter("runtime_runs_total", graph=event.graph).inc()
            elif event.event == ev.RUN_FINISH:
                reg.histogram("runtime_run_seconds", graph=event.graph).observe(
                    event.wall_seconds
                )
            return
        reg.counter(
            "runtime_node_events_total", graph=event.graph, event=event.event
        ).inc()
        if event.event in (ev.NODE_FINISH, ev.NODE_FAIL):
            reg.histogram("runtime_node_seconds", graph=event.graph).observe(
                event.wall_seconds
            )
            if event.sim_seconds:
                reg.counter("runtime_sim_seconds_total", graph=event.graph).inc(
                    event.sim_seconds
                )

    return sink

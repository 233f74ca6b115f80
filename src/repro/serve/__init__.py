"""repro.serve — the online match-serving layer.

The paper's production agenda ("how to match many tables, for many
users, at scale") as a resident service: a :class:`MatchServer` loads
the :class:`repro.index.IndexStore` artifact chain for a corpus once at
startup and answers ``match(entity) -> ranked candidates`` point
queries for the life of the process.  Every request runs the live
index's one numpy filter-verify routine over the store's ``ArrayIndex``
(:mod:`repro.index.delta`); concurrent requests coalesce through a
micro-batching queue into one call of it for the whole batch, with
per-tenant in-flight quotas, queue-depth backpressure, and p50/p99
latency histograms from :mod:`repro.obs`.

The measurement spine's ``serve_read`` and ``serve_churn`` workloads
(``benchmarks/spine/``) measure it; the ``repro serve`` CLI subcommand
is the stdin/file query loop.
"""

from repro.serve.server import (
    MatchResult,
    MatchServer,
    PendingMatch,
    ServeConfig,
)

__all__ = [
    "MatchResult",
    "MatchServer",
    "PendingMatch",
    "ServeConfig",
]

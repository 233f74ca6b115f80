"""PyMatcher pipelines: workflow capture, production execution, guides."""

from repro.perf.parallel import parallel_map_partitions, partition_table
from repro.pipeline.guide import (
    DEVELOPMENT_GUIDE,
    PRODUCTION_GUIDE,
    Command,
    GuideStep,
    command_counts,
    package_inventory,
    resolve_command,
)
from repro.pipeline.incremental import BatchResult, IncrementalMatcher
from repro.pipeline.production import CheckpointedRun
from repro.pipeline.streaming import StreamingDeduper, StreamMatch, UnionFind
from repro.pipeline.workflow import MagellanWorkflow

__all__ = [
    "BatchResult",
    "CheckpointedRun",
    "IncrementalMatcher",
    "StreamingDeduper",
    "StreamMatch",
    "UnionFind",
    "Command",
    "DEVELOPMENT_GUIDE",
    "GuideStep",
    "MagellanWorkflow",
    "PRODUCTION_GUIDE",
    "command_counts",
    "package_inventory",
    "parallel_map_partitions",
    "partition_table",
    "resolve_command",
]

"""Shared performance kernels for the candidate-generation hot paths.

The paper's efficiency principle (Section 4.1) is that the packages must
"run as fast as the hardware allows".  This package concentrates the
mechanisms every hot path shares:

* :mod:`repro.perf.tokens` — a :class:`TokenUniverse` mapping tokens to
  dense integer ids ranked by global frequency, so token sets become
  sorted int arrays and the prefix filter becomes a slice;
* :mod:`repro.perf.kernels` — the float-rounding guard every filter
  bound ceils with;
* :mod:`repro.perf.parallel` — the production stage's partition map and
  the fork pool under it, which ``CheckpointedRun`` also forks through;
* :mod:`repro.perf.arrays` — the columnar (NumPy/CSR) kernels: the one
  filter-verify routine under every batch join and live-index read, the
  probe-ready ``ArrayIndex`` and the vector bound and score formulas.
"""

from repro.perf.arrays import (
    ArrayIndex,
    ArrayRecords,
    ProbeBatch,
    filter_verify,
    observe_kernel_batch,
)
from repro.perf.parallel import (
    concat_tables,
    effective_n_jobs,
    parallel_map_partitions,
    partition_table,
    run_sharded,
)
from repro.perf.tokens import TokenUniverse

__all__ = [
    "ArrayIndex",
    "ArrayRecords",
    "ProbeBatch",
    "TokenUniverse",
    "concat_tables",
    "effective_n_jobs",
    "filter_verify",
    "observe_kernel_batch",
    "parallel_map_partitions",
    "partition_table",
    "run_sharded",
]

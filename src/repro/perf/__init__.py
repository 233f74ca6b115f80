"""Shared performance kernels for the candidate-generation hot paths.

The paper's efficiency principle (Section 4.1) is that the packages must
"run as fast as the hardware allows".  This package concentrates the two
mechanisms every hot path shares:

* :mod:`repro.perf.tokens` — a :class:`TokenUniverse` mapping tokens to
  dense integer ids ranked by global frequency, so token sets become
  sorted int arrays and the prefix filter becomes a slice;
* :mod:`repro.perf.kernels` — the integer-set overlap kernel (a merge
  scan with ppjoin-style early exit) plus per-measure scorers that
  avoid per-pair validation;
* :mod:`repro.perf.parallel` — one process-pool executor shared by the
  sim joins, the blockers, feature extraction, and the production stage;
* :mod:`repro.perf.arrays` — the columnar (NumPy/CSR) kernels: batched
  filter-verify probes (the body of every batch join), byte-identical
  to the scalar kernels above, plus the one rule for when a small probe
  batch stays scalar.
"""

from repro.perf.arrays import (
    ArrayIndex,
    ArrayRecords,
    batch_set_sim_probe,
    observe_kernel_batch,
)
from repro.perf.kernels import bounded_overlap, make_overlap_bound, make_scorer
from repro.perf.parallel import (
    concat_tables,
    effective_n_jobs,
    parallel_map_partitions,
    partition_table,
    run_sharded,
    split_evenly,
)
from repro.perf.tokens import TokenUniverse

__all__ = [
    "ArrayIndex",
    "ArrayRecords",
    "TokenUniverse",
    "batch_set_sim_probe",
    "bounded_overlap",
    "concat_tables",
    "effective_n_jobs",
    "make_overlap_bound",
    "make_scorer",
    "observe_kernel_batch",
    "parallel_map_partitions",
    "partition_table",
    "run_sharded",
    "split_evenly",
]

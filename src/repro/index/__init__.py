"""repro.index — reusable, persistent index artifacts for the hot paths.

The platform-service answer to "every command rebuilds its own index":
a :class:`IndexStore` materializes tokenizations, token-id encodings
and probe-ready CSR corpora once per
*content fingerprint* and serves them to every sim join, blocker,
blocking-rule execution, and Falcon/Smurf iteration that asks again —
in memory within a process, and from an atomic on-disk cache across
runs.  See :mod:`repro.index.store` for the artifact chain and
:mod:`repro.index.fingerprints` for the keying scheme.

On top of the immutable artifacts, :class:`LiveIndex`
(:mod:`repro.index.delta`) adds the mutable half: a base + delta
two-layer index supporting upsert/delete/compact with the contract that
an incrementally-maintained index returns exactly what a from-scratch
rebuild over its current records would.
"""

from repro.index.ann import AnnIndex
from repro.index.delta import (
    LIVE_FORMAT_VERSION,
    LiveIndex,
    list_live_indexes,
)
from repro.index.fingerprints import (
    FORMAT_VERSION,
    column_fingerprint,
    combine,
    tokenizer_fingerprint,
    vectorizer_fingerprint,
)
from repro.index.store import (
    ARTIFACT_KINDS,
    CACHE_READ_ERRORS,
    HashedColumn,
    IndexStore,
    PairEncoding,
    StringRecords,
    TokenizedColumn,
    VectorPair,
    get_index_store,
    set_index_store,
    use_index_store,
)

__all__ = [
    "ARTIFACT_KINDS",
    "AnnIndex",
    "CACHE_READ_ERRORS",
    "FORMAT_VERSION",
    "HashedColumn",
    "IndexStore",
    "LIVE_FORMAT_VERSION",
    "LiveIndex",
    "PairEncoding",
    "StringRecords",
    "TokenizedColumn",
    "VectorPair",
    "column_fingerprint",
    "combine",
    "get_index_store",
    "list_live_indexes",
    "set_index_store",
    "tokenizer_fingerprint",
    "use_index_store",
    "vectorizer_fingerprint",
]

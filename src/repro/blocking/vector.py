"""Vector blocker: embedding + approximate-NN retrieval behind the Blocker API.

The last blocking paradigm the substrate was missing.  Token-overlap
blockers (:class:`~repro.blocking.overlap.OverlapBlocker`, the rule
executors) need the two sides to *share surface tokens*; on dirty data —
typos, abbreviations, dropped or reordered tokens — the shared-token
assumption is exactly what breaks.  BlockingPy/AutoBlock-style vector
blocking sidesteps it: embed every record as a hashed character-n-gram
(optionally TF-IDF-weighted) vector (:mod:`repro.text.vectorize`),
index one side in a banded-LSH approximate-NN structure
(:mod:`repro.index.ann`), and retrieve each left record's near
neighbours under cosine similarity at a controllable candidate budget
(``top_k``).

Everything expensive is an :class:`repro.index.IndexStore` artifact
(kinds ``vectors`` -> ``vecpair`` -> ``ann``), so embeddings and the ANN
index are built once per content fingerprint, shared across calls, and
warm-reloaded from the disk tier with byte-identical search results.
Both entry points run on the pair's CSR sides: ``block_tables`` is one
:meth:`~repro.index.ann.AnnIndex.search`, ``keep`` (so ``block_candset``)
one :func:`~repro.index.ann.pair_cosines` over the candidate pairs.

Approximation contract: retrieval is *approximate* — ``block_tables``
returns a subset of the exact cosine-threshold join (LSH can miss
pairs), which is the usual blocking trade: recall is measured against
candidate-set size in ``benchmarks/bench_vector_blocking.py``.
``block_candset`` filtering, by contrast, is exact: every surviving
input pair is scored with the true cosine.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.blocking.base import (
    Blocker,
    artifact_key,
    candset_from_positions,
    observe_blocking,
    present_numbers,
)
from repro.catalog.catalog import Catalog
from repro.exceptions import ConfigurationError
from repro.index.ann import pair_cosines, rank_cut, validate_lsh
from repro.index.store import IndexStore, get_index_store
from repro.obs import get_registry
from repro.perf.arrays import observe_kernel_batch
from repro.table.table import Row, Table
from repro.text.vectorize import HashedNgramVectorizer


class VectorBlocker(Blocker):
    """Keep pairs whose hashed-n-gram embeddings are cosine-similar.

    Parameters
    ----------
    l_block_attr, r_block_attr:
        The attribute embedded on each side (right defaults to left).
    threshold:
        Cosine similarity a pair must reach, in ``(0, 1]``.
    top_k:
        Optional per-left-record candidate budget: keep at most the
        ``top_k`` best-scoring right records.  This is the knob that
        bounds candidate-set size independently of the threshold.
    q, dim:
        Character n-gram size and hashing-trick bucket count of the
        embedding (see :class:`~repro.text.vectorize.HashedNgramVectorizer`).
    idf:
        Weight buckets by smoothed inverse document frequency over the
        *combined* corpus of both tables (TF-IDF), de-emphasizing grams
        every record shares.
    n_bands, band_bits, seed:
        The LSH dial: candidates collide in at least one of ``n_bands``
        bands of ``band_bits`` sign bits.  More bands -> higher recall
        and larger candidate sets; more bits -> sharper bands.  At most
        512 planes (``n_bands * band_bits``) and 63 bits a band.

    Filter chains: with ``top_k=None`` the pair decision (cosine in the
    joint space of the two *base tables* >= threshold) is independent of
    which other pairs are present, so :meth:`block_candset` gives the
    same result at any position in a chain of filters.  A ``top_k``
    budget ranks each left record's surviving partners against each
    other, which is not pair-local — there its position matters.

    Note: per-pair :meth:`block_tuples` sees the two rows alone, a corpus
    too small for IDF weights; it raises under ``idf=True`` (use
    :meth:`block_candset`, which scores exactly in the corpus space).
    """

    def __init__(
        self,
        l_block_attr: str,
        r_block_attr: str | None = None,
        threshold: float = 0.3,
        top_k: int | None = None,
        q: int = 3,
        dim: int = 2**18,
        idf: bool = True,
        n_bands: int = 16,
        band_bits: int = 6,
        seed: int = 0,
    ):
        if not 0.0 < threshold <= 1.0:
            raise ConfigurationError(
                f"threshold must be in (0, 1], got {threshold}"
            )
        validate_lsh(n_bands, band_bits, top_k)
        self.l_block_attr = l_block_attr
        self.r_block_attr = r_block_attr if r_block_attr is not None else l_block_attr
        self.threshold = threshold
        self.top_k = top_k
        self.q = q
        self.dim = dim
        self.idf = idf
        self.n_bands = n_bands
        self.band_bits = band_bits
        self.seed = seed
        # One vectorizer per blocker, never one per row or per call: its
        # spec is the fingerprint of the embedding artifacts.
        self._vectorizer = HashedNgramVectorizer(q=q, dim=dim, lowercase=True)

    # ------------------------------------------------------------------
    # Embedding plumbing
    # ------------------------------------------------------------------
    def _space(
        self,
        ltable: Table,
        rtable: Table,
        l_key: str,
        r_key: str,
        store: IndexStore,
    ):
        """The two tables' joint vector space, via the artifact chain."""
        left = store.hashed_column(ltable, l_key, self.l_block_attr, self._vectorizer)
        right = store.hashed_column(rtable, r_key, self.r_block_attr, self._vectorizer)
        return store.vector_pair(left, right, idf=self.idf)

    # ------------------------------------------------------------------
    # Blocker API
    # ------------------------------------------------------------------
    def keep(self, ltable: Table, rtable: Table, l_pos, r_pos) -> np.ndarray:
        """The pairs whose exact cosine in the tables' joint space reaches
        ``threshold``; with ``top_k``, each left record's ``top_k`` best of
        these pairs (ties: the earlier pair)."""
        pair = self._space(
            ltable, rtable, artifact_key(ltable), artifact_key(rtable), get_index_store()
        )
        registry = get_registry()
        with registry.timer("kernel_batch_seconds", op="vector_candset"):
            l_at = present_numbers(ltable.column(self.l_block_attr))[l_pos]
            r_at = present_numbers(rtable.column(self.r_block_attr))[r_pos]
            # A row without a vector (missing value) scores 0: dropped.
            rows = np.flatnonzero((l_at >= 0) & (r_at >= 0))
            rows = rows[np.argsort(l_at[rows], kind="stable")]
            right_t = pair.right.matrix.T.tocsr()
            scores = pair_cosines(pair.left.matrix, right_t, l_at[rows], r_at[rows])
            survived = scores >= self.threshold
            rows, scores = rows[survived], scores[survived]
            kept = np.zeros(len(l_pos), bool)
            kept[rows[rank_cut(l_at[rows], scores, self.top_k)]] = True
        observe_kernel_batch("vector_candset", len(np.unique(l_pos)), len(rows))
        return kept

    def block_tuples(self, l_row: Row, r_row: Row) -> bool:
        if self.idf:
            raise NotImplementedError(
                "per-pair filtering under IDF weighting requires the whole "
                "corpus; use block_candset (exact corpus-space scoring) or "
                "construct the blocker with idf=False"
            )
        return super().block_tuples(l_row, r_row)

    def block_tables(
        self,
        ltable: Table,
        rtable: Table,
        l_key: str = "id",
        r_key: str = "id",
        l_output_attrs: Sequence[str] = (),
        r_output_attrs: Sequence[str] = (),
        catalog: Catalog | None = None,
    ) -> Table:
        """ANN retrieval: one search of the right index with every left record."""
        registry = get_registry()
        with registry.timer("blocking_seconds", blocker=type(self).__name__):
            ltable.require_columns([l_key, self.l_block_attr])
            rtable.require_columns([r_key, self.r_block_attr])
            store = get_index_store()
            pair = self._space(ltable, rtable, l_key, r_key, store)
            ann = store.ann_index(
                pair, n_bands=self.n_bands, band_bits=self.band_bits, seed=self.seed
            )
            with registry.timer("index_ann_probe_seconds"), registry.timer(
                "kernel_batch_seconds", op="ann_search"
            ):
                rows, positions, _ = ann.search(pair.left.matrix, self.threshold, self.top_k)
        n_probes = len(pair.left.keys)
        registry.counter("index_ann_probes_total").inc(n_probes)
        registry.counter("index_ann_candidates_total").inc(len(rows))
        observe_kernel_batch("ann_search", n_probes, len(rows))
        observe_blocking(self, len(rows))
        # Record i of a side is its i-th row with a value.
        l_rows = np.flatnonzero(present_numbers(ltable.column(self.l_block_attr)) >= 0)
        r_rows = np.flatnonzero(present_numbers(rtable.column(self.r_block_attr)) >= 0)
        return candset_from_positions(
            l_rows[rows], r_rows[positions], ltable, rtable, l_key, r_key, l_output_attrs,
            r_output_attrs, catalog,
        )

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
warm-reloaded from the disk tier with byte-identical probe results.

Approximation contract: retrieval is *approximate* — ``block_tables``
returns a subset of the exact cosine-threshold join (LSH can miss
pairs), which is the usual blocking trade: recall is measured against
candidate-set size in ``benchmarks/bench_vector_blocking.py``.
``block_candset`` filtering, by contrast, is exact: every surviving
input pair is scored with the true cosine.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import Any

from repro.blocking.base import CANDSET_ID, Blocker, make_candset, observe_blocking
from repro.catalog.catalog import Catalog, get_catalog
from repro.catalog.checks import validate_candset
from repro.exceptions import ConfigurationError
from repro.index.store import IndexStore, get_index_store
from repro.obs import get_registry
from repro.table.schema import is_missing
from repro.table.table import Row, Table
from repro.text.vectorize import HashedNgramVectorizer, cosine


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
        and larger candidate sets; more bits -> sharper bands.

    Filter chains: with ``top_k=None`` the pair decision (cosine in the
    joint space of the two *base tables* >= threshold) is independent of
    which other pairs are present, so :meth:`block_candset` gives the
    same result at any position in a chain of filters.  A ``top_k``
    budget ranks each left record's surviving partners against each
    other, which is not pair-local — there its position matters.

    Note: per-pair :meth:`block_tuples` embeds the pair in isolation and
    therefore cannot apply corpus-level IDF weights; it raises under
    ``idf=True`` (use :meth:`block_candset`, which scores exactly in the
    corpus space).
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
        if top_k is not None and top_k < 1:
            raise ConfigurationError(f"top_k must be >= 1, got {top_k}")
        if n_bands < 1 or band_bits < 1:
            raise ConfigurationError(
                f"need n_bands >= 1 and band_bits >= 1, "
                f"got n_bands={n_bands} band_bits={band_bits}"
            )
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
        # One vectorizer per blocker (its tokenize memo is the hot-path
        # cache); never constructed per row or per call.
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

    def _embed_value(self, value: Any):
        if is_missing(value):
            return {}
        return self._vectorizer.embed_normalized(str(value))

    # ------------------------------------------------------------------
    # Blocker API
    # ------------------------------------------------------------------
    def block_tuples(self, l_row: Row, r_row: Row) -> bool:
        if self.idf:
            raise NotImplementedError(
                "per-pair filtering under IDF weighting requires the whole "
                "corpus; use block_candset (exact corpus-space scoring) or "
                "construct the blocker with idf=False"
            )
        l_vector = self._embed_value(l_row[self.l_block_attr])
        r_vector = self._embed_value(r_row[self.r_block_attr])
        return cosine(l_vector, r_vector) < self.threshold

    def block_tables(
        self,
        ltable: Table,
        rtable: Table,
        l_key: str = "id",
        r_key: str = "id",
        l_output_attrs: Sequence[str] = (),
        r_output_attrs: Sequence[str] = (),
        catalog: Catalog | None = None,
        n_jobs: int = 1,
    ) -> Table:
        """ANN retrieval: probe each left record against the right index.

        ``n_jobs`` is accepted for interface compatibility; probes are
        index lookups plus sparse dot products, far below the cost where
        fork-sharding pays for itself.
        """
        started = time.perf_counter()
        ltable.require_columns([l_key, self.l_block_attr])
        rtable.require_columns([r_key, self.r_block_attr])
        store = get_index_store()
        pair = self._space(ltable, rtable, l_key, r_key, store)
        ann = store.ann_index(
            pair,
            side="right",
            n_bands=self.n_bands,
            band_bits=self.band_bits,
            seed=self.seed,
        )
        from repro.perf.arrays import batched_probe_pays, observe_kernel_batch

        registry = get_registry()
        pairs: list[tuple[Any, Any]] = []
        candidates_total = 0
        probe_started = time.perf_counter()
        if batched_probe_pays(len(pair.left), len(ann)):
            searched = ann.search_batch(
                [vector for _, vector in pair.left],
                threshold=self.threshold,
                top_k=self.top_k,
            )
            for (row_key, _), matches in zip(pair.left, searched):
                candidates_total += len(matches)
                pairs.extend((row_key, ann.keys[position]) for position, _ in matches)
            observe_kernel_batch(
                "ann_search",
                len(pair.left),
                candidates_total,
                time.perf_counter() - probe_started,
            )
        else:
            for row_key, vector in pair.left:
                matches = ann.search(vector, threshold=self.threshold, top_k=self.top_k)
                candidates_total += len(matches)
                pairs.extend((row_key, ann.keys[position]) for position, _ in matches)
        registry.counter("index_ann_probes_total").inc(len(pair.left))
        registry.counter("index_ann_candidates_total").inc(candidates_total)
        registry.histogram("index_ann_probe_seconds").observe(
            time.perf_counter() - probe_started
        )
        observe_blocking(self, len(pairs), time.perf_counter() - started)
        return make_candset(
            pairs, ltable, rtable, l_key, r_key, l_output_attrs, r_output_attrs, catalog
        )

    def _score_candset_arrays(
        self,
        pair,
        l_vectors: dict,
        by_left: dict[Any, list[int]],
        r_ids: Sequence[Any],
    ) -> list[tuple[int, Any, float]]:
        """Columnar scoring for :meth:`block_candset`, byte-identical.

        One :func:`~repro.perf.arrays.batch_cosine` accumulation per
        distinct left record scores it against every right vector at
        once; each candidate row then just gathers its score.  The
        accumulation walks shared buckets in the same ascending order as
        the scalar :func:`~repro.text.vectorize.cosine`, so the floats
        (and hence the survivor set) are bit-identical to the scalar path.
        """
        from repro.perf.arrays import SparseColumns, batch_cosine, observe_kernel_batch

        started = time.perf_counter()
        r_position = {row_key: i for i, (row_key, _) in enumerate(pair.right)}
        columns = SparseColumns([vector for _, vector in pair.right])
        # Keyed by candset row index so emission below restores the
        # scalar path's ascending-row order.
        by_row: dict[int, tuple[Any, float]] = {}
        for l_id, rows in by_left.items():
            l_vector = l_vectors.get(l_id)
            if not l_vector:
                continue  # empty/missing left: scalar cosine is 0, below threshold
            scores = batch_cosine(l_vector, columns)
            for i in rows:
                position = r_position.get(r_ids[i])
                if position is None:
                    continue
                score = float(scores[position])
                if score >= self.threshold:
                    by_row[i] = (l_id, score)
        scored = [(i, l_id, score) for i, (l_id, score) in sorted(by_row.items())]
        observe_kernel_batch(
            "vector_candset", len(by_left), len(scored), time.perf_counter() - started
        )
        return scored

    def block_candset(
        self,
        candset: Table,
        catalog: Catalog | None = None,
        n_jobs: int = 1,
    ) -> Table:
        """Filter an existing candidate set by exact corpus-space cosine.

        Unlike :meth:`block_tables` this is *not* approximate: every
        input pair is scored with the true cosine in the joint
        (IDF-weighted) space of the candidate set's base tables.  With
        ``top_k`` set, each left record additionally keeps only its
        ``top_k`` best surviving partners.
        """
        cat = catalog if catalog is not None else get_catalog()
        meta = validate_candset(candset, cat)
        l_key = cat.get_key(meta.ltable)
        r_key = cat.get_key(meta.rtable)
        meta.ltable.require_columns([self.l_block_attr])
        meta.rtable.require_columns([self.r_block_attr])
        pair = self._space(meta.ltable, meta.rtable, l_key, r_key, get_index_store())
        l_vectors = dict(pair.left)

        from repro.perf.arrays import batched_probe_pays

        empty: dict = {}
        scored: list[tuple[int, Any, float]] = []  # (row index, l_id, score)
        l_ids = candset.column(meta.fk_ltable)
        r_ids = candset.column(meta.fk_rtable)
        # Group rows by left record: the columnar path scores each
        # distinct left against the whole right corpus in one pass.
        by_left: dict[Any, list[int]] = {}
        for i, l_id in enumerate(l_ids):
            by_left.setdefault(l_id, []).append(i)
        if batched_probe_pays(len(by_left), len(pair.right)):
            scored = self._score_candset_arrays(pair, l_vectors, by_left, r_ids)
        else:
            r_vectors = dict(pair.right)
            for i in range(candset.num_rows):
                score = cosine(
                    l_vectors.get(l_ids[i], empty),
                    r_vectors.get(r_ids[i], empty),
                )
                if score >= self.threshold:
                    scored.append((i, l_ids[i], score))
        if self.top_k is not None:
            per_left: dict[Any, list[tuple[int, float]]] = {}
            for i, l_id, score in scored:
                per_left.setdefault(l_id, []).append((i, score))
            keep = []
            for rows in per_left.values():
                rows.sort(key=lambda item: (-item[1], item[0]))
                keep.extend(i for i, _ in rows[: self.top_k])
            keep.sort()
        else:
            keep = [i for i, _, _ in scored]
        observe_blocking(self, len(keep))
        result = candset.take(keep)
        result.add_column(CANDSET_ID, list(range(len(keep))))
        cat.set_candset_metadata(
            result, meta.key, meta.fk_ltable, meta.fk_rtable, meta.ltable, meta.rtable
        )
        return result

"""The guide's first step: intelligently down-sampling two large tables.

Figure 2 of the paper: a user facing two 1M-tuple tables first down-samples
them to e.g. 100K tuples each before developing the EM workflow.  Naive
uniform sampling of both tables is a known trap — the probability that a
matching pair survives two independent uniform samples is the *product* of
the sampling rates, so most matches vanish and the development sample is
useless for training a matcher.

The down sampler here follows Magellan's ``down_sample`` design: sample B
uniformly to B', then pick A' as the A-tuples that share rare tokens with
B', topped up with random A-tuples.
Matches between A' and B' are thereby preserved at a far higher rate, which
``benchmarks/bench_ablation_downsample.py`` quantifies against the naive
sampler.

The samplers keep no token index of their own: the tokens of each row's
lowercased text are the index store's artifacts (``join_encoding`` over
both tables' :func:`~repro.blocking.base.text_view`), the inverted index
is the CSR transpose of the encoding's left side (:func:`left_postings`),
and ``weighted_sample_candset`` scores pairs with a token feature's batch
form over the same store.  Falcon's pair sampler reads them too.
"""

from __future__ import annotations

import random

import numpy as np

from repro.blocking.base import TEXT, record_numbers, text_view
from repro.catalog.catalog import get_catalog
from repro.catalog.checks import resolve_candset, validate_candset
from repro.exceptions import ConfigurationError
from repro.index.store import get_index_store
from repro.perf import arrays
from repro.table.table import Table
from repro.text.tokenizers import WhitespaceTokenizer

#: The samplers' tokens: each distinct whitespace token of a row's text once.
TOKENIZER = WhitespaceTokenizer(return_set=True)


def row_text_view(table: Table, key: str) -> Table:
    """:func:`text_view` over every non-key column: the text of a row the
    samplers read."""
    return text_view(table, key, [name for name in table.columns if name != key])


def left_postings(encoding, l_view: Table) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, rows)``: token id *t*'s left row positions, ascending, are
    ``rows[indptr[t]:indptr[t + 1]]`` — the CSR transpose of the store's
    ``encoding.left`` over ``l_view``, records mapped back to rows."""
    indptr, records = arrays.posting_lists(encoding.left)
    return indptr, np.flatnonzero(record_numbers(l_view) >= 0)[records]


def down_sample(
    ltable: Table,
    rtable: Table,
    size: int,
    y_param: int = 1,
    l_key: str = "id",
    r_key: str = "id",
    seed: int | None = None,
) -> tuple[Table, Table]:
    """Down-sample two tables to roughly ``size`` rows each.

    ``rtable`` is sampled uniformly; for each sampled right tuple the
    ``y_param`` left tuples sharing its rarest tokens are pulled into the
    left sample, so pairs that actually match survive.  The left sample is
    topped up with uniformly random rows if probing found fewer than
    ``size``.  Two tokens as rare as each other are probed in the order
    they first appear in the right row's text, so the samples depend on
    ``seed`` alone, not on the string hash seed.

    Returns ``(l_sample, r_sample)``.
    """
    if size < 1:
        raise ConfigurationError(f"size must be >= 1, got {size}")
    if y_param < 1:
        raise ConfigurationError(f"y_param must be >= 1, got {y_param}")
    rng = random.Random(seed)

    r_sample = rtable.sample(min(size, rtable.num_rows), seed=rng.randrange(2**31))
    views = row_text_view(ltable, l_key), row_text_view(r_sample, r_key)
    store = get_index_store()
    encoding = store.join_encoding(*views, l_key, r_key, TEXT, TEXT, TOKENIZER)
    indptr, l_rows = left_postings(encoding, views[0])
    lengths = np.diff(indptr).tolist()
    # Each distinct right text's tokens in the order they first appear in
    # it (the store's tokens artifact), as ids, stably by posting length.
    tokens = store.tokenized_column(views[1], r_key, TEXT, TOKENIZER)
    distinct = map(encoding.universe.token_id, tokens.distinct)
    ids = np.fromiter(distinct, np.int64, len(tokens.distinct))[tokens.codes].tolist()
    ends = np.cumsum(tokens.lengths).tolist()
    probes = [
        sorted((t for t in ids[end - n : end] if lengths[t]), key=lengths.__getitem__)
        for n, end in zip(tokens.lengths.tolist(), ends)
    ]
    taken = np.zeros(ltable.num_rows, bool)
    for value in tokens.value_rows.tolist():
        wanted = y_param
        # Prefer rare tokens: they identify candidate matches most sharply.
        for token in probes[value]:
            posting = l_rows[indptr[token] : indptr[token + 1]]
            fresh = posting[~taken[posting]][:wanted]
            taken[fresh] = True
            wanted -= len(fresh)
            if not wanted:
                break

    # Top up with random left rows to reach the requested size.
    remaining = np.flatnonzero(~taken).tolist()
    rng.shuffle(remaining)
    taken[remaining[: max(min(size, ltable.num_rows) - int(taken.sum()), 0)]] = True
    l_sample = ltable.take(np.flatnonzero(taken).tolist())
    return l_sample, r_sample


def naive_down_sample(
    ltable: Table,
    rtable: Table,
    size: int,
    seed: int | None = None,
) -> tuple[Table, Table]:
    """Uniform independent sampling of both tables (the baseline the
    intelligent sampler is measured against)."""
    rng = random.Random(seed)
    l_sample = ltable.sample(min(size, ltable.num_rows), seed=rng.randrange(2**31))
    r_sample = rtable.sample(min(size, rtable.num_rows), seed=rng.randrange(2**31))
    return l_sample, r_sample


def sample_candset(candset: Table, n: int, seed: int | None = None) -> Table:
    """A uniform sample of ``n`` rows of a candidate set, as one (guide step 'Sampling')."""
    cat = get_catalog()
    validate_candset(candset, cat)
    return cat.copy_metadata(candset, candset.sample(n, seed=seed))


def weighted_sample_candset(
    candset: Table,
    n: int,
    seed: int | None = None,
    top_fraction: float = 0.5,
) -> Table:
    """Sample a candidate set so that likely matches are represented.

    Candidate sets are heavily skewed toward non-matches, so a uniform
    sample of a few hundred pairs often contains almost no matches and
    cross-validation degenerates.  This sampler scores each pair by the
    Jaccard similarity of the whitespace tokens of its base tuples'
    :func:`text_view` over all non-key attributes (a whitespace-Jaccard
    token feature's batch form), draws ``top_fraction`` of the sample from
    the highest-scoring pairs and the rest uniformly from the remainder —
    the cheap, practical trick behind the guide's "take a sample S from C"
    step working at all.

    Requires the candidate set's catalog metadata (to reach the base
    tuples), which the sample shares; ``n < 0`` or ``top_fraction``
    outside ``[0, 1]`` raises :class:`~repro.exceptions.ConfigurationError`.
    """
    from repro.features.feature import ValueView, make_token_feature
    from repro.text.sim.token_based import Jaccard

    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    if not 0.0 <= top_fraction <= 1.0:
        raise ConfigurationError(f"top_fraction must be in [0, 1], got {top_fraction}")
    cat = get_catalog()
    meta, l_rows, r_rows = resolve_candset(candset, cat)
    if candset.num_rows <= n:
        return cat.copy_metadata(candset, candset.copy())
    sides = [
        (row_text_view(table, cat.get_key(table)), cat.get_key(table), TEXT)
        for table in (meta.ltable, meta.rtable)
    ]
    view, inverse = ValueView.at_rows(sides, l_rows, r_rows)
    jaccard = make_token_feature(
        "jaccard_ws", TEXT, TEXT, WhitespaceTokenizer(return_set=True), Jaccard(), "jaccard"
    )
    # A side with no text scores NaN: rank it with the disjoint pairs.
    scores = np.nan_to_num(jaccard.batch.scores(view)[inverse], nan=0.0)

    order = np.argsort(-scores, kind="stable").tolist()
    n_top = int(round(n * top_fraction))
    top = order[:n_top]
    rest = order[n_top:]
    rng = random.Random(seed)
    rng.shuffle(rest)
    picked = sorted(top + rest[: n - len(top)])
    return cat.copy_metadata(candset, candset.take(picked))

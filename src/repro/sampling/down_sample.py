"""The guide's first step: intelligently down-sampling two large tables.

Figure 2 of the paper: a user facing two 1M-tuple tables first down-samples
them to e.g. 100K tuples each before developing the EM workflow.  Naive
uniform sampling of both tables is a known trap — the probability that a
matching pair survives two independent uniform samples is the *product* of
the sampling rates, so most matches vanish and the development sample is
useless for training a matcher.

The down sampler here follows Magellan's ``down_sample`` design: sample B
uniformly to B', then pick A' as the A-tuples that share rare tokens with
B' (probed through an inverted index over each A-tuple's lowercased text),
topped up with random A-tuples.
Matches between A' and B' are thereby preserved at a far higher rate, which
``benchmarks/bench_ablation_downsample.py`` quantifies against the naive
sampler.
"""

from __future__ import annotations

import random
from collections import defaultdict

import numpy as np

from repro.blocking.base import TEXT, key_positions, text_view
from repro.exceptions import ConfigurationError
from repro.table.table import Table
from repro.text.tokenizers import WhitespaceTokenizer


def _texts(table: Table, key: str) -> list[str | None]:
    """Each row's :func:`text_view` text over every non-key column."""
    return text_view(table, key, [name for name in table.columns if name != key]).column(TEXT)


def _token_lists(table: Table, key: str) -> list[list[str]]:
    """Each row's distinct whitespace tokens, in the order they first
    appear in its text."""
    tokenize = WhitespaceTokenizer(return_set=True).tokenize
    return [[] if text is None else tokenize(text) for text in _texts(table, key)]


def _token_index(table: Table, key: str) -> dict[str, list[int]]:
    """Each token's row positions, ascending."""
    index: dict[str, list[int]] = defaultdict(list)
    for position, tokens in enumerate(_token_lists(table, key)):
        for token in tokens:
            index[token].append(position)
    return index


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

    token_index = _token_index(ltable, l_key)
    selected: set[int] = set()
    for tokens in _token_lists(r_sample, r_key):
        # Prefer rare tokens: they identify candidate matches most sharply.
        postings = sorted(
            (token_index[t] for t in tokens if t in token_index), key=len
        )
        picked = 0
        for posting in postings:
            for position in posting:
                if position not in selected:
                    selected.add(position)
                    picked += 1
                    if picked >= y_param:
                        break
            if picked >= y_param:
                break

    # Top up with random left rows to reach the requested size.
    remaining = [i for i in range(ltable.num_rows) if i not in selected]
    rng.shuffle(remaining)
    for position in remaining:
        if len(selected) >= min(size, ltable.num_rows):
            break
        selected.add(position)

    l_sample = ltable.take(sorted(selected))
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
    """Uniformly sample ``n`` rows of a candidate set (guide step 'Sampling')."""
    return candset.sample(n, seed=seed)


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
    tuples); ``n < 0`` or ``top_fraction`` outside ``[0, 1]`` raises
    :class:`~repro.exceptions.ConfigurationError`.
    """
    from repro.catalog.catalog import get_catalog
    from repro.catalog.checks import validate_candset
    from repro.features.feature import ValueView, make_token_feature
    from repro.text.sim.token_based import Jaccard

    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    if not 0.0 <= top_fraction <= 1.0:
        raise ConfigurationError(f"top_fraction must be in [0, 1], got {top_fraction}")
    if candset.num_rows <= n:
        return candset.copy()
    cat = get_catalog()
    meta = validate_candset(candset, cat)
    # One cell per base row, both sides in one list; each pair's two rows.
    texts, rows = [], []
    for table, fk in ((meta.ltable, meta.fk_ltable), (meta.rtable, meta.fk_rtable)):
        key = cat.get_key(table)
        rows.append(len(texts) + key_positions(table, key, candset.column(fk)))
        texts += _texts(table, key)
    jaccard = make_token_feature(
        "jaccard_ws", TEXT, TEXT, WhitespaceTokenizer(return_set=True), Jaccard(), "jaccard"
    )
    # Text cells are str or None, so none is unhashable ("loose").
    view = ValueView(texts, np.zeros(len(texts), bool), *rows)
    # A side with no text scores NaN: rank it with the disjoint pairs.
    scores = np.nan_to_num(jaccard.batch.scores(view), nan=0.0)

    order = np.argsort(-scores, kind="stable").tolist()
    n_top = int(round(n * top_fraction))
    top = order[:n_top]
    rest = order[n_top:]
    rng = random.Random(seed)
    rng.shuffle(rest)
    picked = sorted(top + rest[: n - len(top)])
    sample = candset.take(picked)
    cat.set_candset_metadata(
        sample, meta.key, meta.fk_ltable, meta.fk_rtable, meta.ltable, meta.rtable
    )
    return sample

"""Hybrid similarity measures: token-level structure, character-level cores.

These combine a secondary character-level measure (e.g. Jaro-Winkler) with
token-set comparison, which is what makes them robust to both word
reordering and per-word typos — the sweet spot for names and addresses.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, count

import numpy as np

from repro.exceptions import ConfigurationError
from repro.text.sim.edit_based import JaroWinkler, encode, number_items

#: Token pairs (the cross product of a chunk's bags) Monge-Elkan holds
#: per chunk, so its temporaries stay a few MB however many pairs it is
#: handed.
CHUNK_CELLS = 1 << 16


def chunks(widths) -> Iterator[slice]:
    """Consecutive slices of ``widths``, each at most :data:`CHUNK_CELLS`
    cells (rows x widest row) and at least one row."""
    start = 0
    while start < len(widths):
        # No more rows than this fit even if none is wider than the first.
        reach = CHUNK_CELLS // max(int(widths[start]), 1) + 1
        widest = np.maximum.accumulate(np.maximum(widths[start : start + reach], 1))
        cells = np.arange(1, len(widest) + 1) * widest
        stop = start + max(1, int(np.searchsorted(cells, CHUNK_CELLS, side="right")))
        yield slice(start, stop)
        start = stop


class MongeElkan:
    """Average best-match score of each left token against right tokens."""

    def __init__(self, sim_func=None):
        self._secondary = JaroWinkler()
        self.sim_func = sim_func or self._secondary.get_raw_score

    def get_raw_score(self, left: Iterable[str], right: Iterable[str]) -> float:
        left, right = list(left), list(right)
        if not left and not right:
            return 1.0
        if not left or not right:
            return 0.0
        total = 0.0
        for token_left in left:
            total += max(self.sim_func(token_left, token_right) for token_right in right)
        return total / len(left)

    def batch_raw_score(
        self, lefts: Sequence[Sequence[str]], rights: Sequence[Sequence[str]]
    ) -> np.ndarray:
        """:meth:`get_raw_score` over ``zip(lefts, rights)``, same floats,
        for the default ``sim_func``: each chunk scores its *distinct* token
        pairs once with batched Jaro-Winkler."""
        # The bags are numbered in one hashing pass: a tuple's hash is not
        # cached, so number_items' two passes (fromkeys, then lookups) cost
        # more here than a setdefault per bag and a sort of first sights.
        bags: dict[tuple, int] = {}
        firsts = np.fromiter(
            map(bags.setdefault, map(tuple, chain(lefts, rights)), count()), np.int64,
            len(lefts) + len(rights),
        )
        ids = np.unique(firsts, return_inverse=True)[1]
        return self.raw_score_ids(list(bags), ids[: len(lefts)], ids[len(lefts) :])

    def raw_score_ids(self, lists: Sequence[Sequence[str]], l_list, r_list) -> np.ndarray:
        """:meth:`get_raw_score` at id pairs into the token ``lists``.  A left
        token with an equal token in the right bag scores 1.0 unscored:
        ``JW(t, t) == 1.0`` and no Jaro-Winkler score exceeds it."""
        if self.sim_func != self._secondary.get_raw_score:
            raise ConfigurationError("a custom sim_func has no batched twin")
        tokens, flat, _ = number_items(chain.from_iterable(lists), ())
        counts = np.fromiter(map(len, lists), np.int64, len(lists))
        starts = np.cumsum(counts) - counts
        l_counts, r_counts = counts[l_list], counts[r_list]
        vocabulary = encode(tokens)
        out = np.where((l_counts == 0) & (r_counts == 0), 1.0, 0.0)
        both = np.flatnonzero((l_counts > 0) & (r_counts > 0))
        for at in chunks((l_counts * r_counts)[both]):
            pairs = both[at]
            n_left, n_right = l_counts[pairs], r_counts[pairs]
            # The chunk's token cross product, left token major: one
            # segment of n_right entries per left token.
            sizes = n_left * n_right
            pair_of = np.repeat(np.arange(len(pairs)), sizes)
            offset = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            l_at, r_at = np.divmod(offset, n_right[pair_of])
            l_token = flat[starts[l_list[pairs]][pair_of] + l_at]
            r_token = flat[starts[r_list[pairs]][pair_of] + r_at]
            segments = np.flatnonzero(r_at == 0)
            exact = np.logical_or.reduceat(l_token == r_token, segments)
            scored = ~np.repeat(exact, n_right[pair_of[segments]])
            distinct, inverse = np.unique(
                l_token[scored] * len(tokens) + r_token[scored], return_inverse=True
            )
            scores = np.zeros(len(l_token))
            scores[scored] = self._secondary.score_encoded(
                tokens, vocabulary, *np.divmod(distinct, len(tokens))
            )[inverse]
            best = np.maximum.reduceat(scores, segments)
            best[exact] = 1.0
            # Left-to-right like the scalar loop: np.sum's pairwise order
            # rounds differently.
            first = np.cumsum(n_left) - n_left
            total = np.zeros(len(pairs))
            for k in range(int(n_left.max())):
                has = n_left > k
                total[has] += best[first[has] + k]
            out[pairs] = total / n_left
        return out


class GeneralizedJaccard:
    """Jaccard over a soft token matching.

    Tokens from the two sides are greedily matched when their secondary
    similarity exceeds ``threshold``; matched pairs contribute their
    similarity to the intersection weight.
    """

    def __init__(self, sim_func=None, threshold: float = 0.5):
        self.sim_func = sim_func or JaroWinkler().get_raw_score
        self.threshold = threshold

    def get_raw_score(self, left: Iterable[str], right: Iterable[str]) -> float:
        left, right = list(set(left)), list(set(right))
        if not left and not right:
            return 1.0
        if not left or not right:
            return 0.0
        candidate_pairs = []
        for i, token_left in enumerate(left):
            for j, token_right in enumerate(right):
                score = self.sim_func(token_left, token_right)
                if score >= self.threshold:
                    candidate_pairs.append((score, i, j))
        candidate_pairs.sort(reverse=True)
        used_left: set[int] = set()
        used_right: set[int] = set()
        intersection_weight = 0.0
        matched = 0
        for score, i, j in candidate_pairs:
            if i in used_left or j in used_right:
                continue
            used_left.add(i)
            used_right.add(j)
            intersection_weight += score
            matched += 1
        union_size = len(left) + len(right) - matched
        return intersection_weight / union_size if union_size else 1.0

    get_sim_score = get_raw_score


class SoftTfIdf:
    """TF-IDF cosine where 'equal tokens' is relaxed to 'similar tokens'.

    Left tokens are paired with their most similar right token when the
    secondary similarity is at least ``threshold``; the pair contributes
    ``weight_left * weight_right * similarity`` to the dot product.
    """

    def __init__(
        self,
        corpus: list[list[str]] | None = None,
        sim_func=None,
        threshold: float = 0.5,
    ):
        from repro.text.sim.token_based import TfIdf

        self._tfidf = TfIdf(corpus)
        self.sim_func = sim_func or JaroWinkler().get_raw_score
        self.threshold = threshold

    def get_raw_score(self, left: Iterable[str], right: Iterable[str]) -> float:
        import math

        left, right = list(left), list(right)
        if not left and not right:
            return 1.0
        if not left or not right:
            return 0.0
        w_left = self._tfidf._weights(left)
        w_right = self._tfidf._weights(right)
        dot = 0.0
        for token_left, weight_left in w_left.items():
            best_score, best_token = 0.0, None
            for token_right in w_right:
                score = self.sim_func(token_left, token_right)
                if score > best_score:
                    best_score, best_token = score, token_right
            if best_token is not None and best_score >= self.threshold:
                dot += weight_left * w_right[best_token] * best_score
        norm_left = math.sqrt(sum(w * w for w in w_left.values()))
        norm_right = math.sqrt(sum(w * w for w in w_right.values()))
        if norm_left == 0.0 or norm_right == 0.0:
            return 0.0
        return min(dot / (norm_left * norm_right), 1.0)

    get_sim_score = get_raw_score

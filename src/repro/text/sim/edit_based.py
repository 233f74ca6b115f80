"""Edit-based (character-level) string similarity measures.

API follows py_stringmatching: each measure exposes ``get_raw_score`` (the
natural value of the measure, e.g. an edit distance) and, where a
normalized form exists, ``get_sim_score`` in [0, 1] where 1 means most
similar.

Levenshtein, Jaro and Jaro-Winkler also have ``batch_*`` twins that score
many pairs per numpy step and return, element for element, the scalar
method's value (``tests/test_sim_batch.py`` compares with ``==``): each is
:func:`number_items` and then ``sim_score_ids``, the body over pre-numbered ids.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

#: Padded cells (rows x widest row) a batched kernel holds per chunk, so
#: its temporaries stay a few MB however many pairs it is handed.
CHUNK_CELLS = 1 << 16


def number_items(lefts: Iterable, rights: Iterable):
    """The distinct items of both sides, in first-seen order (so nothing
    moves with the hash seed), and each side as int64 ids into them."""
    ids: dict = {}
    sides = [
        np.fromiter((ids.setdefault(item, len(ids)) for item in side), np.int64)
        for side in (lefts, rights)
    ]
    return list(ids), *sides


def encode(strings: list[str]):
    """Code points of ``strings`` back to back, plus row starts and lengths."""
    lengths = np.fromiter(map(len, strings), np.int64, len(strings))
    codes = np.frombuffer("".join(strings).encode("utf-32-le", "surrogatepass"), np.uint32)
    return codes, np.cumsum(lengths) - lengths, lengths


def _padded(vocabulary, ids):
    """Zero-padded code matrix, one row per id (at least one column), and
    the row lengths."""
    codes, starts, lengths = vocabulary
    sizes = lengths[ids]
    cols = np.arange(max(1, int(sizes.max(initial=0))))
    inside = cols < sizes[:, None]
    matrix = np.zeros(inside.shape, np.uint32)
    matrix[inside] = codes[(starts[ids][:, None] + cols)[inside]]
    return matrix, sizes


def chunks(widths) -> Iterator[slice]:
    """Consecutive slices of ``widths``, each at most
    :data:`CHUNK_CELLS` padded cells (rows x widest row) and at least
    one row."""
    start = 0
    while start < len(widths):
        # No more rows than this fit even if none is wider than the first.
        reach = CHUNK_CELLS // max(int(widths[start]), 1) + 1
        widest = np.maximum.accumulate(np.maximum(widths[start : start + reach], 1))
        cells = np.arange(1, len(widest) + 1) * widest
        stop = start + max(1, int(np.searchsorted(cells, CHUNK_CELLS, side="right")))
        yield slice(start, stop)
        start = stop


def _score_chunks(kernel, vocabulary, left_ids, right_ids, widths, dtype) -> np.ndarray:
    """``kernel`` over padded chunks of the id pairs, gathered in order."""
    out = np.empty(len(left_ids), dtype)
    for at in chunks(widths):
        out[at] = kernel(*_padded(vocabulary, left_ids[at]), *_padded(vocabulary, right_ids[at]))
    return out


class Levenshtein:
    """Classic edit distance with unit insert/delete/substitute costs: the
    Myers/Hyyro bit-vector recurrence over the shorter string's match
    masks, on a Python int (scalar) or one ``uint64`` lane per pair."""

    #: Pairs whose shorter side outgrows a lane run the scalar form.
    LANE_BITS = 64

    def get_raw_score(self, left: str, right: str) -> int:
        """Return the edit distance between two strings."""
        if left == right:
            return 0
        if len(left) < len(right):
            left, right = right, left
        if not right:
            return len(left)
        masks: dict[str, int] = {}
        for i, ch in enumerate(right):
            masks[ch] = masks.get(ch, 0) | (1 << i)
        score = len(right)
        full = (1 << score) - 1
        top = 1 << (score - 1)
        pv, mv = full, 0
        for ch in left:
            eq = masks.get(ch, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (~(xh | pv) & full)
            mh = pv & xh
            if ph & top:
                score += 1
            elif mh & top:
                score -= 1
            ph = ((ph << 1) | 1) & full
            pv = ((mh << 1) & full) | (~(xv | ph) & full)
            mv = ph & xv
        return score

    def get_sim_score(self, left: str, right: str) -> float:
        """1 - distance / max_length, with two empty strings scoring 1."""
        max_len = max(len(left), len(right))
        if max_len == 0:
            return 1.0
        return 1.0 - self.get_raw_score(left, right) / max_len

    def _distances(self, strings: Sequence[str], left_ids, right_ids):
        """Per id pair into ``strings``: the edit distance and the longer
        side's length."""
        vocabulary = encode(strings)
        lengths = vocabulary[2]
        swap = lengths[left_ids] > lengths[right_ids]
        short_ids = np.where(swap, right_ids, left_ids)
        long_ids = np.where(swap, left_ids, right_ids)
        out = np.empty(len(left_ids), np.int64)
        wide = lengths[short_ids] > self.LANE_BITS
        if wide.any():
            from repro.obs import get_registry  # lazily: obs imports half the package

            name = "feature_scalar_fallback_pairs_total"  # features.feature.SCALAR_FALLBACK
            get_registry().counter(name, reason="long_string").inc(int(wide.sum()))
        for i in np.flatnonzero(wide).tolist():
            out[i] = self.get_raw_score(strings[left_ids[i]], strings[right_ids[i]])
        short_ids, long_ids = short_ids[~wide], long_ids[~wide]
        out[~wide] = _score_chunks(
            _myers_lanes, vocabulary, short_ids, long_ids, lengths[long_ids], np.int64
        )
        return out, np.maximum(lengths[left_ids], lengths[right_ids])

    def batch_raw_score(self, lefts: Sequence[str], rights: Sequence[str]) -> np.ndarray:
        """:meth:`get_raw_score` over ``zip(lefts, rights)``, as int64."""
        return self._distances(*number_items(lefts, rights))[0]

    def batch_sim_score(self, lefts: Sequence[str], rights: Sequence[str]) -> np.ndarray:
        """:meth:`get_sim_score` over ``zip(lefts, rights)``, as float64."""
        return self.sim_score_ids(*number_items(lefts, rights))

    def sim_score_ids(self, strings: Sequence[str], left_ids, right_ids) -> np.ndarray:
        """:meth:`get_sim_score` at id pairs into ``strings``, as float64."""
        distance, longest = self._distances(strings, left_ids, right_ids)
        return np.where(longest == 0, 1.0, 1.0 - distance / np.maximum(longest, 1))


def _myers_lanes(pattern, m, text, n):
    """One chunk, lane *p* tracking ``pattern[p]`` against ``text[p]``.  Bits
    past a pattern's length only receive carries and never feed bit
    ``m - 1``, where the score is read, so every lane runs 64 wide."""
    one = np.uint64(1)
    text_t = np.ascontiguousarray(text.T)
    eq_at = np.zeros(text_t.shape, np.uint64)
    for i in range(pattern.shape[1]):
        eq_at |= (text_t == pattern[:, i]).astype(np.uint64) << np.uint64(i)
    top = one << np.maximum(m - 1, 0).astype(np.uint64)
    pv = np.full(len(m), ~np.uint64(0))
    mv = np.zeros(len(m), np.uint64)
    score = m.copy()
    for j, eq in enumerate(eq_at):
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        live = j < n
        score += ((ph & top) != 0) & live
        score -= ((mh & top) != 0) & live
        ph = (ph << one) | one
        pv = (mh << one) | ~(xv | ph)
        mv = ph & xv
    return np.where(m == 0, n, score)


class Hamming:
    """Number of positions at which equal-length strings differ."""

    def get_raw_score(self, left: str, right: str) -> int:
        if len(left) != len(right):
            raise ValueError(
                f"Hamming distance requires equal lengths "
                f"({len(left)} vs {len(right)})"
            )
        return sum(a != b for a, b in zip(left, right))

    def get_sim_score(self, left: str, right: str) -> float:
        if len(left) == 0:
            return 1.0
        return 1.0 - self.get_raw_score(left, right) / len(left)


class _PairKernel:
    """Batched scoring for a measure that defines ``_score_chunk``."""

    def batch_raw_score(self, lefts: Sequence[str], rights: Sequence[str]) -> np.ndarray:
        """``get_raw_score`` over ``zip(lefts, rights)``, as float64."""
        return self.sim_score_ids(*number_items(lefts, rights))

    batch_sim_score = batch_raw_score

    def sim_score_ids(self, strings: Sequence[str], left_ids, right_ids) -> np.ndarray:
        """Scores at id pairs into ``strings``."""
        return self.score_encoded(encode(strings), left_ids, right_ids)

    def score_encoded(self, vocabulary, left_ids, right_ids) -> np.ndarray:
        """Scores at id pairs into an :func:`encode`-d vocabulary."""
        widths = vocabulary[2][left_ids] + vocabulary[2][right_ids]
        return _score_chunks(self._score_chunk, vocabulary, left_ids, right_ids, widths, np.float64)


class Jaro(_PairKernel):
    """Jaro similarity: transposition-aware common-character measure."""

    def get_raw_score(self, left: str, right: str) -> float:
        if not left and not right:
            return 1.0
        if not left or not right:
            return 0.0
        window = max(len(left), len(right)) // 2 - 1
        window = max(window, 0)
        left_matched = [False] * len(left)
        right_matched = [False] * len(right)
        matches = 0
        for i, ch in enumerate(left):
            start = max(0, i - window)
            stop = min(i + window + 1, len(right))
            for j in range(start, stop):
                if not right_matched[j] and right[j] == ch:
                    left_matched[i] = True
                    right_matched[j] = True
                    matches += 1
                    break
        if matches == 0:
            return 0.0
        transpositions = 0
        j = 0
        for i, matched in enumerate(left_matched):
            if matched:
                while not right_matched[j]:
                    j += 1
                if left[i] != right[j]:
                    transpositions += 1
                j += 1
        transpositions //= 2
        return (
            matches / len(left)
            + matches / len(right)
            + (matches - transpositions) / matches
        ) / 3.0

    get_sim_score = get_raw_score

    def _score_chunk(self, left, l_len, right, r_len):
        """:meth:`get_raw_score` step for step, one lane per matrix row."""
        lanes = np.arange(len(left))
        cols = np.arange(right.shape[1])
        window = np.maximum(np.maximum(l_len, r_len) // 2 - 1, 0)
        left_matched = np.zeros(left.shape, bool)
        right_matched = np.zeros(right.shape, bool)
        for i in range(left.shape[1]):
            stop = np.where(i < l_len, np.minimum(i + window + 1, r_len), 0)
            free = (right == left[:, i, None]) & ~right_matched
            free &= (cols >= (i - window)[:, None]) & (cols < stop[:, None])
            first = free.argmax(axis=1)
            hit = free[lanes, first]
            left_matched[:, i] = hit
            right_matched[lanes[hit], first[hit]] = True
        matches = left_matched.sum(axis=1)
        # Boolean indexing walks each row in order and both sides hold
        # ``matches`` entries per row, so the k-th matched characters align.
        crossed = left[left_matched] != right[right_matched]
        transpositions = (
            np.bincount(np.repeat(lanes, matches), crossed, len(lanes)).astype(np.int64) // 2
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            score = (matches / l_len + matches / r_len + (matches - transpositions) / matches) / 3.0
        score[matches == 0] = 0.0
        score[(l_len == 0) & (r_len == 0)] = 1.0
        return score


class JaroWinkler(_PairKernel):
    """Jaro similarity boosted for strings sharing a common prefix."""

    def __init__(self, prefix_weight: float = 0.1):
        if not 0.0 <= prefix_weight <= 0.25:
            raise ConfigurationError(
                f"prefix_weight must be in [0, 0.25], got {prefix_weight}"
            )
        self.prefix_weight = prefix_weight
        self._jaro = Jaro()

    def get_raw_score(self, left: str, right: str) -> float:
        jaro = self._jaro.get_raw_score(left, right)
        prefix = 0
        for a, b in zip(left[:4], right[:4]):
            if a != b:
                break
            prefix += 1
        return jaro + prefix * self.prefix_weight * (1.0 - jaro)

    get_sim_score = get_raw_score

    def _score_chunk(self, left, l_len, right, r_len):
        jaro = self._jaro._score_chunk(left, l_len, right, r_len)
        width = min(4, left.shape[1], right.shape[1])
        same = (left[:, :width] == right[:, :width]) & (
            np.arange(width) < np.minimum(l_len, r_len)[:, None]
        )
        prefix = np.cumprod(same, axis=1).sum(axis=1)
        return jaro + prefix * self.prefix_weight * (1.0 - jaro)


class NeedlemanWunsch:
    """Global alignment score with a linear gap penalty.

    ``sim_func`` scores a character pair (default: 1 if equal else 0) and
    ``gap_cost`` is subtracted per gap character.
    """

    def __init__(self, gap_cost: float = 1.0, sim_func=None):
        self.gap_cost = gap_cost
        self.sim_func = sim_func or (lambda a, b: 1.0 if a == b else 0.0)

    def get_raw_score(self, left: str, right: str) -> float:
        previous = [-self.gap_cost * j for j in range(len(right) + 1)]
        for i, ch_left in enumerate(left, start=1):
            current = [-self.gap_cost * i]
            for j, ch_right in enumerate(right, start=1):
                current.append(
                    max(
                        previous[j - 1] + self.sim_func(ch_left, ch_right),
                        previous[j] - self.gap_cost,
                        current[j - 1] - self.gap_cost,
                    )
                )
            previous = current
        return previous[-1]


class SmithWaterman:
    """Local alignment score (best-matching substring pair)."""

    def __init__(self, gap_cost: float = 1.0, sim_func=None):
        self.gap_cost = gap_cost
        self.sim_func = sim_func or (lambda a, b: 1.0 if a == b else 0.0)

    def get_raw_score(self, left: str, right: str) -> float:
        best = 0.0
        previous = [0.0] * (len(right) + 1)
        for ch_left in left:
            current = [0.0]
            for j, ch_right in enumerate(right, start=1):
                score = max(
                    0.0,
                    previous[j - 1] + self.sim_func(ch_left, ch_right),
                    previous[j] - self.gap_cost,
                    current[j - 1] - self.gap_cost,
                )
                current.append(score)
                best = max(best, score)
            previous = current
        return best


class Affine:
    """Affine-gap global alignment: opening a gap costs more than extending.

    Follows the standard Gotoh formulation with gap penalty
    ``gap_start + k * gap_continuation`` for a gap of length k+1.
    """

    def __init__(
        self, gap_start: float = 1.0, gap_continuation: float = 0.5, sim_func=None
    ):
        self.gap_start = gap_start
        self.gap_continuation = gap_continuation
        self.sim_func = sim_func or (lambda a, b: 1.0 if a == b else 0.0)

    def get_raw_score(self, left: str, right: str) -> float:
        neg_inf = float("-inf")
        n = len(right)
        # m: match/mismatch ending, x: gap in right, y: gap in left.
        m_prev = [0.0] + [neg_inf] * n
        x_prev = [neg_inf] * (n + 1)
        y_prev = [neg_inf] + [
            -self.gap_start - (j - 1) * self.gap_continuation for j in range(1, n + 1)
        ]
        for i, ch_left in enumerate(left, start=1):
            m_cur = [neg_inf] * (n + 1)
            x_cur = [neg_inf] * (n + 1)
            y_cur = [neg_inf] * (n + 1)
            x_cur[0] = -self.gap_start - (i - 1) * self.gap_continuation
            for j, ch_right in enumerate(right, start=1):
                score = self.sim_func(ch_left, ch_right)
                m_cur[j] = score + max(m_prev[j - 1], x_prev[j - 1], y_prev[j - 1])
                x_cur[j] = max(
                    m_prev[j] - self.gap_start, x_prev[j] - self.gap_continuation
                )
                y_cur[j] = max(
                    m_cur[j - 1] - self.gap_start, y_cur[j - 1] - self.gap_continuation
                )
            m_prev, x_prev, y_prev = m_cur, x_cur, y_cur
        return max(m_prev[-1], x_prev[-1], y_prev[-1])

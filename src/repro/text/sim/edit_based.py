"""Edit-based (character-level) string similarity measures.

API follows py_stringmatching: each measure exposes ``get_raw_score`` (the
natural value of the measure, e.g. an edit distance) and, where a
normalized form exists, ``get_sim_score`` in [0, 1] where 1 means most
similar.

Levenshtein, Jaro and Jaro-Winkler also have ``batch_*`` twins that score
many pairs per numpy step and return, element for element, the scalar
method's value (``tests/test_sim_batch.py`` compares with ``==``): each is
:func:`number_items` and then ``sim_score_ids``, the body over pre-numbered ids.
Both kernels run one ``uint64`` lane per pair and read a pattern table: one
word per (distinct pattern string, alphabet character) with a bit set at
each position holding that character, so a text character costs one
gather, not a comparison per pattern character.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.text.tokenizers import number_into

#: A lane is one ``uint64`` word: a pair whose pattern side is longer
#: than this many characters runs the scalar form.
LANE_BITS = 64
#: Bytes one kernel step may hold: its pattern table (8 per distinct
#: pattern and alphabet character) plus :data:`LANE_BYTES` per lane, so a
#: step stays a few MB however many pairs it is handed.  A step holds at
#: least one lane.
STEP_BYTES = 1 << 22
#: A lane's state and its share of a column step's temporaries.
LANE_BYTES = 128

_ONE = np.uint64(1)
#: ``_BELOW[n]`` has the low ``n`` bits set (``n`` in 0..64); numpy leaves
#: a shift by 64 undefined.
_BELOW = np.array([(1 << n) - 1 for n in range(LANE_BITS + 1)], np.uint64)


def number_items(lefts: Iterable, rights: Iterable):
    """The distinct items of both sides, in first-seen order (so nothing
    moves with the hash seed), and each side as int64 ids into them."""
    ids: dict = {}
    sides = [number_into(list(side), ids, np.int64) for side in (lefts, rights)]
    return list(ids), *sides


def encode(strings: list[str]):
    """Each string's characters as ids into the call's dense alphabet (its
    distinct code points, ascending), back to back, plus row starts, row
    lengths and the alphabet's size."""
    lengths = np.fromiter(map(len, strings), np.int64, len(strings))
    points = np.frombuffer("".join(strings).encode("utf-32-le", "surrogatepass"), np.uint32)
    alphabet, codes = np.unique(points, return_inverse=True)
    return codes, np.cumsum(lengths) - lengths, lengths, len(alphabet)


def _pattern_table(vocabulary, ids) -> np.ndarray:
    """Flat ``(len(ids), alphabet)`` table of ``uint64`` words: the word of
    pattern *p* and character *c* has bit *i* set where ``ids[p]``'s *i*-th
    character is *c*.  Every pattern fits a lane."""
    codes, starts, lengths, width = vocabulary
    table = np.zeros(len(ids) * width, np.uint64)
    rows, start, sizes = np.arange(len(ids)) * width, starts[ids], lengths[ids]
    for i in range(int(sizes.max(initial=0))):
        # One word per pattern at each position: no index repeats.
        has = sizes > i
        table[rows[has] + codes[start[has] + i]] |= _ONE << np.uint64(i)
    return table


def _steps(vocabulary, pattern_ids, text_lengths) -> Iterator[tuple]:
    """Cut id pairs into steps of at most :data:`STEP_BYTES`, a step's
    pattern table counted as its run of distinct patterns.  Yields the
    step's pair indices, longest text first (so the lanes a column step
    reads are a prefix), those patterns and each lane's row offset into
    their table."""
    width = vocabulary[3]
    if not len(pattern_ids):
        return
    present = np.zeros(len(vocabulary[2]), bool)
    present[pattern_ids] = True
    patterns = np.flatnonzero(present)
    rank = (np.cumsum(present) - 1)[pattern_ids]
    order, bounds = np.arange(len(rank)), [0, len(rank)]
    if len(patterns) * 8 * width + len(rank) * LANE_BYTES > STEP_BYTES:
        # Each step holds a run of pattern ranks.  What a step from pair 0
        # through pair k holds, less a row and a lane, grows with k.
        order = np.argsort(rank, kind="stable")
        cost = rank[order] * (8 * width) + np.arange(len(order)) * LANE_BYTES
        bounds = [0]
        while bounds[-1] < len(order):
            reach = cost[bounds[-1]] + STEP_BYTES - 8 * width - LANE_BYTES
            bounds.append(max(bounds[-1] + 1, int(np.searchsorted(cost, reach, side="right"))))
    for begin, stop in zip(bounds, bounds[1:]):
        at = order[begin:stop]
        first, last = rank[at].min(), rank[at].max()
        # Longest text first; a key of 16 bits or fewer sorts by radix.
        shorter = text_lengths[at].max() - text_lengths[at]
        at = at[np.argsort(shorter.astype(np.min_scalar_type(shorter.max())), kind="stable")]
        yield at, patterns[first : last + 1], (rank[at] - first) * width


def _columns(vocabulary, patterns, rows, text_ids, text_lengths) -> Iterator[tuple]:
    """Per text column *j* of a step's lanes (sorted longest text first):
    *j*, the number *k* of lanes whose text reaches it and the pattern word
    each of those lanes' *j*-th text character reads.  The step's table
    lives as long as this generator, so no two steps' tables coexist."""
    codes, starts = vocabulary[:2]
    table = _pattern_table(vocabulary, patterns)
    cursor = starts[text_ids]
    live = np.searchsorted(-text_lengths, -np.arange(int(text_lengths.max(initial=0))))
    for j, k in enumerate(live.tolist()):
        yield j, k, table[rows[:k] + codes[cursor[:k] + j]]


def _scalar_fallback(score, strings, left_ids, right_ids, wide, out) -> None:
    """``out[i] = score(...)`` at each pair ``wide`` marks, counted."""
    indices = np.flatnonzero(wide).tolist()
    if indices:
        from repro.obs import get_registry  # lazily: obs imports half the package

        name = "feature_scalar_fallback_pairs_total"  # features.feature.SCALAR_FALLBACK
        get_registry().counter(name, reason="long_string").inc(len(indices))
    for i in indices:
        out[i] = score(strings[left_ids[i]], strings[right_ids[i]])


class Levenshtein:
    """Classic edit distance with unit insert/delete/substitute costs: the
    Myers/Hyyro bit-vector recurrence over the shorter string's match
    masks, on a Python int (scalar) or one ``uint64`` lane per pair."""

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
        wide = lengths[short_ids] > LANE_BITS
        _scalar_fallback(self.get_raw_score, strings, left_ids, right_ids, wide, out)
        out[~wide] = _myers_steps(vocabulary, short_ids[~wide], long_ids[~wide])
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


def _myers_steps(vocabulary, short_ids, long_ids) -> np.ndarray:
    """Edit distances, lane *p* running the shorter side's pattern words
    against the longer side's characters.  Bits past a pattern's length
    only receive carries and never feed bit ``m - 1``, where the score is
    read, so every lane runs 64 wide."""
    lengths = vocabulary[2]
    out = np.empty(len(short_ids), np.int64)
    for at, patterns, rows in _steps(vocabulary, short_ids, lengths[long_ids]):
        m, n = lengths[short_ids[at]], lengths[long_ids[at]]
        top = _ONE << np.maximum(m - 1, 0).astype(np.uint64)
        pv = np.full(len(at), ~np.uint64(0))
        mv = np.zeros(len(at), np.uint64)
        score = m.copy()
        for _, k, eq in _columns(vocabulary, patterns, rows, long_ids[at], n):
            p, v = pv[:k], mv[:k]
            xv = eq | v
            xh = (((eq & p) + p) ^ p) | eq
            ph = v | ~(xh | p)
            mh = p & xh
            score[:k] += (ph & top[:k]) != 0
            score[:k] -= (mh & top[:k]) != 0
            ph = (ph << _ONE) | _ONE
            pv[:k] = (mh << _ONE) | ~(xv | ph)
            mv[:k] = ph & xv
        out[at] = np.where(m == 0, n, score)
    return out


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
    """Batched scoring for the Jaro family: one lane per pair over the
    right side's pattern words, the scalar form past a lane."""

    def batch_raw_score(self, lefts: Sequence[str], rights: Sequence[str]) -> np.ndarray:
        """``get_raw_score`` over ``zip(lefts, rights)``, as float64."""
        return self.sim_score_ids(*number_items(lefts, rights))

    batch_sim_score = batch_raw_score

    def sim_score_ids(self, strings: Sequence[str], left_ids, right_ids) -> np.ndarray:
        """Scores at id pairs into ``strings``."""
        return self.score_encoded(strings, encode(strings), left_ids, right_ids)

    def score_encoded(self, strings: Sequence[str], vocabulary, left_ids, right_ids) -> np.ndarray:
        """Scores at id pairs into ``strings``, whose :func:`encode` is
        ``vocabulary``."""
        out = np.empty(len(left_ids))
        wide = vocabulary[2][right_ids] > LANE_BITS
        _scalar_fallback(self.get_raw_score, strings, left_ids, right_ids, wide, out)
        out[~wide] = self._from_lanes(*_jaro_steps(vocabulary, left_ids[~wide], right_ids[~wide]))
        return out


def _jaro_steps(vocabulary, left_ids, right_ids):
    """Jaro similarity and common prefix (up to 4 characters) of id pairs,
    :meth:`Jaro.get_raw_score`'s greedy matching on bit words: left
    character *j* takes the lowest free right position in its window that
    holds it, ``table[right, left[j]] & ~flagged & window``.  Transpositions
    pair the matched left characters, in order, with the flagged right
    positions, lowest first."""
    lengths = vocabulary[2]
    l_len, r_len = lengths[left_ids], lengths[right_ids]
    window = np.maximum(np.maximum(l_len, r_len) // 2 - 1, 0)
    # Past column r_len + window no right position is in any window.
    reach = np.minimum(l_len, r_len + window)
    jaro = np.empty(len(left_ids))
    prefix = np.zeros(len(left_ids), np.int64)
    for at, patterns, rows in _steps(vocabulary, right_ids, reach):
        w, r = window[at], r_len[at]
        flagged = np.zeros(len(at), np.uint64)
        common = np.ones(len(at), bool)
        taken = []
        for j, k, eq in _columns(vocabulary, patterns, rows, left_ids[at], reach[at]):
            lo = np.maximum(j - w[:k], 0)
            hi = np.minimum(j + 1 + w[:k], r[:k])
            free = eq & ~flagged[:k] & _BELOW[hi] & ~_BELOW[lo]
            flagged[:k] |= free & (~free + _ONE)
            lanes = np.flatnonzero(free)
            taken.append((lanes, eq[lanes]))
            if j < 4:
                common[:k] &= ((eq >> np.uint64(j)) & _ONE) != 0
                prefix[at[:k]] += common[:k]
        unpaired = flagged.copy()
        crossed = np.zeros(len(at), np.int64)
        for lanes, eq in taken:
            free = unpaired[lanes]
            lowest = free & (~free + _ONE)
            crossed[lanes] += (eq & lowest) == 0
            unpaired[lanes] = free ^ lowest
        matches, transpositions = np.bitwise_count(flagged).astype(np.int64), crossed // 2
        n = l_len[at]
        with np.errstate(divide="ignore", invalid="ignore"):
            score = (matches / n + matches / r + (matches - transpositions) / matches) / 3.0
        score[matches == 0] = 0.0
        score[(n == 0) & (r == 0)] = 1.0
        jaro[at] = score
    return jaro, prefix


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

    def _from_lanes(self, jaro, prefix):
        return jaro


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

    def _from_lanes(self, jaro, prefix):
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

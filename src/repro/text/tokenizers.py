"""String tokenizers (the py_stringmatching tokenizer family).

Every tokenizer exposes ``tokenize(text) -> list[str]``.  Constructing a
tokenizer with ``return_set=True`` makes it emit each distinct token once,
which is what set-based similarity measures and sim joins expect.

``token_codes(values)`` is the bulk form the index store's ``tokens``
build reads: the values' distinct tokens in first-seen order, and each
value's distinct tokens (``tokenize``'s set, in first-seen order) as
int32 codes into them.  It runs a few C-level or numpy passes per step
of values, not a Python frame per token: whitespace splits by
``map(str.split)``, q-grams with ``q <= 3`` are packed code points in
numpy, and every other tokenizer maps ``tokenize``; the string tokens
are numbered by :func:`number_into`, one first-seen map per call.
``tokenize`` stays the per-value path and the bulk form's oracle.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence
from itertools import chain, count, filterfalse

import numpy as np

from repro.exceptions import ConfigurationError

#: Code points (padding included) one bulk step tokenizes: bounds the
#: step's transient arrays and token lists however long the values are.
#: A step holds at least one value.
STEP_POINTS = 1 << 16
#: Code points a value counts for beyond its own, for its per-value lists
#: and counts: a step of short values holds at most 4,096 of them.
VALUE_POINTS = STEP_POINTS >> 12
#: Bits one code point takes in a packed q-gram: 3 of them fit a uint64.
_POINT_BITS = 21


def number_into(items: Sequence, numbers: dict, dtype=np.int32) -> np.ndarray:
    """Each item's number in ``numbers``, a first-seen numbering that the
    items it lacks join in order of first sight: what ``setdefault(item,
    len(numbers))`` per item gives, in three C-level passes."""
    fresh = filterfalse(numbers.__contains__, dict.fromkeys(items))
    numbers.update(zip(fresh, count(len(numbers))))
    return np.fromiter(map(numbers.__getitem__, items), dtype, len(items))


def number_runs(runs: list, numbers: dict) -> tuple[np.ndarray, np.ndarray]:
    """Runs of items laid end to end as :func:`number_into` codes, and
    each run's length."""
    lengths = np.fromiter(map(len, runs), np.int64, len(runs))
    return number_into(list(chain.from_iterable(runs)), numbers), lengths


def _dedupe(tokens: list[str]) -> list[str]:
    """Drop duplicate tokens, keeping first-seen order."""
    return list(dict.fromkeys(tokens))


def _splits_as(tokenizer: "Tokenizer", kind: type) -> bool:
    """True when ``tokenizer``'s class overrides neither ``tokenize`` nor
    ``kind``'s ``_split``, so ``kind``'s bulk form gives its tokens."""
    cls = type(tokenizer)
    return cls.tokenize is Tokenizer.tokenize and cls._split is kind._split


class Tokenizer:
    """Base class: handles the shared ``return_set`` behaviour."""

    def __init__(self, return_set: bool = False):
        self.return_set = return_set

    def name(self) -> str:
        """A short, stable identifier used in generated feature names."""
        raise NotImplementedError

    def _split(self, text: str) -> list[str]:
        raise NotImplementedError

    def tokenize(self, text: str) -> list[str]:
        """Tokenize ``text``; honours ``return_set``."""
        if not isinstance(text, str):
            raise TypeError(f"expected str, got {type(text).__name__}")
        tokens = self._split(text)
        return _dedupe(tokens) if self.return_set else tokens

    def tokenize_cached(self, text: str) -> list[str]:
        """Memoized :meth:`tokenize` for hot loops (feature extraction
        evaluates the same attribute values against many partners).

        Returns the cached list object — callers must not mutate it.
        """
        cache = getattr(self, "_cache", None)
        if cache is None:
            cache = self._cache = {}
        tokens = cache.get(text)
        if tokens is None:
            tokens = cache[text] = self.tokenize(text)
        return tokens

    def token_codes(self, values: Sequence[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
        """The bulk form of ``tokenize``'s token sets: the values' distinct
        tokens in first-seen order, each value's distinct tokens (in
        first-seen order) as int32 codes into them, laid end to end, and
        each value's count of them.  Runs a step of values at a time
        (:data:`STEP_POINTS`), numbering every step's tokens in one map."""
        numbers: dict[str, int] = {}
        codes, lengths = [np.zeros(0, np.int32)], [np.zeros(0, np.int64)]
        for step in self._steps(values):
            step_codes, step_lengths = self._step_codes(values[step], numbers)
            codes.append(step_codes)
            lengths.append(step_lengths)
        return list(numbers), np.concatenate(codes), np.concatenate(lengths)

    def _steps(self, values: Sequence[str]) -> Iterator[slice]:
        """Consecutive slices of ``values``, each at most
        :data:`STEP_POINTS` code points (padding and :data:`VALUE_POINTS`
        per value included) and at least one value."""
        sizes = np.fromiter(map(len, values), np.int64, len(values))
        ends = np.cumsum(sizes + self._padding_points() + VALUE_POINTS)
        start = 0
        while start < len(values):
            reach = (int(ends[start - 1]) if start else 0) + STEP_POINTS
            stop = max(start + 1, int(np.searchsorted(ends, reach, side="right")))
            yield slice(start, stop)
            start = stop

    def _padding_points(self) -> int:
        """Code points the tokenizer adds to each value."""
        return 0

    def _step_codes(self, values: Sequence[str], numbers: dict):
        per_value = map(self.tokenize, values)
        if not self.return_set:
            per_value = map(dict.fromkeys, per_value)
        return number_runs(list(per_value), numbers)

    def clear_cache(self) -> None:
        """Drop the :meth:`tokenize_cached` memo (e.g. between datasets)."""
        self.__dict__.pop("_cache", None)

    def spec(self) -> tuple:
        """A stable identity for cache keys: class name + config params.

        Two tokenizers with equal specs tokenize identically, so index
        artifacts built under one can be served to the other.  Private
        attributes (the memo, compiled patterns) are derived state and
        stay out; ``delimiters``-style sets are sorted for stability.
        """
        params = tuple(
            (name, sorted(value) if isinstance(value, (set, frozenset)) else value)
            for name, value in sorted(self.__dict__.items())
            if not name.startswith("_")
        )
        return (type(self).__name__, params)

    def __getstate__(self):
        # The memo can be large and is cheap to rebuild, so it stays out
        # of pickles (checkpoints, cross-process transfers).
        state = self.__dict__.copy()
        state.pop("_cache", None)
        return state

    def __repr__(self) -> str:
        return f"{type(self).__name__}(return_set={self.return_set})"


class WhitespaceTokenizer(Tokenizer):
    """Split on runs of whitespace.

    >>> WhitespaceTokenizer().tokenize("David  D. Smith")
    ['David', 'D.', 'Smith']
    """

    def name(self) -> str:
        return "ws"

    def _split(self, text: str) -> list[str]:
        return text.split()

    def _step_codes(self, values: Sequence[str], numbers: dict):
        if not _splits_as(self, WhitespaceTokenizer):
            return super()._step_codes(values, numbers)
        return number_runs(list(map(dict.fromkeys, map(str.split, values))), numbers)


class DelimiterTokenizer(Tokenizer):
    """Split on a fixed set of delimiter strings (default: space)."""

    def __init__(self, delimiters: set[str] | None = None, return_set: bool = False):
        super().__init__(return_set)
        self.delimiters = set(delimiters) if delimiters else {" "}
        if any(not d for d in self.delimiters):
            raise ConfigurationError("delimiters must be non-empty strings")
        self._pattern = re.compile(
            "|".join(re.escape(d) for d in sorted(self.delimiters, key=len, reverse=True))
        )

    def name(self) -> str:
        return "dlm"

    def _split(self, text: str) -> list[str]:
        return [tok for tok in self._pattern.split(text) if tok]


class QgramTokenizer(Tokenizer):
    """Character q-grams, optionally padded with sentinel characters.

    Padding (on by default, as in py_stringmatching) prepends q-1 copies of
    ``prefix_pad`` and appends q-1 copies of ``suffix_pad`` so that the
    string's boundary characters participate in as many q-grams as the
    interior ones.

    >>> QgramTokenizer(q=3).tokenize("ab")
    ['##a', '#ab', 'ab$', 'b$$']
    """

    def __init__(
        self,
        q: int = 3,
        padding: bool = True,
        prefix_pad: str = "#",
        suffix_pad: str = "$",
        return_set: bool = False,
    ):
        super().__init__(return_set)
        if q < 1:
            raise ConfigurationError(f"q must be >= 1, got {q}")
        if len(prefix_pad) != 1 or len(suffix_pad) != 1:
            raise ConfigurationError("pad characters must be single characters")
        self.q = q
        self.padding = padding
        self.prefix_pad = prefix_pad
        self.suffix_pad = suffix_pad

    def name(self) -> str:
        return f"qgm_{self.q}"

    def _split(self, text: str) -> list[str]:
        if self.padding:
            text = (
                self.prefix_pad * (self.q - 1) + text + self.suffix_pad * (self.q - 1)
            )
        if len(text) < self.q:
            return []
        return [text[i : i + self.q] for i in range(len(text) - self.q + 1)]

    def _padding_points(self) -> int:
        return 2 * (self.q - 1) if self.padding else 0

    def token_codes(self, values: Sequence[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Up to ``q = 3``, in numpy, per step: the padded values joined
        as UTF-32 code points, each gram packed into one uint64, and one
        stable argsort of the grams (:func:`_first_sights`).  A gram is
        made a string once, when first seen; later steps find its code
        among the sorted packed grams numbered so far."""
        if self.q * _POINT_BITS > 64 or not _splits_as(self, QgramTokenizer):
            return super().token_codes(values)
        tokens: list[str] = []
        # The grams numbered so far, sorted, ending in a sentinel no gram
        # packs to (q grams use at most 63 bits), so every lookup lands.
        known = np.array([np.iinfo(np.uint64).max], np.uint64)
        known_codes = np.array([-1])
        codes, lengths = [np.zeros(0, np.int32)], [np.zeros(0, np.int64)]
        for step in self._steps(values):
            chunk = values[step]
            text, sizes, starts, grams, owner = self._packed_grams(chunk)
            occurrence, kept, first = _first_sights(grams, owner)
            heads = grams[first]
            at = np.searchsorted(known, heads)
            ids = known_codes[at]
            fresh = np.flatnonzero(known[at] != heads)
            ids[fresh] = len(tokens) + np.arange(len(fresh))
            tokens += self._strings(text, chunk, sizes, starts[first[fresh]], owner[first[fresh]])
            known = np.concatenate([known, heads[fresh]])
            known_codes = np.concatenate([known_codes, ids[fresh]])
            order = np.argsort(known, kind="stable")
            known, known_codes = known[order], known_codes[order]
            codes.append(ids[occurrence[kept]].astype(np.int32))
            lengths.append(np.bincount(owner[kept], minlength=len(chunk)).astype(np.int64))
        return tokens, np.concatenate(codes), np.concatenate(lengths)

    def _packed_grams(self, values: Sequence[str]):
        """The padded values joined, each one's padded size, and per gram
        that does not cross a value's end: its start in the text, its q
        code points packed into a uint64, and its value."""
        q, pad = self.q, self._padding_points() // 2
        prefix, suffix = self.prefix_pad * pad, self.suffix_pad * pad
        text = prefix + (suffix + prefix).join(values) + suffix
        points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
        sizes = np.fromiter(map(len, values), np.int64, len(values)) + 2 * pad
        n_starts = max(len(points) - q + 1, 0)
        packed = points[:n_starts].astype(np.uint64)
        for j in range(1, q):
            packed <<= np.uint64(_POINT_BITS)
            packed |= points[j : j + n_starts]
        ends, valid = np.cumsum(sizes), np.ones(len(points), bool)
        for k in range(1, q):  # the last q - 1 starts of a value cross its end
            valid[ends[ends >= k] - k] = False
        starts = np.flatnonzero(valid[:n_starts])
        owner = np.repeat(np.arange(len(values)), np.maximum(sizes - q + 1, 0))
        return text, sizes, starts, packed[starts], owner

    def _strings(self, text: str, values: Sequence[str], sizes, starts, owner) -> list[str]:
        """The grams at ``starts`` of ``text`` as strings.  Unpadded, a
        value of exactly q characters is its own gram, as slicing it is."""
        q = self.q
        strings = list(map(text.__getitem__, map(slice, starts.tolist(), (starts + q).tolist())))
        if not self._padding_points():
            for i in np.flatnonzero(sizes[owner] == q).tolist():
                strings[i] = values[owner[i]]
        return strings


def _first_sights(grams: np.ndarray, owner: np.ndarray):
    """One stable argsort of ``grams``: each occurrence's local number (its
    gram's rank by first sight), which occurrences are their value's first
    of that gram, and each local number's first occurrence."""
    order = np.argsort(grams, kind="stable")
    ordered = grams[order]
    same = ordered[1:] == ordered[:-1]
    kept = np.ones(len(grams), bool)
    kept[order[1:]] = ~(same & (owner[order[1:]] == owner[order[:-1]]))
    heads = np.concatenate([[True], ~same])[: len(grams)]
    first = order[heads]  # per distinct gram, in gram order
    seen = np.argsort(first)
    local = np.empty(len(first), np.int64)
    local[seen] = np.arange(len(first))
    occurrence = np.empty(len(grams), np.int64)
    occurrence[order] = local[np.cumsum(heads) - 1]
    return occurrence, kept, first[seen]


class QgramBagTokenizer(QgramTokenizer):
    """Unpadded q-grams, the *k*-th repeat of a gram tagged with ``k``.

    Grams are exactly ``q`` characters long, so a tag is never gram text
    and one string's tokens are distinct: two strings' token-*set*
    overlap is their q-gram *bag* overlap (the edit-distance join's
    count filter).

    >>> QgramBagTokenizer(q=2).tokenize("aaab")
    ['aa', 'aa1', 'ab']
    """

    def __init__(self, q: int = 2):
        super().__init__(q=q, padding=False, return_set=True)

    def name(self) -> str:
        return f"qbag_{self.q}"

    def _split(self, text: str) -> list[str]:
        seen: dict[str, int] = {}
        tokens = []
        for gram in super()._split(text):
            seen[gram] = k = seen.get(gram, -1) + 1
            tokens.append(f"{gram}{k}" if k else gram)
        return tokens


class AlphabeticTokenizer(Tokenizer):
    """Maximal runs of alphabetic characters.

    >>> AlphabeticTokenizer().tokenize("data9science, data")
    ['data', 'science', 'data']
    """

    _pattern = re.compile(r"[a-zA-Z]+")

    def name(self) -> str:
        return "alph"

    def _split(self, text: str) -> list[str]:
        return self._pattern.findall(text)


class AlphanumericTokenizer(Tokenizer):
    """Maximal runs of alphanumeric characters.

    >>> AlphanumericTokenizer().tokenize("#1 data9,science")
    ['1', 'data9', 'science']
    """

    _pattern = re.compile(r"[a-zA-Z0-9]+")

    def name(self) -> str:
        return "alnum"

    def _split(self, text: str) -> list[str]:
        return self._pattern.findall(text)

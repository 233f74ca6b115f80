"""String tokenizers (the py_stringmatching tokenizer family).

Every tokenizer exposes ``tokenize(text) -> list[str]``.  Constructing a
tokenizer with ``return_set=True`` makes it emit each distinct token once,
which is what set-based similarity measures and sim joins expect.
"""

from __future__ import annotations

import re

from repro.exceptions import ConfigurationError


def _dedupe(tokens: list[str]) -> list[str]:
    """Drop duplicate tokens, keeping first-seen order."""
    return list(dict.fromkeys(tokens))


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

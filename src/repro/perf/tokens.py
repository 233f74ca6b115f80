"""Token dictionary encoding: strings to dense, frequency-ranked int ids.

A :class:`TokenUniverse` assigns every distinct token of a corpus a dense
integer id, ranked by ascending corpus frequency (ties broken lexically).
Because rare tokens get small ids, a record encoded as a *sorted* tuple of
ids is already in the canonical prefix-filter order: its most selective
tokens come first, and taking a prefix is a slice instead of a keyed sort.

This subsumes ``TokenOrder`` in :mod:`repro.simjoin.filters`, which is now
a thin wrapper kept for its public string-level API.  Encoding an ad-hoc
query, whose unknown tokens are dropped, is the live index's job
(:class:`repro.index.delta.LiveIndex`), since only it also knows the ids
its upserts appended past the universe.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable


class TokenUniverse:
    """Dense integer ids for tokens, ranked by ascending global frequency.

    The corpus is an iterable of token iterables (one per record); each
    record contributes each of its distinct tokens once to the frequency
    count, exactly as a sim join's prefix ordering requires.
    """

    __slots__ = ("_ids", "_tokens")

    def __init__(self, corpus: Iterable[Iterable[str]] = ()):
        frequency: Counter[str] = Counter()
        for record in corpus:
            frequency.update(set(record))
        ranked = sorted(frequency.items(), key=lambda item: (item[1], item[0]))
        self._tokens = [token for token, _ in ranked]
        self._ids = {token: i for i, token in enumerate(self._tokens)}

    @classmethod
    def from_ranked(cls, tokens: Iterable[str]) -> "TokenUniverse":
        """The universe whose ids are the positions of ``tokens``, which
        are distinct and already in rank order."""
        universe = cls()
        universe._tokens = list(tokens)
        universe._ids = dict(zip(universe._tokens, range(len(universe._tokens))))
        return universe

    def extended(self, tokens: Iterable[str]) -> "TokenUniverse":
        """A copy with ``tokens`` (all unseen) appended past the last id.

        Every id this universe assigned stays what it was, so records
        and prefixes encoded under it remain valid under the copy: any
        fixed total order keeps the prefix filter exact, the frequency
        ranking only makes it selective.
        """
        return TokenUniverse.from_ranked([*self._tokens, *tokens])

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def token_id(self, token: str) -> int:
        """The dense id of a known token (raises ``KeyError`` if unknown)."""
        return self._ids[token]

    def known_ids(self, tokens: Iterable[str]) -> list[int]:
        """The ids of the tokens this universe knows, unknown ones dropped
        (unsorted)."""
        ids = self._ids
        return [ids[token] for token in tokens if token in ids]

    def decode(self, ids: Iterable[int]) -> list[str]:
        """Map ids back to tokens (debugging / explain output)."""
        return [self._tokens[i] for i in ids]

    def encode(self, tokens: Iterable[str]) -> tuple[int, ...]:
        """Distinct tokens as a sorted tuple of ids (rarest first).

        Every token must be known to the universe; joins build the
        universe over both sides first, so an unknown token here is a
        programming error and raises ``KeyError``.
        """
        ids = self._ids
        return tuple(sorted({ids[token] for token in tokens}))

    # ------------------------------------------------------------------
    # String-level ordering API (TokenOrder compatibility)
    # ------------------------------------------------------------------
    def rank(self, token: str) -> tuple[int, str]:
        """Sort key for a token; unknown tokens sort first (rarest)."""
        return (self._ids.get(token, -1) + 1, token)

    def order(self, tokens: Iterable[str]) -> list[str]:
        """Distinct tokens sorted by the global ordering."""
        return sorted(set(tokens), key=self.rank)

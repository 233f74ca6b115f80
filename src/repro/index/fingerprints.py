"""Content fingerprints for index artifacts.

The runtime's :func:`repro.runtime.fingerprint` is *structural* — it
hashes the parts it is given (``CheckpointedRun`` gives it the run id,
the partition node and the partition count).  Index artifacts cannot
rely on structure: the same logical column arrives as ever-fresh
``Table`` objects (blockers and rule execution build projected views per
call), and a mutated table must never serve a stale index.  So artifact keys hash *content*: the key and
value columns are streamed value-by-value into the digest, and every
derived artifact chains the digests of what it was built from.

Fingerprinting is O(n) per call, but n is a column scan — orders of
magnitude cheaper than the tokenize/encode/index build it lets us skip,
and the only way mutation detection can be sound without a table version
counter.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from itertools import islice
from typing import Any

from repro.table.table import Table
from repro.text.tokenizers import Tokenizer

# Bump when any artifact layout changes: persisted artifacts from older
# code must miss, not unpickle into the wrong shape.
FORMAT_VERSION = 1

#: Values per step of a streamed pass over a column (one ``update``
#: call): bounds the memory the pass holds for the chunk.
_CHUNK = 4096


def _stream(digest, parts: Iterable[Any]) -> None:
    """``repr(part)`` + NUL per part, UTF-8, one ``update`` per chunk."""
    parts = iter(parts)
    while chunk := list(islice(parts, _CHUNK)):
        digest.update(("\x00".join(map(repr, chunk)) + "\x00").encode("utf-8"))


def combine(*parts: Any) -> str:
    """Digest small key parts (kind tags, digests, thresholds) into one."""
    digest = hashlib.sha256()
    _stream(digest, (FORMAT_VERSION, *parts))
    return digest.hexdigest()[:32]


def column_fingerprint(table: Table, key: str, column: str) -> str:
    """Content digest of a keyed column: the (key, value) sequence.

    Deliberately independent of the *names* of the columns: blockers and
    rule execution probe through projected views
    (:func:`repro.blocking.text_view`), and a view over unchanged values
    must hit the artifacts of the original.
    """
    digest = hashlib.sha256()
    digest.update(b"column\x00")
    _stream(digest, table.column(key))
    digest.update(b"\x00values\x00")
    _stream(digest, table.column(column))
    return digest.hexdigest()[:32]


def tokenizer_fingerprint(tokenizer: Tokenizer) -> str:
    """Digest of a tokenizer's :meth:`~repro.text.tokenizers.Tokenizer.spec`.

    Covers the class and every constructor parameter (q, padding, pads,
    delimiters, ``return_set``), so changing the tokenizer can never
    serve the previous tokenizer's artifacts.
    """
    return combine("tokenizer", tokenizer.spec())


def vectorizer_fingerprint(vectorizer) -> str:
    """Digest of a vectorizer's ``spec()`` (class + constructor params).

    Same contract as :func:`tokenizer_fingerprint`, for the
    :class:`repro.text.vectorize.HashedNgramVectorizer` family: two
    vectorizers with equal specs embed identically, so vector artifacts
    built under one are served to the other — and changing ``q``,
    ``dim``, padding, or casing can never serve stale embeddings.
    """
    return combine("vectorizer", vectorizer.spec())

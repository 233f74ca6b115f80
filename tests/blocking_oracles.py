"""Per-pair blocker decisions, kept as oracles.

Each blocker decides pairs once, in ``Blocker.keep`` over row positions.
These are the scalar bodies that used to sit beside it as
``block_tuples`` (and ``Predicate.holds`` / ``BlockingRule.drops``): each
returns ``True`` when the pair of row dicts is *dropped*.  They differ
from ``keep`` only where ``block_tables`` does: a rule that runs as a
join drops a pair with a missing value, which ``rule_drops`` lets
through, and a present value that prints blank has no record for the
overlap join, while ``overlap_drops`` tokenizes it.
"""

from __future__ import annotations

from repro.blocking import (
    AttrEquivalenceBlocker,
    BlackBoxBlocker,
    HashBlocker,
    OverlapBlocker,
    RuleBasedBlocker,
    VectorBlocker,
)
from repro.exceptions import ConfigurationError
from repro.table.schema import is_missing
from repro.text.tokenizers import QgramTokenizer, WhitespaceTokenizer
from repro.text.vectorize import HashedNgramVectorizer, cosine


def predicate_holds(predicate, l_row, r_row) -> bool:
    return predicate.holds_value(predicate.feature.apply_rows(l_row, r_row))


def rule_drops(rule, l_row, r_row) -> bool:
    """True when every predicate of the rule holds for the pair."""
    return all(predicate_holds(predicate, l_row, r_row) for predicate in rule.predicates)


def overlap_drops(blocker: OverlapBlocker, l_row, r_row) -> bool:
    tokenizer = (
        WhitespaceTokenizer(return_set=True) if blocker.word_level
        else QgramTokenizer(q=blocker.q, return_set=True)
    )

    def tokens(value) -> set[str]:
        return set() if is_missing(value) else set(tokenizer.tokenize(str(value).lower()))

    shared = tokens(l_row[blocker.l_block_attr]) & tokens(r_row[blocker.r_block_attr])
    return len(shared) < blocker.overlap_size


def hash_drops(l_value, r_value) -> bool:
    return l_value is None or r_value is None or l_value != r_value


def present(value):
    return None if is_missing(value) else value


def vector_drops(blocker: VectorBlocker, l_row, r_row) -> bool:
    """The cosine of the two values embedded alone (no IDF)."""
    vectorizer = HashedNgramVectorizer(q=blocker.q, dim=blocker.dim, lowercase=True)

    def embed(value):
        return {} if is_missing(value) else vectorizer.embed_normalized(str(value))

    l_vector, r_vector = embed(l_row[blocker.l_block_attr]), embed(r_row[blocker.r_block_attr])
    return cosine(l_vector, r_vector) < blocker.threshold


def pairwise_drops(blocker, l_row, r_row) -> bool:
    """The blocker's per-pair answer."""
    if isinstance(blocker, OverlapBlocker):
        return overlap_drops(blocker, l_row, r_row)
    if isinstance(blocker, AttrEquivalenceBlocker):
        return hash_drops(
            present(l_row[blocker.l_block_attr]), present(r_row[blocker.r_block_attr])
        )
    if isinstance(blocker, HashBlocker):
        return hash_drops(blocker.l_hash(l_row), blocker.r_hash(r_row))
    if isinstance(blocker, RuleBasedBlocker):
        if not blocker.rules:
            raise ConfigurationError("RuleBasedBlocker has no rules")
        return any(rule_drops(rule, l_row, r_row) for rule in blocker.rules)
    if isinstance(blocker, VectorBlocker):
        return vector_drops(blocker, l_row, r_row)
    if isinstance(blocker, BlackBoxBlocker):
        return bool(blocker.function(l_row, r_row))
    raise TypeError(f"no per-pair oracle for {type(blocker).__name__}")


def pairwise_pairs(blocker, ltable, rtable, l_key="id", r_key="id") -> list[tuple]:
    """The key pairs of A x B the per-pair answer keeps, in (left row,
    right row) order: the quadratic scan."""
    r_rows = list(rtable.rows())
    return [
        (l_row[l_key], r_row[r_key])
        for l_row in ltable.rows()
        for r_row in r_rows
        if not pairwise_drops(blocker, l_row, r_row)
    ]

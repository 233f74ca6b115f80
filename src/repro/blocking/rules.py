"""Blocking rules: predicates, conjunctions, and their one evaluator.

A blocking rule is a conjunction of predicates over features; a pair is
*dropped* when every predicate holds (Figure 4.b of the paper: ``ISBN
match < 1 -> drop``, ``ISBN match >= 1 AND #pages match < 1 -> drop``).

Falcon executes the retained rules on A x B.  The survivors of a rule
``p1 AND p2 -> drop`` are the pairs satisfying ``NOT p1 OR NOT p2``: when
each complement is a "similarity above threshold" predicate over a token
or exact feature, the rule is *executable*, its survivors a union of
joins.  :func:`candidate_positions` joins one executable rule and checks
the others over feature columns (:func:`check_rules`), which is all a
rule set with no executable rule runs.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cache
from typing import Any

import numpy as np

from repro.blocking.base import (
    TEXT,
    PairCodes,
    record_rows,
    text_join_positions,
    text_view,
    value_ids,
)
from repro.exceptions import ConfigurationError, WorkflowError
from repro.features.feature import Feature, FeatureTable
from repro.index.store import get_index_store
from repro.obs import get_registry, trace_span
from repro.perf import arrays
from repro.simjoin.filters import SET_MEASURES, validate_measure
from repro.table.schema import is_missing
from repro.table.table import Table

_OPS = {">": np.greater, ">=": np.greater_equal, "<": np.less, "<=": np.less_equal}
_COMPLEMENT = {"<=": ">", "<": ">=", ">=": "<", ">": "<="}


@dataclass(frozen=True)
class Predicate:
    """``feature <op> threshold`` over a pair of rows.

    A NaN feature value (missing data) satisfies no predicate, nor its
    complement: a rule containing it does not fire, and a join of the
    complement does not emit the pair (see :meth:`BlockingRule.keeps`).
    """

    feature: Feature
    op: str
    threshold: float

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ConfigurationError(f"op must be one of {sorted(_OPS)}, got {self.op!r}")

    def mask(self, values: np.ndarray) -> np.ndarray:
        """Which values of a float64 column satisfy the predicate."""
        return _OPS[self.op](values, self.threshold)

    def holds_value(self, value: float) -> bool:
        return bool(self.mask(value))

    def complement(self) -> "Predicate":
        """The negation, as a predicate with the flipped operator."""
        return Predicate(self.feature, _COMPLEMENT[self.op], self.threshold)

    @property
    def is_join_executable(self) -> bool:
        """Are the pairs this predicate holds for exactly a join's output?

        True for a token feature on a set-similarity measure, or an exact
        feature, when the predicate implies a shared token (or equal
        values): ``>= t`` with ``0 < t <= 1`` or ``> t`` with ``0 <= t < 1``.
        """
        t, kind = self.threshold, self.feature.sim_kind
        if not ((self.op == ">=" and 0 < t <= 1) or (self.op == ">" and 0 <= t < 1)):
            return False
        measure = self.feature.measure_name.lower()
        # ``overlap`` counts shared tokens: its thresholds are not in (0, 1].
        return kind == "exact" or (kind == "token" and measure in SET_MEASURES
                                   and measure != "overlap")

    def __str__(self) -> str:
        return f"{self.feature.name} {self.op} {self.threshold:.4f}"


@dataclass
class BlockingRule:
    """Drop a pair when ALL predicates hold (a conjunction)."""

    predicates: tuple[Predicate, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.predicates:
            raise ConfigurationError("a blocking rule needs at least one predicate")
        self.predicates = tuple(self.predicates)

    def keeps(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Mask of the pairs surviving the rule over float64 feature
        columns by name: its joins' pairs if it is executable (a missing
        value drops a pair), else the pairs where some predicate does not
        hold (a missing value keeps it)."""
        if not self.is_executable:
            return ~all_hold(self.predicates, columns)
        masks = [p.complement().mask(columns[p.feature.name]) for p in self.predicates]
        return np.logical_or.reduce(masks)

    @property
    def is_executable(self) -> bool:
        """True when the rule's survivors can be computed by joins.

        Survivors are the union of the predicates' complements, so every
        complement must itself be join-executable.
        """
        return all(p.complement().is_join_executable for p in self.predicates)

    def __str__(self) -> str:
        body = " AND ".join(str(p) for p in self.predicates)
        label = self.name or "rule"
        return f"{label}: IF {body} THEN drop"


def parse_predicate(spec: str, feature_table: FeatureTable) -> Predicate:
    """Parse ``"<feature_name> <op> <threshold>"`` into a Predicate.

    This is the declarative rule syntax of the guide, e.g.
    ``"name_jaccard_ws < 0.4"``.
    """
    parts = spec.split()
    if len(parts) != 3:
        raise ConfigurationError(
            f"predicate spec must be '<feature> <op> <value>', got {spec!r}"
        )
    name, op, raw_threshold = parts
    feature = feature_table.get(name)
    try:
        threshold = float(raw_threshold)
    except ValueError:
        raise ConfigurationError(f"invalid threshold in {spec!r}") from None
    return Predicate(feature, op, threshold)


def parse_rule(
    specs: list[str] | str, feature_table: FeatureTable, name: str = ""
) -> BlockingRule:
    """Parse one rule from predicate spec strings (AND-ed together)."""
    if isinstance(specs, str):
        specs = [specs]
    return BlockingRule(
        tuple(parse_predicate(spec, feature_table) for spec in specs), name=name
    )


def all_hold(predicates: Sequence[Predicate], columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """Mask of the rows where every predicate holds on its feature's column."""
    return np.logical_and.reduce([p.mask(columns[p.feature.name]) for p in predicates])


def _exact_keys(*columns: Sequence[Any]) -> list[list[Any]]:
    """Per column, each value as the exact feature compares it, for a join
    on ``==``: a ``str`` lower-cased, ``None`` (equal to nothing) when it
    is missing or unequal to itself, and an unhashable value a stand-in
    shared by the unhashable values of every column it equals."""
    loose: list[tuple[Any, object]] = []

    def key(value: Any) -> Any:
        if is_missing(value):
            return None
        value = value.lower() if isinstance(value, str) else value
        if value != value:
            return None
        try:
            hash(value)
            return value
        except TypeError:
            mark = next((mark for other, mark in loose if other == value), None)
            if mark is None:
                loose.append((value, mark := object()))
            return mark

    return [[key(value) for value in column] for column in columns]


def _complement_join(predicate: Predicate, sides, view):
    """``(cost, join)`` of the predicate's complement over ``sides``,
    ``((ltable, l_key), (rtable, r_key))``, and their text views
    ``view(side, attr)``: ``join()`` gives the rows of the pairs it holds
    for, as the feature scores them; ``cost``, known before it runs, is
    the equal pairs or the probe's summed prefix posting lengths (off the
    array index it then reuses) plus the pairs of empty token sets and of
    blank texts."""
    feature, complement = predicate.feature, predicate.complement()
    (ltable, l_key), (rtable, r_key) = sides
    if feature.sim_kind == "exact":  # exact_match > t (t < 1) means equality
        keys = _exact_keys(ltable.column(feature.l_attr), rtable.column(feature.r_attr))
        counts = Counter(keys[0])
        cost = sum(counts[key] for key in keys[1] if key is not None)
        return cost, lambda: arrays.equal_id_pairs(*value_ids(*keys))
    views = view(0, feature.l_attr), view(1, feature.r_attr)
    # A strict '>' drops the ties of a join at its threshold (or at 1e-9 for 0).
    measure, threshold = validate_measure(feature.measure_name), complement.threshold
    join_at, store, tokenizer = max(threshold, 1e-9), get_index_store(), feature.tokenizer
    encoding = store.join_encoding(*views, l_key, r_key, TEXT, TEXT, tokenizer)
    index, left = store.array_index(encoding, measure, join_at), encoding.left
    probe = arrays.ProbeBatch(left.indptr, left.indices, left.sizes, measure, join_at, index.dim)
    # Two records of no tokens score 1.0, which every joinable complement
    # holds for, but share no token for the join to find.  A present value
    # whose text prints blank has no record at all: its pairs are scored
    # by the feature itself.
    l_empty, r_empty = (rows[side.sizes == 0] for side, rows in
                        zip((left, encoding.right), map(record_rows, views)))
    l_blank, r_blank = (
        np.array([row for row, text in enumerate(v.column(TEXT))
                  if text is not None and is_missing(text)], np.int64)
        for v in views
    )
    n_left, n_right = ltable.num_rows, rtable.num_rows
    n_blank = len(l_blank) * n_right + (n_left - len(l_blank)) * len(r_blank)

    def blank_pairs():
        """The pairs with a blank text on either side that the complement
        holds for, as the feature scores them."""
        if not n_blank:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        others = np.setdiff1d(np.arange(n_left), l_blank)
        l_rows = np.concatenate([np.repeat(l_blank, n_right), np.repeat(others, len(r_blank))])
        r_rows = np.concatenate([np.tile(np.arange(n_right), len(l_blank)),
                                 np.tile(r_blank, len(others))])
        from repro.features.extraction import feature_columns  # extraction imports blocking

        (values,) = feature_columns(sides, l_rows, r_rows, [feature])
        keep = complement.mask(np.asarray(values, np.float64))
        return l_rows[keep], r_rows[keep]

    def join():
        l_rows, r_rows, scores = text_join_positions(
            views, l_key, r_key, tokenizer, measure, join_at
        )
        keep = scores > threshold if complement.op == ">" else slice(None)
        l_blanks, r_blanks = blank_pairs()
        return (np.concatenate([l_rows[keep], np.repeat(l_empty, len(r_empty)), l_blanks]),
                np.concatenate([r_rows[keep], np.tile(r_empty, len(l_empty)), r_blanks]))

    cost = int(index.posting_lengths(probe.prefix_ids).sum()) + len(l_empty) * len(r_empty)
    return cost + n_blank, join


def check_rules(rules, sides, l_pos: np.ndarray, r_pos: np.ndarray) -> np.ndarray:
    """Mask of the pairs ``(l_pos[i], r_pos[i])`` of ``sides``,
    ``((ltable, l_key), (rtable, r_key))``, that survive each ``(position,
    rule)`` in turn, each rule checked over its features of the pairs
    left (:meth:`BlockingRule.keeps`)."""
    from repro.features.extraction import feature_columns  # extraction imports blocking

    registry = get_registry()
    left = np.arange(len(l_pos))
    for position, rule in rules:
        if not len(left):
            break
        registry.counter("blocking_rule_pairs_checked_total").inc(len(left))
        with trace_span("rule_check", rule=position, pairs=len(left)):
            features = list({p.feature.name: p.feature for p in rule.predicates}.values())
            values = feature_columns(sides, l_pos[left], r_pos[left], features)
            keep = rule.keeps({f.name: np.asarray(v, np.float64) for f, v in zip(features, values)})
        left = left[keep]
        registry.counter("blocking_rule_survivors_total", rule=str(position)).inc(len(left))
    kept = np.zeros(len(l_pos), bool)
    kept[left] = True
    return kept


def candidate_positions(
    rules: list[BlockingRule], ltable: Table, rtable: Table, l_key: str, r_key: str,
    codes: PairCodes,
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the pairs surviving every rule, at least one of them
    executable, in ``codes`` order: the seeds (the joins of the executable
    rule of least cost), then the other rules checked on the pairs left,
    executable ones cheapest first (a rule's cost bounds the pairs it
    keeps)."""
    if not rules:
        raise WorkflowError("no blocking rules to execute")
    sides = (ltable, l_key), (rtable, r_key)
    view = cache(lambda side, attr: text_view(*sides[side], [attr]))
    joins = {at: [_complement_join(p, sides, view) for p in rule.predicates]
             for at, rule in enumerate(rules) if rule.is_executable}
    costs = {at: sum(cost for cost, _ in plan) for at, plan in joins.items()}
    order = sorted(range(len(rules)), key=lambda at: costs.get(at, np.inf))
    seed, registry = order.pop(0), get_registry()
    registry.counter("blocking_rule_joins_total").inc(len(joins[seed]))
    seeds = arrays.unique_sorted(np.concatenate([codes.encode(*j()) for _, j in joins[seed]]))
    registry.counter("blocking_rule_survivors_total", rule=str(seed)).inc(len(seeds))
    l_pos, r_pos = codes.decode(seeds)
    kept = check_rules([(at, rules[at]) for at in order], sides, l_pos, r_pos)
    return l_pos[kept], r_pos[kept]


def execute_rules(
    rules: list[BlockingRule],
    ltable: Table,
    rtable: Table,
    l_key: str = "id",
    r_key: str = "id",
) -> set[tuple[Any, Any]]:
    """Candidate pairs surviving *all* rules, each join-executable."""
    for rule in rules:
        if not rule.is_executable:
            raise WorkflowError(f"rule is not join-executable: {rule}")
    codes = PairCodes(np.arange(ltable.num_rows), np.arange(rtable.num_rows))
    l_pos, r_pos = candidate_positions(rules, ltable, rtable, l_key, r_key, codes)
    return set(
        zip(
            arrays.take_values(ltable.column(l_key), l_pos),
            arrays.take_values(rtable.column(r_key), r_pos),
        )
    )

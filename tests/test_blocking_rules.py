"""Tests for blocking rules: predicates, parsing, and join execution."""

import math

import pytest

from repro.blocking import (
    BlockingRule,
    Predicate,
    RuleBasedBlocker,
    execute_rules,
    parse_predicate,
    parse_rule,
)
from repro.exceptions import ConfigurationError, WorkflowError
from repro.features import get_features_for_blocking, get_features_for_matching
from repro.table import Table
from tests.blocking_oracles import pairwise_drops, pairwise_pairs, rule_drops


@pytest.fixture
def name_tables():
    table_a = Table(
        {
            "id": ["a1", "a2", "a3"],
            "name": ["dave smith", "joe wilson", "dan smith"],
            "age": [40, 30, 35],
        }
    )
    table_b = Table(
        {
            "id": ["b1", "b2"],
            "name": ["dave smith", "daniel smith"],
            "age": [40, 36],
        }
    )
    return table_a, table_b


class TestPredicate:
    def test_ops(self, name_tables):
        features = get_features_for_blocking(*name_tables)
        feature = features.get("name_jaccard_ws")
        assert Predicate(feature, ">=", 0.5).holds_value(0.5)
        assert not Predicate(feature, ">", 0.5).holds_value(0.5)
        assert Predicate(feature, "<=", 0.5).holds_value(0.5)
        assert not Predicate(feature, "<", 0.5).holds_value(0.5)

    def test_nan_satisfies_nothing(self, name_tables):
        features = get_features_for_blocking(*name_tables)
        feature = features.get("name_jaccard_ws")
        for op in ("<=", "<", ">=", ">"):
            assert not Predicate(feature, op, 0.5).holds_value(math.nan)

    def test_invalid_op(self, name_tables):
        features = get_features_for_blocking(*name_tables)
        with pytest.raises(ConfigurationError):
            Predicate(features.get("name_jaccard_ws"), "==", 0.5)

    def test_complement_flips(self, name_tables):
        features = get_features_for_blocking(*name_tables)
        predicate = Predicate(features.get("name_jaccard_ws"), "<=", 0.4)
        assert predicate.complement().op == ">"
        assert predicate.complement().complement().op == "<="

    def test_join_executability(self, name_tables):
        table_a, table_b = name_tables
        blocking = get_features_for_blocking(table_a, table_b)
        matching = get_features_for_matching(table_a, table_b)
        token = Predicate(blocking.get("name_jaccard_ws"), ">=", 0.4)
        assert token.is_join_executable
        below = Predicate(blocking.get("name_jaccard_ws"), "<=", 0.4)
        assert not below.is_join_executable
        edit = Predicate(matching.get("name_lev_sim"), ">=", 0.4)
        assert not edit.is_join_executable  # edit-based feature


class TestRuleParsing:
    def test_parse_predicate(self, name_tables):
        features = get_features_for_blocking(*name_tables)
        predicate = parse_predicate("name_jaccard_ws < 0.4", features)
        assert predicate.op == "<"
        assert predicate.threshold == 0.4

    def test_parse_rule_conjunction(self, name_tables):
        features = get_features_for_blocking(*name_tables)
        rule = parse_rule(
            ["name_jaccard_ws <= 0.4", "name_exact <= 0.5"], features, name="r1"
        )
        assert len(rule.predicates) == 2
        assert "r1" in str(rule)

    def test_parse_errors(self, name_tables):
        features = get_features_for_blocking(*name_tables)
        with pytest.raises(ConfigurationError):
            parse_predicate("name_jaccard_ws <", features)
        with pytest.raises(ConfigurationError):
            parse_predicate("no_such_feature < 0.4", features)
        with pytest.raises(ConfigurationError):
            parse_predicate("name_jaccard_ws < abc", features)

    def test_empty_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            BlockingRule(())


class TestRuleSemantics:
    def test_drops_low_similarity(self, name_tables):
        table_a, table_b = name_tables
        features = get_features_for_blocking(table_a, table_b)
        rule = parse_rule("name_jaccard_ws <= 0.3", features)
        a_rows = {row["id"]: row for row in table_a.rows()}
        b_rows = {row["id"]: row for row in table_b.rows()}
        assert rule_drops(rule, a_rows["a2"], b_rows["b1"])  # joe wilson vs dave smith
        assert not rule_drops(rule, a_rows["a1"], b_rows["b1"])  # identical names

    def test_executable_flag(self, name_tables):
        features = get_features_for_blocking(*name_tables)
        executable = parse_rule("name_jaccard_ws <= 0.4", features)
        assert executable.is_executable
        not_executable = parse_rule("name_jaccard_ws > 0.4", features)
        assert not not_executable.is_executable


class TestRuleExecution:
    def test_survivors_match_pairwise(self, name_tables):
        table_a, table_b = name_tables
        features = get_features_for_blocking(table_a, table_b)
        rule = parse_rule("name_jaccard_ws <= 0.3", features)
        survivors = execute_rules([rule], table_a, table_b, "id", "id")
        expected = {
            (l_row["id"], r_row["id"])
            for l_row in table_a.rows()
            for r_row in table_b.rows()
            if not rule_drops(rule, l_row, r_row)
        }
        assert survivors == expected

    def test_conjunction_survivors_are_union_of_complements(self, name_tables):
        table_a, table_b = name_tables
        features = get_features_for_blocking(table_a, table_b)
        rule = parse_rule(
            ["name_jaccard_ws <= 0.3", "name_exact <= 0.5"], features
        )
        survivors = execute_rules([rule], table_a, table_b, "id", "id")
        expected = {
            (l_row["id"], r_row["id"])
            for l_row in table_a.rows()
            for r_row in table_b.rows()
            if not rule_drops(rule, l_row, r_row)
        }
        assert survivors == expected

    def test_multiple_rules_intersect(self, name_tables):
        table_a, table_b = name_tables
        features = get_features_for_blocking(table_a, table_b)
        rule1 = parse_rule("name_jaccard_ws <= 0.3", features)
        rule2 = parse_rule("name_jaccard_qgm3 <= 0.2", features)
        combined = execute_rules([rule1, rule2], table_a, table_b, "id", "id")
        s1 = execute_rules([rule1], table_a, table_b, "id", "id")
        s2 = execute_rules([rule2], table_a, table_b, "id", "id")
        assert combined == s1 & s2

    def test_exact_predicate_execution(self, name_tables):
        table_a, table_b = name_tables
        features = get_features_for_blocking(table_a, table_b)
        rule = parse_rule("name_exact <= 0.5", features)
        survivors = execute_rules([rule], table_a, table_b, "id", "id")
        assert survivors == {("a1", "b1")}  # only exactly-equal names survive

    def test_non_executable_rule_raises(self, name_tables):
        table_a, table_b = name_tables
        features = get_features_for_blocking(table_a, table_b)
        rule = parse_rule("name_jaccard_ws > 0.4", features)
        with pytest.raises(WorkflowError):
            execute_rules([rule], table_a, table_b, "id", "id")

    def test_no_rules_raises(self, name_tables):
        with pytest.raises(WorkflowError):
            execute_rules([], *name_tables, "id", "id")


class TestRuleBasedBlocker:
    def test_join_path_used_when_executable(self, name_tables):
        table_a, table_b = name_tables
        features = get_features_for_blocking(table_a, table_b)
        blocker = RuleBasedBlocker()
        blocker.add_rule("name_jaccard_ws <= 0.3", features)
        assert blocker.is_join_executable
        candset = blocker.block_tables(table_a, table_b, "id", "id")
        expected = {
            (l_row["id"], r_row["id"])
            for l_row in table_a.rows()
            for r_row in table_b.rows()
            if not pairwise_drops(blocker, l_row, r_row)
        }
        assert set(zip(candset["ltable_id"], candset["rtable_id"])) == expected

    def test_pairwise_fallback(self, name_tables):
        table_a, table_b = name_tables
        matching = get_features_for_matching(table_a, table_b)
        blocker = RuleBasedBlocker()
        blocker.add_rule("name_lev_sim <= 0.3", matching)  # edit-based: no join
        assert not blocker.is_join_executable
        candset = blocker.block_tables(table_a, table_b, "id", "id")
        assert candset.num_rows > 0

    def test_no_rules_raises(self, name_tables):
        with pytest.raises(ConfigurationError):
            RuleBasedBlocker().block_tables(*name_tables, "id", "id")


class TestJoinEqualsPerPairScan:
    """A rule the blocker runs as joins keeps exactly the pairs the
    per-pair oracle keeps (its scan of A x B) on data without missing
    values; any other rule runs as that scan."""

    @staticmethod
    def _tables():
        table_a = Table({
            "id": ["a1", "a2", "a3"],
            "title": ["red apple pie", "green pear", "red apple"],
            "city": ["madison", "Austin", "boston"],
        })
        table_b = Table({
            "id": [10, 20],
            "title": ["red apple pie", "blue plum"],
            "city": ["Madison", "austin"],
        })
        return table_a, table_b

    @staticmethod
    def _features():
        from repro.features import FeatureTable, make_exact_feature, make_token_feature
        from repro.text.sim.token_based import Jaccard
        from repro.text.tokenizers import WhitespaceTokenizer

        tokenizer = WhitespaceTokenizer(return_set=True)
        return FeatureTable([
            make_token_feature("t_jac", "title", "title", tokenizer, Jaccard(), "jaccard"),
            make_exact_feature("c_ex", "city", "city"),
        ])

    @staticmethod
    def _both_paths(blocker, table_a, table_b):
        joined = blocker.block_tables(table_a, table_b, "id", "id")
        scanned = pairwise_pairs(blocker, table_a, table_b)
        return list(zip(joined["ltable_id"], joined["rtable_id"])), scanned

    @pytest.mark.parametrize("feature", ["t_jac", "c_ex"])
    @pytest.mark.parametrize("op", ["<=", "<", ">=", ">"])
    @pytest.mark.parametrize("threshold", [-0.5, 0.0, 0.3, 1.0, 1.5])
    def test_join_equals_scan(self, feature, op, threshold):
        table_a, table_b = self._tables()
        blocker = RuleBasedBlocker()
        blocker.add_rule(f"{feature} {op} {threshold}", self._features())
        joined, scanned = self._both_paths(blocker, table_a, table_b)
        assert joined == scanned

    @pytest.mark.parametrize("threshold", [-0.5, 0.0, 0.3, 1.0, 1.5])
    def test_conjunction_join_equals_scan(self, threshold):
        table_a, table_b = self._tables()
        blocker = RuleBasedBlocker()
        blocker.add_rule([f"t_jac < {threshold}", f"c_ex <= {threshold}"], self._features())
        joined, scanned = self._both_paths(blocker, table_a, table_b)
        assert joined == scanned

    def test_join_executable_ranges(self):
        features = self._features()
        executable = {
            (op, threshold)
            for op in ("<=", "<", ">=", ">")
            for threshold in (-0.5, 0.0, 0.3, 1.0, 1.5)
            if parse_rule(f"t_jac {op} {threshold}", features).is_executable
        }
        # complements '> t' for 0 <= t < 1 and '>= t' for 0 < t <= 1
        assert executable == {("<=", 0.0), ("<=", 0.3), ("<", 0.3), ("<", 1.0)}

    def test_overlap_coefficient_takes_the_scan(self):
        """``get_features_for_blocking`` emits overlap-coefficient features
        on long strings; the join has no such measure."""
        words = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "theta"]
        desc = [" ".join(words[i:] + words[:i]) for i in range(4)]
        table_a = Table({"id": ["a1", "a2"], "desc": desc[:2]})
        table_b = Table({"id": ["b1", "b2"], "desc": desc[2:]})
        features = get_features_for_blocking(table_a, table_b)
        blocker = RuleBasedBlocker()
        blocker.add_rule("desc_overlap_coeff_ws < 0.5", features)
        assert not blocker.is_join_executable
        joined, scanned = self._both_paths(blocker, table_a, table_b)
        assert joined == scanned == [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")]

    def test_missing_values_differ_as_documented(self):
        """A missing value satisfies no predicate, so the per-pair oracle
        keeps the pair; a join cannot emit it."""
        table_a, table_b = self._tables()
        table_a = Table({**{c: table_a.column(c) for c in table_a.columns},
                         "title": ["red apple pie", None, "red apple"]})
        blocker = RuleBasedBlocker()
        blocker.add_rule("t_jac < 0.3", self._features())
        assert blocker.is_join_executable
        joined, scanned = self._both_paths(blocker, table_a, table_b)
        assert set(scanned) - set(joined) == {("a2", 10), ("a2", 20)}
        assert set(joined) <= set(scanned)

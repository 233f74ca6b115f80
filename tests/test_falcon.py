"""Tests for Falcon: active learning, rule extraction, end-to-end runs."""

from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.datasets import (
    DirtinessConfig,
    build_cloudmatcher_dataset,
    cloudmatcher_scenario,
    make_em_dataset,
)
from repro.datasets.entities import book, restaurant
from repro.exceptions import BudgetExhaustedError, ConfigurationError
from repro.falcon import (
    FalconConfig,
    active_learn_forest,
    evaluate_rules,
    extract_rules_from_forest,
    extract_rules_from_tree,
    rule_fires,
    run_falcon,
    select_precise_rules,
)
from repro.features import get_features_for_blocking
from repro.labeling import LabelingSession, OracleLabeler
from repro.ml import DecisionTreeClassifier, RandomForestClassifier


@cache
def _book_features():
    """Blocking features over book pairs, and the names of the first three."""
    ds = make_em_dataset(book, 10, 10, seed=0)
    features = get_features_for_blocking(ds.ltable, ds.rtable)
    return features, features.names()[:3]


def _pool(n=300, seed=0):
    """A synthetic active-learning pool: 2 features, separable."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, 2))
    labels = (X[:, 0] + X[:, 1] > 1.2).astype(int)
    pairs = [(f"a{i}", f"b{i}") for i in range(n)]
    gold = {pairs[i] for i in range(n) if labels[i] == 1}
    return pairs, X, gold


class TestActiveLearning:
    def test_learns_with_few_labels(self):
        pairs, X, gold = _pool()
        session = LabelingSession(OracleLabeler(gold))
        result = active_learn_forest(
            pairs, X, session, n_trees=8, seed_size=16, batch_size=8,
            max_iterations=8, random_state=0,
        )
        assert result.questions < len(pairs) / 2
        predictions = result.forest.predict(X)
        truth = np.array([1 if p in gold else 0 for p in pairs])
        accuracy = float(np.mean(predictions == truth))
        assert accuracy > 0.9

    def test_respects_stage_budget(self):
        pairs, X, gold = _pool()
        session = LabelingSession(OracleLabeler(gold))
        result = active_learn_forest(
            pairs, X, session, max_questions=25, random_state=0
        )
        assert result.questions <= 25

    def test_respects_session_budget(self):
        pairs, X, gold = _pool()
        session = LabelingSession(OracleLabeler(gold), budget=30)
        active_learn_forest(pairs, X, session, random_state=0)
        assert session.questions_asked <= 30

    def test_empty_pool_rejected(self):
        session = LabelingSession(OracleLabeler(set()))
        with pytest.raises(ConfigurationError):
            active_learn_forest([], np.zeros((0, 2)), session)

    def test_mismatched_shapes_rejected(self):
        session = LabelingSession(OracleLabeler(set()))
        with pytest.raises(ConfigurationError):
            active_learn_forest([("a", "b")], np.zeros((2, 2)), session)

    def test_no_budget_at_all(self):
        pairs, X, gold = _pool(n=10)
        session = LabelingSession(OracleLabeler(gold), budget=5)
        session.ask_many(pairs[:5])  # exhaust budget
        with pytest.raises(BudgetExhaustedError):
            active_learn_forest(pairs[5:], X[5:], session, random_state=0)

    def test_nan_features_tolerated(self):
        pairs, X, gold = _pool(n=100)
        X = X.copy()
        X[::7, 0] = np.nan
        session = LabelingSession(OracleLabeler(gold))
        result = active_learn_forest(pairs, X, session, random_state=0)
        assert result.forest.is_fitted


class TestRuleExtraction:
    def _fitted_tree(self):
        # feature 0 is the decisive one: label = f0 > 0.5
        rng = np.random.default_rng(3)
        X = rng.random((200, 2))
        y = (X[:, 0] > 0.5).astype(int)
        ds = make_em_dataset(book, 10, 10, seed=0)
        features = get_features_for_blocking(ds.ltable, ds.rtable)
        names = features.names()[:2]
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y, feature_names=names)
        return tree, features, names, X, y

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        params=st.fixed_dictionaries(
            {
                "criterion": st.sampled_from(["gini", "entropy"]),
                "max_depth": st.sampled_from([None, 1, 2, 4]),
                "max_features": st.sampled_from([None, "sqrt", 1, 2]),
                "min_samples_leaf": st.integers(1, 6),
            }
        ),
        truncate=st.integers(1, 3),
    )
    def test_tree_rules_end_in_negative_leaves(self, seed, params, truncate):
        features, names = _book_features()
        rng = np.random.default_rng(seed)
        X = np.round(rng.random((120, len(names))), 2)
        y = (X[:, 0] + rng.normal(scale=0.3, size=len(X)) > 0.5).astype(int)
        tree = DecisionTreeClassifier(random_state=seed, **params).fit(X, y, feature_names=names)
        assume(tree.n_leaves() > 1)
        negative = tree.predict(X) == 0
        fired_any = np.zeros(len(y), dtype=bool)
        for rule in extract_rules_from_tree(tree, features):
            fired_any |= rule_fires(rule, X, names)
        # rules cover exactly the tree's negative predictions
        assert np.array_equal(fired_any, negative)
        # a truncated walk keeps only rules that end in a negative leaf
        # within ``max_depth`` predicates
        for rule in extract_rules_from_tree(tree, features, max_depth=truncate):
            assert len(rule.predicates) <= truncate
            assert np.all(negative[rule_fires(rule, X, names)])

    def test_forest_rules_deduplicated(self):
        rng = np.random.default_rng(4)
        X = rng.random((150, 2))
        y = (X[:, 0] > 0.5).astype(int)
        ds = make_em_dataset(book, 10, 10, seed=0)
        features = get_features_for_blocking(ds.ltable, ds.rtable)
        names = features.names()[:2]
        forest = RandomForestClassifier(n_estimators=6, random_state=0).fit(
            X, y, feature_names=names
        )
        rules = extract_rules_from_forest(forest, features)
        signatures = [" AND ".join(str(p) for p in r.predicates) for r in rules]
        assert len(signatures) == len(set(signatures))

    def test_evaluate_and_select(self):
        tree, features, names, X, y = self._fitted_tree()
        rules = extract_rules_from_tree(tree, features)
        evaluations = evaluate_rules(rules, X, y, names)
        for evaluation in evaluations:
            assert 0.0 <= evaluation.precision <= 1.0
            assert evaluation.coverage >= 0
        selected = select_precise_rules(
            evaluations, min_precision=0.9, min_coverage=5, require_executable=False
        )
        for rule in selected:
            evaluation = next(e for e in evaluations if e.rule is rule)
            assert evaluation.precision >= 0.9
            assert evaluation.coverage >= 5

    def test_max_rules_cap(self):
        tree, features, names, X, y = self._fitted_tree()
        evaluations = evaluate_rules(extract_rules_from_tree(tree, features), X, y, names)
        selected = select_precise_rules(
            evaluations, min_precision=0.0, min_coverage=0,
            max_rules=1, require_executable=False,
        )
        assert len(selected) <= 1


class TestFalconEndToEnd:
    def test_restaurants_high_accuracy(self):
        ds = make_em_dataset(
            restaurant, 250, 250, match_fraction=0.5,
            dirtiness=DirtinessConfig.light(), seed=10, name="falcon-test",
        )
        session = LabelingSession(OracleLabeler(ds.gold_pairs), budget=500)
        result = run_falcon(
            ds, session,
            FalconConfig(sample_size=700, blocking_budget=120, matching_budget=220,
                         random_state=0),
        )
        predicted = result.match_pairs
        tp = len(predicted & ds.gold_pairs)
        precision = tp / len(predicted) if predicted else 0.0
        recall = tp / len(ds.gold_pairs)
        assert precision > 0.85
        assert recall > 0.7
        assert result.questions <= 500
        assert result.candset.num_rows < ds.ltable.num_rows * ds.rtable.num_rows / 10

    def test_outputs_do_not_move_with_the_hash_seed(self):
        """The same seeded job under three string-hash seeds: one candset
        size, one question count, one match digest, each at its pinned
        value.  (The likely-match sampler used to break count ties in
        set-iteration order: 147 candidates under ``PYTHONHASHSEED=0``,
        10,717 under ``=5``.)"""
        import os
        import subprocess
        import sys

        script = (
            "import hashlib\n"
            "from repro.datasets import DirtinessConfig, make_em_dataset\n"
            "from repro.datasets.entities import restaurant\n"
            "from repro.falcon import FalconConfig, run_falcon\n"
            "from repro.labeling import LabelingSession, OracleLabeler\n"
            "ds = make_em_dataset(restaurant, 250, 250, match_fraction=0.5,\n"
            "    dirtiness=DirtinessConfig.light(), seed=10, name='falcon-test')\n"
            "session = LabelingSession(OracleLabeler(ds.gold_pairs), budget=500)\n"
            "result = run_falcon(ds, session, FalconConfig(sample_size=700,\n"
            "    blocking_budget=120, matching_budget=220, random_state=0))\n"
            "digest = hashlib.sha256(repr(sorted(result.match_pairs)).encode()).hexdigest()\n"
            "print(result.candset.num_rows, result.questions, digest)\n"
        )
        outputs = {}
        for hash_seed in ("0", "3", "5"):
            env = {
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": os.pathsep.join(path for path in sys.path if path),
            }
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            outputs[hash_seed] = done.stdout
        assert len(set(outputs.values())) == 1, outputs
        # Pinned, not just stable: the forest behind these is rebuilt tree
        # for tree from its seed, so a learner change that moves a split
        # moves these.
        candidates, questions, digest = outputs["0"].split()
        assert (candidates, questions, digest[:16]) == ("629", "250", "abcc8eb6b5369c71")

    def test_rules_are_executable_and_named(self):
        ds = make_em_dataset(
            restaurant, 200, 200, dirtiness=DirtinessConfig.light(), seed=11,
        )
        session = LabelingSession(OracleLabeler(ds.gold_pairs), budget=400)
        result = run_falcon(ds, session, FalconConfig(sample_size=500, random_state=1))
        for rule in result.rules:
            assert rule.is_executable
            assert rule.name

    def test_questions_accounting(self):
        ds = make_em_dataset(
            restaurant, 150, 150, dirtiness=DirtinessConfig.light(), seed=12,
        )
        session = LabelingSession(OracleLabeler(ds.gold_pairs), budget=400)
        result = run_falcon(ds, session, FalconConfig(sample_size=400, random_state=2))
        assert result.questions == session.questions_asked
        assert (
            result.blocking_stage.questions + result.matching_stage.questions
            == result.questions
        )

    def test_alpha_affects_match_count(self):
        ds = make_em_dataset(
            restaurant, 150, 150, dirtiness=DirtinessConfig.light(), seed=13,
        )

        def falcon_with_alpha(alpha):
            session = LabelingSession(OracleLabeler(ds.gold_pairs), budget=400)
            config = FalconConfig(sample_size=400, alpha=alpha, random_state=3)
            return run_falcon(ds, session, config).matches.num_rows

        assert falcon_with_alpha(0.9) <= falcon_with_alpha(0.3)

    def test_private_catalog_result_still_answers_match_pairs(self):
        """The FK names come from the catalog the run used, not from a
        column-name prefix and not from the process default."""
        from repro.catalog import Catalog, get_catalog

        ds = make_em_dataset(
            restaurant, 120, 120, dirtiness=DirtinessConfig.light(), seed=14,
        )
        session = LabelingSession(OracleLabeler(ds.gold_pairs), budget=300)
        result = run_falcon(
            ds, session, FalconConfig(sample_size=300, random_state=0), catalog=Catalog()
        )
        assert not get_catalog().has_metadata(result.matches)
        assert result.match_pairs == set(
            zip(result.matches["ltable_id"], result.matches["rtable_id"])
        )
        assert result.match_pairs & ds.gold_pairs

    def test_scenario_vehicles_worse_than_clean(self):
        """The dirty-data story: Vehicles accuracy < a comparable clean task."""
        from repro.labeling import UncertainOracleLabeler

        vehicles = build_cloudmatcher_dataset(cloudmatcher_scenario("vehicles"))
        labeler = UncertainOracleLabeler(
            vehicles.gold_pairs, vehicles.notes["hard_pairs"], seed=0
        )
        session = LabelingSession(labeler, budget=600)
        result = run_falcon(
            vehicles, session,
            FalconConfig(sample_size=800, blocking_budget=150, matching_budget=300,
                         random_state=0),
        )
        predicted = result.match_pairs
        tp = len(predicted & vehicles.gold_pairs)
        recall = tp / len(vehicles.gold_pairs)
        assert recall < 0.9  # visibly degraded vs the clean scenarios

"""Tests for ML matchers, rule matchers, selection, and debugging."""

import itertools
import math

import numpy as np
import pytest

from repro.blocking import OverlapBlocker, Predicate
from repro.exceptions import ConfigurationError, NotFittedError
from repro.features import extract_feature_vecs, get_features_for_matching, make_blackbox_feature
from repro.matchers import (
    BooleanRuleMatcher,
    DTMatcher,
    LogRegMatcher,
    MLRuleMatcher,
    MatchRule,
    NBMatcher,
    RFMatcher,
    SVMMatcher,
    ThresholdMatcher,
    debug_wrong_predictions,
    eval_matches,
    feature_separation_report,
    select_matcher,
)
from repro.ml import cross_validate
from repro.obs import use_registry, use_tracer
from repro.table import Table

ALL_MATCHERS = [DTMatcher, RFMatcher, LogRegMatcher, SVMMatcher, NBMatcher]


@pytest.fixture
def labeled_fv(small_person_dataset):
    """A labeled feature-vector table over a blocked candidate set."""
    ds = small_person_dataset
    candset = OverlapBlocker("name", overlap_size=1).block_tables(
        ds.ltable, ds.rtable, "id", "id"
    )
    labels = [
        1 if pair in ds.gold_pairs else 0
        for pair in zip(candset["ltable_id"], candset["rtable_id"])
    ]
    candset.add_column("label", labels)
    features = get_features_for_matching(ds.ltable, ds.rtable)
    fv = extract_feature_vecs(candset, features, label_column="label")
    return fv, features.names()


class TestMLMatchers:
    @pytest.mark.parametrize("matcher_cls", ALL_MATCHERS)
    def test_fit_predict(self, matcher_cls, labeled_fv):
        fv, names = labeled_fv
        matcher = matcher_cls()
        matcher.fit(fv, names)
        result = matcher.predict(fv, append=False)
        assert "predicted" in result.columns
        assert set(result.column("predicted")) <= {0, 1}

    def test_rf_learns_names(self, labeled_fv):
        fv, names = labeled_fv
        matcher = RFMatcher(n_estimators=8, random_state=0).fit(fv, names)
        report = eval_matches(matcher.predict(fv, append=False).add_column("label", fv["label"]))
        assert report["f1"] > 0.8

    def test_predict_before_fit(self, labeled_fv):
        fv, _ = labeled_fv
        with pytest.raises(NotFittedError):
            RFMatcher().predict(fv)

    def test_predict_proba_range(self, labeled_fv):
        fv, names = labeled_fv
        matcher = RFMatcher(n_estimators=5, random_state=0).fit(fv, names)
        proba = matcher.predict_proba(fv)
        assert np.all((proba >= 0) & (proba <= 1))

    def test_clone_unfitted(self, labeled_fv):
        fv, names = labeled_fv
        matcher = DTMatcher().fit(fv, names)
        clone = matcher.clone()
        with pytest.raises(NotFittedError):
            clone.predict(fv)

    def test_type_error_inside_fit_is_raised_once(self, labeled_fv):
        """``fit`` used to be retried without ``feature_names`` on any
        ``TypeError``, so a failure inside it ran the fit twice."""
        fv, names = labeled_fv
        calls = []

        class Broken(DTMatcher.estimator_factory):
            def fit(self, X, y, feature_names=None):
                calls.append(feature_names)
                raise TypeError("raised inside fit")

        matcher = DTMatcher()
        matcher.estimator = Broken()
        with pytest.raises(TypeError, match="raised inside fit"):
            matcher.fit(fv, names)
        with pytest.raises(TypeError, match="raised inside fit"):
            matcher.fit_matrix(np.zeros((2, 1)), np.array([0, 1]), feature_names=["f"])
        with pytest.raises(TypeError, match="raised inside fit"):
            cross_validate(Broken(), np.zeros((6, 1)), np.array([0, 1] * 3), n_splits=2)
        assert calls == [names, ["f"], None]

    def test_predicted_column_holds_python_ints(self, labeled_fv):
        fv, names = labeled_fv
        predicted = DTMatcher().fit(fv, names).predict(fv, append=False)["predicted"]
        assert {type(value) for value in predicted} == {int}

    def test_abstract_base_unusable(self):
        from repro.matchers.ml_matcher import MLMatcher

        with pytest.raises(TypeError):
            MLMatcher()

    def test_predict_appends_in_place_by_default(self, labeled_fv):
        fv, names = labeled_fv
        matcher = DTMatcher().fit(fv, names)
        matcher.predict(fv, output_column="p")
        assert "p" in fv.columns


class TestSelection:
    def test_select_returns_fitted_best(self, labeled_fv):
        fv, names = labeled_fv
        result = select_matcher(
            [DTMatcher(), RFMatcher(n_estimators=8, random_state=0)],
            fv, names, n_splits=3,
        )
        assert result.best_score > 0.5
        assert result.scores.num_rows == 2
        prediction = result.best_matcher.predict(fv, append=False)
        assert "predicted" in prediction.columns

    def test_cv_scores_and_winner_are_pinned(self, labeled_fv):
        """The identical-trees contract: for a fixed seed the learners
        repeat digit for digit, so the CV table does too."""
        fv, names = labeled_fv
        matchers = [
            DTMatcher(random_state=0),
            RFMatcher(n_estimators=8, random_state=0),
            LogRegMatcher(),
        ]
        with use_tracer() as tracer, use_registry() as registry:
            result = select_matcher(matchers, fv, names, n_splits=5, random_state=0)
        assert (fv.num_rows, sum(fv["label"])) == (740, 60)
        assert result.scores["matcher"] == ["DTMatcher", "RFMatcher", "LogRegMatcher"]
        assert result.scores["f1"] == pytest.approx(
            [0.9746086956521738, 0.9826086956521738, 0.9753333333333334], rel=1e-12
        )
        assert result.best_matcher.name == "RFMatcher"
        # 3 matchers x 5 folds, each a fit and a predict; then the refit.
        names_seen = [span.name for span in tracer.spans]
        assert names_seen.count("cv_fold") == 15
        assert names_seen.count("ml_fit") == 16
        assert names_seen.count("ml_predict") == 15
        refit = tracer.spans[-1]
        assert refit.labels == {
            "estimator": "RandomForestClassifier", "rows": "740", "features": str(len(names)),
        }
        # DT: 5 trees; RF: 5 folds x 8 trees, and 8 more for the refit.
        assert registry.get("ml_trees_fit_total").value == 5 + 40 + 8

    def test_metric_validation(self, labeled_fv):
        fv, names = labeled_fv
        with pytest.raises(ConfigurationError):
            select_matcher([DTMatcher()], fv, names, metric="auc")

    def test_empty_matchers(self, labeled_fv):
        fv, names = labeled_fv
        with pytest.raises(ConfigurationError):
            select_matcher([], fv, names)


class TestRuleMatchers:
    def _feature_table(self, dataset):
        return get_features_for_matching(dataset.ltable, dataset.rtable)

    def test_threshold_matcher(self, labeled_fv):
        fv, _ = labeled_fv
        matcher = ThresholdMatcher("name_jaccard_ws", 0.9)
        result = matcher.predict(fv, append=False)
        for value, prediction in zip(result["name_jaccard_ws"], result["predicted"]):
            expected = 1 if (value == value and value >= 0.9) else 0
            assert prediction == expected

    def test_boolean_rule_matcher(self, small_person_dataset, labeled_fv):
        fv, _ = labeled_fv
        features = self._feature_table(small_person_dataset)
        matcher = BooleanRuleMatcher()
        matcher.add_rule("name_jaccard_ws >= 0.99", features)
        result = matcher.predict(fv, append=False)
        report = eval_matches(result.add_column("label", fv["label"]))
        assert report["precision"] > 0.9  # exact-name rule is precise

    def test_boolean_rule_no_rules(self, labeled_fv):
        fv, _ = labeled_fv
        with pytest.raises(ConfigurationError):
            BooleanRuleMatcher().predict(fv)

    def test_ml_rule_negative_override(self, small_person_dataset, labeled_fv):
        fv, names = labeled_fv
        features = self._feature_table(small_person_dataset)
        veto = MatchRule.parse("state_exact <= 0.5", features, name="different-state")
        matcher = MLRuleMatcher(
            RFMatcher(n_estimators=5, random_state=0), negative_rules=[veto]
        )
        matcher.fit(fv, names)
        result = matcher.predict(fv, append=False, output_column="p")
        for row in result.rows():
            if row["state_exact"] is not None and row["state_exact"] <= 0.5:
                assert row["p"] == 0

    def test_ml_rule_positive_override(self, small_person_dataset, labeled_fv):
        fv, names = labeled_fv
        features = self._feature_table(small_person_dataset)
        force = MatchRule.parse("name_jaccard_ws >= 0.999", features)
        matcher = MLRuleMatcher(
            DTMatcher(), positive_rules=[force]
        )
        matcher.fit(fv, names)
        result = matcher.predict(fv, append=False, output_column="p")
        for row in result.rows():
            value = row["name_jaccard_ws"]
            if value is not None and value == value and value >= 0.999:
                assert row["p"] == 1


class _Constant:
    """An ML matcher stand-in that predicts one label for every row."""

    name = "constant"

    def __init__(self, label):
        self.label = label

    def predict(self, fv_table, output_column="predicted", append=True):
        target = fv_table if append else fv_table.copy()
        target.add_column(output_column, [self.label] * fv_table.num_rows)
        return target


#: Feature values a fv-table may hold: missing (None, NaN), infinite, int.
RULE_VALUES = [None, math.nan, math.inf, -math.inf, 0.5, 1, 0.0]


class TestRuleMatchersOverColumns:
    """Match rules evaluate over whole fv-table columns; each row's result
    is the per-row one: ``None`` and NaN satisfy no predicate."""

    @pytest.mark.parametrize("op", ["<=", "<", ">=", ">"])
    @pytest.mark.parametrize("threshold", [-math.inf, 0.0, 0.5, math.inf])
    def test_columns_equal_the_per_row_form(self, op, threshold):
        f, g = (make_blackbox_feature(name, "a", "a", lambda a, b: 0.0) for name in "fg")
        rule = MatchRule([Predicate(f, op, threshold), Predicate(g, ">=", 0.5)])
        pairs = list(itertools.product(RULE_VALUES, RULE_VALUES))
        fv = Table({
            "_id": list(range(len(pairs))),
            "f": [value for value, _ in pairs],
            "g": [value for _, value in pairs],
        })

        def fires(row):
            return all(
                row[p.feature.name] is not None and p.holds_value(float(row[p.feature.name]))
                for p in rule.predicates
            )

        expected = [int(fires(row)) for row in fv.rows()]
        assert BooleanRuleMatcher([rule]).predict(fv, append=False)["predicted"] == expected
        forced = MLRuleMatcher(_Constant(0), positive_rules=[rule]).predict(fv, append=False)
        assert forced["predicted"] == expected
        vetoed = MLRuleMatcher(_Constant(1), negative_rules=[rule]).predict(fv, append=False)
        assert vetoed["predicted"] == [1 - label for label in expected]


class TestEvalAndDebug:
    def test_eval_matches_counts(self):
        fv = Table(
            {
                "_id": [0, 1, 2, 3],
                "label": [1, 1, 0, 0],
                "predicted": [1, 0, 1, 0],
            }
        )
        report = eval_matches(fv)
        assert report["precision"] == 0.5
        assert report["recall"] == 0.5
        assert report["false_positives"] == [2]
        assert report["false_negatives"] == [1]

    def test_debug_wrong_predictions_ranked(self, labeled_fv):
        fv, names = labeled_fv
        matcher = RFMatcher(n_estimators=5, random_state=0).fit(fv, names)
        report = debug_wrong_predictions(matcher, fv, top_k=10)
        assert set(report.columns) == {"_id", "gold", "predicted", "match_probability"}
        # every reported row is actually wrong
        for row in report.rows():
            assert row["gold"] != row["predicted"]

    def test_feature_separation_report(self, labeled_fv):
        fv, names = labeled_fv
        report = feature_separation_report(fv, names)
        assert report.num_rows == len(names)
        separations = report.column("separation")
        assert separations == sorted(separations, reverse=True)
        # name similarity must separate matches from non-matches
        top_features = report.column("feature")[:5]
        assert any("name" in f for f in top_features)

"""Tests for the from-scratch ML substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, NotFittedError
from repro.ml import (
    BernoulliNB,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GaussianNB,
    GradientBoostingClassifier,
    KFold,
    LinearSVM,
    LogisticRegression,
    RandomForestClassifier,
    SimpleImputer,
    StratifiedKFold,
    accuracy_score,
    confusion_counts,
    cross_validate,
    f1_score,
    log_loss,
    mean_cv_score,
    precision_recall_f1,
    precision_score,
    recall_score,
    train_test_split,
)
from repro.ml.tree import _impurity

ALL_CLASSIFIERS = [
    lambda: DecisionTreeClassifier(max_depth=6),
    lambda: RandomForestClassifier(n_estimators=8, random_state=0),
    lambda: LogisticRegression(),
    lambda: LinearSVM(),
    lambda: GaussianNB(),
    lambda: BernoulliNB(),
]


def linearly_separable(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = (X[:, 0] + 2 * X[:, 1] > 0).astype(int)
    return X, y


class TestMetrics:
    def test_confusion_counts(self):
        tp, fp, tn, fn = confusion_counts([1, 1, 0, 0], [1, 0, 1, 0])
        assert (tp, fp, tn, fn) == (1, 1, 1, 1)

    def test_precision_recall_f1(self):
        y_true = [1, 1, 1, 0, 0]
        y_pred = [1, 1, 0, 1, 0]
        assert precision_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert recall_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert f1_score(y_true, y_pred) == pytest.approx(2 / 3)
        p, r, f = precision_recall_f1(y_true, y_pred)
        assert (p, r, f) == pytest.approx((2 / 3, 2 / 3, 2 / 3))

    def test_degenerate_cases(self):
        assert precision_score([0, 0], [0, 0]) == 0.0
        assert recall_score([0, 0], [1, 1]) == 0.0
        assert f1_score([0], [0]) == 0.0

    def test_accuracy(self):
        assert accuracy_score([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion_counts([1, 0], [1])

    def test_log_loss_perfect(self):
        assert log_loss([1, 0], [1.0, 0.0]) < 1e-10

    def test_log_loss_2d_proba(self):
        value = log_loss([1], np.array([[0.2, 0.8]]))
        assert value == pytest.approx(-np.log(0.8))


class TestDecisionTree:
    def test_fits_xor(self):
        # XOR is non-linear: trees should nail it, unlike linear models.
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 10, dtype=float)
        y = np.array([0, 1, 1, 0] * 10)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.score(X, y) == 1.0

    def test_max_depth_limits(self):
        X, y = linearly_separable()
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert tree.depth() <= 2

    def test_min_samples_leaf(self):
        X, y = linearly_separable(n=50)
        tree = DecisionTreeClassifier(min_samples_leaf=10).fit(X, y)
        assert tree.counts_[tree.feature_ < 0].sum(axis=1).min() >= 10

    def test_single_class(self):
        X = np.ones((5, 2))
        y = np.zeros(5, dtype=int)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.n_leaves() == 1
        assert list(tree.predict(X)) == [0] * 5

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict([[1.0]])

    def test_feature_names_used_in_export(self):
        X, y = linearly_separable(n=60)
        tree = DecisionTreeClassifier(max_depth=2).fit(
            X, y, feature_names=["alpha", "beta", "gamma", "delta"]
        )
        text = tree.export_text()
        assert any(name in text for name in ["alpha", "beta", "gamma", "delta"])

    def test_feature_names_length_checked(self):
        X, y = linearly_separable(n=30)
        with pytest.raises(ConfigurationError):
            DecisionTreeClassifier().fit(X, y, feature_names=["just_one"])

    def test_entropy_criterion(self):
        X, y = linearly_separable()
        tree = DecisionTreeClassifier(criterion="entropy").fit(X, y)
        assert tree.score(X, y) > 0.95

    def test_invalid_criterion(self):
        with pytest.raises(ConfigurationError):
            DecisionTreeClassifier(criterion="mse")

    def test_proba_sums_to_one(self):
        X, y = linearly_separable()
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        proba = tree.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_wrong_feature_count_at_predict(self):
        X, y = linearly_separable()
        tree = DecisionTreeClassifier().fit(X, y)
        with pytest.raises(ValueError):
            tree.predict(np.ones((2, 9)))


class TestRandomForest:
    def test_accuracy(self):
        X, y = linearly_separable()
        forest = RandomForestClassifier(n_estimators=15, random_state=0).fit(X, y)
        assert forest.score(X, y) > 0.95

    def test_deterministic_given_seed(self):
        X, y = linearly_separable()
        a = RandomForestClassifier(n_estimators=5, random_state=3).fit(X, y)
        b = RandomForestClassifier(n_estimators=5, random_state=3).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_vote_fraction_range(self):
        X, y = linearly_separable()
        forest = RandomForestClassifier(n_estimators=7, random_state=0).fit(X, y)
        votes = forest.vote_fraction(X)
        assert np.all((votes >= 0) & (votes <= 1))

    def test_alpha_one_requires_unanimity(self):
        X, y = linearly_separable()
        forest = RandomForestClassifier(n_estimators=9, random_state=0).fit(X, y)
        strict = forest.predict_with_alpha(X, alpha=1.0)
        loose = forest.predict_with_alpha(X, alpha=0.1)
        assert np.sum(strict == 1) <= np.sum(loose == 1)

    def test_alpha_validation(self):
        X, y = linearly_separable(n=40)
        forest = RandomForestClassifier(n_estimators=3, random_state=0).fit(X, y)
        with pytest.raises(ConfigurationError):
            forest.predict_with_alpha(X, alpha=0.0)

    def test_trees_accessible(self):
        X, y = linearly_separable(n=50)
        forest = RandomForestClassifier(n_estimators=4, random_state=0).fit(X, y)
        assert len(forest.trees_) == 4
        assert all(tree.is_fitted for tree in forest.trees_)

    def test_invalid_n_estimators(self):
        with pytest.raises(ConfigurationError):
            RandomForestClassifier(n_estimators=0)


# ----------------------------------------------------------------------
# Differential suite: the array-native trees against the interpreted ones
# ----------------------------------------------------------------------
def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts / total
    return float(1.0 - np.sum(proportions * proportions))


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts[counts > 0] / total
    return float(-np.sum(proportions * np.log2(proportions)))


_SCALAR_IMPURITY = {"gini": _gini, "entropy": _entropy}


class OracleTree(DecisionTreeClassifier):
    """The learner as it was before vectorisation: one Python step per
    split position, one Python walk per predicted row."""

    def _best_split(self, X, y, parent_counts, rng):
        n_samples, n_features = X.shape
        impurity_fn = _SCALAR_IMPURITY[self.criterion]
        candidates = rng.permutation(n_features)[: self._n_split_features()]
        best = None
        one_hot = np.zeros((n_samples, len(self.classes_)))
        one_hot[np.arange(n_samples), y] = 1.0
        for feature in candidates:
            values = X[:, feature]
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            cumulative = np.cumsum(one_hot[order], axis=0)
            positions = np.nonzero(sorted_values[:-1] < sorted_values[1:])[0]
            positions = positions[
                (positions + 1 >= self.min_samples_leaf)
                & (n_samples - positions - 1 >= self.min_samples_leaf)
            ]
            for position in positions:
                left_counts = cumulative[position]
                n_left = position + 1
                n_right = n_samples - n_left
                weighted = (
                    n_left * impurity_fn(left_counts)
                    + n_right * impurity_fn(parent_counts - left_counts)
                ) / n_samples
                if best is None or weighted < best[0] - 1e-12:
                    threshold = (sorted_values[position] + sorted_values[position + 1]) / 2.0
                    best = (weighted, int(feature), float(threshold))
        if best is None:
            return None
        _, feature, threshold = best
        return feature, threshold, X[:, feature] <= threshold

    def predict_proba(self, X):
        rows = []
        for row in np.asarray(X, dtype=float):
            counts = self.counts_[_leaf_for(self, row)]
            total = counts.sum()
            rows.append(counts / total if total else np.full_like(counts, 1.0 / len(counts)))
        return np.vstack(rows)


class OracleRegressor(DecisionTreeRegressor):
    """Per-row walk of the regressor's flat arrays."""

    def predict(self, X):
        return np.array([self.value_[_leaf_for(self, row)] for row in X])

    def apply(self, X):
        leaves = self._leaves.tolist()
        return np.array([leaves.index(_leaf_for(self, row)) for row in X], dtype=np.int64)


def _leaf_for(tree, row):
    """The leaf one row reaches, by a Python walk of either tree's arrays."""
    at = 0
    while tree.feature_[at] >= 0:
        at = at + 1 if row[tree.feature_[at]] <= tree.threshold_[at] else int(tree.right_[at])
    return at


@st.composite
def tree_cases(draw, classes=(2, 3)):
    """(X, y, P): training data with tied values, a duplicated and a
    constant column; a prediction matrix with NaN cells."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(2, 70))
    cols = draw(st.integers(1, 6))
    X = np.round(rng.normal(size=(rows, cols)), draw(st.integers(0, 2)))
    if cols > 1:
        X[:, 1] = X[:, 0]
    if cols > 2:
        X[:, 2] = 0.5
    n_classes = draw(st.sampled_from(classes))
    labels = draw(st.sampled_from(["noise", "signal", "rare", "one_class"]))
    if labels == "noise":
        y = rng.integers(0, n_classes, size=rows)
    elif labels == "signal":
        y = (X[:, 0] + rng.normal(scale=0.5, size=rows) > 0) * (n_classes - 1)
    elif labels == "rare":  # bootstraps of this often miss a class
        y = np.zeros(rows, dtype=int)
        y[: n_classes - 1] = np.arange(1, n_classes)
    else:
        y = np.full(rows, 4)
    P = rng.normal(size=(30, cols))
    P[rng.random(P.shape) < 0.15] = np.nan
    return X, np.asarray(y, dtype=int), np.vstack([P, X])


tree_params = st.fixed_dictionaries(
    {
        "criterion": st.sampled_from(["gini", "entropy"]),
        "max_features": st.sampled_from([None, "sqrt", 1, 2]),
        "min_samples_leaf": st.integers(1, 3),
        "max_depth": st.sampled_from([None, 1, 4]),
        "random_state": st.integers(0, 1000),
    }
)


class TestArrayNativeTreesMatchTheOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=tree_cases(), params=tree_params)
    def test_classifier(self, case, params):
        X, y, P = case
        new = DecisionTreeClassifier(**params).fit(X, y)
        old = OracleTree(**params).fit(X, y)
        assert new.export_text() == old.export_text()
        for name in ("feature_", "threshold_", "right_", "counts_"):
            assert np.array_equal(getattr(new, name), getattr(old, name), equal_nan=True)
        scalar = _SCALAR_IMPURITY[params["criterion"]]
        for counts in new.counts_:  # the stop rule's vector form == the scalar one
            total = np.array([counts.sum()])
            assert _impurity(params["criterion"], counts[None, :], total)[0] == scalar(counts)
        assert np.array_equal(new.predict_proba(P), old.predict_proba(P))
        assert (new.depth(), new.n_leaves()) == (old.depth(), old.n_leaves())

    @settings(max_examples=40, deadline=None)
    @given(case=tree_cases(), params=tree_params, bootstrap=st.booleans())
    def test_forest(self, case, params, bootstrap):
        X, y, P = case
        new = RandomForestClassifier(n_estimators=4, bootstrap=bootstrap, **params).fit(X, y)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.ml.forest.DecisionTreeClassifier", OracleTree)
            old = RandomForestClassifier(n_estimators=4, bootstrap=bootstrap, **params).fit(X, y)
        assert all(isinstance(tree, OracleTree) for tree in old.trees_)
        for a, b in zip(new.trees_, old.trees_, strict=True):
            assert a.export_text() == b.export_text()
        assert np.array_equal(new.predict_proba(P), old.predict_proba(P))
        positive = int(y.max())
        assert np.array_equal(new.vote_fraction(P, positive), old.vote_fraction(P, positive))
        assert np.array_equal(
            new.predict_with_alpha(P, 0.6, positive), old.predict_with_alpha(P, 0.6, positive)
        )

    @settings(max_examples=40, deadline=None)
    @given(case=tree_cases(classes=(2,)), depth=st.integers(1, 5), leaf=st.integers(1, 3))
    def test_regressor_and_boosting(self, case, depth, leaf):
        X, y, P = case
        target = X[:, 0] * 2.0 + y
        new = DecisionTreeRegressor(max_depth=depth, min_samples_leaf=leaf).fit(X, target)
        old = OracleRegressor(max_depth=depth, min_samples_leaf=leaf).fit(X, target)
        assert np.array_equal(new.predict(P), old.predict(P))
        leaves = new.apply(P)
        assert np.array_equal(leaves, old.apply(P))
        assert leaves.dtype == np.int64 and leaves.max() < new.n_leaves_
        # Independent of the layout: a leaf predicts the mean of its rows.
        on_train = new.apply(X)
        for leaf_id in np.unique(on_train):
            rows = on_train == leaf_id
            assert np.all(new.predict(X[rows]) == float(target[rows].mean()))
        kwargs = dict(n_estimators=5, max_depth=depth, subsample=0.8, random_state=depth)
        boosted = GradientBoostingClassifier(**kwargs).fit(X, y)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.ml.boosting.DecisionTreeRegressor", OracleRegressor)
            reference = GradientBoostingClassifier(**kwargs).fit(X, y)
            assert np.array_equal(boosted.predict_proba(P), reference.predict_proba(P))

    def test_first_position_wins_within_1e_12(self):
        """Two valid positions whose weighted gini differs by 5.6e-17,
        the later one lower: the scan keeps the first (an ``argmin``
        would take the second)."""
        X = np.array([0, 1, 1, 1, 1, 1, 2, 2, 2], dtype=float).reshape(-1, 1)
        y = np.array([1, 0, 1, 1, 1, 1, 0, 1, 1])
        scores = []
        for n_left, left in ((1, np.array([0.0, 1.0])), (6, np.array([1.0, 5.0]))):
            right = np.array([2.0, 7.0]) - left
            scores.append((n_left * _gini(left) + (9 - n_left) * _gini(right)) / 9)
        assert 0 < scores[0] - scores[1] < 1e-12
        for cls in (DecisionTreeClassifier, OracleTree):
            assert cls(max_depth=1).fit(X, y).threshold_[0] == 0.5

    def test_single_leaf_and_nan_cells(self):
        X = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])
        leaf = DecisionTreeClassifier().fit(X, [7, 7, 7, 7])
        assert leaf.n_leaves() == 1
        assert np.array_equal(leaf.predict_proba([[np.nan, np.nan]]), [[1.0]])
        assert leaf.predict_proba(np.empty((0, 2))).shape == (0, 1)
        stump = DecisionTreeClassifier(max_depth=1).fit(X, [0, 0, 1, 1])
        # NaN fails ``<=`` and goes right, like a value above the threshold.
        assert list(stump.predict([[np.nan, 0.0], [1.0, np.nan], [9.0, 0.0]])) == [1, 0, 1]


class TestLinearModels:
    @pytest.mark.parametrize("factory", [LogisticRegression, LinearSVM])
    def test_learns_linear_boundary(self, factory):
        X, y = linearly_separable()
        model = factory().fit(X, y)
        assert model.score(X, y) > 0.9

    def test_logreg_proba_monotone_in_score(self):
        X, y = linearly_separable()
        model = LogisticRegression().fit(X, y)
        scores = model.decision_function(X)
        proba = model.predict_proba(X)[:, 1]
        order = np.argsort(scores)
        assert np.all(np.diff(proba[order]) >= -1e-12)

    def test_binary_only(self):
        X = np.random.default_rng(0).normal(size=(30, 2))
        y = np.array([0, 1, 2] * 10)
        with pytest.raises(ConfigurationError):
            LogisticRegression().fit(X, y)
        with pytest.raises(ConfigurationError):
            LinearSVM().fit(X, y)

    def test_nonstandard_labels(self):
        X, y01 = linearly_separable()
        y = np.where(y01 == 1, 7, 3)
        model = LogisticRegression().fit(X, y)
        assert set(model.predict(X)) <= {3, 7}


class TestNaiveBayes:
    def test_gaussian_separates(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(-2, 1, (50, 3)), rng.normal(2, 1, (50, 3))])
        y = np.array([0] * 50 + [1] * 50)
        model = GaussianNB().fit(X, y)
        assert model.score(X, y) > 0.95

    def test_bernoulli_separates(self):
        rng = np.random.default_rng(2)
        X0 = (rng.random((50, 5)) < 0.2).astype(float)
        X1 = (rng.random((50, 5)) < 0.8).astype(float)
        X = np.vstack([X0, X1])
        y = np.array([0] * 50 + [1] * 50)
        model = BernoulliNB().fit(X, y)
        assert model.score(X, y) > 0.9

    def test_proba_normalized(self):
        X, y = linearly_separable(n=60)
        proba = GaussianNB().fit(X, y).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)


class TestModelSelection:
    def test_train_test_split_sizes(self):
        X, y = linearly_separable(n=100)
        X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.2, random_state=0)
        assert len(X_test) == 20
        assert len(X_train) == 80
        assert len(y_train) == 80

    def test_train_test_split_invalid(self):
        X, y = linearly_separable(n=10)
        with pytest.raises(ConfigurationError):
            train_test_split(X, y, test_size=1.5)

    def test_kfold_partitions(self):
        splits = list(KFold(n_splits=4, random_state=0).split(20))
        assert len(splits) == 4
        all_test = np.concatenate([test for _, test in splits])
        assert sorted(all_test.tolist()) == list(range(20))

    def test_kfold_too_few_samples(self):
        with pytest.raises(ConfigurationError):
            list(KFold(n_splits=5).split(3))

    def test_stratified_preserves_classes(self):
        y = np.array([0] * 40 + [1] * 10)
        for train, test in StratifiedKFold(n_splits=5, random_state=0).split(y):
            assert np.sum(y[test] == 1) == 2
            assert len(set(train.tolist()) & set(test.tolist())) == 0

    def test_cross_validate_scores(self):
        X, y = linearly_separable(n=150)
        scores = cross_validate(
            RandomForestClassifier(n_estimators=5, random_state=0), X, y,
            n_splits=3, random_state=0,
        )
        assert set(scores) == {"precision", "recall", "f1"}
        assert all(len(v) == 3 for v in scores.values())
        assert mean_cv_score(scores, "f1") > 0.85

    def test_cross_validate_does_not_mutate_estimator(self):
        X, y = linearly_separable(n=60)
        estimator = RandomForestClassifier(n_estimators=3, random_state=0)
        cross_validate(estimator, X, y, n_splits=3, random_state=0)
        assert not estimator.is_fitted


class TestImputer:
    def test_mean_imputation(self):
        X = np.array([[1.0, np.nan], [3.0, 4.0]])
        imputed = SimpleImputer().fit_transform(X)
        assert imputed[0, 1] == 4.0

    def test_median_imputation(self):
        X = np.array([[1.0], [np.nan], [100.0], [3.0]])
        imputed = SimpleImputer(strategy="median").fit_transform(X)
        assert imputed[1, 0] == 3.0

    def test_constant(self):
        X = np.array([[np.nan]])
        imputed = SimpleImputer(strategy="constant", fill_value=-1.0).fit_transform(X)
        assert imputed[0, 0] == -1.0

    def test_all_nan_column_falls_back(self):
        X = np.array([[np.nan], [np.nan]])
        imputed = SimpleImputer(strategy="mean", fill_value=0.5).fit_transform(X)
        assert np.all(imputed == 0.5)

    def test_transform_uses_fit_statistics(self):
        imputer = SimpleImputer().fit(np.array([[2.0], [4.0]]))
        out = imputer.transform(np.array([[np.nan]]))
        assert out[0, 0] == 3.0

    def test_invalid_strategy(self):
        with pytest.raises(ConfigurationError):
            SimpleImputer(strategy="mode")

    def test_transform_before_fit(self):
        with pytest.raises(NotFittedError):
            SimpleImputer().transform(np.array([[1.0]]))

    def test_column_count_checked(self):
        imputer = SimpleImputer().fit(np.ones((2, 2)))
        with pytest.raises(ValueError):
            imputer.transform(np.ones((2, 3)))


class TestEstimatorProtocol:
    @pytest.mark.parametrize("factory", ALL_CLASSIFIERS)
    def test_fit_predict_shapes(self, factory):
        X, y = linearly_separable(n=80)
        model = factory().fit(X, y)
        predictions = model.predict(X)
        assert predictions.shape == (80,)
        assert set(predictions.tolist()) <= {0, 1}

    @pytest.mark.parametrize("factory", ALL_CLASSIFIERS)
    def test_clone_is_unfitted(self, factory):
        X, y = linearly_separable(n=40)
        model = factory().fit(X, y)
        clone = model.clone()
        assert not clone.is_fitted

    def test_get_params_round_trip(self):
        model = RandomForestClassifier(n_estimators=3, max_depth=2)
        params = model.get_params()
        assert params["n_estimators"] == 3
        assert params["max_depth"] == 2

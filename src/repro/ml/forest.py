"""Random-forest classifier built on the CART trees.

Falcon (Section 5.1) learns a random forest F of n trees and declares a
pair a match when at least ``alpha * n`` trees vote match; that voting rule
is exposed here as ``predict_with_alpha``.  The individual trees stay
accessible through ``trees_`` because blocking rules are extracted from
their branches.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.ml.base import (
    ClassifierMixin,
    Estimator,
    as_float_array,
    as_label_array,
    check_consistent,
)
from repro.ml.tree import DecisionTreeClassifier


class RandomForestClassifier(Estimator, ClassifierMixin):
    """Bagged ensemble of decorrelated CART trees.

    Parameters mirror sklearn where the paper relies on them:
    ``n_estimators`` trees, each fit on a bootstrap sample with ``"sqrt"``
    feature subsampling by default.
    """

    def __init__(
        self,
        n_estimators: int = 10,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: int | None = None,
    ):
        if n_estimators < 1:
            raise ConfigurationError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.trees_: list[DecisionTreeClassifier] = []
        self.classes_: np.ndarray = np.array([], dtype=np.int64)

    def fit(self, X, y, feature_names: list[str] | None = None) -> "RandomForestClassifier":
        """Fit ``n_estimators`` trees on bootstrap resamples of (X, y)."""
        X = as_float_array(X)
        y = as_label_array(y)
        check_consistent(X, y)
        self.classes_ = np.unique(y)
        rng = np.random.default_rng(self.random_state)
        self.trees_ = []
        n_samples = X.shape[0]
        for _ in range(self.n_estimators):
            if self.bootstrap:
                indices = rng.integers(0, n_samples, size=n_samples)
                # A degenerate bootstrap (single class) would produce a
                # tree blind to one class; resample until both appear when
                # the training data itself has both.
                if len(np.unique(y)) > 1:
                    attempts = 0
                    while len(np.unique(y[indices])) < 2 and attempts < 10:
                        indices = rng.integers(0, n_samples, size=n_samples)
                        attempts += 1
            else:
                indices = np.arange(n_samples)
            tree = DecisionTreeClassifier(
                criterion=self.criterion,
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[indices], y[indices], feature_names=feature_names)
            self.trees_.append(tree)
        self._mark_fitted()
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Average of per-tree class distributions."""
        self.check_fitted()
        X = as_float_array(X)
        total = np.zeros((X.shape[0], len(self.classes_)))
        for tree in self.trees_:
            # Trees may have seen a subset of classes; align columns.
            columns = np.searchsorted(self.classes_, tree.classes_)
            total[:, columns] += tree.predict_proba(X)
        return total / len(self.trees_)

    def vote_fraction(self, X, positive: int = 1) -> np.ndarray:
        """Fraction of trees whose majority prediction is ``positive``."""
        self.check_fitted()
        X = as_float_array(X)
        votes = np.zeros(X.shape[0])
        for tree in self.trees_:
            votes += (tree.predict(X) == positive).astype(np.float64)
        return votes / len(self.trees_)

    def predict_with_alpha(self, X, alpha: float = 0.5, positive: int = 1) -> np.ndarray:
        """Falcon's voting rule: match iff >= alpha * n trees say match."""
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        fraction = self.vote_fraction(X, positive=positive)
        negative = (
            self.classes_[self.classes_ != positive][0]
            if np.any(self.classes_ != positive)
            else positive
        )
        return np.where(fraction >= alpha, positive, negative)

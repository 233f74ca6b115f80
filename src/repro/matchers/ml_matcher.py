"""ML matchers: the guide's learning-based matchers U, V, ... (Figure 2).

An :class:`MLMatcher` wraps an estimator from :mod:`repro.ml` and operates
directly on feature-vector *tables* (from
:func:`repro.features.extract_feature_vecs`): it remembers the feature
columns and imputation statistics at fit time and applies them at predict
time, then appends a ``predicted`` column — keeping the whole workflow in
interoperable tables.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotFittedError
from repro.features.extraction import feature_matrix, label_vector
from repro.ml.base import ml_span
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.impute import SimpleImputer
from repro.ml.linear import LinearSVM, LogisticRegression
from repro.ml.naive_bayes import GaussianNB
from repro.ml.neighbors import KNeighborsClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.table.table import Table


class MLMatcher:
    """A learning-based matcher over feature-vector tables."""

    #: subclasses set this to their estimator factory
    estimator_factory = None

    def __init__(self, name: str | None = None, **estimator_params):
        if self.estimator_factory is None:
            raise TypeError("use a concrete matcher subclass, e.g. RFMatcher")
        self.name = name or type(self).__name__
        self.estimator = type(self).estimator_factory(**estimator_params)
        self._feature_names: list[str] | None = None
        self._imputer: SimpleImputer | None = None

    # ------------------------------------------------------------------
    def fit(
        self,
        fv_table: Table,
        feature_names: list[str],
        label_column: str = "label",
    ) -> "MLMatcher":
        """Train on a labeled feature-vector table."""
        self._feature_names = list(feature_names)
        self._imputer = SimpleImputer(strategy="mean")
        X = feature_matrix(fv_table, self._feature_names, imputer=self._imputer)
        y = label_vector(fv_table, label_column)
        with ml_span("ml_fit", self.estimator, X):
            self.estimator.fit(X, y, feature_names=self._feature_names)
        return self

    def fit_matrix(self, X: np.ndarray, y: np.ndarray, feature_names: list[str] | None = None) -> "MLMatcher":
        """Train directly on arrays (used by active learning loops)."""
        self._feature_names = feature_names
        with ml_span("ml_fit", self.estimator, X):
            self.estimator.fit(X, y, feature_names=feature_names)
        return self

    def _check_fitted(self) -> None:
        if self._feature_names is None and not self.estimator.is_fitted:
            raise NotFittedError(f"matcher {self.name} is not fitted")

    # ------------------------------------------------------------------
    def predict(
        self,
        fv_table: Table,
        output_column: str = "predicted",
        append: bool = True,
    ) -> Table:
        """Predict match/no-match for each row of a feature-vector table.

        Appends ``output_column`` in place when ``append`` (default) and
        returns the table.
        """
        self._check_fitted()
        X = feature_matrix(fv_table, self._feature_names, imputer=self._imputer)
        with ml_span("ml_predict", self.estimator, X):
            predictions = self.estimator.predict(X)
        target = fv_table if append else fv_table.copy()
        target.add_column(output_column, predictions.astype(np.int64).tolist())
        return target

    def predict_proba(self, fv_table: Table) -> np.ndarray:
        """Match probabilities (column for class 1) for each pair."""
        self._check_fitted()
        X = feature_matrix(fv_table, self._feature_names, imputer=self._imputer)
        with ml_span("ml_predict", self.estimator, X):
            proba = self.estimator.predict_proba(X)
        positive = int(np.searchsorted(self.estimator.classes_, 1))
        return proba[:, positive]

    def clone(self) -> "MLMatcher":
        """Fresh unfitted matcher with the same hyperparameters."""
        copy = type(self)(name=self.name, **self.estimator.get_params())
        return copy

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class DTMatcher(MLMatcher):
    """Decision-tree matcher."""

    estimator_factory = DecisionTreeClassifier


class RFMatcher(MLMatcher):
    """Random-forest matcher (the default choice in Falcon)."""

    estimator_factory = RandomForestClassifier


class LogRegMatcher(MLMatcher):
    """Logistic-regression matcher."""

    estimator_factory = LogisticRegression


class SVMMatcher(MLMatcher):
    """Linear-SVM matcher."""

    estimator_factory = LinearSVM


class NBMatcher(MLMatcher):
    """Gaussian naive-Bayes matcher."""

    estimator_factory = GaussianNB


class XGMatcher(MLMatcher):
    """Gradient-boosted-trees matcher (the XGBoost substitute)."""

    estimator_factory = GradientBoostingClassifier


class KNNMatcher(MLMatcher):
    """k-nearest-neighbors matcher."""

    estimator_factory = KNeighborsClassifier

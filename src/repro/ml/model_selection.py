"""Model-selection utilities: splits, k-fold CV, and cross-validation.

The PyMatcher guide (Figure 2) selects its matcher by cross-validating
candidate learners on the labeled sample G and picking the one with the
best F1 — :func:`cross_validate` and ``repro.matchers.select_matcher``
implement exactly that loop.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.exceptions import ConfigurationError
from repro.ml.base import as_float_array, as_label_array, ml_span
from repro.ml.metrics import precision_recall_f1
from repro.obs import trace_span


def train_test_split(
    X, y, test_size: float = 0.25, random_state: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Random split into (X_train, X_test, y_train, y_test)."""
    if not 0.0 < test_size < 1.0:
        raise ConfigurationError(f"test_size must be in (0, 1), got {test_size}")
    X = as_float_array(X)
    y = as_label_array(y)
    n_samples = X.shape[0]
    rng = np.random.default_rng(random_state)
    order = rng.permutation(n_samples)
    n_test = max(1, int(round(n_samples * test_size)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    return X[train_idx], X[test_idx], y[train_idx], y[test_idx]


class KFold:
    """Plain k-fold splitter with optional shuffling."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True, random_state: int | None = None):
        if n_splits < 2:
            raise ConfigurationError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, n_samples: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (train_indices, test_indices) pairs."""
        if n_samples < self.n_splits:
            raise ConfigurationError(
                f"cannot split {n_samples} samples into {self.n_splits} folds"
            )
        indices = np.arange(n_samples)
        if self.shuffle:
            np.random.default_rng(self.random_state).shuffle(indices)
        folds = np.array_split(indices, self.n_splits)
        for i in range(self.n_splits):
            test = folds[i]
            train = np.concatenate([folds[j] for j in range(self.n_splits) if j != i])
            yield train, test


class StratifiedKFold:
    """K-fold preserving class proportions — important for the skewed
    match/no-match label distributions EM produces."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True, random_state: int | None = None):
        if n_splits < 2:
            raise ConfigurationError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, y) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (train_indices, test_indices), stratified on ``y``."""
        y = as_label_array(y)
        rng = np.random.default_rng(self.random_state)
        per_class_folds: list[list[np.ndarray]] = []
        for cls in np.unique(y):
            indices = np.nonzero(y == cls)[0]
            if self.shuffle:
                rng.shuffle(indices)
            per_class_folds.append(np.array_split(indices, self.n_splits))
        for i in range(self.n_splits):
            test = np.concatenate([folds[i] for folds in per_class_folds])
            test.sort()
            mask = np.ones(len(y), dtype=bool)
            mask[test] = False
            yield np.nonzero(mask)[0], test


def cross_validate(
    estimator,
    X,
    y,
    n_splits: int = 5,
    random_state: int | None = None,
    feature_names: list[str] | None = None,
) -> dict[str, list[float]]:
    """Stratified k-fold CV returning per-fold precision, recall, and F1.

    The estimator is cloned per fold, so the passed instance is untouched.
    """
    X = as_float_array(X)
    y = as_label_array(y)
    scores: dict[str, list[float]] = {"precision": [], "recall": [], "f1": []}
    splitter = StratifiedKFold(n_splits=n_splits, random_state=random_state)
    for fold, (train_idx, test_idx) in enumerate(splitter.split(y)):
        model = estimator.clone()
        X_train, X_test = X[train_idx], X[test_idx]
        with trace_span("cv_fold", estimator=type(model).__name__, fold=fold):
            with ml_span("ml_fit", model, X_train):
                model.fit(X_train, y[train_idx], feature_names=feature_names)
            with ml_span("ml_predict", model, X_test):
                predictions = model.predict(X_test)
        precision, recall, f1 = precision_recall_f1(y[test_idx], predictions)
        scores["precision"].append(precision)
        scores["recall"].append(recall)
        scores["f1"].append(f1)
    return scores


def mean_cv_score(scores: dict[str, list[float]], metric: str = "f1") -> float:
    """Average a metric across CV folds."""
    values = scores[metric]
    return sum(values) / len(values) if values else 0.0

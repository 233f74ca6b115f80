"""CART regression tree: the base learner for gradient boosting."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.ml.base import Estimator, as_float_array
from repro.ml.tree import descend
from repro.obs import get_registry


class DecisionTreeRegressor(Estimator):
    """Least-squares CART regressor.

    Splits minimize the children's total squared error, computed with
    cumulative sums over each feature's sort order.  The fitted tree is
    ``feature_``, ``threshold_`` and ``right_`` (the layout of
    :func:`repro.ml.tree.descend`, shared with the classifier) plus
    ``value_``, the mean target of the training rows that reached each
    node.  ``apply`` returns per-row leaf ids so a boosting layer can
    re-estimate leaf values (Newton steps) without retraining.
    """

    def __init__(
        self,
        max_depth: int | None = 3,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
    ):
        if min_samples_split < 2:
            raise ConfigurationError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ConfigurationError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.n_features_ = 0
        self.n_leaves_ = 0

    def fit(self, X, y) -> "DecisionTreeRegressor":
        """Grow the tree on (X, y) by least-squares splitting."""
        X = as_float_array(X)
        y = np.asarray(y, dtype=np.float64)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on the number of samples")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_features_ = X.shape[1]
        nodes: list[list] = []  # [feature, threshold, right, value], in pre-order
        self._build(X, y, 0, nodes)
        feature, threshold, right, value = zip(*nodes)
        self.feature_ = np.array(feature)
        self.threshold_ = np.array(threshold)
        self.right_ = np.array(right)
        self.value_ = np.array(value)
        # Leaf ids are dense in [0, n_leaves), in pre-order.
        self._leaves = np.nonzero(self.feature_ < 0)[0]
        self.n_leaves_ = len(self._leaves)
        get_registry().counter("ml_trees_fit_total").inc()
        self._mark_fitted()
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int, nodes: list[list]) -> None:
        node = [-1, np.nan, -1, float(y.mean())]
        nodes.append(node)
        if (
            len(y) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or float(y.var()) == 0.0
        ):
            return
        split = self._best_split(X, y)
        if split is None:
            return
        feature, threshold = split
        node[:2] = split
        mask = X[:, feature] <= threshold
        self._build(X[mask], y[mask], depth + 1, nodes)
        node[2] = len(nodes)
        self._build(X[~mask], y[~mask], depth + 1, nodes)

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> tuple[int, float] | None:
        n_samples = len(y)
        best: tuple[float, int, float] | None = None
        for feature in range(self.n_features_):
            order = np.argsort(X[:, feature], kind="stable")
            values = X[order, feature]
            targets = y[order]
            prefix_sum = np.cumsum(targets)
            prefix_sq = np.cumsum(targets**2)
            total_sum = prefix_sum[-1]
            total_sq = prefix_sq[-1]
            distinct = values[:-1] < values[1:]
            positions = np.nonzero(distinct)[0]
            positions = positions[
                (positions + 1 >= self.min_samples_leaf)
                & (n_samples - positions - 1 >= self.min_samples_leaf)
            ]
            if positions.size == 0:
                continue
            n_left = positions + 1
            n_right = n_samples - n_left
            left_sum = prefix_sum[positions]
            right_sum = total_sum - left_sum
            # SSE = sum(y^2) - (sum y)^2 / n, per side.
            sse = (
                prefix_sq[positions]
                - left_sum**2 / n_left
                + (total_sq - prefix_sq[positions])
                - right_sum**2 / n_right
            )
            index = int(np.argmin(sse))
            score = float(sse[index])
            if best is None or score < best[0] - 1e-12:
                position = positions[index]
                threshold = float((values[position] + values[position + 1]) / 2.0)
                best = (score, feature, threshold)
        if best is None:
            return None
        return best[1], best[2]

    # ------------------------------------------------------------------
    def predict(self, X) -> np.ndarray:
        """Leaf value of each row."""
        self.check_fitted()
        return self.value_.take(descend(self, as_float_array(X)))

    def apply(self, X) -> np.ndarray:
        """Leaf id of each row (ids dense in [0, n_leaves_))."""
        self.check_fitted()
        return np.searchsorted(self._leaves, descend(self, as_float_array(X)))

    def set_leaf_values(self, values: dict[int, float]) -> None:
        """Overwrite leaf predictions (the boosting Newton step)."""
        self.check_fitted()
        for leaf, value in values.items():
            if 0 <= leaf < self.n_leaves_:
                self.value_[self._leaves[leaf]] = value

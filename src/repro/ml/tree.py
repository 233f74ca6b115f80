"""CART decision-tree classifier, with an inspectable tree structure.

A fitted tree is its flat pre-order arrays and nothing else: prediction
(:func:`descend`), ``export_text`` and Falcon's rule extraction all walk
them.  Falcon (Section 5.1, Figures 3-4 of the paper)
extracts *blocking rules* from the root-to-"No"-leaf branches of the trees
in a random forest, so the EM layer needs direct access to split features
and thresholds — one reason this reproduction implements trees from
scratch rather than stubbing them.

Splits are of the form ``feature <= threshold`` (left branch) versus
``feature > threshold`` (right branch), chosen to minimize weighted Gini
impurity (or entropy).
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
from repro.obs import get_registry


_CRITERIA = ("gini", "entropy")


def _impurity(criterion: str, counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Impurity of each row of class counts; a row with no samples scores 0."""
    proportions = counts / np.maximum(totals, 1)[:, None]
    if criterion == "gini":
        scores = 1.0 - (proportions * proportions).sum(axis=1)
    else:
        logs = np.log2(np.where(proportions > 0, proportions, 1.0))
        scores = -(proportions * logs).sum(axis=1)
    return np.where(totals > 0, scores, 0.0)


def descend(tree, X: np.ndarray) -> np.ndarray:
    """Position of the leaf each row of ``X`` reaches in a fitted tree.

    Both trees are laid out in pre-order: node ``i`` tests ``X[:,
    feature_[i]] <= threshold_[i]`` and continues at ``i + 1`` (left) or
    ``right_[i]``; ``feature_[i] < 0`` marks a leaf.  All rows still at an
    internal node take one step together, so the cost is one vector step
    per depth.  A NaN cell fails ``<=`` and goes right.
    """
    feature, threshold, right = tree.feature_, tree.threshold_, tree.right_
    node = np.zeros(X.shape[0], dtype=np.int64)
    active = np.nonzero(feature[node] >= 0)[0]
    while active.size:
        at = node[active]
        goes_left = X[active, feature[at]] <= threshold[at]
        at = np.where(goes_left, at + 1, right[at])
        node[active] = at
        active = active[feature[at] >= 0]
    return node


class DecisionTreeClassifier(Estimator, ClassifierMixin):
    """CART classifier.

    Parameters
    ----------
    criterion:
        ``"gini"`` or ``"entropy"``.
    max_depth:
        Maximum tree depth; ``None`` for unbounded.
    min_samples_split:
        Minimum rows a node needs to be considered for splitting.
    min_samples_leaf:
        Minimum rows each child must receive.
    max_features:
        Number of features examined per split: ``None`` (all), an int, or
        ``"sqrt"`` — the forest sets this for decorrelated trees.
    random_state:
        Seed for feature subsampling.

    The fitted tree is ``feature_``, ``threshold_`` and ``right_`` (the
    layout of :func:`descend`) plus ``counts_``, the training class counts
    at each node (one column per entry of ``classes_``).
    """

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int | None = None,
    ):
        if criterion not in _CRITERIA:
            raise ConfigurationError(
                f"criterion must be one of {sorted(_CRITERIA)}, got {criterion!r}"
            )
        if min_samples_split < 2:
            raise ConfigurationError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ConfigurationError("min_samples_leaf must be >= 1")
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.classes_: np.ndarray = np.array([], dtype=np.int64)
        self.n_features_: int = 0

    # ------------------------------------------------------------------
    def fit(self, X, y, feature_names: list[str] | None = None) -> "DecisionTreeClassifier":
        """Grow the tree on (X, y).  ``feature_names`` aid rule extraction."""
        X = as_float_array(X)
        y = as_label_array(y)
        check_consistent(X, y)
        self.classes_, y_indices = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        self.feature_names_ = (
            list(feature_names)
            if feature_names is not None
            else [f"f{i}" for i in range(self.n_features_)]
        )
        if len(self.feature_names_) != self.n_features_:
            raise ConfigurationError(
                f"{len(self.feature_names_)} feature names for "
                f"{self.n_features_} features"
            )
        rng = np.random.default_rng(self.random_state)
        nodes: list[list] = []  # [feature, threshold, right, counts, depth], in pre-order
        self._build(X, y_indices, 0, rng, nodes)
        feature, threshold, right, counts, depth = zip(*nodes)
        self.feature_ = np.array(feature)
        self.threshold_ = np.array(threshold)
        self.right_ = np.array(right)
        self.counts_ = np.vstack(counts)
        self._depth = np.array(depth)
        get_registry().counter("ml_trees_fit_total").inc()
        self._mark_fitted()
        return self

    def _n_split_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if isinstance(self.max_features, int) and self.max_features >= 1:
            return min(self.max_features, self.n_features_)
        raise ConfigurationError(f"invalid max_features: {self.max_features!r}")

    def _build(
        self,
        X: np.ndarray,
        y: np.ndarray,
        depth: int,
        rng: np.random.Generator,
        nodes: list[list],
    ) -> None:
        counts = np.bincount(y, minlength=len(self.classes_)).astype(np.float64)
        node = [-1, np.nan, -1, counts, depth]
        nodes.append(node)
        if (
            _impurity(self.criterion, counts[None, :], np.array([len(y)]))[0] == 0.0
            or len(y) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return
        split = self._best_split(X, y, counts, rng)
        if split is None:
            return
        feature, threshold, left_mask = split
        node[:2] = feature, threshold
        self._build(X[left_mask], y[left_mask], depth + 1, rng, nodes)
        node[2] = len(nodes)
        self._build(X[~left_mask], y[~left_mask], depth + 1, rng, nodes)

    def _best_split(
        self,
        X: np.ndarray,
        y: np.ndarray,
        parent_counts: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[int, float, np.ndarray] | None:
        n_samples, n_features = X.shape
        n_classes = len(self.classes_)
        candidates = rng.permutation(n_features)[: self._n_split_features()]
        best: tuple[int, float] | None = None
        bar = np.inf  # a position must score below this to become the new best
        one_hot = np.zeros((n_samples, n_classes))
        one_hot[np.arange(n_samples), y] = 1.0
        for feature in candidates:
            values = X[:, feature]
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            # Cumulative class counts over the sorted rows.
            cumulative = np.cumsum(one_hot[order], axis=0)
            # Valid split positions: between distinct adjacent values,
            # honouring min_samples_leaf on both sides.
            distinct = sorted_values[:-1] < sorted_values[1:]
            positions = np.nonzero(distinct)[0]
            positions = positions[
                (positions + 1 >= self.min_samples_leaf)
                & (n_samples - positions - 1 >= self.min_samples_leaf)
            ]
            if positions.size == 0:
                continue
            left_counts = cumulative[positions]
            n_left = positions + 1
            n_right = n_samples - n_left
            weighted = (
                n_left * _impurity(self.criterion, left_counts, n_left)
                + n_right * _impurity(self.criterion, parent_counts - left_counts, n_right)
            ) / n_samples
            # First wins: scanning positions in order, one replaces the
            # best so far only by beating it by more than 1e-12.  Each
            # pass of this loop jumps to the next such record (an argmin
            # would pick a later position that is lower by less).
            start = 0
            while (hits := np.nonzero(weighted[start:] < bar)[0]).size:
                start += int(hits[0]) + 1
                bar = weighted[start - 1] - 1e-12
            if start:
                position = positions[start - 1]
                threshold = (sorted_values[position] + sorted_values[position + 1]) / 2.0
                best = (int(feature), float(threshold))
        if best is None:
            return None
        # Note: a zero-gain split is still taken (children are strictly
        # smaller, so recursion terminates); refusing it would make the
        # greedy tree blind to XOR-like interactions.
        feature, threshold = best
        return feature, threshold, X[:, feature] <= threshold

    # ------------------------------------------------------------------
    def predict_proba(self, X) -> np.ndarray:
        """Class-distribution predictions, one row per sample."""
        self.check_fitted()
        X = as_float_array(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, tree was fit on {self.n_features_}"
            )
        totals = self.counts_.sum(axis=1, keepdims=True)
        proba = np.where(
            totals > 0, self.counts_ / np.maximum(totals, 1), 1.0 / len(self.classes_)
        )
        return proba.take(descend(self, X), axis=0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Depth of the fitted tree (0 for a single leaf)."""
        self.check_fitted()
        return int(self._depth.max())

    def n_leaves(self) -> int:
        """Number of leaves in the fitted tree."""
        self.check_fitted()
        return int(np.count_nonzero(self.feature_ < 0))

    def export_text(self) -> str:
        """Human-readable rendering of the tree (used by Figure 4)."""
        self.check_fitted()
        feature, threshold, right = (
            a.tolist() for a in (self.feature_, self.threshold_, self.right_)
        )
        lines: list[str] = []

        def walk(at: int, indent: str) -> None:
            if feature[at] < 0:
                label = self.classes_[int(np.argmax(self.counts_[at]))]
                lines.append(f"{indent}predict: {label} (n={int(self.counts_[at].sum())})")
                return
            name = self.feature_names_[feature[at]]
            lines.append(f"{indent}if {name} <= {threshold[at]:.4f}:")
            walk(at + 1, indent + "  ")
            lines.append(f"{indent}else:  # {name} > {threshold[at]:.4f}")
            walk(right[at], indent + "  ")

        walk(0, "")
        return "\n".join(lines)

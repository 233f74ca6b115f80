"""Shared machinery for the from-scratch ML substrate.

The ecosystem's matchers (``repro.matchers``) wrap these estimators the way
PyMatcher wraps scikit-learn.  The estimator API intentionally mirrors
sklearn: ``fit(X, y)``, ``predict(X)``, ``predict_proba(X)``, and
``get_params()`` for cloning during cross-validation.
"""

from __future__ import annotations

import inspect
from typing import Any

import numpy as np

from repro.exceptions import NotFittedError
from repro.obs import trace_span


def as_float_array(X: Any) -> np.ndarray:
    """Coerce a feature matrix to a 2-D float64 array, validating shape."""
    array = np.asarray(X, dtype=np.float64)
    if array.ndim == 1:
        array = array.reshape(-1, 1)
    if array.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got ndim={array.ndim}")
    return array


def as_label_array(y: Any) -> np.ndarray:
    """Coerce labels to a 1-D int array."""
    array = np.asarray(y)
    if array.ndim != 1:
        raise ValueError(f"expected 1-D labels, got ndim={array.ndim}")
    return array.astype(np.int64)


def check_consistent(X: np.ndarray, y: np.ndarray) -> None:
    """Validate that X and y agree on the number of samples."""
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} labels")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")


def ml_span(name: str, estimator: Any, X: np.ndarray):
    """A ``repro.obs`` span around one estimator call on the matrix ``X``."""
    return trace_span(
        name, estimator=type(estimator).__name__, rows=X.shape[0], features=X.shape[1]
    )


class Estimator:
    """Base class providing params introspection, cloning, and fit checks."""

    def get_params(self) -> dict[str, Any]:
        """Return constructor parameters (sklearn-style)."""
        signature = inspect.signature(type(self).__init__)
        return {
            name: getattr(self, name)
            for name in signature.parameters
            if name != "self" and hasattr(self, name)
        }

    def clone(self) -> "Estimator":
        """A fresh unfitted copy with the same hyperparameters."""
        return type(self)(**self.get_params())

    @property
    def is_fitted(self) -> bool:
        return getattr(self, "_fitted", False)

    def _mark_fitted(self) -> None:
        self._fitted = True

    def check_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError(
                f"{type(self).__name__} must be fitted before prediction"
            )

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


class ClassifierMixin:
    """Adds binary ``predict`` via argmax over ``predict_proba``."""

    classes_: np.ndarray

    def predict(self, X: Any) -> np.ndarray:
        proba = self.predict_proba(X)  # type: ignore[attr-defined]
        return self.classes_[np.argmax(proba, axis=1)]

    def score(self, X: Any, y: Any) -> float:
        """Mean accuracy on the given test data."""
        y = as_label_array(y)
        return float(np.mean(self.predict(X) == y))

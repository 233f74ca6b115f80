"""DeepMatcher substitute: a learned neural matcher over textual attributes.

The paper extends PyMatcher with a PyTorch deep-learning matcher for
textual data [Mudgal et al., SIGMOD 2018] as evidence that the ecosystem
is cheap to extend.  PyTorch is unavailable here, so this module plays the
same ecosystem role with a from-scratch numpy MLP: each textual attribute
pair is embedded by hashing character trigrams into a fixed-width bag
vector, the pair is summarized by (elementwise product, absolute
difference) of the two embeddings, and a one-hidden-layer network trained
with Adam classifies the pair.

Unlike the feature-based matchers it consumes *raw attribute text*, not a
feature-vector table — the defining trait of the deep matcher.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.catalog import Catalog
from repro.catalog.checks import resolve_candset
from repro.exceptions import ConfigurationError, NotFittedError
from repro.table.schema import is_missing
from repro.table.table import Table
from repro.text.vectorize import stable_bucket


def _trigram_embed(text: str, dim: int) -> np.ndarray:
    """Hash character trigrams of the text into a bag vector of size dim.

    Buckets come from :func:`~repro.text.vectorize.stable_bucket`, so an
    embedding is the same in every process whatever its hash seed.
    """
    vector = np.zeros(dim)
    text = f"  {text.lower()} "
    for i in range(len(text) - 2):
        vector[stable_bucket(text[i : i + 3], dim)] += 1.0
    norm = np.linalg.norm(vector)
    return vector / norm if norm else vector


class DeepMatcher:
    """MLP matcher over hashed character-trigram attribute embeddings."""

    def __init__(
        self,
        attributes: list[str],
        embedding_dim: int = 64,
        hidden_dim: int = 32,
        epochs: int = 60,
        learning_rate: float = 1e-2,
        random_state: int | None = 0,
        name: str = "DeepMatcher",
    ):
        if not attributes:
            raise ConfigurationError("DeepMatcher needs at least one attribute")
        self.attributes = list(attributes)
        self.embedding_dim = embedding_dim
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.random_state = random_state
        self.name = name
        self._weights: dict[str, np.ndarray] | None = None

    # ------------------------------------------------------------------
    def _vectors_for_candset(
        self, candset: Table, catalog: Catalog | None
    ) -> np.ndarray:
        """One row per pair: (product, absolute difference) of the two
        embeddings of each attribute, attributes in order.  Each distinct
        value is embedded once per call, a missing attribute as ''."""
        meta, l_pos, r_pos = resolve_candset(candset, catalog)
        embeddings: dict[str, np.ndarray] = {}

        def embed(table: Table, pos: np.ndarray, attr: str) -> np.ndarray:
            column = table.column(attr) if attr in table else [None] * table.num_rows
            texts = ["" if is_missing(v) else str(v) for v in map(column.__getitem__, pos.tolist())]
            for text in texts:
                if text not in embeddings:
                    embeddings[text] = _trigram_embed(text, self.embedding_dim)
            return np.array([embeddings[text] for text in texts])

        pieces = []
        for attr in self.attributes:
            left, right = embed(meta.ltable, l_pos, attr), embed(meta.rtable, r_pos, attr)
            pieces += [left * right, np.abs(left - right)]
        return np.hstack(pieces)

    # ------------------------------------------------------------------
    def fit(
        self,
        candset: Table,
        label_column: str = "label",
        catalog: Catalog | None = None,
    ) -> "DeepMatcher":
        """Train on a labeled candidate set (raw attributes, no features)."""
        candset.require_columns([label_column])
        X = self._vectors_for_candset(candset, catalog)
        y = np.asarray(candset.column(label_column), dtype=np.float64)
        rng = np.random.default_rng(self.random_state)
        input_dim = X.shape[1]
        w1 = rng.normal(0, np.sqrt(2.0 / input_dim), size=(input_dim, self.hidden_dim))
        b1 = np.zeros(self.hidden_dim)
        w2 = rng.normal(0, np.sqrt(2.0 / self.hidden_dim), size=self.hidden_dim)
        b2 = 0.0
        # Adam state.
        moments = [np.zeros_like(w1), np.zeros_like(b1), np.zeros_like(w2), 0.0]
        velocities = [np.zeros_like(w1), np.zeros_like(b1), np.zeros_like(w2), 0.0]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        for _ in range(self.epochs):
            step += 1
            hidden = np.maximum(X @ w1 + b1, 0.0)  # ReLU
            logits = hidden @ w2 + b2
            proba = 1.0 / (1.0 + np.exp(-logits))
            error = (proba - y) / len(y)
            grad_w2 = hidden.T @ error
            grad_b2 = float(error.sum())
            grad_hidden = np.outer(error, w2) * (hidden > 0)
            grad_w1 = X.T @ grad_hidden
            grad_b1 = grad_hidden.sum(axis=0)
            grads = [grad_w1, grad_b1, grad_w2, grad_b2]
            params = [w1, b1, w2, b2]
            new_params = []
            for i, (param, grad) in enumerate(zip(params, grads)):
                moments[i] = beta1 * moments[i] + (1 - beta1) * grad
                velocities[i] = beta2 * velocities[i] + (1 - beta2) * np.square(grad)
                m_hat = moments[i] / (1 - beta1**step)
                v_hat = velocities[i] / (1 - beta2**step)
                new_params.append(
                    param - self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
                )
            w1, b1, w2, b2 = new_params
        self._weights = {"w1": w1, "b1": b1, "w2": w2, "b2": np.float64(b2)}
        return self

    def predict_proba(self, candset: Table, catalog: Catalog | None = None) -> np.ndarray:
        """Match probability for each pair of the candidate set."""
        if self._weights is None:
            raise NotFittedError("DeepMatcher is not fitted")
        X = self._vectors_for_candset(candset, catalog)
        hidden = np.maximum(X @ self._weights["w1"] + self._weights["b1"], 0.0)
        logits = hidden @ self._weights["w2"] + float(self._weights["b2"])
        return 1.0 / (1.0 + np.exp(-logits))

    def predict(
        self,
        candset: Table,
        output_column: str = "predicted",
        append: bool = True,
        catalog: Catalog | None = None,
    ) -> Table:
        """Append 0/1 predictions for each pair of the candidate set."""
        proba = self.predict_proba(candset, catalog)
        target = candset if append else candset.copy()
        target.add_column(output_column, [int(p >= 0.5) for p in proba])
        return target

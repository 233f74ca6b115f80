"""Active learning of a random forest with a (simulated) lay user.

Falcon's two learning stages (Steps 2 and 5 in Figure 3) are the same
loop: maintain a labeled set, fit a random forest, ask the user to label
the pairs the forest is most uncertain about (those whose mean match
probability ``p`` over the trees scores highest on ``1 - |2p - 1|``), and
repeat.  The lay user only ever answers match/no-match questions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.exceptions import BudgetExhaustedError, ConfigurationError
from repro.labeling.session import LabelingSession
from repro.ml.base import ml_span
from repro.ml.forest import RandomForestClassifier

Pair = tuple[Any, Any]


@dataclass
class ActiveLearningResult:
    """Outcome of one active-learning stage."""

    forest: RandomForestClassifier
    labeled_indices: list[int]  # positions into the pool
    labels: list[int]  # aligned with labeled_indices
    iterations: int
    questions: int  # questions asked in this stage


def _seed_indices(
    X: np.ndarray, seed_size: int, rng: np.random.Generator
) -> list[int]:
    """Pick the initial batch: half highest-similarity rows (likely
    matches), half uniform (likely non-matches).

    Similarity is approximated by the mean feature value per row — all our
    features are similarities, so high mean means "looks like a match".
    """
    n = X.shape[0]
    seed_size = min(seed_size, n)
    with np.errstate(all="ignore"):
        means = np.nanmean(X, axis=1)
    means = np.where(np.isnan(means), 0.0, means)
    order = np.argsort(-means)
    n_top = seed_size // 2
    picked = list(order[:n_top])
    taken = set(picked)
    remaining = [i for i in range(n) if i not in taken]
    rng.shuffle(remaining)
    picked.extend(remaining[: seed_size - n_top])
    return picked


def active_learn_forest(
    pool_pairs: list[Pair],
    pool_X: np.ndarray,
    session: LabelingSession,
    feature_names: list[str] | None = None,
    n_trees: int = 10,
    seed_size: int = 20,
    batch_size: int = 10,
    max_iterations: int = 20,
    max_questions: int | None = None,
    random_state: int | None = 0,
) -> ActiveLearningResult:
    """Actively learn a random forest over a pool of candidate pairs.

    ``pool_pairs[i]`` is the (l_id, r_id) pair whose feature vector is
    ``pool_X[i]``; NaNs in the pool are imputed to 0 (missing similarity
    is treated as dissimilar).  The loop stops at ``max_iterations``, when
    the forest is unanimous on every unlabeled pair, or when the labeling
    budget (the session's, or ``max_questions`` for this stage) runs out.
    """
    if len(pool_pairs) != pool_X.shape[0]:
        raise ConfigurationError(
            f"{len(pool_pairs)} pairs but {pool_X.shape[0]} feature rows"
        )
    if pool_X.shape[0] == 0:
        raise ConfigurationError("cannot actively learn from an empty pool")
    X = np.where(np.isnan(pool_X), 0.0, pool_X)
    rng = np.random.default_rng(random_state)
    questions_before = session.questions_asked
    stage_budget = max_questions

    def can_ask(n: int) -> bool:
        if not session.has_budget(n):
            return False
        if stage_budget is None:
            return True
        return (session.questions_asked - questions_before) + n <= stage_budget

    labeled: dict[int, int] = {}
    is_labeled = np.zeros(X.shape[0], dtype=bool)

    def ask(index: int) -> None:
        labeled[index] = session.ask(pool_pairs[index])
        is_labeled[index] = True

    # ---- seeding ----
    for index in _seed_indices(X, seed_size, rng):
        if not can_ask(1):
            break
        ask(index)
    # Ensure both classes are present if at all possible.
    attempts = 0
    while len(set(labeled.values())) < 2 and attempts < 50 and can_ask(1):
        candidates = np.nonzero(~is_labeled)[0]
        if candidates.size == 0:
            break
        ask(int(rng.choice(candidates)))
        attempts += 1

    if not labeled:
        raise BudgetExhaustedError("no labeling budget for active learning")

    # min_samples_leaf=2 keeps leaf class distributions impure, so the
    # forest's probabilities stay informative for uncertainty sampling
    # (fully-grown trees are certain about everything after a handful of
    # labels and the loop would stop prematurely).
    forest = RandomForestClassifier(
        n_estimators=n_trees, min_samples_leaf=2, random_state=random_state
    )
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        indices = sorted(labeled)
        y = np.array([labeled[i] for i in indices])
        if len(set(labeled.values())) < 2:
            break  # a one-class forest cannot drive uncertainty sampling
        X_labeled = X[indices]
        with ml_span("ml_fit", forest, X_labeled):
            forest.fit(X_labeled, y, feature_names=feature_names)
        unlabeled = np.nonzero(~is_labeled)[0]
        if unlabeled.size == 0 or not can_ask(1):
            break
        # Uncertainty = closeness of the forest's soft match probability
        # to 0.5.  Like Falcon, the loop runs for a fixed number of
        # iterations rather than stopping when the forest *claims*
        # certainty — early in training the forest is confidently wrong
        # about exactly the borderline pairs that matter.
        positive = int(np.searchsorted(forest.classes_, 1))
        pool = X[unlabeled]
        with ml_span("ml_predict", forest, pool):
            proba = forest.predict_proba(pool)[:, positive]
        uncertainty = 1.0 - np.abs(2.0 * proba - 1.0)
        # Ties (e.g. a sea of zero-uncertainty pairs) are broken toward
        # higher match probability so follow-up rounds still explore the
        # match-like region.
        order = unlabeled[np.lexsort((-proba, -uncertainty))]
        asked_this_round = 0
        for index in order[:batch_size]:
            if not can_ask(1):
                break
            ask(int(index))
            asked_this_round += 1
        if asked_this_round == 0:
            break

    indices = sorted(labeled)
    y = np.array([labeled[i] for i in indices])
    if len(set(y.tolist())) >= 1:
        X_labeled = X[indices]
        with ml_span("ml_fit", forest, X_labeled):
            forest.fit(X_labeled, y, feature_names=feature_names)
    return ActiveLearningResult(
        forest=forest,
        labeled_indices=indices,
        labels=[labeled[i] for i in indices],
        iterations=iterations,
        questions=session.questions_asked - questions_before,
    )

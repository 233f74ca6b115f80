"""From-scratch ML substrate (the ecosystem's scikit-learn substitute)."""

from repro.ml.base import ClassifierMixin, Estimator
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.impute import SimpleImputer
from repro.ml.linear import LinearSVM, LogisticRegression
from repro.ml.metrics import (
    accuracy_score,
    confusion_counts,
    f1_score,
    log_loss,
    precision_recall_f1,
    precision_score,
    recall_score,
)
from repro.ml.model_selection import (
    KFold,
    StratifiedKFold,
    cross_validate,
    mean_cv_score,
    train_test_split,
)
from repro.ml.naive_bayes import BernoulliNB, GaussianNB
from repro.ml.neighbors import KNeighborsClassifier
from repro.ml.regression_tree import DecisionTreeRegressor
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "BernoulliNB",
    "ClassifierMixin",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "Estimator",
    "GaussianNB",
    "GradientBoostingClassifier",
    "KFold",
    "KNeighborsClassifier",
    "LinearSVM",
    "LogisticRegression",
    "RandomForestClassifier",
    "SimpleImputer",
    "StratifiedKFold",
    "accuracy_score",
    "confusion_counts",
    "cross_validate",
    "f1_score",
    "log_loss",
    "mean_cv_score",
    "precision_recall_f1",
    "precision_score",
    "recall_score",
    "train_test_split",
]

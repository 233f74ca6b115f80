"""Ablation — the matcher zoo on one deployment.

The guide's matching step cross-validates multiple learning-based
matchers and picks the winner; the paper's systems case for ecosystems is
that such comparisons are cheap to assemble.  This bench cross-validates
all six feature-based matchers (tree, forest, boosted trees, logistic
regression, SVM, naive Bayes) plus the raw-text DeepMatcher on the same
labeled sample and reports the leaderboard.
"""

from __future__ import annotations

import numpy as np
from _report import format_table, report
from conftest import once

from repro.blocking import OverlapBlocker
from repro.datasets import build_pymatcher_dataset, pymatcher_scenario
from repro.features import extract_feature_vecs, get_features_for_matching
from repro.labeling import LabelingSession, OracleLabeler
from repro.matchers import (
    DeepMatcher,
    DTMatcher,
    KNNMatcher,
    LogRegMatcher,
    NBMatcher,
    RFMatcher,
    SVMMatcher,
    XGMatcher,
    select_matcher,
)
from repro.ml.metrics import precision_recall_f1
from repro.ml.model_selection import train_test_split
from repro.sampling import weighted_sample_candset


def run():
    dataset = build_pymatcher_dataset(pymatcher_scenario("recruit"))
    candset = OverlapBlocker("name", overlap_size=2).block_tables(
        dataset.ltable, dataset.rtable, "id", "id"
    )
    sample = weighted_sample_candset(candset, 700, seed=0)
    LabelingSession(OracleLabeler(dataset.gold_pairs)).label_candset(sample)
    features = get_features_for_matching(dataset.ltable, dataset.rtable)
    fv = extract_feature_vecs(sample, features, label_column="label")

    matchers = [
        DTMatcher(random_state=0),
        RFMatcher(n_estimators=10, random_state=0),
        XGMatcher(n_estimators=40, random_state=0),
        LogRegMatcher(),
        SVMMatcher(),
        NBMatcher(),
        KNNMatcher(n_neighbors=5),
    ]
    selection = select_matcher(matchers, fv, features.names(), n_splits=5)
    rows = [dict(row) for row in selection.scores.rows()]

    # DeepMatcher consumes raw text, so it gets its own holdout protocol.
    labels = np.array(sample.column("label"))
    indices = np.arange(sample.num_rows)
    train_idx, test_idx, _, _ = train_test_split(
        indices.reshape(-1, 1), labels, test_size=0.3, random_state=0
    )
    train = sample.take([int(i) for i in train_idx[:, 0]])
    test = sample.take([int(i) for i in test_idx[:, 0]])
    from repro.catalog import get_catalog

    catalog = get_catalog()
    meta = catalog.get_candset_metadata(sample)
    for part in (train, test):
        catalog.set_candset_metadata(
            part, meta.key, meta.fk_ltable, meta.fk_rtable, meta.ltable, meta.rtable
        )
    deep = DeepMatcher(attributes=["name", "street", "city"], epochs=60, random_state=0)
    deep.fit(train)
    predictions = deep.predict(test, append=False, output_column="p")
    precision, recall, f1 = precision_recall_f1(
        np.array(test.column("label")), np.array(predictions.column("p"))
    )
    rows.append(
        {"matcher": "DeepMatcher (holdout)", "precision": precision,
         "recall": recall, "f1": f1}
    )
    for row in rows:
        for metric in ("precision", "recall", "f1"):
            row[metric] = f"{row[metric]:.3f}"
    return rows, selection


def test_ablation_matcher_zoo(benchmark):
    rows, selection = once(benchmark, run)
    report(
        "ablation_matchers",
        "The matcher zoo, cross-validated on one deployment",
        format_table(rows, columns=["matcher", "precision", "recall", "f1"])
        + f"\n\nSelected matcher: {selection.best_matcher.name} "
          f"(F1 = {selection.best_score:.3f})"
        + "\nExpected shape: tree ensembles (forest, boosted trees) are at"
          "\nor near the top; the selected matcher clears F1 0.85.",
    )
    assert selection.best_score > 0.85
    f1_by_name = {row["matcher"]: float(row["f1"]) for row in rows}
    ensemble_best = max(f1_by_name["RFMatcher"], f1_by_name["XGMatcher"])
    assert ensemble_best >= max(f1_by_name.values()) - 0.05

"""Figure 4 — A decision tree and the blocking rules extracted from it.

The figure's example: a tree over book features predicting that two books
match only if their ISBNs match and their page counts match; the branches
to "No" leaves become the blocking rules

    Rule 1: ISBN match < 1 -> drop
    Rule 2: ISBN match >= 1 AND #pages match < 1 -> drop

This bench trains a tree on labeled book pairs restricted to the
``isbn_exact`` and ``pages_exact`` features and prints both the tree and
the extracted rules, asserting the figure's structure (the ISBN feature
at the root, both no-branches extracted).
"""

from __future__ import annotations

import numpy as np
from _report import report
from conftest import once

from repro.blocking import OverlapBlocker
from repro.datasets import DirtinessConfig, make_em_dataset
from repro.datasets.entities import book
from repro.falcon import extract_rules_from_tree
from repro.features import (
    FeatureTable,
    extract_feature_vecs,
    feature_matrix,
    get_features_for_blocking,
    make_exact_feature,
)
from repro.ml import DecisionTreeClassifier


def run():
    dataset = make_em_dataset(
        book, 400, 400, match_fraction=0.5,
        # books: ISBNs rarely corrupted, pages numeric
        dirtiness=DirtinessConfig(typo_rate=0.1, abbrev_rate=0.0,
                                  token_drop_rate=0.0, reorder_rate=0.0,
                                  case_rate=0.0, missing_rate=0.0,
                                  numeric_jitter_rate=0.15),
        seed=4, name="figure4-books",
    )
    candset = OverlapBlocker("title", overlap_size=1).block_tables(
        dataset.ltable, dataset.rtable, "id", "id"
    )
    features = FeatureTable(
        [
            make_exact_feature("isbn_exact", "isbn", "isbn"),
            make_exact_feature("pages_exact", "pages", "pages"),
        ]
    )
    fv = extract_feature_vecs(candset, features)
    labels = [
        1 if pair in dataset.gold_pairs else 0
        for pair in zip(candset["ltable_id"], candset["rtable_id"])
    ]
    X = feature_matrix(fv, features.names(), impute=False)
    X = np.where(np.isnan(X), 0.0, X)
    tree = DecisionTreeClassifier(max_depth=2).fit(
        X, np.array(labels), feature_names=features.names()
    )
    rules = extract_rules_from_tree(tree, features)
    return tree, rules


def test_figure4_tree_and_rules(benchmark):
    tree, rules = once(benchmark, run)
    rules_text = "\n".join(f"   Rule {i + 1}: {rule}" for i, rule in enumerate(rules))
    report(
        "figure4",
        "A decision tree and its extracted blocking rules",
        "Learned tree:\n" + tree.export_text()
        + "\n\nExtracted candidate blocking rules (root-to-No-leaf paths):\n"
        + rules_text
        + "\n\n(paper's Figure 4: 'ISBN match < 1 -> drop' and"
          "\n 'ISBN match >= 1 AND #pages match < 1 -> drop')",
    )
    # The figure's structure: ISBN at the root, one or two no-rules, the
    # first being the pure low-ISBN-similarity rule.
    assert tree.feature_[0] >= 0
    assert tree.feature_names_[tree.feature_[0]] == "isbn_exact"
    assert 1 <= len(rules) <= 2
    first = rules[0]
    assert any(
        p.feature.name == "isbn_exact" and p.op in ("<=", "<") for p in first.predicates
    )

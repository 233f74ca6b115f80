"""Falcon: end-to-end self-service entity matching (Figure 3).

The lay user's only job is answering match/no-match questions.  Falcon:

1. samples tuple pairs from A x B,
2. actively learns a random forest F on the sample,
3. extracts candidate blocking rules from F's trees and keeps the precise
   executable ones,
4. executes the rules on A x B (as similarity joins) to get the candidate
   set C,
5. actively learns a second forest G on C, and
6. applies G to C with the alpha-voting rule to predict matches.

Note on execution semantics: rule execution via joins drops pairs whose
blocking attributes are missing (they cannot appear in a join output),
whereas per-pair rule evaluation lets such pairs survive.  This mirrors
the real system's behaviour, where blocking operates on indexed values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.blocking.base import make_candset
from repro.blocking.overlap import OverlapBlocker
from repro.blocking.rules import BlockingRule, execute_rules
from repro.catalog.catalog import Catalog, get_catalog
from repro.datasets.generator import EMDataset
from repro.exceptions import ConfigurationError
from repro.falcon.active import ActiveLearningResult, active_learn_forest
from repro.falcon.rules import (
    RuleEvaluation,
    evaluate_rules,
    extract_rules_from_forest,
    select_precise_rules,
)
from repro.features.extraction import extract_feature_vecs, feature_matrix
from repro.features.generation import (
    get_features_for_blocking,
    get_features_for_matching,
)
from repro.labeling.session import LabelingSession
from repro.obs import get_registry
from repro.runtime import EventStream, OperatorGraph, run_graph
from repro.table.table import Table

Pair = tuple[Any, Any]


@dataclass
class FalconConfig:
    """Knobs of the Falcon workflow (paper notation in comments)."""

    sample_size: int = 1500  # |S|, the pairs sampled for blocking-rule learning
    n_trees: int = 10  # n, forest size
    alpha: float = 0.5  # match iff >= alpha * n trees vote match
    seed_size: int = 20
    batch_size: int = 10
    max_iterations: int = 15
    blocking_budget: int = 200  # questions for stage 1
    matching_budget: int = 400  # questions for stage 2
    min_rule_precision: float = 0.95
    min_rule_coverage: int = 5
    max_rules: int = 4
    random_state: int = 0
    fallback_overlap_attr: str | None = None  # blocker if no rule qualifies


@dataclass
class FalconResult:
    """Everything Falcon produced, with the cost accounting of Table 2."""

    candset: Table
    matches: Table  # candset rows predicted as matches
    predictions: list[int]  # per-candset-row 0/1
    rules: list[BlockingRule]
    rule_evaluations: list[RuleEvaluation]
    blocking_stage: ActiveLearningResult
    matching_stage: ActiveLearningResult
    questions: int  # total questions asked
    machine_seconds: float
    used_fallback_blocker: bool = False
    notes: dict[str, Any] = field(default_factory=dict)

    @property
    def match_pairs(self) -> set[Pair]:
        """The predicted matching (l_id, r_id) pairs."""
        fk_columns = [c for c in self.matches.columns if c.startswith(("ltable_", "rtable_"))]
        l_col = next(c for c in fk_columns if c.startswith("ltable_"))
        r_col = next(c for c in fk_columns if c.startswith("rtable_"))
        return set(zip(self.matches.column(l_col), self.matches.column(r_col)))


def _sample_pairs(
    dataset: EMDataset, size: int, seed: int, catalog: Catalog
) -> Table:
    """Step 1: a sample of pairs from A x B with likely matches present.

    A uniform sample of A x B contains almost no matches (matches are a
    ~1/|A| fraction of the cross product), which would starve active
    learning.  Falcon's sampler solves this with cluster-based sampling;
    we approximate it with token-index probing: for sampled right tuples,
    the most token-overlapping left tuples form the likely-match half of
    the pool, and uniform random pairs form the likely-non-match half.
    """
    from collections import defaultdict

    from repro.sampling.down_sample import _row_tokens, _string_columns

    rng = np.random.default_rng(seed)
    l_ids = dataset.ltable.column(dataset.l_key)
    r_ids = dataset.rtable.column(dataset.r_key)
    pairs: set[Pair] = set()

    # Likely matches: probe an inverted index of left-table tokens.
    l_columns = _string_columns(dataset.ltable, dataset.l_key)
    r_columns = _string_columns(dataset.rtable, dataset.r_key)
    index: dict[str, list[int]] = defaultdict(list)
    l_tokens: list[set[str]] = []
    for i in range(dataset.ltable.num_rows):
        tokens = _row_tokens(dataset.ltable, l_columns, i)
        l_tokens.append(tokens)
        for token in tokens:
            index[token].append(i)
    probe_positions = rng.permutation(dataset.rtable.num_rows)[: size // 2]
    for j in probe_positions:
        tokens = _row_tokens(dataset.rtable, r_columns, int(j))
        counts: dict[int, int] = defaultdict(int)
        for token in tokens:
            # Skip stop-word-like tokens with huge posting lists.
            posting = index.get(token, ())
            if len(posting) <= max(20, dataset.ltable.num_rows // 20):
                for position in posting:
                    counts[position] += 1
        if not counts:
            continue
        # Ties go to the lower position: ``tokens`` is a set, so the order
        # ``counts`` filled in moves with the string hash seed.
        best = sorted(counts, key=lambda p: (-counts[p], p))[:2]
        for position in best:
            pairs.add((l_ids[position], r_ids[int(j)]))

    # Likely non-matches: uniform random pairs.
    need = size - len(pairs)
    for i, j in zip(
        rng.integers(0, len(l_ids), size=max(need * 2, 0)),
        rng.integers(0, len(r_ids), size=max(need * 2, 0)),
    ):
        if len(pairs) >= size:
            break
        pairs.add((l_ids[int(i)], r_ids[int(j)]))

    return make_candset(
        sorted(pairs), dataset.ltable, dataset.rtable, dataset.l_key, dataset.r_key,
        catalog=catalog,
    )


def build_falcon_graph(
    dataset: EMDataset,
    session: LabelingSession,
    config: FalconConfig,
    cat: Catalog,
) -> OperatorGraph:
    """Falcon's stages as a runtime operator graph (Figure 3 as a DAG).

    Every node reads and writes the shared artifact store; branches that
    are independent in the figure (sampling vs. feature generation) are
    independent in the graph.  Nodes are not ``isolated`` — the labeling
    session and catalog mutate in-process state that must stay in the
    parent.
    """
    graph = OperatorGraph(f"falcon/{dataset.name}")

    # The fallback blocker is constructed once per run, outside the
    # node bodies: its (attr, overlap) configuration is fixed by the
    # config/dataset, and its underlying tokenization + prefix index are
    # IndexStore artifacts, so re-running the blocking stage (retries,
    # checkpoint resumes, repeated Falcon runs over the same tables)
    # reuses the same index instead of rebuilding it each round.
    fallback_attr = config.fallback_overlap_attr
    if fallback_attr is None:
        fallback_attr = next(
            name for name in dataset.ltable.columns if name != dataset.l_key
        )
    fallback_blocker = OverlapBlocker(fallback_attr, overlap_size=1)

    def observe_stage(stage: str, result: ActiveLearningResult) -> None:
        registry = get_registry()
        registry.counter("falcon_iterations_total", stage=stage).inc(result.iterations)
        registry.counter("falcon_questions_total", stage=stage).inc(result.questions)
        registry.counter("falcon_labels_total", stage=stage).inc(len(result.labels))

    def sample(store) -> None:
        store["sample"] = _sample_pairs(
            dataset, config.sample_size, config.random_state, cat
        )

    def blocking_features(store) -> None:
        store["blocking_features"] = get_features_for_blocking(
            dataset.ltable, dataset.rtable, dataset.l_key, dataset.r_key
        )

    def sample_vectors(store) -> None:
        features = store["blocking_features"]
        sample_fv = extract_feature_vecs(store["sample"], features, cat)
        store["feature_names"] = features.names()
        store["X_sample"] = feature_matrix(
            sample_fv, store["feature_names"], impute=False
        )
        meta = cat.get_candset_metadata(store["sample"])
        store["sample_pairs"] = list(
            zip(
                store["sample"].column(meta.fk_ltable),
                store["sample"].column(meta.fk_rtable),
            )
        )

    def learn_blocking(store) -> None:
        store["blocking_stage"] = active_learn_forest(
            store["sample_pairs"],
            store["X_sample"],
            session,
            feature_names=store["feature_names"],
            n_trees=config.n_trees,
            seed_size=config.seed_size,
            batch_size=config.batch_size,
            max_iterations=config.max_iterations,
            max_questions=config.blocking_budget,
            random_state=config.random_state,
        )
        observe_stage("blocking", store["blocking_stage"])

    def extract_rules(store) -> None:
        store["rule_candidates"] = extract_rules_from_forest(
            store["blocking_stage"].forest, store["blocking_features"]
        )

    def evaluate(store) -> None:
        stage = store["blocking_stage"]
        X_labeled = np.where(
            np.isnan(store["X_sample"][stage.labeled_indices]),
            0.0,
            store["X_sample"][stage.labeled_indices],
        )
        store["rule_evaluations"] = evaluate_rules(
            store["rule_candidates"],
            X_labeled,
            np.array(stage.labels),
            store["feature_names"],
        )

    def select(store) -> None:
        store["rules"] = select_precise_rules(
            store["rule_evaluations"],
            min_precision=config.min_rule_precision,
            min_coverage=config.min_rule_coverage,
            max_rules=config.max_rules,
        )
        get_registry().gauge("falcon_rules_retained").set(len(store["rules"]))

    def execute_blocking(store) -> None:
        rules = store["rules"]
        if rules:
            survivor_pairs = execute_rules(
                rules, dataset.ltable, dataset.rtable, dataset.l_key, dataset.r_key
            )
            store["candset"] = make_candset(
                sorted(survivor_pairs),
                dataset.ltable,
                dataset.rtable,
                dataset.l_key,
                dataset.r_key,
                catalog=cat,
            )
            store["used_fallback"] = False
        else:
            # No precise executable rule: fall back to the conservative
            # overlap blocker on the designated (or first string)
            # attribute, constructed once at graph build time.
            store["candset"] = fallback_blocker.block_tables(
                dataset.ltable,
                dataset.rtable,
                dataset.l_key,
                dataset.r_key,
                catalog=cat,
            )
            store["used_fallback"] = True
        registry = get_registry()
        registry.counter("falcon_candidates_total").inc(store["candset"].num_rows)
        if store["used_fallback"]:
            registry.counter("falcon_fallback_total").inc()

    def matching_features(store) -> None:
        store["matching_features"] = get_features_for_matching(
            dataset.ltable, dataset.rtable, dataset.l_key, dataset.r_key
        )

    def candidate_vectors(store) -> None:
        candset = store["candset"]
        features = store["matching_features"]
        candset_fv = extract_feature_vecs(candset, features, cat)
        store["match_feature_names"] = features.names()
        store["X_cand"] = feature_matrix(
            candset_fv, store["match_feature_names"], impute=False
        )
        cand_meta = cat.get_candset_metadata(candset)
        store["cand_pairs"] = list(
            zip(candset.column(cand_meta.fk_ltable), candset.column(cand_meta.fk_rtable))
        )
        if not store["cand_pairs"]:
            raise ConfigurationError("blocking produced an empty candidate set")

    def learn_matching(store) -> None:
        store["matching_stage"] = active_learn_forest(
            store["cand_pairs"],
            store["X_cand"],
            session,
            feature_names=store["match_feature_names"],
            n_trees=config.n_trees,
            seed_size=config.seed_size,
            batch_size=config.batch_size,
            max_iterations=config.max_iterations,
            max_questions=config.matching_budget,
            random_state=config.random_state + 1,
        )
        observe_stage("matching", store["matching_stage"])

    def predict(store) -> None:
        candset = store["candset"]
        predictions = store["matching_stage"].forest.predict_with_alpha(
            np.where(np.isnan(store["X_cand"]), 0.0, store["X_cand"]),
            alpha=config.alpha,
        )
        store["predictions"] = [int(p) for p in predictions]
        match_rows = [i for i, p in enumerate(predictions) if p == 1]
        matches = candset.take(match_rows)
        cand_meta = cat.get_candset_metadata(candset)
        cat.set_candset_metadata(
            matches,
            cand_meta.key,
            cand_meta.fk_ltable,
            cand_meta.fk_rtable,
            cand_meta.ltable,
            cand_meta.rtable,
        )
        store["matches"] = matches
        get_registry().counter("falcon_matches_total").inc(len(match_rows))

    graph.add("sample", sample, description="sample pairs from A x B")
    graph.add("blocking_features", blocking_features, description="generate blocking features")
    graph.add("sample_vectors", sample_vectors, deps=("sample", "blocking_features"))
    graph.add("learn_blocking", learn_blocking, deps=("sample_vectors",),
              description="actively learn the blocking forest")
    graph.add("extract_rules", extract_rules, deps=("learn_blocking",))
    graph.add("evaluate_rules", evaluate, deps=("extract_rules",))
    graph.add("select_rules", select, deps=("evaluate_rules",))
    graph.add("execute_blocking", execute_blocking, deps=("select_rules",),
              description="execute rules as similarity joins (or fallback blocker)")
    graph.add("matching_features", matching_features, description="generate matching features")
    graph.add("candidate_vectors", candidate_vectors,
              deps=("execute_blocking", "matching_features"))
    graph.add("learn_matching", learn_matching, deps=("candidate_vectors",),
              description="actively learn the matching forest")
    graph.add("predict", predict, deps=("learn_matching",),
              description="alpha-vote the matching forest over the candset")
    return graph


def run_falcon(
    dataset: EMDataset,
    session: LabelingSession,
    config: FalconConfig | None = None,
    catalog: Catalog | None = None,
    events: EventStream | None = None,
) -> FalconResult:
    """Run the end-to-end Falcon workflow on an EM dataset.

    The stages execute as a :class:`repro.runtime.OperatorGraph`; pass an
    ``events`` stream to observe per-stage structured events with wall
    timings (or export them as JSONL afterwards).
    """
    config = config or FalconConfig()
    cat = catalog if catalog is not None else get_catalog()
    dataset.register(cat)
    started = time.perf_counter()

    graph = build_falcon_graph(dataset, session, config, cat)
    store = run_graph(graph, events=events).store

    return FalconResult(
        candset=store["candset"],
        matches=store["matches"],
        predictions=store["predictions"],
        rules=store["rules"],
        rule_evaluations=store["rule_evaluations"],
        blocking_stage=store["blocking_stage"],
        matching_stage=store["matching_stage"],
        questions=session.questions_asked,
        machine_seconds=time.perf_counter() - started,
        used_fallback_blocker=store["used_fallback"],
    )

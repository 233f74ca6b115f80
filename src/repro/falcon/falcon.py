"""Falcon: end-to-end self-service entity matching (Figure 3).

The lay user's only job is answering match/no-match questions.  Falcon:

1. samples tuple pairs from A x B,
2. actively learns a random forest F on the sample,
3. extracts candidate blocking rules from F's trees and keeps the precise
   executable ones,
4. executes the rules on A x B to get the candidate set C: it joins the
   rule of least estimated cost and checks the others on its survivors,
5. actively learns a second forest G on C, and
6. applies G to C with the alpha-voting rule to predict matches.

This module is the one place those stages are written.  Each stage is a
function over a :class:`WorkflowContext` that returns the simulated human
seconds it consumed, and :data:`FALCON_STAGES` is the one table of
``(stage, body, deps)``: :func:`run_falcon` runs it as a runtime graph
whose operators are the bodies and whose store is the context,
``repro.cloud`` serves the same rows as CloudMatcher's Table 4 services
(basic, composite and the stock workflow DAG), and Smurf calls the same
:func:`learn_forest` / :func:`predict_matches` with its own seed and budget.

Note on execution semantics: every retained rule is join-executable, and
such a rule drops a pair whose blocking attribute is missing (a join
cannot emit it), whether it is joined or checked on the survivors; the
per-pair ``drops`` would keep it.  This mirrors the real system's
behaviour, where blocking operates on indexed values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable

import numpy as np

from repro.blocking.base import TEXT, candset_pairs, make_candset, record_numbers
from repro.blocking.overlap import OverlapBlocker
from repro.blocking.rule_based import RuleBasedBlocker
from repro.blocking.rules import BlockingRule
from repro.catalog.catalog import Catalog, get_catalog
from repro.datasets.generator import EMDataset
from repro.exceptions import ConfigurationError, ServiceError
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
from repro.index.store import get_index_store
from repro.labeling.session import LabelingSession
from repro.obs import get_registry
from repro.runtime import OperatorGraph, run_graph
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
class WorkflowContext:
    """Mutable state of one Falcon run, on-prem or as CloudMatcher services.

    It carries the dataset, the labeling session (single user or crowd),
    the configuration, the catalog the run registers its tables in, and
    every intermediate artifact (sample, forests, rules, candidate set,
    predictions).  Stages read and write named slots; a stage that needs a
    slot another has not produced yet fails with a precise error — the
    edges of :data:`FALCON_STAGES` exist to prevent exactly that.
    """

    dataset: EMDataset
    session: LabelingSession
    config: FalconConfig = field(default_factory=FalconConfig)
    task_name: str = "em-task"
    artifacts: dict[str, Any] = field(default_factory=dict)
    catalog: Catalog = field(default_factory=get_catalog)

    def put(self, slot: str, value: Any) -> None:
        """Store an artifact under a named slot."""
        self.artifacts[slot] = value

    def get(self, slot: str) -> Any:
        """Fetch an artifact; raise ServiceError when absent."""
        if slot not in self.artifacts:
            raise ServiceError(
                f"workflow artifact {slot!r} not available; "
                f"have {sorted(self.artifacts)}"
            )
        return self.artifacts[slot]

    def has(self, slot: str) -> bool:
        return slot in self.artifacts


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
    catalog: Catalog = field(default_factory=get_catalog, repr=False)  # holds the tables' metadata

    @property
    def match_pairs(self) -> set[Pair]:
        """The predicted matching (l_id, r_id) pairs."""
        return set(candset_pairs(self.matches, self.catalog))


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
    from repro.sampling.down_sample import TOKENIZER, left_postings, row_text_view

    for side, table in (("left", dataset.ltable), ("right", dataset.rtable)):
        if table.num_rows == 0:
            raise ConfigurationError(f"cannot sample pairs: the {side} table is empty")
    rng = np.random.default_rng(seed)
    ltable, rtable, l_key, r_key = dataset.ltable, dataset.rtable, dataset.l_key, dataset.r_key
    l_ids, r_ids = ltable.column(l_key), rtable.column(r_key)
    pairs: set[Pair] = set()

    # Likely matches: the left rows sharing the most tokens with sampled
    # right rows, counted over the left postings of the store's encoding.
    views = row_text_view(ltable, l_key), row_text_view(rtable, r_key)
    encoding = get_index_store().join_encoding(*views, l_key, r_key, TEXT, TEXT, TOKENIZER)
    starts, postings = (array.tolist() for array in left_postings(encoding, views[0]))
    record, right = record_numbers(views[1]).tolist(), encoding.right
    cap = max(20, ltable.num_rows // 20)
    for j in rng.permutation(rtable.num_rows)[: size // 2].tolist():
        at = record[j]
        ids = right.indices[right.indptr[at] : right.indptr[at + 1]].tolist() if at >= 0 else ()
        # Skip stop-word-like tokens with huge posting lists.
        counts = Counter(chain.from_iterable(
            postings[starts[t] : starts[t + 1]] for t in ids if starts[t + 1] - starts[t] <= cap
        ))
        # Ties go to the lower position, not to the order ``counts`` filled in.
        for position in sorted(counts, key=lambda p: (-counts[p], p))[:2]:
            pairs.add((l_ids[position], r_ids[j]))

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


def _tables(ctx: WorkflowContext) -> tuple[Table, Table, str, str]:
    dataset = ctx.dataset
    return dataset.ltable, dataset.rtable, dataset.l_key, dataset.r_key


def learn_forest(
    pairs: list[Pair],
    X: np.ndarray,
    feature_names: list[str],
    session: LabelingSession,
    config: Any,
    budget: int,
    seed: int,
) -> ActiveLearningResult:
    """One active-learning stage under ``config``'s forest knobs — Falcon's
    two stages and Smurf's one, each with its own budget and seed."""
    return active_learn_forest(
        pairs,
        X,
        session,
        feature_names=feature_names,
        n_trees=config.n_trees,
        seed_size=config.seed_size,
        batch_size=config.batch_size,
        max_iterations=config.max_iterations,
        max_questions=budget,
        random_state=seed,
    )


def predict_matches(
    forest: Any, X: np.ndarray, candset: Table, alpha: float, catalog: Catalog
) -> tuple[list[int], Table]:
    """Alpha-vote ``forest`` over the candidate set: the per-row 0/1
    predictions and the matching rows as a catalog-registered candset."""
    votes = forest.predict_with_alpha(np.where(np.isnan(X), 0.0, X), alpha=alpha)
    predictions = [int(vote) for vote in votes]
    matches = candset.take([i for i, vote in enumerate(predictions) if vote == 1])
    catalog.copy_metadata(candset, matches)
    return predictions, matches


# -- the stages: slots in, slots out, simulated human seconds returned ----
def _sample(ctx: WorkflowContext) -> float:
    size, seed = ctx.config.sample_size, ctx.config.random_state
    ctx.put("sample", _sample_pairs(ctx.dataset, size, seed, ctx.catalog))
    return 0.0


def _blocking_features(ctx: WorkflowContext) -> float:
    ctx.put("blocking_features", get_features_for_blocking(*_tables(ctx)))
    return 0.0


def _matching_features(ctx: WorkflowContext) -> float:
    ctx.put("matching_features", get_features_for_matching(*_tables(ctx)))
    return 0.0


def _vectorize(ctx: WorkflowContext, candset_slot: str, features_slot: str, pool: str) -> float:
    candset, features = ctx.get(candset_slot), ctx.get(features_slot)
    vectors = extract_feature_vecs(candset, features, ctx.catalog)
    ctx.put(f"{pool}_X", feature_matrix(vectors, features.names(), impute=False))
    ctx.put(f"{pool}_pairs", candset_pairs(candset, ctx.catalog))
    return 0.0


def _sample_vectors(ctx: WorkflowContext) -> float:
    return _vectorize(ctx, "sample", "blocking_features", "sample")


def _candidate_vectors(ctx: WorkflowContext) -> float:
    if not ctx.get("candset").num_rows:
        raise ConfigurationError("blocking produced an empty candidate set")
    return _vectorize(ctx, "candset", "matching_features", "candidate")


def _learn(
    ctx: WorkflowContext, stage: str, pool: str, budget: int, seed: int
) -> float:
    labeler = ctx.session.labeler
    before = labeler.labeling_seconds
    result = learn_forest(
        ctx.get(f"{pool}_pairs"),
        ctx.get(f"{pool}_X"),
        ctx.get(f"{stage}_features").names(),
        ctx.session,
        ctx.config,
        budget,
        seed,
    )
    ctx.put(f"{stage}_stage", result)
    registry = get_registry()
    registry.counter("falcon_iterations_total", stage=stage).inc(result.iterations)
    registry.counter("falcon_questions_total", stage=stage).inc(result.questions)
    registry.counter("falcon_labels_total", stage=stage).inc(len(result.labels))
    return labeler.labeling_seconds - before


def _learn_blocking(ctx: WorkflowContext) -> float:
    config = ctx.config
    return _learn(ctx, "blocking", "sample", config.blocking_budget, config.random_state)


def _learn_matching(ctx: WorkflowContext) -> float:
    config = ctx.config
    return _learn(
        ctx, "matching", "candidate", config.matching_budget, config.random_state + 1
    )


def _extract_rules(ctx: WorkflowContext) -> float:
    ctx.put(
        "candidate_rules",
        extract_rules_from_forest(
            ctx.get("blocking_stage").forest, ctx.get("blocking_features")
        ),
    )
    return 0.0


def _evaluate_rules(ctx: WorkflowContext) -> float:
    stage = ctx.get("blocking_stage")
    X_labeled = ctx.get("sample_X")[stage.labeled_indices]
    ctx.put(
        "rule_evaluations",
        evaluate_rules(
            ctx.get("candidate_rules"),
            np.where(np.isnan(X_labeled), 0.0, X_labeled),
            np.array(stage.labels),
            ctx.get("blocking_features").names(),
        ),
    )
    return 0.0


def _select_rules(ctx: WorkflowContext) -> float:
    config = ctx.config
    rules = select_precise_rules(
        ctx.get("rule_evaluations"),
        min_precision=config.min_rule_precision,
        min_coverage=config.min_rule_coverage,
        max_rules=config.max_rules,
    )
    ctx.put("rules", rules)
    get_registry().gauge("falcon_rules_retained").set(len(rules))
    return 0.0


def _execute_blocking(ctx: WorkflowContext) -> float:
    rules, tables = ctx.get("rules"), _tables(ctx)
    if rules:
        candset = RuleBasedBlocker(rules).block_tables(*tables, catalog=ctx.catalog)
    else:
        # No precise executable rule: fall back to the conservative overlap
        # blocker on the designated (or first non-key) attribute.  Its
        # tokenization and prefix index are IndexStore artifacts, so a
        # re-run over the same tables reuses them.
        attr = ctx.config.fallback_overlap_attr or next(
            name for name in tables[0].columns if name != tables[2]
        )
        candset = OverlapBlocker(attr, overlap_size=1).block_tables(
            *tables, catalog=ctx.catalog
        )
        get_registry().counter("falcon_fallback_total").inc()
    ctx.put("candset", candset)
    ctx.put("used_fallback", not rules)
    get_registry().counter("falcon_candidates_total").inc(candset.num_rows)
    return 0.0


def _predict(ctx: WorkflowContext) -> float:
    predictions, matches = predict_matches(
        ctx.get("matching_stage").forest,
        ctx.get("candidate_X"),
        ctx.get("candset"),
        ctx.config.alpha,
        ctx.catalog,
    )
    ctx.put("predictions", predictions)
    ctx.put("matches", matches)
    get_registry().counter("falcon_matches_total").inc(matches.num_rows)
    return 0.0


#: Falcon, once: ``(stage, body, stages it needs, description)`` in run
#: order — Figure 3 as a DAG, with sampling and the two feature generators
#: as independent roots.
FALCON_STAGES: tuple[tuple[str, Callable[[WorkflowContext], float], tuple[str, ...], str], ...] = (
    ("sample", _sample, (), "sample pairs from A x B"),
    ("blocking_features", _blocking_features, (), "generate blocking features"),
    ("sample_vectors", _sample_vectors, ("sample", "blocking_features"), ""),
    ("learn_blocking", _learn_blocking, ("sample_vectors",),
     "actively learn the blocking forest"),
    ("extract_rules", _extract_rules, ("learn_blocking",), ""),
    ("evaluate_rules", _evaluate_rules, ("extract_rules",), ""),
    ("select_rules", _select_rules, ("evaluate_rules",), ""),
    ("execute_blocking", _execute_blocking, ("select_rules",),
     "join the cheapest rule, check the others on its pairs (or fallback blocker)"),
    ("matching_features", _matching_features, (), "generate matching features"),
    ("candidate_vectors", _candidate_vectors, ("execute_blocking", "matching_features"), ""),
    ("learn_matching", _learn_matching, ("candidate_vectors",),
     "actively learn the matching forest"),
    ("predict", _predict, ("learn_matching",),
     "alpha-vote the matching forest over the candset"),
)


def run_falcon(
    dataset: EMDataset,
    session: LabelingSession,
    config: FalconConfig | None = None,
    catalog: Catalog | None = None,
) -> FalconResult:
    """Run the end-to-end Falcon workflow on an EM dataset.

    The stages execute as a :class:`repro.runtime.OperatorGraph` whose
    store is the run's :class:`WorkflowContext`, one node span per stage
    on the installed tracer (install one with
    :func:`repro.obs.use_tracer` to keep them, or export them with
    :meth:`~repro.obs.Tracer.write_jsonl`).  The stages run in the
    calling process, where the labeling session and catalog keep their
    state.
    """
    ctx = WorkflowContext(
        dataset,
        session,
        config or FalconConfig(),
        task_name=dataset.name,
        catalog=catalog if catalog is not None else get_catalog(),
    )
    dataset.register(ctx.catalog)

    graph = OperatorGraph(f"falcon/{dataset.name}")
    for stage, body, deps, description in FALCON_STAGES:
        graph.add(stage, body, deps=deps, description=description)
    run = run_graph(graph, ctx)

    return FalconResult(
        candset=ctx.get("candset"),
        matches=ctx.get("matches"),
        predictions=ctx.get("predictions"),
        rules=ctx.get("rules"),
        rule_evaluations=ctx.get("rule_evaluations"),
        blocking_stage=ctx.get("blocking_stage"),
        matching_stage=ctx.get("matching_stage"),
        questions=session.questions_asked,
        machine_seconds=run.seconds(),
        used_fallback_blocker=ctx.get("used_fallback"),
        catalog=ctx.catalog,
    )

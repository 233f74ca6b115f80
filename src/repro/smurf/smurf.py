"""Smurf: self-service string matching using random forests (Section 5.3).

Smurf matches two *sets of strings* and "removes the need to label to
learn blocking rules": instead of Falcon's labeled blocking stage, Smurf
generates candidates directly with an unsupervised similarity join whose
threshold is auto-tuned, then spends labels only on actively learning the
random-forest matcher — Falcon's matching half, called as the same two
functions (``learn_forest`` / ``predict_matches``).  The paper reports
this cuts labeling effort by 43-76% at the same accuracy;
``benchmarks/bench_smurf_reduction.py`` measures our version of that
claim against Falcon on the same tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.blocking.base import candset_pairs, make_candset
from repro.catalog.catalog import Catalog, get_catalog
from repro.datasets.generator import EMDataset
from repro.exceptions import ConfigurationError
from repro.falcon.active import ActiveLearningResult
from repro.falcon.falcon import learn_forest, predict_matches
from repro.features.extraction import extract_feature_vecs, feature_matrix
from repro.features.feature import FeatureTable, make_string_feature, make_token_feature
from repro.labeling.session import LabelingSession
from repro.runtime import OperatorGraph, run_graph
from repro.simjoin.joins import set_sim_join
from repro.table.table import Table
from repro.text.sim.edit_based import JaroWinkler, Levenshtein
from repro.text.sim.token_based import Cosine, Jaccard
from repro.text.tokenizers import QgramTokenizer, WhitespaceTokenizer

Pair = tuple[Any, Any]

#: The q-gram Jaccard thresholds the auto-tuned join tries, tightest first.
JOIN_THRESHOLDS = (0.8, 0.7, 0.6, 0.5, 0.4, 0.3)


@dataclass
class SmurfConfig:
    """Knobs of the Smurf workflow."""

    candidate_budget_factor: float = 5.0  # max |C| as a multiple of max(|A|,|B|)
    n_trees: int = 10
    alpha: float = 0.5
    seed_size: int = 20
    batch_size: int = 10
    max_iterations: int = 15
    matching_budget: int = 300
    random_state: int = 0


@dataclass
class SmurfResult:
    """Smurf's output plus the label accounting used by the benchmark."""

    candset: Table
    matches: Table
    predictions: list[int]
    join_threshold: float
    matching_stage: ActiveLearningResult
    questions: int  # labels spent — all in the matching stage
    machine_seconds: float
    notes: dict[str, Any] = field(default_factory=dict)
    catalog: Catalog = field(default_factory=get_catalog, repr=False)  # holds the tables' metadata

    @property
    def match_pairs(self) -> set[Pair]:
        return set(candset_pairs(self.matches, self.catalog))


def _string_feature_table(column: str) -> FeatureTable:
    """Features for a single string attribute pair."""
    ws = WhitespaceTokenizer(return_set=True)
    qg3 = QgramTokenizer(q=3, return_set=True)
    return FeatureTable(
        [
            make_token_feature(f"{column}_jaccard_qgm3", column, column, qg3, Jaccard(), "jaccard"),
            make_token_feature(f"{column}_jaccard_ws", column, column, ws, Jaccard(), "jaccard"),
            make_token_feature(f"{column}_cosine_qgm3", column, column, qg3, Cosine(), "cosine"),
            make_string_feature(f"{column}_lev_sim", column, column, Levenshtein(), "lev_sim"),
            make_string_feature(f"{column}_jaro_winkler", column, column, JaroWinkler(), "jaro_winkler"),
        ]
    )


def _auto_join(
    dataset: EMDataset, column: str, config: SmurfConfig
) -> tuple[list[Pair], float]:
    """Unsupervised candidate generation: loosen the q-gram Jaccard join
    threshold until the candidate set is as large as the budget allows."""
    tokenizer = QgramTokenizer(q=3, return_set=True)
    budget = int(
        config.candidate_budget_factor
        * max(dataset.ltable.num_rows, dataset.rtable.num_rows)
    )
    first = best = None
    for threshold in JOIN_THRESHOLDS:
        joined = set_sim_join(
            dataset.ltable,
            dataset.rtable,
            dataset.l_key,
            dataset.r_key,
            column,
            column,
            tokenizer,
            measure="jaccard",
            threshold=threshold,
        )
        pairs = sorted(zip(joined.column("l_id"), joined.column("r_id")))
        if first is None:
            first = (pairs, threshold)
        if len(pairs) > budget:
            break
        best = (pairs, threshold)
    # Even the first (tightest) threshold overflowed, or the last one that
    # fits found nothing: fall back to the first threshold's output.
    return best if best is not None and best[0] else first


def build_smurf_graph(
    dataset: EMDataset,
    session: LabelingSession,
    column: str,
    config: SmurfConfig,
    cat: Catalog,
) -> OperatorGraph:
    """Smurf's stages as a runtime operator graph.

    A chain — auto-tuned join, candset construction, featurization,
    active learning, prediction — over the shared artifact store, run in
    the calling process: the session and catalog mutate its state.
    """
    graph = OperatorGraph(f"smurf/{dataset.name}")

    def auto_join(store) -> None:
        pairs, threshold = _auto_join(dataset, column, config)
        if not pairs:
            raise ConfigurationError("Smurf's similarity join produced no candidates")
        store["pairs"] = pairs
        store["join_threshold"] = threshold

    def build_candset(store) -> None:
        store["candset"] = make_candset(
            store["pairs"],
            dataset.ltable,
            dataset.rtable,
            dataset.l_key,
            dataset.r_key,
            catalog=cat,
        )

    def featurize(store) -> None:
        features = _string_feature_table(column)
        fv = extract_feature_vecs(store["candset"], features, cat)
        store["feature_names"] = features.names()
        store["X"] = feature_matrix(fv, store["feature_names"], impute=False)

    def learn_matching(store) -> None:
        store["matching_stage"] = learn_forest(
            store["pairs"], store["X"], store["feature_names"], session, config,
            config.matching_budget, config.random_state,
        )

    def predict(store) -> None:
        store["predictions"], store["matches"] = predict_matches(
            store["matching_stage"].forest, store["X"], store["candset"], config.alpha, cat
        )

    graph.add("auto_join", auto_join,
              description="auto-tune the q-gram Jaccard join threshold")
    graph.add("build_candset", build_candset, deps=("auto_join",))
    graph.add("featurize", featurize, deps=("build_candset",))
    graph.add("learn_matching", learn_matching, deps=("featurize",),
              description="actively learn the matching forest")
    graph.add("predict", predict, deps=("learn_matching",),
              description="alpha-vote the forest over the candset")
    return graph


def run_smurf(
    dataset: EMDataset,
    session: LabelingSession,
    column: str = "value",
    config: SmurfConfig | None = None,
    catalog: Catalog | None = None,
) -> SmurfResult:
    """Run Smurf on a string-matching dataset (one string column per side).

    The stages execute as a :class:`repro.runtime.OperatorGraph`, one
    node span per stage on the installed tracer.
    """
    config = config or SmurfConfig()
    cat = catalog if catalog is not None else get_catalog()
    dataset.register(cat)
    dataset.ltable.require_columns([column])
    dataset.rtable.require_columns([column])

    run = run_graph(build_smurf_graph(dataset, session, column, config, cat))
    store = run.store

    return SmurfResult(
        candset=store["candset"],
        matches=store["matches"],
        predictions=store["predictions"],
        join_threshold=store["join_threshold"],
        matching_stage=store["matching_stage"],
        questions=store["matching_stage"].questions,
        machine_seconds=run.seconds(),
        catalog=cat,
    )

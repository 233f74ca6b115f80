"""guide_batch: the PyMatcher how-to-guide path as one workflow run.

Paper Fig. 2 / Table 1 as one ``MagellanWorkflow.run()`` per job: overlap
blocking on two attributes (unioned), weighted sample, oracle labeling,
feature generation + extraction (sample, then the full candidate set),
cross-validated matcher selection, prediction, clustering.  It is the
batch user's whole job: ``features`` + ``matchers`` do most of the
work and ``simjoin``/``index`` almost none, so a join-kernel change
must not move it.
"""

from __future__ import annotations

import time

import gen
from common import counter_total, median

from repro.blocking import OverlapBlocker, blocking_recall, candset_union
from repro.catalog import get_catalog
from repro.features import extract_feature_vecs, get_features_for_matching
from repro.index import IndexStore, use_index_store
from repro.labeling import LabelingSession, OracleLabeler
from repro.matchers import DTMatcher, LogRegMatcher, RFMatcher, select_matcher
from repro.obs import get_registry
from repro.pipeline import MagellanWorkflow
from repro.postprocess import cluster_matches
from repro.sampling import weighted_sample_candset
from repro.table import Table

#: Independent table pairs per run; every reported time is the median
#: over them, so a burst of machine noise during one job is discarded.
JOBS = 3
F1_FLOOR = 0.85
GOLD_RECALL_FLOOR = 0.95


def sizes(scale: float, rows: int | None = None) -> dict:
    return {"rows": rows or max(300, int(2000 * scale)), "jobs": JOBS, "sample": 600}


def generate(seed: int, sz: dict) -> list[dict]:
    return gen.guide_inputs(seed, sz["rows"], sz["jobs"])


def setup(inputs: list[dict], sz: dict, tracer) -> dict:
    started = time.perf_counter()
    catalog = get_catalog()
    tables = []
    with tracer.span("table:build"):
        for job in inputs:
            a_table, b_table = Table(job["A"]), Table(job["B"])
            catalog.set_key(a_table, "id")
            catalog.set_key(b_table, "id")
            tables.append((a_table, b_table))
    return {"tables": tables, "table_build_s": time.perf_counter() - started}


def teardown(state: dict) -> None:
    pass


def _workflow(a_table: Table, b_table: Table, gold: set, sz: dict, tracer) -> MagellanWorkflow:
    def block(art):
        by_title = OverlapBlocker("title", overlap_size=2).block_tables(a_table, b_table, "id", "id")
        by_code = OverlapBlocker("code", overlap_size=1).block_tables(a_table, b_table, "id", "id")
        art["candset"] = candset_union(by_title, by_code)

    def sample(art):
        art["sample"] = weighted_sample_candset(art["candset"], sz["sample"], seed=0)

    def label(art):
        LabelingSession(OracleLabeler(gold)).label_candset(art["sample"])

    def generate_features(art):
        art["features"] = get_features_for_matching(a_table, b_table)

    def extract_sample(art):
        art["fv"] = extract_feature_vecs(art["sample"], art["features"], label_column="label")

    def select(art):
        art["selection"] = select_matcher(
            [DTMatcher(random_state=0), RFMatcher(n_estimators=10, random_state=0), LogRegMatcher()],
            art["fv"],
            art["features"].names(),
        )

    def extract_all(art):
        art["fv_all"] = extract_feature_vecs(art["candset"], art["features"])

    def predict(art):
        art["selection"].best_matcher.predict(art["fv_all"])

    def cluster(art):
        fv_all = art["fv_all"]
        meta = get_catalog().get_candset_metadata(fv_all)
        art["predicted"] = {
            (l_id, r_id)
            for l_id, r_id, flag in zip(
                fv_all[meta.fk_ltable], fv_all[meta.fk_rtable], fv_all["predicted"]
            )
            if flag == 1
        }
        art["clusters"] = cluster_matches(art["predicted"])

    workflow = MagellanWorkflow("guide_batch")
    for layer, fn in (
        ("blocking", block),
        ("sampling", sample),
        ("labeling", label),
        ("features", generate_features),
        ("features", extract_sample),
        ("matchers", select),
        ("features", extract_all),
        ("matchers", predict),
        ("postprocess", cluster),
    ):
        workflow.add_step(fn.__name__, tracer.wrap(f"{layer}:{fn.__name__}", fn))
    return workflow


def _run_job(tables, job: dict, sz: dict, tracer) -> dict:
    gold = {tuple(pair) for pair in job["gold"]}
    workflow = _workflow(*tables, gold, sz, tracer)
    registry = get_registry()
    hits0 = counter_total(registry, "feature_cache_hits_total")
    misses0 = counter_total(registry, "feature_cache_misses_total")
    with use_index_store(IndexStore()):
        with tracer.span("pipeline:run"):
            started = time.perf_counter()
            artifacts = workflow.run()
            workflow_s = time.perf_counter() - started
    hits = counter_total(registry, "feature_cache_hits_total") - hits0
    misses = counter_total(registry, "feature_cache_misses_total") - misses0

    predicted = artifacts["predicted"]
    f1 = 2 * len(predicted & gold) / (len(predicted) + len(gold)) if predicted or gold else 1.0
    step = {record.name: record.seconds for record in workflow.records}
    candidates = artifacts["candset"].num_rows
    extract_s = step["extract_sample"] + step["extract_all"]
    return {
        "workflow_s": workflow_s,
        "f1": f1,
        "layers": {
            "blocking.block_s": step["block"],
            "blocking.candidates": candidates,
            "sampling.sample_s": step["sample"],
            "labeling.label_s": step["label"],
            "features.generate_s": step["generate_features"],
            "features.extract_sample_s": step["extract_sample"],
            "features.extract_all_s": step["extract_all"],
            "features.pairs_per_s": (artifacts["sample"].num_rows + candidates) / extract_s,
            "features.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "matchers.select_s": step["select"],
            "matchers.predict_s": step["predict"],
            "matchers.predict_pairs_per_s": candidates / step["predict"],
            "postprocess.cluster_s": step["cluster"],
            "pipeline.overhead_s": workflow_s - sum(step.values()),
        },
        "accounted": sum(step.values()) / workflow_s,
        "counts": {
            "candidates": candidates,
            "predicted": len(predicted),
            "gold": len(gold),
            "clusters": len(artifacts["clusters"]),
            "matcher": artifacts["selection"].best_matcher.name,
        },
        "artifacts": artifacts,
        "gold": gold,
    }


def run(state: dict, inputs: list[dict], sz: dict, tracer) -> dict:
    jobs = [_run_job(tables, job, sz, tracer) for tables, job in zip(state["tables"], inputs)]
    workflow_s = median([job["workflow_s"] for job in jobs])
    f1 = median([job["f1"] for job in jobs])
    layer = {name: median([job["layers"][name] for job in jobs]) for name in jobs[0]["layers"]}
    layer["table.build_s"] = state["table_build_s"]
    return {
        "native": {"workflow_s": workflow_s, "f1": f1},
        "work_s": workflow_s,
        "quality": f1,
        "layers": layer,
        "accounted": {"workflow_s": median([job["accounted"] for job in jobs])},
        "counts": {
            name: [job["counts"][name] for job in jobs] for name in jobs[0]["counts"]
        },
        "_jobs": jobs,
    }


def layers(state: dict, inputs: list[dict], sz: dict, tracer, result: dict) -> dict:
    return {}


def check(state: dict, inputs: list[dict], sz: dict, result: dict) -> dict:
    """Floors on the reported (median) ``f1`` and ``blocking.gold_recall``,
    and cluster consistency per job, off the clock.  The floors sit on
    the medians because one job in a few dozen draws a label sample the
    decision tree overfits (f1 ~0.84): a property of 600 labels, not a
    defect, and the median is what the run reports."""
    failures, recalls = [], []
    for number, job in enumerate(result["_jobs"]):
        artifacts = job["artifacts"]
        recalls.append(blocking_recall(artifacts["candset"], job["gold"]))
        cluster_of = {
            node: index for index, cluster in enumerate(artifacts["clusters"]) for node in cluster
        }
        split_pairs = sum(
            1
            for l_id, r_id in artifacts["predicted"]
            if cluster_of.get(("l", l_id)) != cluster_of.get(("r", r_id))
        )
        if split_pairs:
            failures.append(f"job {number}: {split_pairs} predicted pairs straddle two clusters")
    f1, gold_recall = result["native"]["f1"], median(recalls)
    if f1 < F1_FLOOR:
        failures.append(f"f1 {f1:.4f} below floor {F1_FLOOR}")
    if gold_recall < GOLD_RECALL_FLOOR:
        failures.append(f"blocking.gold_recall {gold_recall:.4f} below floor {GOLD_RECALL_FLOOR}")
    return {
        "attempted": len(recalls) + 2,
        "failed": len(failures),
        "failures": failures,
        "layers": {"blocking.gold_recall": gold_recall},
    }

"""The production stage: captured workflow, multicore scaling, recovery.

After development, the EM workflow is a captured script executed on the
full data.  This example (1) captures the workflow as a
:class:`MagellanWorkflow`, (2) scales the expensive prediction step with
partition parallelism (the Dask substitute), and (3) demonstrates crash
recovery: the run is killed halfway, then resumed from its checkpoints.

Run:  python examples/production_scaling.py
"""

import logging
import tempfile
import time

from repro.blocking import OverlapBlocker
from repro.datasets import DirtinessConfig, make_em_dataset
from repro.datasets.entities import product
from repro.features import extract_feature_vecs, get_features_for_matching
from repro.labeling import LabelingSession, OracleLabeler
from repro.matchers import RFMatcher
from repro.obs import use_tracer
from repro.pipeline import (
    CheckpointedRun,
    MagellanWorkflow,
    parallel_map_partitions,
    partition_table,
)
from repro.sampling import weighted_sample_candset

logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")

DATASET = make_em_dataset(
    product, 800, 800, match_fraction=0.5,
    dirtiness=DirtinessConfig.light(), seed=5, name="production",
)
FEATURES = get_features_for_matching(DATASET.ltable, DATASET.rtable)
MATCHER = RFMatcher(n_estimators=10, random_state=0)


def develop_workflow() -> MagellanWorkflow:
    """The development stage output: a runnable captured script."""
    workflow = MagellanWorkflow("products-em")

    def block(art):
        art["candset"] = OverlapBlocker("title", overlap_size=2).block_tables(
            DATASET.ltable, DATASET.rtable, "id", "id"
        )

    def label_and_train(art):
        sample = weighted_sample_candset(art["candset"], 500, seed=0)
        LabelingSession(OracleLabeler(DATASET.gold_pairs)).label_candset(sample)
        fv = extract_feature_vecs(sample, FEATURES, label_column="label")
        MATCHER.fit(fv, FEATURES.names())

    workflow.add_step("block", block, "overlap blocking on title")
    workflow.add_step("train", label_and_train, "label a sample, train the forest")
    return workflow


def predict_partition(candset_part):
    """The prediction step per partition.  A partition keeps its candset's
    catalog entry, so it goes straight into extraction."""
    fv = extract_feature_vecs(candset_part, FEATURES)
    return MATCHER.predict(fv, append=False).project(
        ["ltable_id", "rtable_id", "predicted"]
    )


def main() -> None:
    workflow = develop_workflow()
    with use_tracer() as tracer:
        artifacts = workflow.run()
    candset = artifacts["candset"]
    print(f"\nCandidate set: {candset.num_rows} pairs; per-step timing:")
    for record in workflow.records:
        print(f"   {record.name}: {record.seconds:.2f}s")
    # The captured script ran as a runtime chain graph: each step is a
    # node span, nesting the spans of the work it did, on the installed
    # tracer, ready for export to a monitoring stack.
    steps = [span for span in tracer.spans if "node" in span.labels]
    print(f"   spans recorded: {len(tracer)}, {len(steps)} of them workflow steps "
          f"(tracer.write_jsonl(path) exports them)")

    # ---- multicore scaling ------------------------------------------
    for workers in (1, 2, 4):
        started = time.perf_counter()
        result = parallel_map_partitions(
            candset, predict_partition, n_workers=workers, n_partitions=8
        )
        elapsed = time.perf_counter() - started
        print(f"   predict with {workers} worker(s): {elapsed:.2f}s "
              f"({result.num_rows} pairs, {sum(result['predicted'])} matches)")

    # ---- crash recovery ---------------------------------------------
    print("\nCrash-recovery demo:")
    with tempfile.TemporaryDirectory() as tmp:
        crash_after = {"count": 0}

        def flaky(part):
            crash_after["count"] += 1
            if crash_after["count"] == 3:
                raise RuntimeError("simulated machine crash")
            return predict_partition(part)

        run = CheckpointedRun("nightly", tmp)
        try:
            run.execute(candset, flaky, n_partitions=6)
        except RuntimeError:
            done = sorted(run.completed_partitions())
            print(f"   crashed; partitions {done} checkpointed")
        # Resume on a fork pool: only the pending partitions are computed,
        # and files/manifest/concat order stay byte-identical to serial.
        result = run.execute(candset, predict_partition, n_partitions=6, n_jobs=2)
        print(f"   resumed on 2 jobs and finished: {result.num_rows} pairs "
              f"(partitions {sorted(run.completed_partitions())})")
    print(f"   partitions of the candset: "
          f"{[p.num_rows for p in partition_table(candset, 6)]}")


if __name__ == "__main__":
    main()

"""The package runs without networkx: connected components are one
union-find and cloud workflows run on the runtime's own DAG.

networkx is a test-only dependency (the oracle of the components tests),
so the check runs in a fresh interpreter that imports every ``repro``
module, drives each job that once used networkx, and reads
``sys.modules`` after the work.
"""

from __future__ import annotations

from tests.test_scipy_footprint import run_fresh

EVERY_JOB = """
import importlib, json, pkgutil, sys
import repro

modules = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in modules:
    importlib.import_module(name)

from repro.cloud import DEFAULT_REGISTRY, MetaManager, WorkflowContext, build_falcon_workflow
from repro.datasets import DirtinessConfig, make_em_dataset
from repro.datasets.entities import restaurant
from repro.falcon import FalconConfig
from repro.index import use_index_store
from repro.labeling import LabelingSession, OracleLabeler
from repro.pipeline import StreamingDeduper
from repro.postprocess import cluster_matches, dedupe_table
from repro.table import Table

checks = {}
checks["clusters"] = cluster_matches({("a", "x"), ("b", "x"), ("c", "y")}) == [
    {("l", "a"), ("l", "b"), ("r", "x")}, {("l", "c"), ("r", "y")},
]
table = Table({"id": ["r1", "r2", "r3"], "name": ["ann", "ann", "bob"]})
checks["dedupe"] = dedupe_table(table, {("r1", "r2")}).num_rows == 2
with use_index_store():
    deduper = StreamingDeduper(threshold=0.5)
    for key, value in [("k1", "red apple"), ("k2", "red apple pie"), ("k3", "kiwi")]:
        deduper.add(key, value)
    checks["stream"] = deduper.clusters(min_size=2) == [{"k1", "k2"}]
dataset = make_em_dataset(
    restaurant, 120, 120, match_fraction=0.5,
    dirtiness=DirtinessConfig.light(), seed=1, name="footprint",
)
context = WorkflowContext(
    dataset=dataset,
    session=LabelingSession(OracleLabeler(dataset.gold_pairs), budget=400),
    config=FalconConfig(sample_size=400, blocking_budget=100,
                        matching_budget=200, random_state=0),
    task_name=dataset.name,
)
manager = MetaManager()
manager.submit(build_falcon_workflow(dataset.name, DEFAULT_REGISTRY), context)
checks["cloud"] = manager.run_all() > 0 and context.has("matches")
checks["networkx not loaded"] = "networkx" not in sys.modules
print(json.dumps({"checks": checks, "modules": len(modules)}))
"""


def test_package_never_imports_networkx():
    result = run_fresh(EVERY_JOB)
    assert result["checks"] == dict.fromkeys(result["checks"], True)
    assert len(result["checks"]) == 5
    assert result["modules"] > 100

"""The token chain runs on plain numpy arrays: joins, live indexes,
served matches, token features and the guide's samplers and debugger
never import scipy.

scipy is loaded only where a sparse product is the algorithm (the ANN
band codes and cosines, the vector-pair projection), so each check runs
in a fresh interpreter and reads ``sys.modules`` after the work.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.index import use_index_store

#: Two 60-row tables over a small vocabulary, so every join has matches.
TABLES = """
from repro.table import Table
WORDS = ["ann", "bob", "cat", "dan", "eve", "fay", "gus", "hal"]
VALUES = [" ".join(WORDS[(i * k) % 8] for k in (1, 3, 5)) + f" x{i % 5}" for i in range(60)]
ltable = Table({"id": [f"l{i}" for i in range(60)], "v": VALUES})
rtable = Table({"id": [f"r{i}" for i in range(60)], "v": VALUES[::-1]})
"""

VECTOR_PAIRS = """
from repro.blocking import VectorBlocker
candset = VectorBlocker("v", threshold=0.3).block_tables(ltable, rtable, "id", "id")
vector_pairs = [list(pair) for pair in zip(*map(candset.column, ("ltable_id", "rtable_id")))]
"""

TOKEN_CHAIN = TABLES + """
import json, sys, tempfile
import repro, repro.cli
from repro.index import IndexStore, LiveIndex, use_index_store
from repro.serve import MatchServer, ServeConfig
from repro.simjoin import edit_distance_join, naive_set_sim_join, set_sim_join
from repro.text.tokenizers import WhitespaceTokenizer

args = (ltable, rtable, "id", "id", "v", "v", WhitespaceTokenizer(return_set=True), "jaccard", 0.4)
checks = {}
with tempfile.TemporaryDirectory() as cache:
    with use_index_store(IndexStore(cache_dir=cache)):
        cold = set_sim_join(*args)
    with use_index_store(IndexStore(cache_dir=cache)):
        checks["warm == cold == naive"] = set_sim_join(*args) == cold == naive_set_sim_join(*args)
        checks["edit rows"] = edit_distance_join(ltable, rtable, "id", "id", "v", "v").num_rows > 0
    store = IndexStore(cache_dir=cache)
    live = LiveIndex.from_table(rtable, "id", "v", threshold=0.4, store=store, name="guard")
    live.upsert("r60", "ann bob zed")
    live.delete("r0")
    found = live.search_batch(VALUES[:7])
    checks["batch == singles"] = found == [live.search(value) for value in VALUES[:7]]
    checks["join_table"] = live.join_table(ltable, "id", "v") == set_sim_join(
        ltable, live.to_table(), *args[2:]
    )
    live.compact()
    live.upsert("r61", "eve fay")
    live.save()
    loaded = LiveIndex.load("guard", store=IndexStore(cache_dir=cache))
    # A loaded index ranks its tokens afresh: the same matches, not counts.
    checks["load"] = loaded.records() == live.records() and [
        matches for matches, _ in loaded.search_batch(VALUES[:7])
    ] == [matches for matches, _ in live.search_batch(VALUES[:7])]
    config = ServeConfig(threshold=0.4, top_k=None, workers=0)
    server = MatchServer(rtable, "id", "v", config=config, store=store).start()
    pending = server.submit(VALUES[3])
    server.process_pending()
    base = LiveIndex.from_table(rtable, "id", "v", threshold=0.4, store=store)
    served = pending.result(timeout=10).candidates
    checks["served"] = bool(served) and sorted(served) == sorted(base.search(VALUES[3])[0])
    server.stop()
checks["scipy not loaded"] = "scipy" not in sys.modules
""" + VECTOR_PAIRS + """
checks["scipy loaded by vector blocking"] = "scipy" in sys.modules
print(json.dumps({"checks": checks, "vector_pairs": vector_pairs}))
"""

GUIDE_TOOLS = TABLES + """
import json, sys
from repro.blocking import OverlapBlocker, debug_blocker, make_candset
from repro.catalog import get_catalog
from repro.datasets.generator import EMDataset
from repro.falcon.falcon import _sample_pairs
from repro.features import extract_feature_vecs, get_features_for_matching
from repro.sampling import down_sample, weighted_sample_candset

get_catalog().set_key(ltable, "id")
get_catalog().set_key(rtable, "id")
candset = OverlapBlocker("v", overlap_size=1).block_tables(ltable, rtable, "id", "id")
features = get_features_for_matching(ltable, rtable)
checks = {
    "token features": extract_feature_vecs(candset, features).num_rows == candset.num_rows,
    "weighted sample": weighted_sample_candset(candset, 20, seed=0).num_rows == 20,
    "down sample": down_sample(ltable, rtable, 20, seed=0)[1].num_rows == 20,
    "debug blocker": debug_blocker(make_candset([], ltable, rtable, "id", "id"), 5).num_rows == 5,
    "falcon sampler": _sample_pairs(
        EMDataset("t", ltable, rtable, set()), 40, 0, get_catalog()
    ).num_rows == 40,
}
checks["scipy not loaded"] = "scipy" not in sys.modules
print(json.dumps({"checks": checks}))
"""

GUIDE_JOB = """
import json, sys
sys.path.insert(0, sys.argv[1])
import guide_batch
from common import Tracer

sz = guide_batch.sizes(0.15)
inputs = guide_batch.generate(1, sz)
tracer = Tracer(False, "scipy-footprint")
state = guide_batch.setup(inputs[:1], sz, tracer)
job = guide_batch._run_job(state["tables"][0], inputs[0], sz, tracer)
checks = {"ran": job["f1"] > 0, "scipy not loaded": "scipy" not in sys.modules}
print(json.dumps({"checks": checks}))
"""


def run_fresh(script: str, *argv: str) -> dict:
    """Run ``script`` in a new interpreter on this one's ``sys.path`` and
    return the JSON document it prints last."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path for path in sys.path if path)}
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_token_chain_and_serving_never_import_scipy():
    result = run_fresh(TOKEN_CHAIN)
    assert result["checks"] == dict.fromkeys(result["checks"], True)
    assert len(result["checks"]) == 8
    # The vector blocker still runs on scipy, with the answers it gives
    # in a process that loaded scipy first.
    scope: dict = {}
    with use_index_store():
        exec(TABLES + VECTOR_PAIRS, scope)
    assert result["vector_pairs"] == scope["vector_pairs"]
    assert result["vector_pairs"]


def test_guide_tools_never_import_scipy():
    """Token-feature extraction, both samplers, the debugger and Falcon's
    sampler read the store's encodings: no sparse product."""
    checks = run_fresh(GUIDE_TOOLS)["checks"]
    assert checks == dict.fromkeys(checks, True)
    assert len(checks) == 6


def test_a_guide_batch_job_never_imports_scipy():
    spine = Path(__file__).resolve().parents[1] / "benchmarks" / "spine"
    checks = run_fresh(GUIDE_JOB, str(spine))["checks"]
    assert checks == {"ran": True, "scipy not loaded": True}

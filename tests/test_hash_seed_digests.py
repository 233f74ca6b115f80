"""Outputs that must not follow the string hash seed.

Four small jobs run in fresh interpreters under three ``PYTHONHASHSEED``
values and print one digest each: the guide workflow (overlap blocking,
weighted sample, labeling, extraction, matcher selection, prediction),
DeepMatcher's scores (trigram embeddings of raw text), a dedupe
(self-blocking, labeling, duplicate groups merged) and Smurf.  A
``for`` over a set, or a dict filled in set order, whose order reaches
an output makes the digests differ.  (``down_sample`` and Falcon have
their own three-seed tests in ``test_sampling`` and ``test_falcon``.)
"""

from __future__ import annotations

import os
import subprocess
import sys

SCRIPT = """
import hashlib
from repro.blocking import OverlapBlocker
from repro.catalog import get_catalog
from repro.datasets import DirtinessConfig, make_em_dataset, make_string_dataset
from repro.datasets.entities import person, product
from repro.features import extract_feature_vecs, get_features_for_matching
from repro.labeling import LabelingSession, OracleLabeler
from repro.matchers import DeepMatcher, DTMatcher, LogRegMatcher, RFMatcher, select_matcher
from repro.postprocess import dedupe_table, self_block_table
from repro.sampling import weighted_sample_candset
from repro.smurf import SmurfConfig, run_smurf
from repro.table import Table


def digest(*parts):
    print(hashlib.sha256(repr(parts).encode()).hexdigest()[:16])


# The guide workflow: block, weighted sample, label, extract, select, predict.
ds = make_em_dataset(product, 250, 250, dirtiness=DirtinessConfig.moderate(), seed=5)
candset = OverlapBlocker("title", overlap_size=2).block_tables(ds.ltable, ds.rtable, "id", "id")
sample = weighted_sample_candset(candset, 150, seed=0)
LabelingSession(OracleLabeler(ds.gold_pairs)).label_candset(sample)
features = get_features_for_matching(ds.ltable, ds.rtable)
fv = extract_feature_vecs(sample, features, label_column="label")
selection = select_matcher(
    [DTMatcher(random_state=0), RFMatcher(n_estimators=5, random_state=0), LogRegMatcher()],
    fv, features.names(),
)
fv_all = extract_feature_vecs(candset, features)
selection.best_matcher.predict(fv_all)
digest(sample["ltable_id"], sample["rtable_id"], [fv[name] for name in features.names()],
       selection.best_matcher.name, fv_all["predicted"])

# DeepMatcher trained on the same labeled sample, scoring the candset.
deep = DeepMatcher(attributes=["title"], epochs=20, random_state=0).fit(sample)
digest(deep.predict_proba(candset).tolist())

# A dedupe: one table blocked against itself, duplicates merged.
ds = make_em_dataset(person, 120, 120, seed=6)
table = Table({
    name: ds.ltable.column(name) + ds.rtable.column(name) for name in ds.ltable.columns
})
get_catalog().set_key(table, "id")
pairs = self_block_table(table, OverlapBlocker("name", overlap_size=2), "id")
gold = {tuple(sorted(pair, key=str)) for pair in ds.gold_pairs}
LabelingSession(OracleLabeler(gold)).label_candset(pairs)
duplicates = {
    (l_id, r_id)
    for l_id, r_id, label in zip(pairs["ltable_id"], pairs["rtable_id"], pairs["label"])
    if label == 1
}
deduped = dedupe_table(table, duplicates, key="id")
digest(pairs["ltable_id"], pairs["rtable_id"], [deduped[name] for name in deduped.columns])

# Smurf on a string-matching task.
strings = sorted({f"item {i % 37} part {i % 11} lot {i}" for i in range(160)})
ds = make_string_dataset(strings, seed=7)
result = run_smurf(
    ds, LabelingSession(OracleLabeler(ds.gold_pairs)),
    config=SmurfConfig(matching_budget=60, batch_size=10, max_iterations=6, random_state=0),
)
digest(result.candset["ltable_id"], result.candset["rtable_id"], sorted(result.match_pairs),
       result.questions, result.join_threshold)
"""


def test_guide_dedupe_and_smurf_digests_do_not_move_with_the_hash_seed():
    outputs = {}
    for hash_seed in ("0", "1", "2"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "PYTHONPATH": os.pathsep.join(path for path in sys.path if path),
        }
        done = subprocess.run(
            [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        outputs[hash_seed] = done.stdout
    assert len(outputs["0"].split()) == 4
    assert len(set(outputs.values())) == 1, outputs

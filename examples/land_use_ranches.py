"""Saving the Amazon forest: the Land Use deployment (Appendix B).

Professor Gibbs' team tracks cattle supply chains in Brazil: a
slaughterhouse must not (indirectly) buy from ranches with deforestation.
The EM step matches ranch records across data sources (government,
foundations, slaughterhouse records); this example reproduces that
workflow on synthetic ranch data:

1. match ranch records with a PyMatcher workflow (vs. the incumbent
   "company solution", a single-feature threshold matcher — the paper
   reports PyMatcher achieved much higher recall at slightly lower
   precision, and we print the same comparison);
2. use the matches to unify a cattle-transaction graph across sources and
   trace which slaughterhouses are reachable from deforested ranches
   (a depth-first walk over who-sells-to-whom), the end goal of the
   deployment.

Run:  python examples/land_use_ranches.py
"""

import random

from repro.blocking import OverlapBlocker, candset_union
from repro.catalog import get_catalog
from repro.datasets import build_pymatcher_dataset, pymatcher_scenario
from repro.features import extract_feature_vecs, get_features_for_matching
from repro.labeling import LabelingSession, OracleLabeler
from repro.matchers import RFMatcher, ThresholdMatcher, eval_matches
from repro.sampling import weighted_sample_candset


def match_ranches():
    """Run both the company baseline and the PyMatcher workflow."""
    dataset = build_pymatcher_dataset(pymatcher_scenario("land_use_uw"))
    print(f"Loaded {dataset}")

    # Ranch names share common prefixes (Fazenda, Rancho, ...), so a
    # 1-token overlap would keep most of A x B; require 2 shared tokens.
    blocked_by_name = OverlapBlocker("ranch_name", overlap_size=2).block_tables(
        dataset.ltable, dataset.rtable, "id", "id"
    )
    blocked_by_owner = OverlapBlocker("owner", overlap_size=2).block_tables(
        dataset.ltable, dataset.rtable, "id", "id"
    )
    candset = candset_union(blocked_by_name, blocked_by_owner)
    print(f"Blocking: {candset.num_rows} candidate pairs")

    features = get_features_for_matching(dataset.ltable, dataset.rtable)
    meta = get_catalog().get_candset_metadata(candset)
    gold = [
        1 if pair in dataset.gold_pairs else 0
        for pair in zip(candset[meta.fk_ltable], candset[meta.fk_rtable])
    ]

    # --- the incumbent "company solution": one similarity, one cutoff ---
    fv_all = extract_feature_vecs(candset, features)
    baseline = ThresholdMatcher("ranch_name_jaccard_ws", 0.75)
    baseline.predict(fv_all, output_column="baseline")
    fv_all.add_column("label", gold)
    baseline_report = eval_matches(fv_all, predicted_column="baseline")

    # --- the PyMatcher workflow: label a sample, train a forest ---------
    sample = weighted_sample_candset(candset, 700, seed=0)
    session = LabelingSession(OracleLabeler(dataset.gold_pairs))
    session.label_candset(sample)
    fv_sample = extract_feature_vecs(sample, features, label_column="label")
    matcher = RFMatcher(n_estimators=15, random_state=0).fit(fv_sample, features.names())
    matcher.predict(fv_all, output_column="predicted")
    pymatcher_report = eval_matches(fv_all)

    print("\n              precision   recall     f1")
    print(f"  company     {baseline_report['precision']:>8.3f} {baseline_report['recall']:>8.3f} "
          f"{baseline_report['f1']:>7.3f}")
    print(f"  pymatcher   {pymatcher_report['precision']:>8.3f} {pymatcher_report['recall']:>8.3f} "
          f"{pymatcher_report['f1']:>7.3f}")
    print(f"  (labels spent: {session.questions_asked})")

    matched_pairs = {
        pair
        for pair, predicted in zip(
            zip(fv_all[meta.fk_ltable], fv_all[meta.fk_rtable]),
            fv_all["predicted"],
        )
        if predicted == 1
    }
    return dataset, matched_pairs


def trace_supply_chains(dataset, matched_pairs):
    """Appendix B's end goal: is a 'bad' ranch in a supply chain?

    The government source (table A) knows which ranches have deforestation;
    the slaughterhouse records (table B) know who sells to whom.  Only by
    matching A-ranches to B-ranches can the two graphs be joined.
    """
    rng = random.Random(0)
    # Transactions among B-side ranches, ending at slaughterhouses.
    b_ids = dataset.rtable.column("id")
    sells_to: dict[str, list[str]] = {}
    slaughterhouses = [f"sh{i}" for i in range(5)]
    for b_id in b_ids:
        target = rng.choice(b_ids + slaughterhouses)
        if target != b_id:
            sells_to.setdefault(b_id, []).append(target)
    # Deforestation flags live on the A side.
    bad_a_ranches = set(rng.sample(dataset.ltable.column("id"), 60))

    # EM bridges the sources: bad A-ranches -> their B-side identities.
    a_to_b = dict(matched_pairs)
    bad_b_ranches = {a_to_b[a] for a in bad_a_ranches if a in a_to_b}

    reached, stack = set(bad_b_ranches), list(bad_b_ranches)
    while stack:
        for buyer in sells_to.get(stack.pop(), []):
            if buyer not in reached:
                reached.add(buyer)
                stack.append(buyer)
    tainted = reached.intersection(slaughterhouses)
    print(f"\nSupply-chain tracing: {len(bad_a_ranches)} flagged ranches in "
          f"source A, {len(bad_b_ranches)} linked into transaction data via EM")
    print(f"Slaughterhouses reachable from deforested ranches: "
          f"{sorted(tainted) or 'none'}")


if __name__ == "__main__":
    dataset, matched = match_ranches()
    trace_supply_chains(dataset, matched)

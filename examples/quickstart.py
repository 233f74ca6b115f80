"""Quickstart: the PyMatcher how-to guide on the paper's Figure 1 example.

Matches two small person tables end to end — block, label, generate
features, select a matcher by cross-validation, predict — exactly the
development-stage guide of Figure 2, scaled down to a dozen tuples plus a
synthetic extension so the learner has something to chew on.

Run:  python examples/quickstart.py
"""

from repro.blocking import AttrEquivalenceBlocker, blocking_recall
from repro.catalog import get_catalog
from repro.datasets import DirtinessConfig, make_em_dataset
from repro.datasets.entities import person
from repro.features import extract_feature_vecs, get_features_for_matching
from repro.labeling import LabelingSession, OracleLabeler
from repro.matchers import DTMatcher, RFMatcher, eval_matches, select_matcher
from repro.sampling import weighted_sample_candset
from repro.table import Table


def figure1_demo() -> None:
    """The literal Figure 1 example: 3 x 2 person tables, 2 matches."""
    table_a = Table(
        {
            "id": ["a1", "a2", "a3"],
            "name": ["Dave Smith", "Joe Wilson", "Dan Smith"],
            "city": ["Madison", "San Jose", "Middleton"],
            "state": ["WI", "CA", "WI"],
        }
    )
    table_b = Table(
        {
            "id": ["b1", "b2"],
            "name": ["David D. Smith", "Daniel W. Smith"],
            "city": ["Madison", "Middleton"],
            "state": ["WI", "WI"],
        }
    )
    print("Table A:")
    for row in table_a.rows():
        print("  ", row)
    print("Table B:")
    for row in table_b.rows():
        print("  ", row)

    blocker = AttrEquivalenceBlocker("state")
    candset = blocker.block_tables(table_a, table_b, "id", "id")
    print(f"\nBlocking on state keeps {candset.num_rows} of "
          f"{table_a.num_rows * table_b.num_rows} pairs:")
    for l_id, r_id in zip(candset["ltable_id"], candset["rtable_id"]):
        print(f"   ({l_id}, {r_id})")


def guide_workflow_demo() -> None:
    """The full guide on a 300 x 300 synthetic person-matching task."""
    dataset = make_em_dataset(
        person, 300, 300, match_fraction=0.5,
        dirtiness=DirtinessConfig.light(), seed=1, name="quickstart",
    )
    print(f"\nGenerated {dataset}")

    # Step: blocking (state equivalence, as in Figure 1).
    candset = AttrEquivalenceBlocker("state").block_tables(
        dataset.ltable, dataset.rtable, "id", "id"
    )
    recall = blocking_recall(candset, dataset.gold_pairs)
    print(f"Blocking: {candset.num_rows} candidate pairs, recall {recall:.3f}")

    # Step: sample and label (the oracle plays the user).
    sample = weighted_sample_candset(candset, 500, seed=0)
    session = LabelingSession(OracleLabeler(dataset.gold_pairs))
    session.label_candset(sample)
    print(f"Labeled {session.questions_asked} pairs "
          f"({sum(sample['label'])} matches in the sample)")

    # Step: features + cross-validated matcher selection.
    features = get_features_for_matching(dataset.ltable, dataset.rtable)
    fv = extract_feature_vecs(sample, features, label_column="label")
    selection = select_matcher(
        [DTMatcher(random_state=0), RFMatcher(n_estimators=10, random_state=0)],
        fv, features.names(), n_splits=5,
    )
    print(f"Matcher selection (CV): best = {selection.best_matcher.name}, "
          f"F1 = {selection.best_score:.3f}")
    for row in selection.scores.rows():
        print(f"   {row['matcher']:>14}: P={row['precision']:.3f} "
              f"R={row['recall']:.3f} F1={row['f1']:.3f}")

    # Step: predict on the full candidate set and score against gold.
    fv_all = extract_feature_vecs(candset, features)
    predictions = selection.best_matcher.predict(fv_all)
    meta = get_catalog().get_candset_metadata(candset)
    gold = [
        1 if pair in dataset.gold_pairs else 0
        for pair in zip(candset[meta.fk_ltable], candset[meta.fk_rtable])
    ]
    predictions.add_column("label", gold)
    report = eval_matches(predictions)
    print(f"Final matches: precision={report['precision']:.3f} "
          f"recall={report['recall']:.3f} f1={report['f1']:.3f}")


if __name__ == "__main__":
    figure1_demo()
    guide_workflow_demo()

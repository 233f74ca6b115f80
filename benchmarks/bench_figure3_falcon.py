"""Figure 3 — The Falcon workflow, step by step.

Runs the six-step Falcon workflow on a products task and reports what
each numbered step of the figure produced: the sampled pairs (1), the
actively-learned forest F (2), the extracted + retained blocking rules
(3), the executed candidate set C (4), the second forest G (5), and the
predicted matches (6).
"""

from __future__ import annotations

from _report import format_table, prf, report
from conftest import once

from repro.datasets import build_cloudmatcher_dataset, cloudmatcher_scenario
from repro.falcon import FalconConfig, run_falcon
from repro.labeling import LabelingSession, OracleLabeler
from repro.obs import use_registry


def run():
    dataset = build_cloudmatcher_dataset(cloudmatcher_scenario("products_a"))
    session = LabelingSession(OracleLabeler(dataset.gold_pairs), budget=1200)
    config = FalconConfig(
        sample_size=1200, blocking_budget=200, matching_budget=300, random_state=0
    )
    with use_registry() as registry:
        result = run_falcon(dataset, session, config)
    return dataset, config, result, registry.counters()


def test_figure3_falcon_workflow(benchmark):
    dataset, config, result, counters = once(benchmark, run)
    precision, recall, _ = prf(result.match_pairs, dataset.gold_pairs)
    cross_product = dataset.ltable.num_rows * dataset.rtable.num_rows
    steps = [
        {"Step": "1 sample pairs S", "Outcome": f"{config.sample_size} pairs from A x B"},
        {
            "Step": "2 active-learn forest F",
            "Outcome": f"{config.n_trees} trees, "
                       f"{result.blocking_stage.questions} questions, "
                       f"{result.blocking_stage.iterations} rounds",
        },
        {
            "Step": "3 extract + evaluate rules",
            "Outcome": f"{len(result.rule_evaluations)} candidates -> "
                       f"{len(result.rules)} precise executable rules retained",
        },
        {
            "Step": "4 execute rules -> C",
            "Outcome": f"|C| = {result.candset.num_rows} "
                       f"({result.candset.num_rows / cross_product:.2%} of A x B); "
                       f"{counters.get(('blocking_rule_joins_total', ()), 0):.0f} joins run, "
                       f"{counters.get(('blocking_rule_pairs_checked_total', ()), 0):.0f} "
                       "pairs checked",
        },
        {
            "Step": "5 active-learn forest G",
            "Outcome": f"{result.matching_stage.questions} questions, "
                       f"{result.matching_stage.iterations} rounds",
        },
        {
            "Step": "6 apply G (alpha-voting)",
            "Outcome": f"{result.matches.num_rows} matches, "
                       f"P={precision:.2f} R={recall:.2f}",
        },
    ]
    rules_text = "\n".join(f"   {rule}" for rule in result.rules)
    report(
        "figure3",
        "The Falcon self-service workflow",
        format_table(steps)
        + f"\n\nRetained blocking rules:\n{rules_text}"
        + f"\n\nTotal lay-user questions: {result.questions}"
          "\n(paper's Table 2 band: 160-1200 questions; accuracy often in the 90s)",
    )
    assert 0 < result.questions <= 1200
    assert precision > 0.85 and recall > 0.75
    assert result.candset.num_rows < cross_product / 20  # blocking bites

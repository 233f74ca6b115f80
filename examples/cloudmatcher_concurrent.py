"""Multi-tenant CloudMatcher: the metamanager interleaving workflows.

CloudMatcher 0.1 "can execute only one EM workflow at a time"; 1.0 breaks
each workflow into DAG fragments and interleaves fragments from concurrent
workflows across the user-interaction, crowd, and batch engines.  This
example submits three scientists' EM tasks and compares the simulated
makespan of serial vs interleaved execution, then shows the CloudMatcher
2.0 flexibility: invoking a single basic service ("just label these
pairs") without running the whole workflow.

Run:  python examples/cloudmatcher_concurrent.py
"""

import tempfile
from pathlib import Path

from repro.cloud import CloudMatcher10, CloudMatcher20, WorkflowContext
from repro.datasets import build_cloudmatcher_dataset, cloudmatcher_scenario
from repro.falcon import FalconConfig
from repro.labeling import LabelingSession, OracleLabeler
from repro.obs import use_tracer

TASKS = ("restaurants", "books", "papers")


def build(interleave: bool) -> CloudMatcher10:
    matcher = CloudMatcher10(interleave=interleave)
    for key in TASKS:
        dataset = build_cloudmatcher_dataset(cloudmatcher_scenario(key))
        matcher.submit(
            dataset,
            LabelingSession(OracleLabeler(dataset.gold_pairs), budget=500),
            FalconConfig(sample_size=600, blocking_budget=120, matching_budget=220,
                         random_state=0),
        )
    return matcher


def concurrency_demo() -> None:
    serial_makespan, _ = build(interleave=False).run()
    interleaved = build(interleave=True)
    with use_tracer() as tracer:
        interleaved_makespan, results = interleaved.run()
    print(f"{len(TASKS)} concurrent EM tasks")
    print(f"  serial (CloudMatcher 0.1 style): {serial_makespan / 60:.1f} simulated minutes")
    print(f"  interleaved (metamanager):       {interleaved_makespan / 60:.1f} simulated minutes")
    print(f"  speedup: {serial_makespan / interleaved_makespan:.2f}x")
    for result in results:
        print(f"  {result.task_name:>12}: precision={result.accuracy['precision']:.3f} "
              f"recall={result.accuracy['recall']:.3f} "
              f"questions={result.cost.questions}")

    # Every service invocation of every tenant is a node span on the
    # installed tracer; export the trace for a monitoring stack.
    with tempfile.TemporaryDirectory() as tmp:
        log_path = tracer.write_jsonl(Path(tmp) / "cloud_spans.jsonl")
        nodes = [span for span in tracer.spans if "node" in span.labels]
        slowest = max(nodes, key=lambda span: span.seconds)
        print(f"\nTrace: {len(tracer)} spans exported to {log_path.name}")
        print(f"  service spans: {len(nodes)} "
              f"across {len({span.labels['graph'] for span in nodes})} workflows")
        print(f"  slowest service: {slowest.labels['node']} ({slowest.labels['graph']}) "
              f"at {slowest.seconds * 1000:.0f}ms machine time")


def single_service_demo() -> None:
    """CloudMatcher 2.0: use one basic service in isolation."""
    dataset = build_cloudmatcher_dataset(cloudmatcher_scenario("restaurants"))
    matcher = CloudMatcher20()
    context = WorkflowContext(
        dataset=dataset,
        session=LabelingSession(OracleLabeler(dataset.gold_pairs)),
        task_name="label-only",
    )
    context.put("pairs_to_label", sorted(dataset.gold_pairs)[:10])
    matcher.invoke_service("label_pairs", context)
    print(f"\nLabel-only service: labeled {len(context.get('labels'))} pairs "
          f"without running any other step")
    print(f"Available services: {len(matcher.available_services())} "
          f"({', '.join(matcher.registry.names(composite=True))} are composite)")


if __name__ == "__main__":
    concurrency_demo()
    single_service_demo()

"""Command-line interface: the ecosystem's tools on plain CSV files.

Subcommands
-----------
``repro profile A.csv``
    Schema inference + missingness + generic-value report per column.
``repro match A.csv B.csv --key id [--gold gold.csv] [--budget N]``
    The PyMatcher guide workflow: block, label (interactively, or against
    a gold pair file), train, predict; writes ``matches.csv``.
``repro falcon A.csv B.csv --key id [--gold gold.csv] [--budget N] [--events PATH]``
    Self-service EM: the end-to-end Falcon workflow; ``--events`` writes
    the run's spans (``Tracer.write_jsonl``) to PATH, even when it fails.
``repro dedupe A.csv --column name [--gold gold.csv]``
    Single-table deduplication; writes the deduplicated table.
``repro schema-match A.csv B.csv``
    Propose attribute correspondences between differently-named schemas.
``repro index build A.csv --key id [--column name] --cache-dir DIR``
    Pre-build the reusable index artifacts (tokenizations, q-gram bags;
    with ``--vectors``, hashed n-gram embeddings for the vector blocker)
    for a table's string columns and persist them, so later matching
    runs pointed at the same cache start warm.
``repro index inspect --cache-dir DIR``
    List the persisted index artifacts in a cache directory, plus the
    delta state (generation, delta rows, tombstones, bytes since the
    last compaction) of any persisted live indexes.
``repro index compact [--name NAME] --cache-dir DIR``
    Fold persisted live indexes' delta segments into fresh base
    segments and re-save them.
``repro serve A.csv --key id --column name --threshold 0.4``
    Resident match server: load the corpus index once, then answer
    point queries from stdin (or ``--queries FILE``) as JSON lines,
    with a qps/p50/p99 summary on exit.

The workflow subcommands take ``--index-cache DIR``: the process-default
:class:`repro.index.IndexStore` then persists every index artifact it
builds under DIR and serves repeated runs from it (the
``REPRO_INDEX_CACHE`` environment variable does the same).

A gold file is a two-column CSV ``l_id,r_id`` of known matching pairs;
when given, labeling questions are answered by an oracle (useful for
scripted runs and benchmarks).  Without it, questions come to the
terminal.

The workflow subcommands take ``--metrics PATH``: after the run — even a
failed one — the process-wide metrics registry is written as JSONL at
PATH and as Prometheus text format at ``PATH.prom``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from repro.blocking import OverlapBlocker
from repro.catalog import get_catalog
from repro.cleaning import detect_generic_values, profile_missingness
from repro.datasets.generator import EMDataset
from repro.features import extract_feature_vecs, get_features_for_matching
from repro.labeling import LabelingSession, OracleLabeler
from repro.labeling.console import ConsoleLabeler
from repro.matchers import RFMatcher
from repro.sampling import weighted_sample_candset
from repro.table import Table, infer_schema, read_csv, write_csv
from repro.table.schema import ColumnType


def _load_gold(path: str | None) -> set | None:
    if path is None:
        return None
    table = read_csv(path)
    l_col, r_col = table.columns[:2]
    return set(zip(table.column(l_col), table.column(r_col)))


def _labeler(args, ltable: Table, rtable: Table):
    gold = _load_gold(getattr(args, "gold", None))
    if gold is not None:
        return OracleLabeler(gold)
    return ConsoleLabeler(ltable, rtable, args.key, args.key)


def _first_string_column(table: Table, key: str) -> str:
    schema = infer_schema(table)
    for name in table.columns:
        if name == key:
            continue
        if schema[name] in (
            ColumnType.SHORT_STRING,
            ColumnType.MEDIUM_STRING,
            ColumnType.LONG_STRING,
        ):
            return name
    raise SystemExit("no string column found to block on; pass --block-on")


def cmd_profile(args) -> int:
    """Profile one table: schema, missingness, generic values."""
    table = read_csv(args.table)
    schema = infer_schema(table)
    missing = profile_missingness(table)
    print(f"{table.num_rows} rows, {len(table.columns)} columns\n")
    print(f"{'column':<20} {'type':<14} {'missing':<8} generic values")
    for name in table.columns:
        report = detect_generic_values(table, name, distinctiveness=0.05)
        generic = ", ".join(map(str, report.generic_values[:3])) or "-"
        print(f"{name:<20} {schema[name].value:<14} {missing[name]:<8.1%} {generic}")
    return 0


def _run_guide_workflow(args):
    ltable = read_csv(args.ltable)
    rtable = read_csv(args.rtable)
    block_on = args.block_on or _first_string_column(ltable, args.key)
    print(f"blocking on {block_on!r} (token overlap >= {args.overlap})")
    candset = OverlapBlocker(block_on, overlap_size=args.overlap).block_tables(
        ltable, rtable, args.key, args.key
    )
    print(f"candidate set: {candset.num_rows} pairs")

    sample = weighted_sample_candset(candset, min(args.budget, candset.num_rows), seed=0)
    session = LabelingSession(_labeler(args, ltable, rtable), budget=args.budget)
    session.label_candset(sample)
    print(f"labeled {session.questions_asked} pairs")

    features = get_features_for_matching(ltable, rtable, args.key, args.key)
    fv = extract_feature_vecs(sample, features, label_column="label")
    matcher = RFMatcher(n_estimators=10, random_state=0).fit(fv, features.names())
    fv_all = extract_feature_vecs(candset, features)
    matcher.predict(fv_all)
    meta = get_catalog().get_candset_metadata(candset)
    matches = fv_all.select(lambda row: row["predicted"] == 1).project(
        [meta.fk_ltable, meta.fk_rtable]
    )
    write_csv(matches, args.output)
    print(f"{matches.num_rows} matches written to {args.output}")
    return 0


def cmd_match(args) -> int:
    """The PyMatcher guide workflow over two CSV tables."""
    return _run_guide_workflow(args)


def cmd_falcon(args) -> int:
    """Self-service Falcon EM over two CSV tables."""
    from repro.falcon import FalconConfig, run_falcon
    from repro.obs import use_tracer

    ltable = read_csv(args.ltable)
    rtable = read_csv(args.rtable)
    gold = _load_gold(args.gold) or set()
    dataset = EMDataset("cli", ltable, rtable, gold, args.key, args.key).register()
    session = LabelingSession(_labeler(args, ltable, rtable), budget=args.budget)
    with (use_tracer() if args.events else nullcontext()) as tracer:
        try:
            result = run_falcon(
                dataset,
                session,
                FalconConfig(
                    sample_size=min(4 * max(ltable.num_rows, rtable.num_rows), 3000),
                    blocking_budget=args.budget // 3,
                    matching_budget=args.budget,
                    random_state=0,
                ),
            )
        finally:
            # Written even when the run dies mid-way: the partial trace
            # of a failed run is exactly what is needed to diagnose it.
            if tracer is not None:
                tracer.write_jsonl(args.events)
                print(f"{len(tracer)} spans written to {args.events}")
    print(f"blocking rules retained: {len(result.rules)}")
    for rule in result.rules:
        print(f"   {rule}")
    print(f"candidate set: {result.candset.num_rows} pairs")
    print(f"questions asked: {result.questions}")
    meta = get_catalog().get_candset_metadata(result.matches)
    matches = result.matches.project([meta.fk_ltable, meta.fk_rtable])
    write_csv(matches, args.output)
    print(f"{matches.num_rows} matches written to {args.output}")
    if gold:
        predicted = result.match_pairs
        tp = len(predicted & gold)
        precision = tp / len(predicted) if predicted else 0.0
        recall = tp / len(gold)
        print(f"against gold: precision={precision:.3f} recall={recall:.3f}")
    return 0


def cmd_dedupe(args) -> int:
    """Deduplicate one CSV table via self-matching."""
    from repro.postprocess import dedupe_table, self_block_table

    table = read_csv(args.table)
    column = args.column or _first_string_column(table, args.key)
    candset = self_block_table(
        table, OverlapBlocker(column, overlap_size=args.overlap), args.key
    )
    print(f"candidate duplicate pairs: {candset.num_rows}")
    gold = _load_gold(args.gold)
    if gold is not None:
        labeler = OracleLabeler({tuple(sorted(p, key=str)) for p in gold})
    else:
        labeler = ConsoleLabeler(table, table, args.key, args.key)
    session = LabelingSession(labeler, budget=args.budget)
    session.label_candset(candset)
    duplicates = {
        (l_id, r_id)
        for l_id, r_id, label in zip(
            candset["ltable_" + args.key], candset["rtable_" + args.key],
            candset["label"],
        )
        if label == 1
    }
    deduped = dedupe_table(table, duplicates, key=args.key)
    write_csv(deduped, args.output)
    print(
        f"{table.num_rows - deduped.num_rows} duplicates collapsed; "
        f"{deduped.num_rows} rows written to {args.output}"
    )
    return 0


def _string_columns(table: Table, key: str) -> list[str]:
    schema = infer_schema(table)
    return [
        name
        for name in table.columns
        if name != key
        and schema[name]
        in (ColumnType.SHORT_STRING, ColumnType.MEDIUM_STRING, ColumnType.LONG_STRING)
    ]


def cmd_index_build(args) -> int:
    """Pre-build and persist the index artifacts for a table's columns."""
    import time

    from repro.blocking.base import TEXT, text_view
    from repro.index import IndexStore
    from repro.text.tokenizers import QgramBagTokenizer, QgramTokenizer, WhitespaceTokenizer
    from repro.text.vectorize import HashedNgramVectorizer

    table = read_csv(args.table)
    columns = args.column or _string_columns(table, args.key)
    if not columns:
        raise SystemExit("no string columns to index; pass --column")
    store = IndexStore(cache_dir=args.cache_dir)
    tokenizers = [
        WhitespaceTokenizer(return_set=True),
        QgramTokenizer(q=args.q, return_set=True),
        QgramBagTokenizer(q=args.q),  # the edit-distance join's q-gram bags
    ]
    vectorizer = (
        HashedNgramVectorizer(q=args.q, dim=args.vector_dim)
        if args.vectors
        else None
    )
    rows = []
    for column in columns:
        started = time.perf_counter()
        # The blockers and rule executors probe lowercased projections,
        # so artifacts are built for both the raw column and its
        # lowered view — either form of a later probe starts warm.
        lowered = text_view(table, args.key, [column])
        for view, name in ((table, column), (lowered, TEXT)):
            for tokenizer in tokenizers:
                store.tokenized_column(view, args.key, name, tokenizer)
        if vectorizer is not None:
            # The vector blocker embeds the raw column (its vectorizer
            # lowercases internally), so only the raw view needs vectors.
            store.hashed_column(table, args.key, column, vectorizer)
        rows.append((column, time.perf_counter() - started))
    for column, seconds in rows:
        print(f"indexed {column!r} in {seconds:.2f}s")
    artifacts = store.disk_artifacts()
    total = sum(row["bytes"] for row in artifacts)
    print(f"{len(artifacts)} artifacts ({total} bytes) in {args.cache_dir}")
    return 0


def cmd_index_inspect(args) -> int:
    """List persisted index artifacts and live-index delta state."""
    from repro.index import IndexStore, list_live_indexes

    artifacts = IndexStore(cache_dir=args.cache_dir).disk_artifacts()
    live = list_live_indexes(args.cache_dir)
    if not artifacts and not live:
        print(f"no index artifacts under {args.cache_dir}")
        return 1
    if artifacts:
        print(f"{'kind':<12} {'bytes':>10}  digest")
        for row in artifacts:
            print(f"{row['kind']:<12} {row['bytes']:>10}  {row['digest']}")
        print(
            f"{len(artifacts)} artifacts, "
            f"{sum(r['bytes'] for r in artifacts)} bytes total"
        )
    if live:
        if artifacts:
            print()
        header = (
            f"{'live index':<20} {'gen':>6} {'rows':>8} {'delta':>7} "
            f"{'tombstones':>11} {'delta bytes':>12} {'compactions':>12}"
        )
        print(header)
        for manifest in live:
            print(
                f"{manifest.get('name', '?'):<20} "
                f"{manifest.get('generation', 0):>6} "
                f"{manifest.get('live_rows', 0):>8} "
                f"{manifest.get('delta_rows', 0):>7} "
                f"{manifest.get('tombstones', 0):>11} "
                f"{manifest.get('delta_bytes', 0):>12} "
                f"{manifest.get('compactions', 0):>12}"
            )
        print(f"{len(live)} live index(es)")
    return 0


def cmd_index_compact(args) -> int:
    """Compact persisted live indexes: fold each delta into a new base."""
    from repro.index import IndexStore, LiveIndex, list_live_indexes

    store = IndexStore(cache_dir=args.cache_dir)
    names = args.name or [m["name"] for m in list_live_indexes(args.cache_dir)]
    if not names:
        print(f"no live indexes under {args.cache_dir}")
        return 1
    for name in names:
        live = LiveIndex.load(name, store=store)
        before = live.stats()
        after = live.compact()
        live.save()
        print(
            f"compacted {name!r}: {before['delta_rows']} delta rows + "
            f"{before['tombstones']} tombstones folded into a "
            f"{after['base_rows']}-row base (generation {after['generation']})"
        )
    return 0


def cmd_serve(args) -> int:
    """Resident match server: answer point queries against one corpus.

    Queries come one per line from ``--queries FILE`` or stdin, either
    ``value`` or ``tenant<TAB>value``; each answer is one JSON line with
    the ranked ``(corpus key, score)`` candidates.  On EOF a summary
    line reports served queries, sustained qps, and p50/p99 latency.
    """
    import json
    import time

    from repro.serve import MatchServer, ServeConfig
    from repro.text.tokenizers import QgramTokenizer, WhitespaceTokenizer

    corpus = read_csv(args.corpus)
    column = args.column or _first_string_column(corpus, args.key)
    tokenizer = (
        QgramTokenizer(q=args.q, return_set=True)
        if args.tokenizer == "qgram"
        else WhitespaceTokenizer(return_set=True)
    )
    config = ServeConfig(
        measure=args.measure,
        threshold=args.threshold,
        top_k=args.top_k,
        max_batch=args.max_batch,
    )
    server = MatchServer(corpus, args.key, column, tokenizer=tokenizer, config=config)
    if args.queries:
        source = open(args.queries, encoding="utf-8")
    else:
        source = sys.stdin
        print(
            f"serving {corpus.num_rows} rows on {column!r} "
            f"({args.measure} >= {args.threshold}); one query per line:",
            file=sys.stderr,
        )
    served = 0
    started = time.perf_counter()
    try:
        with server:
            for line in source:
                line = line.rstrip("\n")
                if not line:
                    continue
                tenant, sep, value = line.partition("\t")
                if not sep:
                    tenant, value = "default", line
                result = server.match(value, tenant=tenant)
                served += 1
                print(
                    json.dumps(
                        {
                            "query": value,
                            "tenant": tenant,
                            "candidates": [[r_id, score] for r_id, score in result.candidates],
                        }
                    )
                )
            elapsed = time.perf_counter() - started
            stats = server.stats()
    finally:
        if source is not sys.stdin:
            source.close()
    qps = served / elapsed if elapsed > 0 else 0.0
    print(
        f"served {served} queries in {elapsed:.2f}s ({qps:.0f} qps), "
        f"p50={stats['latency_p50_s'] * 1000:.2f}ms p99={stats['latency_p99_s'] * 1000:.2f}ms",
        file=sys.stderr,
    )
    return 0


def cmd_schema_match(args) -> int:
    """Propose attribute correspondences between two CSV tables."""
    from repro.schema_matching import match_schemas

    ltable = read_csv(args.ltable)
    rtable = read_csv(args.rtable)
    correspondences = match_schemas(ltable, rtable, args.key, args.key,
                                    threshold=args.threshold)
    if not correspondences:
        print("no correspondences above threshold")
        return 1
    print(f"{'A column':<20} {'B column':<20} {'score':<7} name   value")
    for c in correspondences:
        print(
            f"{c.l_column:<20} {c.r_column:<20} {c.score:<7.3f} "
            f"{c.name_score:<6.3f} {c.value_score:.3f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Magellan-style entity matching on CSV files"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="profile one table")
    p.add_argument("table")
    p.set_defaults(fn=cmd_profile)

    for name, fn, help_text in (
        ("match", cmd_match, "PyMatcher guide workflow over two tables"),
        ("falcon", cmd_falcon, "self-service Falcon workflow over two tables"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("ltable")
        p.add_argument("rtable")
        p.add_argument("--key", default="id", help="key column in both tables")
        p.add_argument("--gold", default=None, help="CSV of known matching pairs")
        p.add_argument("--budget", type=int, default=500, help="max labels")
        p.add_argument("--block-on", default=None, help="blocking attribute")
        p.add_argument("--overlap", type=int, default=1, help="token overlap size")
        p.add_argument("--output", default="matches.csv")
        p.add_argument(
            "--metrics", default=None, metavar="PATH",
            help="write the metrics registry here (JSONL + PATH.prom)",
        )
        p.add_argument(
            "--index-cache", default=None, metavar="DIR",
            help="persist/reuse index artifacts under DIR across runs",
        )
        if name == "falcon":
            p.add_argument(
                "--events", default=None, metavar="PATH",
                help="write the run's spans (JSONL) here",
            )
        p.set_defaults(fn=fn)

    p = sub.add_parser("dedupe", help="deduplicate one table")
    p.add_argument("table")
    p.add_argument("--key", default="id")
    p.add_argument("--column", default=None, help="blocking attribute")
    p.add_argument("--overlap", type=int, default=2)
    p.add_argument("--gold", default=None, help="CSV of known duplicate pairs")
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--output", default="deduped.csv")
    p.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the metrics registry here (JSONL + PATH.prom)",
    )
    p.add_argument(
        "--index-cache", default=None, metavar="DIR",
        help="persist/reuse index artifacts under DIR across runs",
    )
    p.set_defaults(fn=cmd_dedupe)

    p = sub.add_parser("index", help="build or inspect reusable index artifacts")
    index_sub = p.add_subparsers(dest="index_command", required=True)
    p = index_sub.add_parser("build", help="pre-build index artifacts for a table")
    p.add_argument("table")
    p.add_argument("--key", default="id")
    p.add_argument(
        "--column", action="append", default=None,
        help="column to index (repeatable; default: every string column)",
    )
    p.add_argument("--q", type=int, default=3, help="q-gram size")
    p.add_argument(
        "--vectors", action="store_true",
        help="also build hashed n-gram embedding artifacts (vector blocking)",
    )
    p.add_argument(
        "--vector-dim", type=int, default=2**18, metavar="DIM",
        help="hashing-trick bucket count for --vectors (default: 2^18)",
    )
    p.add_argument("--cache-dir", default=".repro-index", metavar="DIR")
    p.set_defaults(fn=cmd_index_build)
    p = index_sub.add_parser("inspect", help="list persisted index artifacts")
    p.add_argument("--cache-dir", default=".repro-index", metavar="DIR")
    p.set_defaults(fn=cmd_index_inspect)
    p = index_sub.add_parser(
        "compact", help="fold live-index deltas into fresh base segments"
    )
    p.add_argument(
        "--name", action="append", default=None, metavar="NAME",
        help="live index to compact (repeatable; default: all persisted)",
    )
    p.add_argument("--cache-dir", default=".repro-index", metavar="DIR")
    p.set_defaults(fn=cmd_index_compact)

    p = sub.add_parser("serve", help="resident match server over one corpus table")
    p.add_argument("corpus")
    p.add_argument("--key", default="id")
    p.add_argument("--column", default=None, help="corpus column to match against")
    p.add_argument("--measure", default="jaccard", help="jaccard|cosine|dice|overlap")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument(
        "--tokenizer", choices=["whitespace", "qgram"], default="whitespace"
    )
    p.add_argument("--q", type=int, default=3, help="q-gram size (qgram tokenizer)")
    p.add_argument("--top-k", type=int, default=10, help="candidates per query")
    p.add_argument("--max-batch", type=int, default=64, help="micro-batch size cap")
    p.add_argument(
        "--queries", default=None, metavar="FILE",
        help="query file, one per line ('tenant<TAB>value' or 'value'); default stdin",
    )
    p.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the metrics registry here (JSONL + PATH.prom)",
    )
    p.add_argument(
        "--index-cache", default=None, metavar="DIR",
        help="persist/reuse index artifacts under DIR across runs",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("schema-match", help="propose attribute correspondences")
    p.add_argument("ltable")
    p.add_argument("rtable")
    p.add_argument("--key", default="id")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(fn=cmd_schema_match)

    return parser


def _write_metrics(path: str) -> None:
    from repro.obs import get_registry, write_metrics_jsonl, write_prometheus_text

    registry = get_registry()
    write_metrics_jsonl(registry, path)
    write_prometheus_text(registry, f"{path}.prom")
    print(f"{len(registry)} metric series written to {path} (+ {path}.prom)")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    index_cache = getattr(args, "index_cache", None)
    if index_cache:
        from repro.index import IndexStore, set_index_store

        set_index_store(IndexStore(cache_dir=index_cache))
    metrics_path = getattr(args, "metrics", None)
    if not metrics_path:
        return args.fn(args)
    try:
        return args.fn(args)
    finally:
        # Snapshots survive a failed run, same as --events.
        _write_metrics(metrics_path)


if __name__ == "__main__":
    sys.exit(main())

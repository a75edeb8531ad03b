"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Run the paper's Example 17 end to end (plans, ρ, exact, MC).
``fig2``
    Print the Figure 2 counting table (enumerated live).
``plans "q(z) :- R(z,x), S(x,y)"``
    Parse a query and print its minimal plans (optionally with
    ``--deterministic R,S`` schema knowledge).
``evaluate "q() :- ..." --data DIR``
    Load a CSV directory (one ``<relation>.csv`` per atom, probability in
    column ``p``) and print the propagation score per answer next to the
    exact probability when the lineage is small enough.
``metrics``
    Run a small instrumented workload through an observed concurrent
    session and dump the observability snapshot — JSON to stdout (or
    ``--json PATH``) plus the Prometheus text exposition (``--prom
    PATH``), including per-layer counters, latency quantiles, cache
    statistics, and the slow-query log.
``serve``
    Boot the network serving tier (``repro.net``) over a CSV directory,
    a durable store, or the built-in demo database: ``--host/--port``,
    ``--metrics-port`` for the Prometheus endpoint, ``--workers`` for
    service threads, ``--processes`` for forked shared-memory
    evaluators, ``--fsync`` for the durable journal policy.
``client``
    Drive a running server over ``repro://host:port``: evaluate
    queries (``--query``, repeatable; ``--repeat`` for cache-hit
    traffic), then optionally print server stats (``--stats``), the
    merged Prometheus exposition (``--metrics``), or the last
    request's trace tree (``--trace``).
"""

from __future__ import annotations

import argparse
import sys

from .api.config import EngineConfig
from .core import minimal_plans, parse_query
from .db.io import load_database
from .engine import DissociationEngine


def _cmd_demo(_: argparse.Namespace) -> int:
    from .db import ProbabilisticDatabase

    db = ProbabilisticDatabase()
    half = 0.5
    db.add_table("R", [((1,), half), ((2,), half)])
    db.add_table("S", [((1,), half), ((2,), half)])
    db.add_table("T", [((1, 1), half), ((1, 2), half), ((2, 2), half)])
    db.add_table("U", [((1,), half), ((2,), half)])
    q = parse_query("q() :- R(x), S(x), T(x,y), U(y)")
    engine = DissociationEngine(db)
    print(f"query: {q}")
    for plan in engine.minimal_plans(q):
        print(f"  plan: {plan}")
    print(f"rho   = {engine.propagation_score(q)[()]:.10f}  (169/2^10)")
    print(f"exact = {engine.exact(q)[()]:.10f}  (83/2^9)")
    print(f"MC10k = {engine.monte_carlo(q, 10_000, seed=0)[()]:.4f}")
    return 0


def _cmd_fig2(_: argparse.Namespace) -> int:
    from .experiments import fig2_chain_rows, fig2_report, fig2_star_rows

    print(fig2_report(fig2_star_rows(max_k=6), fig2_chain_rows(max_k=7)))
    return 0


def _cmd_plans(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    deterministic = frozenset(
        name for name in (args.deterministic or "").split(",") if name
    )
    plans = minimal_plans(query, deterministic=deterministic)
    label = "safe — exact plan" if len(plans) == 1 else "minimal plans"
    print(f"{query}   →   {len(plans)} {label}")
    for plan in plans:
        print(plan.pretty(indent=1))
        print()
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    deterministic = frozenset(
        name for name in (args.deterministic or "").split(",") if name
    )
    db = load_database(args.data, deterministic=deterministic)
    engine = DissociationEngine(
        db, EngineConfig(backend="sqlite" if args.sqlite else "memory")
    )
    scores = engine.propagation_score(query)
    exact = None
    lineage = engine.lineage(query)
    if lineage.max_size() <= args.exact_limit:
        exact = engine.exact(query)
    print(f"{len(scores)} answers (ranked by propagation score):")
    for answer in sorted(scores, key=lambda a: -scores[a]):
        row = f"  {answer}  rho={scores[answer]:.6f}"
        if exact is not None:
            row += f"  exact={exact[answer]:.6f}"
        print(row)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from .api import connect
    from .api.config import ServiceConfig
    from .db import ProbabilisticDatabase
    from .obs import Observer

    observer = Observer(slow_query_seconds=args.slow_ms / 1000.0)
    half = 0.5
    db = ProbabilisticDatabase()
    db.add_table("R", [((1,), half), ((2,), half)])
    db.add_table("S", [((1,), half), ((2,), half)])
    db.add_table("T", [((1, 1), half), ((1, 2), half), ((2, 2), half)])
    db.add_table("U", [((1,), half), ((2,), half)])
    workload = [
        "q() :- R(x), S(x), T(x,y), U(y)",
        "q(x) :- S(x), T(x,y)",
        "q(y) :- T(x,y), U(y)",
    ]
    config = EngineConfig(
        backend="sqlite" if args.sqlite else "memory", observer=observer
    )
    with connect(
        db,
        config,
        concurrent=True,
        service=ServiceConfig(workers=2),
    ) as session:
        last = None
        for _ in range(max(args.repeat, 1)):
            for text in workload:
                last = session.evaluate(text)
        session.mutate(lambda d: d.insert("R", (3,), half))
        session.evaluate(workload[0])
        trace = session.trace(last)
        snapshot = observer.snapshot()
    if trace is not None:
        snapshot["last_trace"] = trace
    rendered = json.dumps(snapshot, indent=2, sort_keys=True, default=str)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(rendered + "\n")
        print(f"wrote {args.json}")
    else:
        print(rendered)
    prom = observer.render_prometheus()
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(prom)
        print(f"wrote {args.prom}")
    else:
        print(prom, end="")
    return 0


def _demo_database():
    from .db import ProbabilisticDatabase

    half = 0.5
    db = ProbabilisticDatabase()
    db.add_table("R", [((1,), half), ((2,), half)])
    db.add_table("S", [((1,), half), ((2,), half)])
    db.add_table("T", [((1, 1), half), ((1, 2), half), ((2, 2), half)])
    db.add_table("U", [((1,), half), ((2,), half)])
    return db


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .net import serve

    if args.data:
        deterministic = frozenset(
            name for name in (args.deterministic or "").split(",") if name
        )
        db = load_database(args.data, deterministic=deterministic)
    elif args.path:
        from .db import ProbabilisticDatabase

        db = ProbabilisticDatabase.open(args.path, fsync=args.fsync)
    else:
        db = _demo_database()
    config = EngineConfig(backend="sqlite" if args.sqlite else "memory")
    # Ctrl-C and `kill <pid>` unwind alike — close the server, which
    # stops the workers and unlinks their segments. The handlers only
    # set a flag, so a signal is safe at any point, boot included.
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    server = serve(
        db,
        config,
        host=args.host,
        port=args.port,
        metrics_port=args.metrics_port,
        workers=args.workers,
        processes=args.processes,
        result_cache_size=args.result_cache_size,
    )
    try:
        print(f"serving {server.url}  (backend={config.backend}, "
              f"pool={server.pool.stats()})", flush=True)
        if server.metrics_port is not None:
            print(
                f"metrics http://{server.host}:{server.metrics_port}"
                "/metrics",
                flush=True,
            )
        stop.wait()
    finally:
        server.close()
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from .net import RemoteSession

    queries = args.query or ["q() :- R(x), S(x), T(x,y), U(y)"]
    with RemoteSession(args.url) as session:
        hello = session.hello()
        print(
            f"connected to {args.url} (backend={hello['backend']}, "
            f"tables={','.join(hello['tables'])})"
        )
        last = None
        for round_index in range(max(args.repeat, 1)):
            for text in queries:
                last = session.evaluate(text)
                if round_index == 0 or args.verbose:
                    ranked = sorted(
                        last.scores.items(), key=lambda kv: -kv[1]
                    )
                    shown = ", ".join(
                        f"{answer}={score:.6f}" for answer, score in ranked[:5]
                    )
                    print(
                        f"  {text}  →  {len(last.scores)} answers "
                        f"[{shown}]{' (cached)' if last.cached else ''}"
                    )
        if args.stats:
            print(json.dumps(session.stats(), indent=2, default=str))
        if args.trace and last is not None:
            print(
                json.dumps(session.trace(last), indent=2, default=str)
            )
        if args.metrics:
            print(session.metrics_text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Approximate lifted inference with probabilistic databases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run the paper's Example 17").set_defaults(
        run=_cmd_demo
    )
    sub.add_parser("fig2", help="print the Figure 2 table").set_defaults(
        run=_cmd_fig2
    )

    plans = sub.add_parser("plans", help="show minimal plans of a query")
    plans.add_argument("query", help='e.g. "q(z) :- R(z,x), S(x,y)"')
    plans.add_argument(
        "--deterministic", help="comma-separated deterministic relations"
    )
    plans.set_defaults(run=_cmd_plans)

    evaluate = sub.add_parser("evaluate", help="evaluate a query over CSVs")
    evaluate.add_argument("query")
    evaluate.add_argument(
        "--data", required=True, help="directory of <relation>.csv files"
    )
    evaluate.add_argument("--deterministic")
    evaluate.add_argument("--sqlite", action="store_true")
    evaluate.add_argument(
        "--exact-limit",
        type=int,
        default=2000,
        help="compute exact probabilities when max lineage ≤ limit",
    )
    evaluate.set_defaults(run=_cmd_evaluate)

    metrics = sub.add_parser(
        "metrics",
        help="run an instrumented workload and dump the snapshot",
    )
    metrics.add_argument("--sqlite", action="store_true")
    metrics.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="workload repetitions (repeats hit the result cache)",
    )
    metrics.add_argument(
        "--slow-ms",
        type=float,
        default=0.0,
        help="slow-query-log threshold in milliseconds (0 logs all)",
    )
    metrics.add_argument(
        "--json", help="write the JSON snapshot here instead of stdout"
    )
    metrics.add_argument(
        "--prom",
        help="write the Prometheus text exposition here instead of stdout",
    )
    metrics.set_defaults(run=_cmd_metrics)

    serve_cmd = sub.add_parser(
        "serve", help="boot the network serving tier (repro.net)"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=7432, help="0 binds an ephemeral port"
    )
    serve_cmd.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="also serve HTTP GET /metrics here (0 for ephemeral)",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=2, help="service worker threads"
    )
    serve_cmd.add_argument(
        "--processes",
        type=int,
        default=None,
        help="forked shared-memory evaluator processes (memory backend)",
    )
    serve_cmd.add_argument(
        "--data", help="directory of <relation>.csv files to serve"
    )
    serve_cmd.add_argument("--deterministic")
    serve_cmd.add_argument(
        "--path", help="durable store directory (repro.db.journal)"
    )
    serve_cmd.add_argument(
        "--fsync",
        default=None,
        choices=("commit", "off"),
        help="journal fsync policy for --path stores",
    )
    serve_cmd.add_argument("--sqlite", action="store_true")
    serve_cmd.add_argument("--result-cache-size", type=int, default=1024)
    serve_cmd.set_defaults(run=_cmd_serve)

    client_cmd = sub.add_parser(
        "client", help="drive a running repro server"
    )
    client_cmd.add_argument("url", help="repro://host:port")
    client_cmd.add_argument(
        "--query",
        action="append",
        help="Datalog query to evaluate (repeatable)",
    )
    client_cmd.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="workload repetitions (repeats hit the server wire cache)",
    )
    client_cmd.add_argument("--verbose", action="store_true")
    client_cmd.add_argument(
        "--stats", action="store_true", help="print server stats JSON"
    )
    client_cmd.add_argument(
        "--trace",
        action="store_true",
        help="print the last request's trace tree",
    )
    client_cmd.add_argument(
        "--metrics",
        action="store_true",
        help="print the merged Prometheus exposition",
    )
    client_cmd.set_defaults(run=_cmd_client)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())

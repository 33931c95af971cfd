"""Command-line entry point: ``python -m repro``.

Subcommands:

``observations``
    Run a compact reproduction (configurable horizon) and print the
    paper's six-observation scoreboard.

``figure N``
    Regenerate one of the paper's figures (1-5) as a text table, with
    optional CSV output.

``fork-lengths``
    Print the Section 2.1 fork-length comparison (86 vs 3,583 blocks).

``run-all``
    Produce all five figures plus the observation scoreboard in one
    parallel, cached pass through :mod:`repro.harness` — ``--jobs N``
    workers, results content-addressed under ``--cache-dir`` so a
    second invocation is served from cache, and a JSON run manifest
    written for observability.

``fault-sweep``
    Run the robustness grid (churn rate x link loss x split duration)
    of fault-injected partition scenarios through the same pool and
    cache, writing ``robustness.txt``/``.csv``/``.json`` with per-cell
    recovery times and a reproducibility digest.

``topology-sweep``
    Run the topology realism grid (uniform / power-law / geo-clustered
    / ring / small-world graph families) of partition scenarios plus
    DEthna-style topology-inference probes through the same pool and
    cache, writing ``topology.txt``/``.csv``/``.json`` with per-family
    stabilization times, degree statistics, inference precision/recall,
    and a reproducibility digest.

``bench``
    Benchmark the performance kernels (batched block production, fast
    difficulty rules, event-loop and transport fast paths) against the
    retained seed-state implementations; write canonical
    ``BENCH_<name>.json`` regression reports and exit nonzero if any
    fast/reference result digests diverge.

``serve``
    Start the long-running scenario service (:mod:`repro.serve`): an
    asyncio HTTP/JSON server that accepts scenario jobs, dedupes
    identical configs into one running job, streams progress over SSE,
    persists results to a durable SQLite store, and enforces per-tenant
    admission quotas.

``trace``
    Run one partition (or chaos-partition) scenario with the
    :mod:`repro.obs` layer fully enabled: export every trace event as
    JSONL (``--out``) and print deterministic stats plus the wall-time
    span profile (``--stats``).

The full-fidelity runs live in ``benchmarks/``; this CLI trades horizon
for latency so a first look takes tens of seconds, not minutes.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional


def _add_pool_arguments(
    parser: argparse.ArgumentParser, manifest_name: str
) -> None:
    """The pool, cache and output flags shared by the three sweeps."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = in-process serial)")
    parser.add_argument("--cache-dir", type=str, default=".repro-cache",
                        help="content-addressed result cache location")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute everything; never read or write "
                             "the cache")
    parser.add_argument("--output-dir", type=str, default="runs",
                        help="where the artifacts land")
    parser.add_argument("--manifest", type=str, default=None,
                        help=f"run-manifest path (default: "
                             f"<output-dir>/{manifest_name})")
    parser.add_argument("--timeout", type=float, default=900.0,
                        help="per-job deadline in seconds before the "
                             "worker is killed and the job retried")
    parser.add_argument("--retries", type=int, default=1,
                        help="extra attempts after a timeout or crash")


def _add_chunked_arguments(parser: argparse.ArgumentParser) -> None:
    """The chunked/resumable sweep flags shared by run-all, fault-sweep
    and topology-sweep."""
    parser.add_argument("--chunk-size", type=int, default=None,
                        metavar="N",
                        help="run through the sweep ledger in chunks of N "
                             "jobs: crash-safe, resumable (--resume), and "
                             "shareable by concurrent processes; unset = "
                             "the classic single-shot path")
    parser.add_argument("--resume", action="store_true",
                        help="continue an interrupted chunked run from "
                             "its ledger instead of starting over")
    parser.add_argument("--max-quarantined", type=int, default=None,
                        metavar="N",
                        help="fail the sweep (exit 1) once more than N "
                             "chunks are quarantined; unset = complete "
                             "degraded (exit 4) no matter how many")
    parser.add_argument("--ledger-dir", type=str, default=None,
                        help="sweep-ledger directory (default: under "
                             "<output-dir>)")
    parser.add_argument("--lease-seconds", type=float, default=300.0,
                        help="chunk lease duration; a crashed claimant's "
                             "chunk becomes claimable again after this")
    parser.add_argument("--retry-backoff", type=float, default=0.0,
                        metavar="SECONDS",
                        help="base delay before a job's first retry, "
                             "doubling per further retry with "
                             "deterministic seeded jitter (0 = retry "
                             "immediately, the default)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Stick a fork in it' (HotNets 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    obs = sub.add_parser(
        "observations", help="run the reproduction and print the scoreboard"
    )
    obs.add_argument("--days", type=int, default=270,
                     help="simulated days after the fork (default 270, the "
                          "paper's window; shorter runs are faster but the "
                          "nine-month observations 3 and 6 need the full "
                          "horizon)")
    obs.add_argument("--seed", type=int, default=2016_07_20)

    fig = sub.add_parser("figure", help="regenerate one figure")
    fig.add_argument("number", type=int, choices=range(1, 6))
    fig.add_argument("--days", type=int, default=150)
    fig.add_argument("--seed", type=int, default=2016_07_20)
    fig.add_argument("--sample-days", type=int, default=7)
    fig.add_argument("--csv", type=str, default=None,
                     help="also write the series to this CSV path")

    sub.add_parser("fork-lengths",
                   help="the Section 2.1 fork-length comparison")

    runall = sub.add_parser(
        "run-all",
        help="all five figures + the scoreboard in one parallel, "
             "cached pass",
    )
    runall.add_argument("--days", type=int, default=150)
    runall.add_argument("--seed", type=int, default=2016_07_20)
    runall.add_argument("--sample-days", type=int, default=7)
    _add_pool_arguments(runall, "manifest.json")
    runall.add_argument("--cache-max-bytes", type=int, default=None,
                        help="after the run, evict least-recently-stored "
                             "cache entries until the cache fits this "
                             "many bytes")
    _add_chunked_arguments(runall)
    # run-all only (not shared with fault-sweep: that sweep's cells are
    # message-level chaos scenarios, not day-loop fork simulations, so
    # there is no horizon to checkpoint within).
    runall.add_argument("--horizon-chunk-days", type=int, default=None,
                        metavar="D",
                        help="additionally split the simulation itself "
                             "into checkpointed chunks of D days, so an "
                             "interrupted run resumes mid-horizon instead "
                             "of re-mining from day zero; requires "
                             "--chunk-size and the cache")

    sweep = sub.add_parser(
        "fault-sweep",
        help="grid of fault-injected partition runs (chaos testing)",
    )
    sweep.add_argument("--nodes", type=int, default=30)
    sweep.add_argument("--miners", type=int, default=8)
    sweep.add_argument("--seed", type=int, default=2016_07_20)
    sweep.add_argument("--horizon", type=float, default=3600.0,
                       help="simulated seconds past the fork per cell")
    sweep.add_argument("--churn", type=float, nargs="+",
                       default=[0.0, 0.005],
                       help="churn axis: crashes per simulated second")
    sweep.add_argument("--loss", type=float, nargs="+", default=[0.0, 0.1],
                       help="loss axis: extra region-wide loss fraction")
    sweep.add_argument("--split", type=float, nargs="+",
                       default=[0.0, 600.0],
                       help="split axis: cross-region cut duration (s)")
    sweep.add_argument("--no-resilience", action="store_true",
                       help="control arm: legacy protocol under fire")
    _add_pool_arguments(sweep, "fault-sweep-manifest.json")
    sweep.add_argument("--max-events", type=int, default=None,
                       help="per-cell event budget; a cell that exceeds "
                            "it fails (mainly for fault-injection tests "
                            "of the quarantine path)")
    _add_chunked_arguments(sweep)

    topo = sub.add_parser(
        "topology-sweep",
        help="partition/stabilization scenario across topology families "
             "(degree skew, geo-clustering) plus marked-transaction "
             "topology inference",
    )
    topo.add_argument("--nodes", type=int, default=30)
    topo.add_argument("--miners", type=int, default=8)
    topo.add_argument("--seed", type=int, default=2016_07_20)
    topo.add_argument("--horizon", type=float, default=3600.0,
                      help="simulated seconds past the fork per cell")
    topo.add_argument("--degree", type=int, default=8,
                      help="target degree (mean/lattice/power-law floor)")
    topo.add_argument("--topologies", type=str, nargs="+",
                      default=["uniform", "powerlaw", "geo"],
                      choices=["uniform", "powerlaw", "geo", "ring",
                               "smallworld"],
                      help="topology families to sweep, in order")
    topo.add_argument("--gamma", type=float, default=2.2,
                      help="power-law exponent (measurements: 2-2.5)")
    topo.add_argument("--intra-bias", type=float, default=0.7,
                      help="geo: probability an edge stays in-region")
    topo.add_argument("--no-infer", action="store_true",
                      help="skip the marked-transaction inference cells")
    topo.add_argument("--infer-probes", type=int, default=5,
                      help="marked transactions injected per target node")
    _add_pool_arguments(topo, "topology-sweep-manifest.json")
    _add_chunked_arguments(topo)

    trace = sub.add_parser(
        "trace",
        help="run one scenario fully instrumented; export the trace "
             "stream and print deterministic stats",
    )
    trace.add_argument("--scenario", type=str, default="partition",
                       choices=["partition", "chaos-partition"],
                       help="which message-level scenario to trace")
    trace.add_argument("--out", type=str, default=None,
                       help="write every trace event to this JSONL path")
    trace.add_argument("--stats", action="store_true",
                       help="print per-kind event counts, counter totals, "
                            "digests, and the span profile")
    trace.add_argument("--nodes", type=int, default=20)
    trace.add_argument("--miners", type=int, default=6)
    trace.add_argument("--seed", type=int, default=2016_07_20)
    trace.add_argument("--horizon", type=float, default=1800.0,
                       help="simulated seconds past the fork")
    trace.add_argument("--churn", type=float, default=0.005,
                       help="chaos only: crashes per simulated second")
    trace.add_argument("--loss", type=float, default=0.1,
                       help="chaos only: extra region-wide loss fraction")
    trace.add_argument("--split", type=float, default=300.0,
                       help="chaos only: cross-region cut duration (s)")
    trace.add_argument("--ring", type=int, default=4096,
                       help="ring-buffer capacity for in-memory capture")

    serve = sub.add_parser(
        "serve",
        help="long-running multi-tenant scenario service: HTTP/JSON "
             "job submission with dedupe, durable results, SSE "
             "progress streaming, and per-tenant quotas",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8734,
                       help="listen port (0 binds an ephemeral port; "
                            "the bound port is printed on startup)")
    serve.add_argument("--cache-dir", type=str, default=".repro-cache",
                       help="content-addressed result cache shared "
                            "with run-all")
    serve.add_argument("--no-cache", action="store_true",
                       help="run every job without the pickle cache")
    serve.add_argument("--db", type=str, default=".repro-serve.db",
                       help="durable SQLite job/result store (WAL); "
                            "'none' disables durability")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes per job (1 = in-thread "
                            "serial execution)")
    serve.add_argument("--exec-threads", type=int, default=4,
                       help="concurrent jobs the server executes")
    serve.add_argument("--timeout", type=float, default=900.0,
                       help="per-job deadline (seconds)")
    serve.add_argument("--retries", type=int, default=1)
    serve.add_argument("--retry-backoff", type=float, default=0.0,
                       metavar="SECONDS",
                       help="base delay before a job's first retry, "
                            "doubling per further retry with "
                            "deterministic seeded jitter (0 = retry "
                            "immediately)")
    serve.add_argument("--max-inflight", type=int, default=16,
                       help="server-wide cap on queued+running jobs")
    serve.add_argument("--tenant-max-inflight", type=int, default=2,
                       help="running jobs allowed per tenant")
    serve.add_argument("--tenant-max-queued", type=int, default=8,
                       help="queued jobs allowed per tenant")
    serve.add_argument("--cache-max-bytes", type=int, default=None,
                       help="maintenance loop prunes the cache to this "
                            "size (LRU by mtime); unset = unbounded")
    serve.add_argument("--maintenance-interval", type=float, default=60.0,
                       help="seconds between cache maintenance passes")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="seconds to wait for in-flight jobs on "
                            "shutdown")
    serve.add_argument("--allow-kind", action="append", default=None,
                       metavar="KIND",
                       help="extend the served job kinds (repeatable); "
                            "default: the public experiment kinds")

    bench = sub.add_parser(
        "bench",
        help="benchmark the fast kernels against the seed-state "
             "reference implementations; write BENCH_*.json and fail "
             "on any digest divergence",
    )
    from .perf.bench import add_bench_arguments

    add_bench_arguments(bench)
    return parser


def _run_simulation(days: int, seed: int):
    from .sim.engine import ForkSimConfig, ForkSimulation

    print(f"simulating {days} days from the fork (seed {seed})...",
          file=sys.stderr)
    start = time.time()
    result = ForkSimulation(
        ForkSimConfig(days=days, prefork_days=7, seed=seed)
    ).run()
    print(f"done in {time.time() - start:.0f}s", file=sys.stderr)
    return result


def _echo_detector(result):
    from .core import EchoDetector
    from .scenarios.replay_attack import replay_stream

    records, _ = replay_stream(result)
    detector = EchoDetector()
    detector.observe_records(records)
    return detector


def cmd_observations(args) -> int:
    from .core.observations import evaluate_all
    from .scenarios.partition_event import (
        PartitionScenario,
        PartitionScenarioConfig,
    )

    if args.days < 270:
        print(
            f"note: observations 3 and 6 are nine-month claims; at "
            f"{args.days} days they may rightly fail to reproduce",
            file=sys.stderr,
        )
    result = _run_simulation(args.days, args.seed)
    detector = _echo_detector(result)
    print("running the message-level partition scenario...", file=sys.stderr)
    partition = PartitionScenario(PartitionScenarioConfig()).run()

    print()
    for observation in evaluate_all(result, partition, detector):
        print(observation.render())
    return 0


def cmd_figure(args) -> int:
    from .core import figure_1, figure_2, figure_3, figure_4, figure_5

    result = _run_simulation(args.days, args.seed)
    generators = {1: figure_1, 2: figure_2, 3: figure_3, 5: figure_5}
    if args.number == 4:
        figure = figure_4(result, _echo_detector(result))
    else:
        figure = generators[args.number](result)
    print()
    print(figure.render(sample_days=args.sample_days))
    if args.csv:
        try:
            rows = figure.write_csv(args.csv)
        except OSError as exc:
            print(f"error: cannot write CSV to {args.csv}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"\nwrote {rows} rows to {args.csv}", file=sys.stderr)
    return 0


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _check_sweep_arguments(args) -> Optional[str]:
    """Validate the pool and chunk flags; an error string or None."""
    if args.jobs < 1:
        return "--jobs must be >= 1"
    if args.retries < 0:
        return "--retries must be >= 0"
    if args.chunk_size is not None and args.chunk_size < 1:
        return "--chunk-size must be >= 1"
    if args.max_quarantined is not None and args.max_quarantined < 0:
        return "--max-quarantined must be >= 0"
    if args.lease_seconds <= 0:
        return "--lease-seconds must be > 0"
    if args.retry_backoff < 0:
        return "--retry-backoff must be >= 0"
    if args.resume and args.chunk_size is None:
        return "--resume requires --chunk-size"
    return None


def _run_sweep_command(args, entry, *config, **settings) -> int:
    """Run one sweep entry with the shared flags and report its outcome.

    Returns the exit code: 0 ok, 1 failed, 2 usage (including a ledger
    that refuses the sweep), 3 interrupted, 4 degraded.
    """
    from .harness import LedgerError, ProgressReporter

    error = _check_sweep_arguments(args)
    if error:
        return _usage_error(error)
    try:
        result = entry(
            *config,
            jobs=args.jobs,
            cache_dir=None if args.no_cache else args.cache_dir,
            output_dir=args.output_dir,
            manifest_path=args.manifest,
            timeout=args.timeout,
            retries=args.retries,
            progress=ProgressReporter(),
            retry_backoff=args.retry_backoff,
            chunk_size=args.chunk_size,
            resume=args.resume,
            max_quarantined=args.max_quarantined,
            ledger_dir=args.ledger_dir,
            lease_seconds=args.lease_seconds,
            **settings,
        )
    except LedgerError as exc:
        return _usage_error(str(exc))
    print()
    if result.manifest is not None:
        print(result.manifest.summary())
        for path in result.manifest.outputs:
            print(f"  wrote {path}")
    if result.error:
        print(f"  {result.error}", file=sys.stderr)
    for row in result.quarantined:
        print(
            f"  quarantined chunk {row['chunk_id'][:12]} "
            f"({row['label']}): {row['error']}",
            file=sys.stderr,
        )
    print(f"  sweep {result.state} (exit {result.exit_code})",
          file=sys.stderr)
    return result.exit_code


def cmd_run_all(args) -> int:
    # Looked up per call (not at import): the benchmark's span shim
    # wraps ``run_all`` wherever the ``repro`` modules bind it.
    from .harness import run_all

    if args.cache_max_bytes is not None and args.cache_max_bytes < 0:
        return _usage_error("--cache-max-bytes must be >= 0")
    if args.horizon_chunk_days is not None:
        if args.horizon_chunk_days < 1:
            return _usage_error("--horizon-chunk-days must be >= 1")
        if args.chunk_size is None:
            return _usage_error("--horizon-chunk-days requires --chunk-size "
                                "(it rides on the sweep ledger)")
        if args.no_cache:
            return _usage_error("--horizon-chunk-days cannot be combined "
                                "with --no-cache; simulate chunks chain "
                                "their checkpoints through the cache")
    return _run_sweep_command(
        args,
        run_all,
        days=args.days,
        seed=args.seed,
        prefork_days=7,
        sample_days=args.sample_days,
        cache_max_bytes=args.cache_max_bytes,
        horizon_chunk_days=args.horizon_chunk_days,
    )


def cmd_fault_sweep(args) -> int:
    from .harness import FaultSweepConfig, run_fault_sweep

    if args.max_events is not None and args.max_events < 1:
        return _usage_error("--max-events must be >= 1")
    config = FaultSweepConfig(
        num_nodes=args.nodes,
        num_miners=args.miners,
        post_fork_horizon=args.horizon,
        seed=args.seed,
        churn_rates=tuple(args.churn),
        loss_rates=tuple(args.loss),
        split_durations=tuple(args.split),
        resilience=not args.no_resilience,
        **({} if args.max_events is None else {"max_events": args.max_events}),
    )
    return _run_sweep_command(args, run_fault_sweep, config)


def cmd_topology_sweep(args) -> int:
    from .harness import TopologySweepConfig, run_topology_sweep

    if args.infer_probes < 1:
        return _usage_error("--infer-probes must be >= 1")
    try:
        config = TopologySweepConfig(
            num_nodes=args.nodes,
            num_miners=args.miners,
            post_fork_horizon=args.horizon,
            seed=args.seed,
            target_degree=args.degree,
            topologies=tuple(args.topologies),
            gamma=args.gamma,
            intra_bias=args.intra_bias,
            include_inference=not args.no_infer,
            infer_probes=args.infer_probes,
        )
    except ValueError as exc:
        return _usage_error(str(exc))
    return _run_sweep_command(args, run_topology_sweep, config)


def cmd_trace(args) -> int:
    from .harness.faultsweep import FaultSweepConfig
    from .obs import Observability
    from .scenarios.partition_event import (
        PartitionScenario,
        PartitionScenarioConfig,
    )

    if args.scenario == "chaos-partition":
        sweep = FaultSweepConfig(
            num_nodes=args.nodes,
            num_miners=args.miners,
            post_fork_horizon=args.horizon,
            seed=args.seed,
        )
        config = sweep.cell_config(args.churn, args.loss, args.split)
    else:
        config = PartitionScenarioConfig(
            num_nodes=args.nodes,
            num_miners=args.miners,
            post_fork_horizon=args.horizon,
            seed=args.seed,
        )

    sink = None
    if args.out:
        try:
            sink = open(args.out, "w")
        except OSError as exc:
            print(f"error: cannot open {args.out}: {exc}", file=sys.stderr)
            return 1
    try:
        obs = Observability.enabled(capacity=args.ring, sink=sink)
        print(
            f"tracing {args.scenario} ({args.nodes} nodes, seed "
            f"{args.seed})...",
            file=sys.stderr,
        )
        PartitionScenario(config, obs=obs).run()
    finally:
        if sink is not None:
            sink.close()

    summary = obs.tracer.summary()
    print(f"{summary['events']} trace events "
          f"(digest {summary['digest'][:16]}...)")
    if args.out:
        print(f"wrote {summary['events']} events to {args.out}")
    if args.stats:
        print("\nevents by kind:")
        for kind, count in summary["by_kind"].items():
            print(f"  {kind:<22} {count:>10}")
        dump = obs.metrics.dump()
        print("\ncounters:")
        for name, value in dump["counters"].items():
            print(f"  {name:<28} {value:>10}")
        print(f"\nmetrics digest: {obs.metrics.digest()}")
        print(f"trace digest:   {obs.tracer.digest()}")
        print("\nspan profile (wall time, non-deterministic):")
        print(obs.profile.report())
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from .serve.app import DEFAULT_ALLOWED_KINDS
    from .serve.server import ScenarioServer, ServeConfig

    for name, value in (("--port", args.port), ("--workers", args.workers),
                        ("--exec-threads", args.exec_threads),
                        ("--max-inflight", args.max_inflight),
                        ("--tenant-max-inflight", args.tenant_max_inflight)):
        if value < 0 or (value < 1 and name not in ("--port",)):
            print(f"error: {name} must be >= 1", file=sys.stderr)
            return 2
    if args.tenant_max_queued < 0:
        print("error: --tenant-max-queued must be >= 0", file=sys.stderr)
        return 2
    if args.retry_backoff < 0:
        print("error: --retry-backoff must be >= 0", file=sys.stderr)
        return 2
    if args.cache_max_bytes is not None and args.cache_max_bytes < 0:
        print("error: --cache-max-bytes must be >= 0", file=sys.stderr)
        return 2
    allowed = None
    if args.allow_kind:
        allowed = tuple(dict.fromkeys(
            (*DEFAULT_ALLOWED_KINDS, *args.allow_kind)
        ))
    config = ServeConfig(
        host=args.host,
        port=args.port,
        cache_dir=None if args.no_cache else args.cache_dir,
        db_path=None if args.db.lower() == "none" else args.db,
        workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
        max_threads=args.exec_threads,
        max_inflight=args.max_inflight,
        tenant_max_inflight=args.tenant_max_inflight,
        tenant_max_queued=args.tenant_max_queued,
        cache_max_bytes=args.cache_max_bytes,
        maintenance_interval=args.maintenance_interval,
        drain_timeout=args.drain_timeout,
        allowed_kinds=allowed,
    )
    try:
        return asyncio.run(ScenarioServer(config).serve_forever())
    except KeyboardInterrupt:  # platforms without signal-handler support
        return 0


def cmd_bench(args) -> int:
    from .perf.bench import bench_from_args

    return bench_from_args(args)


def cmd_fork_lengths(_args) -> int:
    from .scenarios.dos_forks import compare_upgrade_forks

    eth, etc = compare_upgrade_forks()
    print(f"{'fork':>28} {'branch blocks':>14} {'paper':>8}")
    print(f"{eth.config.name:>28} {eth.minority_branch_length:>14d} {'86':>8}")
    print(f"{etc.config.name:>28} {etc.minority_branch_length:>14d} {'3583':>8}")
    return 0


#: Built once, at import.  Setting up every subcommand's options takes
#: argparse several milliseconds, a noticeable share of a warm
#: ``run-all``; building it here books that cost with the imports.
_PARSER = _build_parser()


def main(argv: Optional[list] = None) -> int:
    args = _PARSER.parse_args(argv)
    handlers = {
        "observations": cmd_observations,
        "figure": cmd_figure,
        "fork-lengths": cmd_fork_lengths,
        "run-all": cmd_run_all,
        "fault-sweep": cmd_fault_sweep,
        "topology-sweep": cmd_topology_sweep,
        "trace": cmd_trace,
        "serve": cmd_serve,
        "bench": cmd_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())

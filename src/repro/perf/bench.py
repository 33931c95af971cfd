"""The benchmark harness and regression gate (``python -m repro bench``).

Each case runs the same workload twice — once on the fast kernels, once
on the seed-state reference implementations from
:mod:`repro.perf.reference` — takes the best wall time of ``--repeats``
runs per arm, and records both results' digests.  The digests are the
gate: a speedup that changes the trajectory is a bug, so any
fast/reference digest divergence fails the whole run (nonzero exit).

Reports are canonical ``BENCH_<name>.json`` files:

.. code-block:: json

    {"schema": "repro.bench/1", "name": "forksim", "created": "...",
     "host": {"python": "...", "implementation": "...", ...},
     "cases": [{"case": "...", "params": {...},
                "fast": {"seconds": 1.0, "work": 123, "work_unit":
                         "blocks", "rate": 123.0, "digest": "..."},
                "reference": {...}, "speedup": 3.3,
                "digests_match": true}]}

``--smoke`` shrinks every horizon to CI scale (seconds, not minutes):
it cannot measure honest speedups, but it exercises both arms end to
end and still enforces the digest gate, which is what the CI job needs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .reference import (
    ReferenceForkSimulation,
    ReferenceSimulator,
    reference_database,
)

__all__ = [
    "BENCH_SCHEMA",
    "add_bench_arguments",
    "bench_from_args",
    "main",
    "run_bench",
    "validate_report",
]

BENCH_SCHEMA = "repro.bench/1"

#: Case name -> report name; drives ``--only`` filtering too.
_REPORTS: Dict[str, Sequence[str]] = {
    "forksim": ("forksim_difficulty", "forksim_workload", "forksim_analysis"),
    "eventloop": ("eventloop_chain", "partition", "chaos_partition"),
}

#: Entries in each ``--profile`` report (top N by cumulative time).
_PROFILE_TOP_N = 40


def _best_of(fn: Callable[[], Any], repeats: int) -> Tuple[float, Any]:
    """Best wall time over ``repeats`` runs; returns the last value.

    Deterministic workloads return the same value every run, so keeping
    the last one is safe; the minimum is the standard noise filter for
    wall-clock benchmarks.  The collector is paused around the timed
    region (``timeit`` hygiene — GC pauses land at arbitrary points and
    charge one arm for garbage the other produced); each repeat starts
    from a freshly collected heap.
    """
    best = float("inf")
    value: Any = None
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(max(1, repeats)):
            gc.enable()
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            value = fn()
            elapsed = time.perf_counter() - start
            if elapsed < best:
                best = elapsed
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, value


def _traced_peak(fn: Callable[[], Any]) -> int:
    """Tracemalloc peak of one run, in bytes.

    Tracing starts fresh inside this function, so anything allocated
    *before* the call (a shared pre-built simulation, the interpreter's
    own state) is invisible — the peak charges only what ``fn`` itself
    allocates.  Tracing roughly doubles allocation cost, which is why
    memory passes are separate from the timed ones in :func:`_case_row`.
    """
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _arm(seconds: float, work: int, unit: str, digest: str) -> Dict[str, Any]:
    rate = work / seconds if seconds > 0 else 0.0
    return {
        "seconds": round(seconds, 6),
        "work": work,
        "work_unit": unit,
        "rate": round(rate, 3),
        "digest": digest,
    }


def _case_row(
    name: str,
    params: Dict[str, Any],
    unit: str,
    fast_fn: Callable[[], Any],
    ref_fn: Callable[[], Any],
    measure: Callable[[Any], Tuple[int, str]],
    repeats: int,
    profile_dir: Optional[Path],
    measure_memory: bool = False,
    memory_min_ratio: Optional[float] = None,
) -> Dict[str, Any]:
    """One benchmark row: timed arms, digests, optional memory arms.

    With a ``profile_dir`` (``--profile``) the fast arm runs once more
    under cProfile and a cumulative top-N report lands there.

    With ``measure_memory`` each arm also runs once more under
    tracemalloc (untimed — tracing is ~2x allocation overhead, so it
    must never touch the wall-clock numbers) and records its
    ``peak_bytes``.  ``memory_min_ratio`` turns the measurement into a
    gate: ``memory_ok`` is False when the reference arm's peak divided
    by the fast arm's falls below it — a fast path that quietly loses
    its memory advantage fails the bench exactly like a digest
    divergence does.
    """
    fast_secs, fast_value = _best_of(fast_fn, repeats)
    ref_secs, ref_value = _best_of(ref_fn, repeats)
    fast_work, fast_digest = measure(fast_value)
    ref_work, ref_digest = measure(ref_value)
    speedup = ref_secs / fast_secs if fast_secs > 0 else float("inf")
    if profile_dir is not None:
        # Separate, untimed run: the profiler's tracing overhead must
        # never leak into the recorded wall times above.
        _write_profile(profile_dir, name, fast_fn)
    row = {
        "case": name,
        "params": params,
        "fast": _arm(fast_secs, fast_work, unit, fast_digest),
        "reference": _arm(ref_secs, ref_work, unit, ref_digest),
        "speedup": round(speedup, 3),
        "digests_match": fast_digest == ref_digest,
    }
    if measure_memory:
        fast_peak = _traced_peak(fast_fn)
        ref_peak = _traced_peak(ref_fn)
        row["fast"]["peak_bytes"] = fast_peak
        row["reference"]["peak_bytes"] = ref_peak
        memory_ratio = (
            ref_peak / fast_peak if fast_peak > 0 else float("inf")
        )
        row["memory_ratio"] = round(memory_ratio, 3)
        row["memory_ok"] = (
            memory_min_ratio is None or memory_ratio >= memory_min_ratio
        )
        if memory_min_ratio is not None:
            row["memory_min_ratio"] = memory_min_ratio
    return row


def _write_profile(
    profile_dir: Path, case: str, fast_fn: Callable[[], Any]
) -> Path:
    """Profile one extra fast-arm run; write the top-N cumulative table."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fast_fn()
    finally:
        profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(_PROFILE_TOP_N)
    path = profile_dir / f"profile_{case}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        f"cProfile of the fast arm, case {case!r} "
        f"(top {_PROFILE_TOP_N} by cumulative time)\n{stream.getvalue()}"
    )
    return path


# -- fork-sim cases ---------------------------------------------------------


def _forksim_case(
    name: str,
    days: int,
    prefork_days: int,
    with_transactions: bool,
    seed: int,
    repeats: int,
    profile_dir: Optional[Path],
) -> Dict[str, Any]:
    from ..sim.engine import ForkSimConfig, run_fork_sim

    config = ForkSimConfig(
        days=days,
        prefork_days=prefork_days,
        seed=seed,
        with_transactions=with_transactions,
    )

    def fast():
        return run_fork_sim(config)

    def reference():
        return ReferenceForkSimulation(config).run()

    def measure(result) -> Tuple[int, str]:
        blocks = len(result.eth_trace.numbers) + len(result.etc_trace.numbers)
        return blocks, result.digest()

    return _case_row(
        name,
        {
            "days": days,
            "with_transactions": with_transactions,
            "seed": seed,
        },
        "blocks",
        fast,
        reference,
        measure,
        repeats,
        profile_dir,
        measure_memory=True,
    )


def _forksim_analysis_case(
    name: str,
    days: int,
    prefork_days: int,
    seed: int,
    repeats: int,
    profile_dir: Optional[Path],
    memory_min_ratio: float,
) -> Dict[str, Any]:
    """The figure/observation pass ``run-all`` runs, against the oracle.

    The simulation is built once, untimed and *before* tracing starts,
    so both arms measure only the analysis.  The fast arm is exactly
    what the ``figure`` and ``observations`` jobs call:
    ``figure_1/2/3/5(result)`` and ``evaluate_all(result)``, each over
    the result's zero-copy columnar database.  The reference arm boxes
    every block into the record
    :class:`~repro.perf.reference.ReferenceChainDatabase` and runs the
    same functions on it.  The digest covers every
    series' bytes and every observation verdict — the byte-identity
    contract of ``tests/test_data_columnar.py``, enforced here at the
    paper's 270-day scale.  The memory gate pins the fast arm's
    tracemalloc peak at ``memory_min_ratio`` times below the record
    arm's.
    """
    import struct as _struct

    from ..core.observations import evaluate_all
    from ..core.report import figure_1, figure_2, figure_3, figure_5
    from ..sim.engine import ForkSimConfig, run_fork_sim

    config = ForkSimConfig(
        days=days,
        prefork_days=prefork_days,
        seed=seed,
        with_transactions=True,
    )
    result = run_fork_sim(config)
    blocks = len(result.eth_trace.numbers) + len(result.etc_trace.numbers)
    generators = {1: figure_1, 2: figure_2, 3: figure_3, 5: figure_5}

    def fast():
        figures = {n: make(result) for n, make in generators.items()}
        return figures, evaluate_all(result)

    def reference():
        database = reference_database(result)
        figures = {
            n: make(result, db=database) for n, make in generators.items()
        }
        return figures, evaluate_all(result, db=database)

    def measure(value) -> Tuple[int, str]:
        figures, observations = value
        hasher = hashlib.sha256()
        for number in sorted(figures):
            figure = figures[number]
            hasher.update(str(number).encode())
            for key, series in figure.series.items():
                hasher.update(key.encode("utf-8"))
                hasher.update(
                    _struct.pack(
                        f"<{len(series.timestamps)}d", *series.timestamps
                    )
                )
                hasher.update(
                    _struct.pack(f"<{len(series.values)}d", *series.values)
                )
        for observation in observations:
            blob = json.dumps(
                {
                    "number": observation.number,
                    "claim": observation.claim,
                    "holds": observation.holds,
                    "details": observation.details,
                },
                sort_keys=True,
                default=repr,
            )
            hasher.update(blob.encode("utf-8"))
        return blocks, hasher.hexdigest()

    return _case_row(
        name,
        {"days": days, "with_transactions": True, "seed": seed},
        "blocks",
        fast,
        reference,
        measure,
        repeats,
        profile_dir,
        measure_memory=True,
        memory_min_ratio=memory_min_ratio,
    )


# -- event-loop cases -------------------------------------------------------


def _eventloop_chain_case(
    ticks: int, repeats: int, profile_dir: Optional[Path]
) -> Dict[str, Any]:
    """Pure simulator microbench: four interleaved periodic timers.

    No network, no RNG — isolates the ``run_until`` hot loop from
    everything else.  The digest covers the full firing order, so a
    heap-discipline regression cannot hide behind a fast wall time.
    """
    from ..net.simulator import Simulator

    def run(sim_cls):
        def thunk():
            sim = sim_cls()
            fired: List[int] = []
            append = fired.append
            # ``schedule`` binds once per run: the case measures the
            # engine, not repeated attribute lookups in the harness
            # closure.
            schedule = sim.schedule

            def make(period: float, label: int):
                def tick() -> None:
                    append(label)
                    if sim.now < ticks:
                        schedule(period, tick)

                return tick

            for label, period in enumerate((1.0, 1.7, 2.3, 3.1)):
                sim.schedule(period, make(period, label))
            sim.run_until(float(ticks))
            return sim.events_processed, fired

        return thunk

    def measure(value) -> Tuple[int, str]:
        processed, fired = value
        hasher = hashlib.sha256()
        hasher.update(bytes(fired))
        hasher.update(str(processed).encode())
        return processed, hasher.hexdigest()

    return _case_row(
        "eventloop_chain",
        {"ticks": ticks, "timers": 4},
        "events",
        run(Simulator),
        run(ReferenceSimulator),
        measure,
        repeats,
        profile_dir,
    )


def _partition_digest(result) -> str:
    payload = {
        "fork_time": result.fork_time,
        "handshake_refusals": result.handshake_refusals,
        "incompatible_disconnects": result.incompatible_disconnects,
        "snapshots": [
            [
                snapshot.time,
                snapshot.eth_height,
                snapshot.etc_height,
                snapshot.eth_reachable,
                snapshot.etc_reachable,
                snapshot.eth_mean_peers,
                snapshot.etc_mean_peers,
            ]
            for snapshot in result.snapshots
        ],
        "robustness": (
            result.robustness.to_dict() if result.robustness else None
        ),
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _scenario_case(
    name: str,
    config,
    params: Dict[str, Any],
    repeats: int,
    profile_dir: Optional[Path],
) -> Dict[str, Any]:
    from ..scenarios.partition_event import PartitionScenario
    from .reference import ReferencePartitionScenario

    def run(scenario_cls):
        def thunk():
            scenario = scenario_cls(config)
            result = scenario.run()
            return result, scenario.events_processed

        return thunk

    def measure(value) -> Tuple[int, str]:
        result, events = value
        return events, _partition_digest(result)

    return _case_row(
        name,
        params,
        "events",
        run(PartitionScenario),
        run(ReferencePartitionScenario),
        measure,
        repeats,
        profile_dir,
    )


def _partition_case(
    smoke: bool, seed: int, repeats: int, profile_dir: Optional[Path]
) -> Dict[str, Any]:
    from ..scenarios.partition_event import PartitionScenarioConfig

    if smoke:
        params = {"num_nodes": 16, "num_miners": 5, "horizon": 900.0}
    else:
        params = {"num_nodes": 40, "num_miners": 12, "horizon": 7200.0}
    config = PartitionScenarioConfig(
        num_nodes=params["num_nodes"],
        num_miners=params["num_miners"],
        post_fork_horizon=params["horizon"],
        seed=seed,
    )
    return _scenario_case(
        "partition", config, dict(params, seed=seed), repeats, profile_dir
    )


def _chaos_case(
    smoke: bool, seed: int, repeats: int, profile_dir: Optional[Path]
) -> Dict[str, Any]:
    from ..harness.faultsweep import FaultSweepConfig

    if smoke:
        params = {
            "num_nodes": 14,
            "num_miners": 4,
            "horizon": 400.0,
            "churn": 0.005,
            "loss": 0.08,
            "split": 120.0,
        }
    else:
        params = {
            "num_nodes": 30,
            "num_miners": 8,
            "horizon": 1800.0,
            "churn": 0.005,
            "loss": 0.08,
            "split": 300.0,
        }
    sweep = FaultSweepConfig(
        num_nodes=params["num_nodes"],
        num_miners=params["num_miners"],
        post_fork_horizon=params["horizon"],
        seed=seed,
    )
    config = sweep.cell_config(
        params["churn"], params["loss"], params["split"]
    )
    return _scenario_case(
        "chaos_partition",
        config,
        dict(params, seed=seed),
        repeats,
        profile_dir,
    )


# -- report assembly --------------------------------------------------------


def _build_case(
    case: str,
    smoke: bool,
    seed: int,
    repeats: int,
    profile_dir: Optional[Path],
) -> Dict[str, Any]:
    # Smoke mines a 1-day pre-fork prefix instead of 7 (about 6k blocks
    # instead of 43k), which shortens its tracemalloc passes; full runs
    # keep 7, so no committed figure moves.
    prefork_days = 1 if smoke else 7
    if case == "forksim_difficulty":
        return _forksim_case(
            case, 8 if smoke else 270, prefork_days, False, seed, repeats,
            profile_dir,
        )
    if case == "forksim_workload":
        return _forksim_case(
            case, 4 if smoke else 60, prefork_days, True, seed, repeats,
            profile_dir,
        )
    if case == "forksim_analysis":
        # Full mode runs the paper's 270-day horizon and enforces a
        # >=5x peak-memory advantage for the columnar backend; smoke
        # shrinks the horizon (the boxing overhead shrinks with it, so
        # the gate loosens to 3x).
        return _forksim_analysis_case(
            case,
            8 if smoke else 270,
            prefork_days,
            seed,
            repeats,
            profile_dir,
            memory_min_ratio=3.0 if smoke else 5.0,
        )
    if case == "eventloop_chain":
        return _eventloop_chain_case(
            5_000 if smoke else 150_000, repeats, profile_dir
        )
    if case == "partition":
        return _partition_case(smoke, seed, repeats, profile_dir)
    if case == "chaos_partition":
        return _chaos_case(smoke, seed, repeats, profile_dir)
    raise ValueError(f"unknown bench case {case!r}")


def _host_info() -> Dict[str, str]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def _render_report(payload: Dict[str, Any]) -> str:
    lines = [
        f"bench report: {payload['name']}  ({payload['created']})",
        f"{'case':<22} {'work':>10} {'fast s':>9} {'ref s':>9} "
        f"{'speedup':>8} {'digests':>8}",
    ]
    for row in payload["cases"]:
        line = (
            f"{row['case']:<22} {row['fast']['work']:>10} "
            f"{row['fast']['seconds']:>9.3f} "
            f"{row['reference']['seconds']:>9.3f} "
            f"{row['speedup']:>7.2f}x "
            f"{'match' if row['digests_match'] else 'DIVERGE':>8}"
        )
        if "memory_ratio" in row:
            line += (
                f"  mem {row['memory_ratio']:.2f}x"
                f"{' ok' if row.get('memory_ok', True) else ' REGRESSION'}"
            )
        lines.append(line)
    return "\n".join(lines) + "\n"


def validate_report(payload: Dict[str, Any]) -> List[str]:
    """Schema check for a ``BENCH_*.json`` payload; returns problems.

    Used by the CI smoke job and the tests — a report that drops a
    field or changes a type fails loudly instead of silently degrading
    the regression gate.
    """
    problems: List[str] = []
    if payload.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema must be {BENCH_SCHEMA!r}")
    for key in ("name", "created", "host", "cases"):
        if key not in payload:
            problems.append(f"missing top-level key {key!r}")
    if not isinstance(payload.get("cases"), list) or not payload.get("cases"):
        problems.append("cases must be a non-empty list")
        return problems
    for row in payload["cases"]:
        label = row.get("case", "<unnamed>")
        for key in ("case", "params", "fast", "reference", "speedup",
                    "digests_match"):
            if key not in row:
                problems.append(f"case {label}: missing key {key!r}")
        for arm_name in ("fast", "reference"):
            arm = row.get(arm_name, {})
            for key in ("seconds", "work", "work_unit", "rate", "digest"):
                if key not in arm:
                    problems.append(
                        f"case {label}: {arm_name} arm missing {key!r}"
                    )
            if not isinstance(arm.get("digest"), str) or not arm.get("digest"):
                problems.append(f"case {label}: {arm_name} digest invalid")
        if not isinstance(row.get("digests_match"), bool):
            problems.append(f"case {label}: digests_match must be a bool")
        # Both arms run the same workload, so they must do the same
        # work: a lost or extra event could otherwise hide behind a
        # matching end-state digest.
        fast_work = row.get("fast", {}).get("work")
        reference_work = row.get("reference", {}).get("work")
        if fast_work != reference_work:
            problems.append(
                f"case {label}: fast work {fast_work!r} != "
                f"reference work {reference_work!r}"
            )
        has_memory = (
            "memory_ratio" in row
            or "memory_ok" in row
            or any(
                "peak_bytes" in row.get(arm, {})
                for arm in ("fast", "reference")
            )
        )
        if payload.get("name") == "forksim" and not has_memory:
            problems.append(
                f"case {label}: forksim cases must carry memory accounting"
            )
        if has_memory:
            for arm_name in ("fast", "reference"):
                peak = row.get(arm_name, {}).get("peak_bytes")
                if not isinstance(peak, int) or peak < 0:
                    problems.append(
                        f"case {label}: {arm_name} peak_bytes invalid"
                    )
            if not isinstance(row.get("memory_ratio"), (int, float)):
                problems.append(
                    f"case {label}: memory_ratio must be a number"
                )
            if not isinstance(row.get("memory_ok"), bool):
                problems.append(f"case {label}: memory_ok must be a bool")
    return problems


def run_bench(
    smoke: bool = False,
    seed: int = 2016_07_20,
    repeats: Optional[int] = None,
    only: Optional[Sequence[str]] = None,
    out_dir: str = ".",
    report_dir: Optional[str] = "benchmarks/output",
    profile: bool = False,
    echo: Callable[[str], None] = lambda line: print(line, file=sys.stderr),
) -> Tuple[List[Path], bool]:
    """Run every selected case and write the ``BENCH_*.json`` reports.

    Returns the written paths and whether every case's fast/reference
    digests matched.  ``report_dir`` additionally gets a rendered text
    table per report (None skips it).  ``profile`` re-runs each case's
    fast arm once under :mod:`cProfile` (outside the timed region) and
    writes ``profile_<case>.txt`` next to the text reports.
    """
    if repeats is None:
        repeats = 1 if smoke else 3
    selected = {name: cases for name, cases in _REPORTS.items()
                if not only or name in only}
    if not selected:
        raise ValueError(
            f"--only must name reports from {sorted(_REPORTS)}, got {only}"
        )
    created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    profile_dir = None
    if profile:
        profile_dir = Path(report_dir or "benchmarks/output")
    return _run_bench_selected(
        selected, smoke, seed, repeats, created, out_dir, report_dir,
        profile_dir, echo,
    )


def _run_bench_selected(
    selected: Dict[str, Sequence[str]],
    smoke: bool,
    seed: int,
    repeats: int,
    created: str,
    out_dir: str,
    report_dir: Optional[str],
    profile_dir: Optional[Path],
    echo: Callable[[str], None],
) -> Tuple[List[Path], bool]:
    paths: List[Path] = []
    all_match = True
    for name, case_names in selected.items():
        rows = []
        for case in case_names:
            echo(f"bench: {name}/{case} "
                 f"({'smoke' if smoke else 'full'}, repeats={repeats})...")
            row = _build_case(case, smoke, seed, repeats, profile_dir)
            echo(
                f"bench: {name}/{case}: fast {row['fast']['seconds']:.3f}s "
                f"vs reference {row['reference']['seconds']:.3f}s "
                f"({row['speedup']:.2f}x, digests "
                f"{'match' if row['digests_match'] else 'DIVERGE'})"
            )
            if "memory_ratio" in row:
                echo(
                    f"bench: {name}/{case}: tracemalloc peak "
                    f"{row['fast']['peak_bytes']:,}B fast vs "
                    f"{row['reference']['peak_bytes']:,}B reference "
                    f"({row['memory_ratio']:.2f}x, "
                    f"{'ok' if row['memory_ok'] else 'MEMORY REGRESSION'})"
                )
            rows.append(row)
            all_match = (
                all_match
                and row["digests_match"]
                and row.get("memory_ok", True)
            )
            if profile_dir is not None:
                paths.append(profile_dir / f"profile_{case}.txt")
        payload = {
            "schema": BENCH_SCHEMA,
            "name": name,
            "created": created,
            "smoke": smoke,
            "host": _host_info(),
            "cases": rows,
        }
        problems = validate_report(payload)
        if problems:  # pragma: no cover - guards harness bugs
            raise RuntimeError(f"malformed bench report: {problems}")
        out = Path(out_dir) / f"BENCH_{name}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        paths.append(out)
        if report_dir is not None:
            report = Path(report_dir) / f"bench_{name}.txt"
            report.parent.mkdir(parents=True, exist_ok=True)
            report.write_text(_render_report(payload))
            paths.append(report)
    return paths, all_match


# -- CLI --------------------------------------------------------------------


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``bench`` options (shared by ``python -m repro bench``
    and ``benchmarks/bench.py``)."""
    parser.add_argument("--smoke", action="store_true",
                        help="tiny horizons for CI: exercises both arms "
                             "and the digest gate in seconds (timings "
                             "are not meaningful)")
    parser.add_argument("--seed", type=int, default=2016_07_20)
    parser.add_argument("--repeats", type=int, default=None,
                        help="runs per arm, best wall time kept "
                             "(default: 3, or 1 with --smoke)")
    parser.add_argument("--only", type=str, nargs="+", default=None,
                        choices=sorted(_REPORTS),
                        help="restrict to these reports")
    parser.add_argument("--out-dir", type=str, default=".",
                        help="where BENCH_<name>.json land (default: "
                             "repo root, where they are committed)")
    parser.add_argument("--report-dir", type=str,
                        default="benchmarks/output",
                        help="rendered text tables (use '' to skip)")
    parser.add_argument("--profile", action="store_true",
                        help="additionally cProfile each case's fast arm "
                             "(one extra untimed run) and write "
                             "profile_<case>.txt next to the text reports")


def bench_from_args(args: argparse.Namespace) -> int:
    if args.repeats is not None and args.repeats < 1:
        print("error: --repeats must be >= 1", file=sys.stderr)
        return 2
    try:
        paths, all_match = run_bench(
            smoke=args.smoke,
            seed=args.seed,
            repeats=args.repeats,
            only=args.only,
            out_dir=args.out_dir,
            report_dir=args.report_dir or None,
            profile=getattr(args, "profile", False),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(f"wrote {path}")
    if not all_match:
        print("error: fast/reference digests diverged or a memory gate "
              "failed — the kernels changed the trajectory or lost "
              "their footprint advantage", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Performance-kernel benchmark and regression gate",
    )
    add_bench_arguments(parser)
    return bench_from_args(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

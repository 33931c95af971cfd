"""One workload run in a fresh interpreter: the process ``run.py`` times.

``run.py`` spawns this script once per repeat, so each sample covers
what a user pays for: interpreter start, ``repro`` imports, set-up, the
work itself and interpreter teardown.  The request arrives as a single
JSON argument.  The report goes to the file the request names.  It
holds the monotonic time of the first call into the workload's entry
point and of its return, the result digest, the work count and the
counts below.  In a traced run it also holds spans.

Modes:

* ``run``: the measured run.  Only :class:`Probe` is installed.  It
  keeps references to the objects the workload creates and adds no
  timer.
* ``trace``: the same run with the :mod:`spans` shim and the count
  observers installed as well.

Nothing here imports ``repro`` at module level, because ``run.py``
imports this module for its tables.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

DEFAULT_SEED = 20160720

#: Workload sizes.  ``default`` fits the runs BENCHMARK.json implies
#: into its time budget; ``smoke`` is for the self-test.  Run-all's
#: 12 days sit between two steps in the number of full garbage
#: collections its unpickling triggers: at 12 days every one of 25 seeds
#: tried takes seven in a warm run, while at 10 days half take six and
#: half seven, 12% apart in wall time, so the seed rather than the
#: program would set the spread.
SIZES: Dict[str, Dict[str, Any]] = {
    "default": {
        "runall_days": 12,
        "forksim_days": 90,
        "forksim_chunk_days": 15,
        "partition_nodes": 400,
        "partition_miners": 48,
        "partition_degree": 10,
        "partition_horizon": 1800.0,
    },
    "smoke": {
        "runall_days": 8,
        "forksim_days": 8,
        "forksim_chunk_days": 2,
        "partition_nodes": 16,
        "partition_miners": 5,
        "partition_degree": 8,
        "partition_horizon": 900.0,
    },
}

RUNALL_ARTIFACTS = tuple(
    f"figure{n}.{ext}" for n in range(1, 6) for ext in ("txt", "csv")
) + ("observations.txt",)

#: Counts :class:`Probe` keeps in every run.
PROBE_COUNTS = (
    "sim.blocks",
    "net.events",
    "net.messages.sent",
    "net.messages.lost",
    "net.messages.undeliverable",
    "net.messages.blocked",
)
#: Counts only a traced run keeps (see :func:`_observers`).  Every count
#: must repeat exactly between traced runs.
TRACE_COUNTS = (
    "echoes.records",
    "harness.cache.hits",
    "harness.cache.misses",
    "harness.cache.bytes_read",
    "harness.cache.bytes_written",
    "harness.pool.jobs",
)


def _sha256_json(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def partition_digest(result) -> str:
    """Fingerprint of a :class:`PartitionResult`: every census row and
    the fork outcome.  Floats go through ``repr``, which round-trips."""
    return _sha256_json(
        {
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
        }
    )


# --------------------------------------------------------------------------
# workloads: each builds its inputs (set-up) and returns the entry point
# plus a ``finish`` that digests the outcome after the timed call


Workload = Tuple[Callable[[], Any], Callable[[Any], Dict[str, Any]]]


def _runall(request: Dict[str, Any], size: Dict[str, Any]) -> Workload:
    import repro.harness  # noqa: F401  run-all imports it lazily; pay it in set-up
    from repro.__main__ import main

    out_dir = Path(request["out_dir"])
    argv = [
        "run-all",
        "--days", str(size["runall_days"]),
        "--seed", str(request["seed"]),
        "--jobs", "1",
        "--cache-dir", request["cache_dir"],
        "--output-dir", str(out_dir),
    ]

    def entry() -> None:
        code = main(argv)
        if code != 0:
            raise RuntimeError(f"run-all exited with {code}")

    def finish(_: Any) -> Dict[str, Any]:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        failed = [job["label"] for job in manifest["jobs"] if job["status"] != "ok"]
        if failed:
            raise RuntimeError(f"run-all jobs failed: {failed}")
        if request["workload"] == "runall_warm" and manifest["cache_misses"]:
            raise RuntimeError(
                f"warm run missed the cache {manifest['cache_misses']} times"
            )
        files = {name: _sha256_file(out_dir / name) for name in RUNALL_ARTIFACTS}
        return {"digest": _sha256_json(files), "files": files}

    return entry, finish


def _forksim_config(request: Dict[str, Any], size: Dict[str, Any]):
    from repro.sim.engine import ForkSimConfig

    return ForkSimConfig(
        days=size["forksim_days"], prefork_days=7, seed=request["seed"]
    )


def _forksim_chunked(request: Dict[str, Any], size: Dict[str, Any]) -> Workload:
    from repro.harness.jobs import simulate_chunk_spec
    from repro.harness.pool import WorkerPool

    config = _forksim_config(request, size)
    chunk = size["forksim_chunk_days"]
    if config.days % chunk:
        raise ValueError("forksim_days must be a multiple of forksim_chunk_days")
    specs = [
        simulate_chunk_spec(config, upto, chunk)
        for upto in range(chunk, config.days + 1, chunk)
    ]

    def entry() -> Dict[str, Any]:
        # One pool.run per chunk: each is its own stage, as in
        # ``run-all --horizon-chunk-days``.
        pool = WorkerPool(workers=1, cache_dir=request["cache_dir"])
        for spec in specs:
            [result] = pool.run([spec])
            if result.record.status != "ok":
                raise RuntimeError(f"{spec.label}: {result.record.error}")
        return result.value

    def finish(value: Dict[str, Any]) -> Dict[str, Any]:
        return {"digest": value["digest"]}

    return entry, finish


def _forksim_single(request: Dict[str, Any], size: Dict[str, Any]) -> Workload:
    """The single-shot ``simulate`` job the chunked digest must equal."""
    from repro.harness.cache import NullCache
    from repro.harness.jobs import execute_job, simulate_spec

    spec = simulate_spec(_forksim_config(request, size))

    def entry():
        return execute_job(spec, NullCache()).value

    def finish(result) -> Dict[str, Any]:
        return {"digest": result.digest()}

    return entry, finish


def _partition(request: Dict[str, Any], size: Dict[str, Any]) -> Workload:
    from repro.harness.cache import NullCache
    from repro.harness.jobs import execute_job, partition_spec
    from repro.scenarios.partition_event import PartitionScenarioConfig

    spec = partition_spec(
        PartitionScenarioConfig(
            num_nodes=size["partition_nodes"],
            num_miners=size["partition_miners"],
            target_degree=size["partition_degree"],
            post_fork_horizon=size["partition_horizon"],
            seed=request["seed"],
        )
    )

    def entry():
        return execute_job(spec, NullCache()).value

    def finish(result) -> Dict[str, Any]:
        return {"digest": partition_digest(result)}

    return entry, finish


def _warmup(request: Dict[str, Any], size: Dict[str, Any]) -> Workload:
    """Import everything and do nothing, so bytecode compilation never
    lands in a measured set-up time."""
    import repro.__main__  # noqa: F401
    import repro.harness  # noqa: F401
    import spans  # noqa: F401

    return (lambda: None), (lambda _: {"digest": None})


WORKLOADS = {
    "warmup": _warmup,
    "runall_cold": _runall,
    "runall_warm": _runall,
    "forksim_chunked": _forksim_chunked,
    "forksim_single": _forksim_single,
    "partition_400": _partition,
}


# --------------------------------------------------------------------------
# what the run did, recorded without timers


class Probe:
    """Counts what the run did without timing it.

    It keeps the block count of the last fork-sim result, and it sums
    the event and message counters of every simulator and network that
    a partition scenario builds, as that scenario returns.  Then it drops
    them, so nothing outlives the scenario.  The measured path gains one
    extra call per object.
    """

    def __init__(self) -> None:
        self.totals = dict.fromkeys(PROBE_COUNTS, 0)
        self._simulators: list = []
        self._networks: list = []

    def install(self) -> None:
        from repro.net.network import Network
        from repro.net.simulator import Simulator
        from repro.scenarios.partition_event import PartitionScenario
        from repro.sim.engine import ForkSimulation

        fork_run = ForkSimulation.run
        scenario_run = PartitionScenario.run

        def counted_fork_run(simulation, *args, **kwargs):
            result = fork_run(simulation, *args, **kwargs)
            self.totals["sim.blocks"] = len(result.eth_trace) + len(result.etc_trace)
            return result

        def counted_scenario_run(scenario):
            try:
                return scenario_run(scenario)
            finally:
                self._harvest()

        ForkSimulation.run = counted_fork_run
        PartitionScenario.run = counted_scenario_run
        for cls, instances in ((Simulator, self._simulators), (Network, self._networks)):
            cls.__init__ = _recording_init(cls.__init__, instances)

    def _harvest(self) -> None:
        totals = self.totals
        for simulator in self._simulators:
            totals["net.events"] += simulator.events_processed
        for network in self._networks:
            for kind in ("sent", "lost", "undeliverable", "blocked"):
                totals[f"net.messages.{kind}"] += getattr(network, f"messages_{kind}")
        self._simulators.clear()
        self._networks.clear()


def _recording_init(init, instances: list):
    def recording_init(obj, *args, **kwargs):
        init(obj, *args, **kwargs)
        instances.append(obj)

    return recording_init


def _observers(counts: Dict[str, int]) -> Dict[str, Callable[[tuple, Any], None]]:
    """Count hooks for the traced run, keyed by :data:`spans.LAYER_SPANS`
    attribute path; each sees the call's positional arguments and result."""

    def lookup(args, result) -> None:
        cache, key = args[0], args[1]
        if result[0]:
            counts["harness.cache.hits"] += 1
            counts["harness.cache.bytes_read"] += os.path.getsize(cache.path_for(key))
        else:
            counts["harness.cache.misses"] += 1

    def store(args, result) -> None:
        cache, key = args[0], args[1]
        if cache.root is not None:
            counts["harness.cache.bytes_written"] += os.path.getsize(
                cache.path_for(key)
            )

    def generate(args, result) -> None:
        counts["echoes.records"] += len(result[0])

    def pool_run(args, result) -> None:
        counts["harness.pool.jobs"] += len(result)

    return {
        "ResultCache.lookup": lookup,
        "NullCache.lookup": lookup,
        "ResultCache.store": store,
        "ReplayWorkload.generate": generate,
        "WorkerPool.run": pool_run,
    }


def main(argv) -> int:
    request = json.loads(argv[1])
    entry, finish = WORKLOADS[request["workload"]](request, SIZES[request["size"]])
    probe = Probe()
    probe.install()
    recorder = None
    counts = dict.fromkeys(TRACE_COUNTS, 0)
    if request["mode"] == "trace":
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install(_observers(counts))

    entered = time.monotonic()
    value = entry()
    returned = time.monotonic()

    report = finish(value)
    counts.update(probe.totals)
    report.update(entered=entered, returned=returned, counts=counts)
    if recorder is not None:
        report["spans"] = [
            [name, parent, start - entered, end - entered]
            for name, parent, start, end in recorder.spans
        ]
    Path(request["report"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""repro.harness — parallel experiment orchestration.

The subsystem that turns "call ``ForkSimulation(...).run()`` everywhere"
into declarative, cacheable, parallel experiment jobs:

* :mod:`~repro.harness.jobs` — frozen :class:`JobSpec`\\ s (kind +
  canonical params + seed), the runner registry, and cache-through
  execution (:func:`execute_job`).
* :mod:`~repro.harness.cache` — content-addressed pickle cache keyed by
  the spec's canonical-JSON SHA-256.
* :mod:`~repro.harness.pool` — a :class:`WorkerPool` of OS processes
  with per-job timeouts, bounded fresh-worker retries, and a serial
  in-process fallback.
* :mod:`~repro.harness.manifest` — per-invocation JSON run manifests
  (specs, keys, wall times, cache hits/misses, failures).
* :mod:`~repro.harness.progress` — stderr narration for CLI runs.
* :mod:`~repro.harness.ledger` — the durable WAL-SQLite **sweep
  ledger**: per-chunk leases, retries, quarantine and each finished
  chunk's summary, shared safely by concurrent processes.
* :mod:`~repro.harness.sweeprun` — chunked, resumable sweep execution
  (:class:`SweepRunner`) over content-addressed chunks, the
  :class:`CrashyPool` fault-injection rig that proves crash-anywhere
  resumability, and :func:`run_sweep`, the one sweep driver: stages
  run single-shot through the pool or chunked over the ledger, then
  one combine step writes the manifest and the artifacts.
* The three sweeps on top of it, each only stages, a per-chunk
  summary and an artifact writer, each taking the
  :class:`SweepSettings` keywords and returning a
  :class:`SweepResult`: :mod:`~repro.harness.runall` (``run_all``: all
  five figures plus the observation scoreboard),
  :mod:`~repro.harness.faultsweep` (``run_fault_sweep``: the chaos
  grid) and :mod:`~repro.harness.toposweep` (``run_topology_sweep``:
  the topology families).

The load-bearing invariant: an identical config + seed produces a
bit-identical simulation whether run in-process or in a worker
(``tests/test_seed_determinism.py``), so a cache key *is* the
experiment's identity and a hit is equivalent to a re-run.
"""

from .cache import CacheStats, NullCache, PruneResult, ResultCache
from .faultsweep import (
    FaultSweepConfig,
    build_fault_grid,
    run_fault_sweep,
)
from .ledger import (
    ChunkDef,
    ChunkRow,
    ClaimedChunk,
    LedgerError,
    LedgerMismatch,
    LedgerNeedsResume,
    SweepLedger,
)
from .toposweep import (
    TopologySweepConfig,
    build_topology_grid,
    run_topology_sweep,
)
from .jobs import (
    CACHE_SCHEMA_VERSION,
    EchoBundle,
    JobOutcome,
    JobSpec,
    chaos_partition_spec,
    echoes_spec,
    execute_job,
    figure_spec,
    fork_lengths_spec,
    obs_probe_spec,
    perf_probe_spec,
    observations_spec,
    partition_spec,
    register_runner,
    topology_infer_spec,
    topology_partition_spec,
    registered_kinds,
    run_cached,
    run_job,
    simulate_chunk_spec,
    simulate_spec,
)
from .manifest import MANIFEST_SCHEMA_VERSION, JobRecord, RunManifest
from .pool import DEFAULT_TIMEOUT, JobResult, WorkerPool
from .progress import NullProgress, ProgressReporter
from .runall import DEFAULT_CACHE_DIR, build_waves, run_all
from .sweeprun import (
    EXIT_DEGRADED,
    EXIT_FAILED,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
    ChunkFailure,
    CrashyPool,
    SweepChunk,
    SweepOutcome,
    SweepResult,
    SweepRunner,
    SweepSettings,
    plan_chunks,
    run_sweep,
    sweep_digest,
    sweep_key_for,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "ChunkDef",
    "ChunkFailure",
    "ChunkRow",
    "ClaimedChunk",
    "CrashyPool",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_TIMEOUT",
    "EXIT_DEGRADED",
    "EXIT_FAILED",
    "EXIT_INTERRUPTED",
    "EXIT_OK",
    "EXIT_USAGE",
    "EchoBundle",
    "FaultSweepConfig",
    "TopologySweepConfig",
    "JobOutcome",
    "JobRecord",
    "JobResult",
    "JobSpec",
    "LedgerError",
    "LedgerMismatch",
    "LedgerNeedsResume",
    "MANIFEST_SCHEMA_VERSION",
    "NullCache",
    "NullProgress",
    "ProgressReporter",
    "PruneResult",
    "ResultCache",
    "RunManifest",
    "SweepChunk",
    "SweepLedger",
    "SweepOutcome",
    "SweepResult",
    "SweepRunner",
    "SweepSettings",
    "WorkerPool",
    "build_fault_grid",
    "build_topology_grid",
    "build_waves",
    "chaos_partition_spec",
    "echoes_spec",
    "execute_job",
    "figure_spec",
    "fork_lengths_spec",
    "obs_probe_spec",
    "perf_probe_spec",
    "observations_spec",
    "partition_spec",
    "plan_chunks",
    "register_runner",
    "registered_kinds",
    "run_all",
    "run_cached",
    "run_fault_sweep",
    "run_topology_sweep",
    "run_job",
    "run_sweep",
    "simulate_chunk_spec",
    "simulate_spec",
    "topology_partition_spec",
    "topology_infer_spec",
    "sweep_digest",
    "sweep_key_for",
]

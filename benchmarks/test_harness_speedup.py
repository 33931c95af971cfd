"""Experiment harness — cold vs. warm ``run-all`` wall time.

The harness's pitch is that the *second* run of any experiment set is a
cache lookup, not a recomputation.  This micro-benchmark measures it
directly: one ``run_all`` pass against an empty cache (every job a
miss), then the identical pass again (every job a hit), and records
both wall times plus the speedup to ``benchmarks/output/harness.txt``.

A short horizon keeps the cold pass in benchmark territory rather than
minutes; the speedup ratio is what matters, and it grows with horizon
(the warm cost is a few pickle loads regardless of ``--days``).
"""

import shutil
import tempfile
import time
from pathlib import Path

from repro.harness import run_all
from repro.scenarios.partition_event import PartitionScenarioConfig

DAYS = 4
QUICK_PARTITION = PartitionScenarioConfig(
    num_nodes=20, num_miners=6, post_fork_horizon=1800.0
)


def timed_run_all(cache_dir, output_dir):
    start = time.perf_counter()
    manifest = run_all(
        days=DAYS,
        prefork_days=3,
        jobs=1,
        cache_dir=cache_dir,
        output_dir=output_dir,
        timeout=600.0,
        partition_config=QUICK_PARTITION,
    ).manifest
    return time.perf_counter() - start, manifest


def test_warm_cache_speedup(output_dir):
    scratch = Path(tempfile.mkdtemp(prefix="repro-harness-bench-"))
    try:
        cache_dir = scratch / "cache"
        out = scratch / "out"
        cold_seconds, cold = timed_run_all(cache_dir, out)
        warm_seconds, warm = timed_run_all(cache_dir, out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    assert not cold.failures and not warm.failures
    assert cold.cache_hits == 0
    assert warm.cache_misses == 0

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    text = "\n".join(
        [
            "=== harness: cold vs. warm run-all "
            f"({DAYS} simulated days, serial) ===",
            f"cold run-all: {cold_seconds:8.2f} s   "
            f"({cold.cache_misses} jobs computed)",
            f"warm run-all: {warm_seconds:8.2f} s   "
            f"({warm.cache_hits} jobs served from cache)",
            f"speedup:      {speedup:8.1f} x",
        ]
    )
    (output_dir / "harness.txt").write_text(text + "\n")
    print()
    print(text)

    # The acceptance bar for the full CLI path is 5x; leave headroom for
    # noisy CI boxes at this tiny horizon.
    assert warm_seconds < cold_seconds
    assert speedup >= 3.0

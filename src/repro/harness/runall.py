"""``run-all``: every figure plus the scoreboard in one parallel pass.

The dependency graph of the paper's artifacts is shallow but real:

    simulate ──┬── figure 1, 2, 3, 5
               ├── echoes ──── figure 4
               └──────────┬─── observations ─── (also needs partition)
    partition ────────────┘

so the orchestrator runs three waves through one :class:`WorkerPool`:
the two expensive roots first (simulation + partition scenario, in
parallel), then the echo workload (which loads the now-cached sim),
then all five figures and the observation scoreboard fanned out — each
a cheap cache-load plus analysis.  With a warm cache every wave is pure
cache hits and the whole pass is a few pickle loads.

Artifacts land in ``output_dir`` (``figureN.txt``/``.csv`` and
``observations.txt``); the run manifest (JSON) records every job's
cache key, hit/miss, wall time, and attempts.  The waves run through
the shared sweep driver (:func:`~repro.harness.sweeprun.run_sweep`),
single-shot or chunked over the sweep ledger.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..scenarios.partition_event import PartitionScenarioConfig
from ..sim.engine import ForkSimConfig
from .jobs import (
    JobSpec,
    echoes_spec,
    figure_spec,
    observations_spec,
    partition_spec,
    simulate_chunk_spec,
    simulate_spec,
)
from .cache import ResultCache
from .pool import JobResult
from .sweeprun import SweepResult, SweepSettings, run_sweep

__all__ = ["run_all", "build_waves", "DEFAULT_CACHE_DIR"]

DEFAULT_CACHE_DIR = ".repro-cache"


def build_waves(
    sim_config: ForkSimConfig,
    partition_config: Optional[PartitionScenarioConfig] = None,
    horizon_chunk_days: Optional[int] = None,
) -> List[List[JobSpec]]:
    """The three dependency waves described in the module docstring.

    With ``horizon_chunk_days`` set, the single ``simulate`` root is
    replaced by a chain of ``simulate-chunk`` jobs covering day ranges
    ``[0, k), [0, 2k), ...`` — each wave boundary is a barrier, so every
    chunk sees its predecessor's checkpoint already cached.  The first
    chunk shares its wave with the partition scenario (they are
    independent); the final chunk publishes the full simulation under
    the plain ``simulate`` cache key, so the downstream waves are
    identical either way.
    """
    partition_config = partition_config or PartitionScenarioConfig()
    tail = [
        [echoes_spec(sim_config)],
        [
            *[figure_spec(number, sim_config) for number in range(1, 6)],
            observations_spec(sim_config, partition_config),
        ],
    ]
    if horizon_chunk_days is None:
        return [
            [simulate_spec(sim_config), partition_spec(partition_config)],
            *tail,
        ]
    if horizon_chunk_days < 1:
        raise ValueError("horizon_chunk_days must be >= 1")
    uptos = list(
        range(horizon_chunk_days, sim_config.days, horizon_chunk_days)
    )
    if not uptos or uptos[-1] != sim_config.days:
        uptos.append(sim_config.days)
    chunk_specs = [
        simulate_chunk_spec(sim_config, upto, horizon_chunk_days)
        for upto in uptos
    ]
    return [
        [chunk_specs[0], partition_spec(partition_config)],
        *[[spec] for spec in chunk_specs[1:]],
        *tail,
    ]


def _write_value_artifacts(
    output_dir: Path, label: str, value: Any, sample_days: int
) -> List[str]:
    """Write the output files (if any) for one finished job's value.

    Figures produce ``figureN.txt``/``.csv``; the observation scoreboard
    produces ``observations.txt``; the root jobs (simulate, partition,
    echoes) only warm the cache and write nothing.  Returns the paths
    written, for the manifest's ``outputs`` list.
    """
    if label.startswith("figure-"):
        number = label.split("-", 1)[1]
        text_path = output_dir / f"figure{number}.txt"
        csv_path = output_dir / f"figure{number}.csv"
        text_path.write_text(value.render(sample_days=sample_days) + "\n")
        value.write_csv(csv_path)
        return [str(text_path), str(csv_path)]
    if label == "observations":
        scoreboard = "\n".join(obs.render() for obs in value)
        obs_path = output_dir / "observations.txt"
        obs_path.write_text(scoreboard + "\n")
        return [str(obs_path)]
    return []


def run_all(
    days: int = 150,
    seed: int = 2016_07_20,
    prefork_days: int = 7,
    *,
    sample_days: int = 7,
    partition_config: Optional[PartitionScenarioConfig] = None,
    cache_max_bytes: Optional[int] = None,
    horizon_chunk_days: Optional[int] = None,
    **settings: Any,
) -> SweepResult:
    """Produce all five figures and the scoreboard.

    ``settings`` are the :class:`~repro.harness.sweeprun.SweepSettings`
    keywords (``jobs``, ``cache_dir``, ``output_dir``, ``chunk_size``,
    ...).  ``cache_dir=None`` disables caching entirely (the
    ``--no-cache`` path).  ``cache_max_bytes`` bounds the cache once the
    run has written its artifacts: oldest entries are evicted (LRU by
    mtime) until the total fits.

    ``chunk_size`` runs the waves through the sweep ledger (default
    ``<output_dir>/run-all-ledger``), one ledger *stage* per wave, so no
    figure chunk can be claimed before every root-wave chunk is
    ``done``.  Figure/observation files are written as each chunk (or,
    single-shot, each wave) finishes; on ``resume`` the done chunks'
    files are already on disk.  ``horizon_chunk_days`` additionally
    splits the simulation root *within* its horizon into checkpointed
    ``simulate-chunk`` stages, so a killed run resumes from the last
    finished day range, byte-identically (the resume-digest contract of
    :class:`~repro.sim.checkpoint.ForkSimCheckpoint`).  It needs the
    ledger and a cache: chunks hand checkpoints on through it.
    """
    settings = SweepSettings(**settings)
    cache_dir = settings.cache_dir
    if horizon_chunk_days is not None:
        if settings.chunk_size is None:
            raise ValueError(
                "horizon_chunk_days requires chunk_size; simulate chunks "
                "ride on the sweep ledger"
            )
        if cache_dir is None:
            raise ValueError(
                "horizon_chunk_days requires a result cache; simulate "
                "chunks chain their checkpoints through it"
            )
    if cache_max_bytes is not None and cache_max_bytes < 0:
        raise ValueError("cache_max_bytes must be >= 0")
    output_dir = Path(settings.output_dir)
    sim_config = ForkSimConfig(days=days, prefork_days=prefork_days, seed=seed)
    salt = {
        "sweep": "run-all",
        "sim": asdict(sim_config),
        "partition": asdict(partition_config or PartitionScenarioConfig()),
    }
    command = f"run-all --days {days} --seed {seed} --jobs {settings.jobs}"
    if horizon_chunk_days is not None:
        salt["horizon_chunk_days"] = horizon_chunk_days
        command += f" --horizon-chunk-days {horizon_chunk_days}"

    def summarize(results: List[JobResult]) -> Dict[str, Any]:
        outputs: List[str] = []
        for result in results:
            outputs.extend(
                _write_value_artifacts(
                    output_dir, result.spec.label, result.value, sample_days
                )
            )
        return {"outputs": outputs}

    def write_artifacts(summaries, extra):
        return [path for s in summaries for path in s["outputs"]], None

    result = run_sweep(
        build_waves(sim_config, partition_config, horizon_chunk_days),
        summarize,
        write_artifacts,
        settings,
        command=command,
        manifest_name="manifest.json",
        ledger_name="run-all-ledger",
        salt=salt,
    )
    if (
        result.manifest is not None
        and cache_dir is not None
        and cache_max_bytes is not None
    ):
        pruned = ResultCache(cache_dir).prune(cache_max_bytes)
        if pruned.evicted and settings.progress is not None:
            settings.progress.note(
                f"cache pruned: evicted {pruned.evicted} entries "
                f"({pruned.bytes_evicted} bytes), "
                f"{pruned.remaining_bytes} bytes remain"
            )
    return result

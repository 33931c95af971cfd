"""``fault-sweep``: a grid of chaos runs through the worker pool.

The robustness question is parametric: *how much* churn, loss, and
partition can the P2P layer absorb before recovery stops happening?  The
sweep answers it with a grid over three axes —

* **churn rate** (crash/restart events per simulated second),
* **link loss** (extra region-wide packet loss fraction),
* **split duration** (seconds every cross-region link stays cut),

each cell one :class:`~repro.scenarios.partition_event.ChaosPartitionConfig`
run as a ``chaos-partition`` job.  Cells are independent, so the sweep
reuses the harness machinery unchanged: content-addressed caching (a cell's
fault schedule is hashed into its cache key), the process pool, and the
run manifest.  The all-zero cell is kept as the control arm.

Artifacts land in ``output_dir``:

* ``robustness.txt`` — one rendered report line per cell;
* ``robustness.csv`` — the table the analysis notebooks read;
* ``robustness.json`` — per-cell report dicts + digests, plus the
  *sweep digest* (SHA-256 over the ordered per-cell digests) that the
  CI smoke job pins: identical seed + grid ⇒ identical sweep digest.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..faults.report import RobustnessReport
from ..faults.schedule import ChurnBurst, FaultSchedule, LinkFault, SplitFault
from ..net.node import ResiliencePolicy
from ..scenarios.partition_event import ChaosPartitionConfig
from .jobs import JobSpec, chaos_partition_spec
from .pool import JobResult
from .sweeprun import (
    SweepResult,
    SweepSettings,
    run_sweep,
    write_sweep_tables,
)

__all__ = [
    "FaultSweepConfig",
    "build_fault_grid",
    "run_fault_sweep",
]

#: Pre-fork settling time hard-coded in PartitionScenario.run().
_SETTLE_SECONDS = 120.0
#: Target block interval used by the scenario's fork-time estimate.
_BLOCK_INTERVAL = 14.0


@dataclass
class FaultSweepConfig:
    """The sweep grid plus the per-cell scenario shape."""

    num_nodes: int = 30
    num_miners: int = 8
    fork_block: int = 40
    post_fork_horizon: float = 3600.0
    census_interval: float = 120.0
    seed: int = 2016_07_20
    #: Grid axes (a cell per cross-product entry; zero disables the axis).
    churn_rates: Tuple[float, ...] = (0.0, 0.005)
    loss_rates: Tuple[float, ...] = (0.0, 0.1)
    split_durations: Tuple[float, ...] = (0.0, 600.0)
    #: Faults open this long after the expected fork time, so the grid
    #: stresses the *recovering* minority mesh, not the pre-fork one.
    fault_start_offset: float = 300.0
    #: Window length for churn and loss faults (splits use their axis).
    fault_duration: float = 900.0
    #: Give every node the resilience mechanisms (False = control
    #: population running the legacy protocol under fire).
    resilience: bool = True
    #: Per-cell event safety valve: a redial storm fails the job loudly.
    max_events: Optional[int] = 5_000_000

    def expected_fork_time(self) -> float:
        return _SETTLE_SECONDS + self.fork_block * _BLOCK_INTERVAL

    def cell_schedule(
        self, churn: float, loss: float, split: float
    ) -> FaultSchedule:
        """The declarative schedule for one grid cell."""
        start = self.expected_fork_time() + self.fault_start_offset
        faults: List[Any] = []
        if churn > 0:
            faults.append(
                ChurnBurst(
                    start=start, duration=self.fault_duration, rate=churn
                )
            )
        if loss > 0:
            faults.append(
                LinkFault(
                    start=start,
                    duration=self.fault_duration,
                    loss_rate=loss,
                    scope="region",
                )
            )
        if split > 0:
            faults.append(
                SplitFault(
                    start=start,
                    duration=split,
                    groups=(("na",), ("eu", "as")),
                    scope="region",
                )
            )
        return FaultSchedule(faults=tuple(faults), seed=self.seed)

    def cell_config(
        self, churn: float, loss: float, split: float
    ) -> ChaosPartitionConfig:
        return ChaosPartitionConfig(
            num_nodes=self.num_nodes,
            num_miners=self.num_miners,
            fork_block=self.fork_block,
            post_fork_horizon=self.post_fork_horizon,
            census_interval=self.census_interval,
            seed=self.seed,
            faults=self.cell_schedule(churn, loss, split).to_dict(),
            resilience=ResiliencePolicy().to_dict() if self.resilience else None,
            max_events=self.max_events,
        )


def build_fault_grid(
    config: FaultSweepConfig,
) -> List[Tuple[Tuple[float, float, float], JobSpec]]:
    """One ``chaos-partition`` spec per grid cell, in axis order."""
    grid: List[Tuple[Tuple[float, float, float], JobSpec]] = []
    for churn in config.churn_rates:
        for loss in config.loss_rates:
            for split in config.split_durations:
                spec = chaos_partition_spec(
                    config.cell_config(churn, loss, split)
                )
                grid.append(((churn, loss, split), spec))
    return grid


#: ``RobustnessReport`` fields copied into each ``robustness.csv`` row.
_CSV_FIELDS = (
    "baseline_reachable",
    "minimum_reachable",
    "recovery_time",
    "orphan_rate",
    "mean_propagation_delay",
    "messages_lost",
    "messages_blocked",
    "dials_timed_out",
    "peers_evicted_unresponsive",
    "peers_banned",
)


def _write_sweep_artifacts(
    output_dir: Path,
    config: FaultSweepConfig,
    summaries: List[Dict[str, Any]],
    extra: Optional[Dict[str, Any]] = None,
) -> Tuple[List[str], str]:
    """Write ``robustness.{txt,csv,json}`` from the chunk (or stage)
    summaries, in the given (canonical grid) order; returns the paths
    written and the sweep digest.  ``extra`` merges additional keys into
    the JSON payload (the chunked path adds quarantine and ledger
    sections)."""
    cells = [cell for summary in summaries for cell in summary["cells"]]
    rows: List[Dict[str, Any]] = []
    lines: List[str] = []
    for cell in cells:
        churn, loss, split = cell["churn"], cell["loss"], cell["split"]
        report = RobustnessReport.from_dict(cell["report"])
        lines.append(
            f"churn={churn:g} loss={loss:g} split={split:g}s  "
            + report.render()
        )
        # csv writes None (no recovery, no propagation sample) as "".
        rows.append(
            {
                "churn": churn,
                "loss": loss,
                "split": split,
                **{name: getattr(report, name) for name in _CSV_FIELDS},
                "digest": cell["digest"],
            }
        )
    return write_sweep_tables(
        output_dir, "robustness", lines, rows, cells,
        {"seed": config.seed, **(extra or {})},
    )


def run_fault_sweep(
    config: Optional[FaultSweepConfig] = None, **settings: Any
) -> SweepResult:
    """Run the grid and write the robustness artifacts.

    ``settings`` are the :class:`~repro.harness.sweeprun.SweepSettings`
    keywords.  With ``chunk_size`` set the sweep is crash-safe over the ledger
    (default ``<output_dir>/sweep-ledger``): kill it anywhere and rerun
    with ``resume=True``; finished chunks are stitched from their
    persisted artifacts and the ``robustness.json`` sweep digest is
    byte-identical to the single-shot run.  Chunks that keep failing
    are quarantined and the sweep completes *degraded*.
    """
    config = config or FaultSweepConfig()
    settings = SweepSettings(**settings)
    grid = build_fault_grid(config)
    cell_by_key = {spec.cache_key(): cell for cell, spec in grid}

    def summarize(results: List[JobResult]) -> Dict[str, Any]:
        cells = []
        for result in results:
            report = getattr(result.value, "robustness", None)
            if report is None:
                raise ValueError(
                    f"{result.spec.label}: no robustness report on the "
                    f"result (not a chaos-partition cell?)"
                )
            churn, loss, split = cell_by_key[result.spec.cache_key()]
            cells.append(
                {
                    "churn": churn,
                    "loss": loss,
                    "split": split,
                    "digest": report.digest(),
                    "report": report.to_dict(),
                }
            )
        return {"cells": cells}

    return run_sweep(
        [[spec for _, spec in grid]],
        summarize,
        partial(
            _write_sweep_artifacts, Path(settings.output_dir), config
        ),
        settings,
        command=f"fault-sweep --nodes {config.num_nodes} --seed "
                f"{config.seed} --jobs {settings.jobs}",
        manifest_name="fault-sweep-manifest.json",
        ledger_name="sweep-ledger",
        salt={"sweep": "fault-sweep", "config": asdict(config)},
    )

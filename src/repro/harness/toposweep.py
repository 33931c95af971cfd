"""``topology-sweep``: the partition scenario across topology families.

The paper's stabilization-time conclusion — the minority mesh collapses
at the fork, then recovers as fork-blind discovery finds like-minded
peers — was reproduced on a uniform random mesh.  The measurement papers
(Gencer et al.; DEthna) say the real graph has heavy degree skew and geo
clustering, so the sweep re-runs the scenario once per topology family
(``topology-partition`` jobs) and, optionally, scores a DEthna-style
marked-transaction inference run per family (``topology-infer`` jobs).

Cells are independent harness jobs run by the shared sweep driver
(:func:`~repro.harness.sweeprun.run_sweep`), single-shot or chunked and
resumable over the DESIGN §10 ledger.
Artifacts land in ``output_dir``:

* ``topology.txt`` — one line per family (degree stats, loss, recovery
  verdict, inference precision/recall) plus a conclusion header;
* ``topology.csv`` — the same table for notebooks;
* ``topology.json`` — per-cell payloads + digests and the *sweep digest*
  (SHA-256 over the ordered per-cell digests) the CI smoke job pins.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..net.topology import TOPOLOGY_KINDS, TopologySpec, build_topology
from ..scenarios.partition_event import PartitionResult, TopologyPartitionConfig
from ..scenarios.topology_inference import (
    TopologyInferenceConfig,
    TopologyInferenceResult,
)
from .jobs import (
    JobSpec,
    canonical_json,
    topology_infer_spec,
    topology_partition_spec,
)
from .pool import JobResult
from .sweeprun import (
    SweepResult,
    SweepSettings,
    run_sweep,
    write_sweep_tables,
)

__all__ = [
    "TopologySweepConfig",
    "build_topology_grid",
    "run_topology_sweep",
]

#: A sweep cell: ``(family, role)`` where role is ``"partition"`` or
#: ``"infer"``.
Cell = Tuple[str, str]


@dataclass
class TopologySweepConfig:
    """The family list plus the per-cell scenario shape."""

    num_nodes: int = 30
    num_miners: int = 8
    fork_block: int = 40
    post_fork_horizon: float = 3600.0
    census_interval: float = 120.0
    seed: int = 2016_07_20
    target_degree: int = 8
    #: Families swept, in order (each must be in ``TOPOLOGY_KINDS``).
    topologies: Tuple[str, ...] = ("uniform", "powerlaw", "geo")
    gamma: float = 2.2
    intra_bias: float = 0.7
    rewire_p: float = 0.1
    #: Also run the marked-transaction inference scenario per family.
    include_inference: bool = True
    infer_probes: int = 5
    #: Post-fork recovery threshold for the stabilization verdict.
    recovery_fraction: float = 0.9

    def __post_init__(self) -> None:
        unknown = [t for t in self.topologies if t not in TOPOLOGY_KINDS]
        if unknown:
            raise ValueError(
                f"unknown topology families {unknown}; "
                f"expected members of {TOPOLOGY_KINDS}"
            )
        # Eager validation: building each family's spec surfaces bad
        # graph parameters (gamma, degree, intra_bias, ...) at config
        # time — a usage error — instead of mid-sweep.
        for family in self.topologies:
            self.topology_spec(family)

    def topology_spec(self, family: str) -> TopologySpec:
        return TopologySpec(
            kind=family,
            num_nodes=self.num_nodes,
            target_degree=self.target_degree,
            seed=self.seed,
            gamma=self.gamma,
            intra_bias=self.intra_bias,
            rewire_p=self.rewire_p,
        )

    def cell_config(self, family: str) -> TopologyPartitionConfig:
        return TopologyPartitionConfig(
            num_nodes=self.num_nodes,
            num_miners=self.num_miners,
            fork_block=self.fork_block,
            post_fork_horizon=self.post_fork_horizon,
            census_interval=self.census_interval,
            seed=self.seed,
            target_degree=self.target_degree,
            topology=self.topology_spec(family).to_dict(),
            # Geo-clustered graphs exercise the strict geographic
            # transport; the others keep the paper's lognormal baseline.
            latency="geo" if family == "geo" else "lognormal",
        )

    def infer_config(self, family: str) -> TopologyInferenceConfig:
        return TopologyInferenceConfig(
            topology=self.topology_spec(family).to_dict(),
            seed=self.seed,
            probes_per_target=self.infer_probes,
        )


def build_topology_grid(
    config: TopologySweepConfig,
) -> List[Tuple[Cell, JobSpec]]:
    """One partition spec (plus optional inference spec) per family."""
    grid: List[Tuple[Cell, JobSpec]] = []
    for family in config.topologies:
        grid.append(
            ((family, "partition"), topology_partition_spec(config.cell_config(family)))
        )
        if config.include_inference:
            grid.append(
                ((family, "infer"), topology_infer_spec(config.infer_config(family)))
            )
    return grid


def _cell_digest(payload: Dict[str, Any]) -> str:
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()


def _partition_payload(
    config: TopologySweepConfig, family: str, result: PartitionResult
) -> Dict[str, Any]:
    spec = config.topology_spec(family)
    built = build_topology(spec)
    stabilization = result.stabilization_time(config.recovery_fraction)
    return {
        "family": family,
        "role": "partition",
        "topology": spec.to_dict(),
        "topology_digest": built.digest(),
        "degree_stats": built.degree_stats(),
        "fork_time": result.fork_time,
        "node_loss_fraction": result.node_loss_fraction(),
        "minimum_etc_reachable": result.minimum_etc_reachable(),
        "stabilization_time": stabilization,
        "stabilized": stabilization is not None,
        "handshake_refusals": result.handshake_refusals,
        "incompatible_disconnects": result.incompatible_disconnects,
        "snapshots": [asdict(snapshot) for snapshot in result.snapshots],
    }


def _infer_payload(
    family: str, result: TopologyInferenceResult
) -> Dict[str, Any]:
    return {"family": family, "role": "infer", **result.to_dict()}


def _cell_payload(
    config: TopologySweepConfig, cell: Cell, value: Any
) -> Dict[str, Any]:
    family, role = cell
    if role == "partition":
        payload = _partition_payload(config, family, value)
    else:
        payload = _infer_payload(family, value)
    return {
        "family": family,
        "role": role,
        "digest": _cell_digest(payload),
        "payload": payload,
    }


def _write_sweep_artifacts(
    output_dir: Path,
    config: TopologySweepConfig,
    summaries: List[Dict[str, Any]],
    extra: Optional[Dict[str, Any]] = None,
) -> Tuple[List[str], str]:
    """Write ``topology.{txt,csv,json}`` from the chunk (or stage)
    summaries, in canonical grid order; returns the paths written and
    the sweep digest."""
    cells = [cell for summary in summaries for cell in summary["cells"]]
    by_cell = {(c["family"], c["role"]): c["payload"] for c in cells}
    rows: List[Dict[str, Any]] = []
    lines: List[str] = []
    stabilized = 0
    families_reported = 0
    for family in config.topologies:
        partition = by_cell.get((family, "partition"))
        if partition is None:
            continue
        families_reported += 1
        stats = partition["degree_stats"]
        stabilization = partition["stabilization_time"]
        if partition["stabilized"]:
            stabilized += 1
            verdict = f"RECOVERED in {stabilization:.0f}s"
        else:
            verdict = "NO RECOVERY"
        line = (
            f"{family:<10s} degree mean={stats['degree_mean']:.1f}"
            f" max={stats['degree_max']:.0f} gini={stats['degree_gini']:.2f}"
            f"  loss={partition['node_loss_fraction']:.2f}"
            f" min_reach={partition['minimum_etc_reachable']}"
            f"  {verdict}"
        )
        infer = by_cell.get((family, "infer"))
        if infer is not None:
            line += (
                f"  | infer P={infer['precision']:.2f}"
                f" R={infer['recall']:.2f}"
            )
        lines.append(line)
        rows.append(
            {
                "family": family,
                "degree_mean": stats["degree_mean"],
                "degree_max": stats["degree_max"],
                "degree_gini": stats["degree_gini"],
                "node_loss_fraction": partition["node_loss_fraction"],
                "minimum_etc_reachable": partition["minimum_etc_reachable"],
                "stabilization_time": stabilization,  # csv writes None as ""
                "stabilized": partition["stabilized"],
                "infer_precision": "" if infer is None else infer["precision"],
                "infer_recall": "" if infer is None else infer["recall"],
            }
        )
    conclusion = (
        f"stabilization conclusion holds on {stabilized}/{families_reported}"
        f" topology families"
    )
    lines.insert(0, conclusion)

    return write_sweep_tables(
        output_dir, "topology", lines, rows, cells,
        {
            "seed": config.seed,
            "conclusion": {
                "stabilized_families": stabilized,
                "reported_families": families_reported,
                "holds": stabilized == families_reported
                and families_reported > 0,
            },
            **(extra or {}),
        },
    )


def run_topology_sweep(
    config: Optional[TopologySweepConfig] = None, **settings: Any
) -> SweepResult:
    """Run the families and write the topology artifacts.

    ``settings`` are the :class:`~repro.harness.sweeprun.SweepSettings`
    keywords.  With ``chunk_size`` set the sweep runs over the DESIGN §10 ledger
    (default ``<output_dir>/sweep-ledger``), resumable with the same
    ``topology.json`` sweep digest as the single-shot run; chunks that
    keep failing are quarantined (degraded, exit 4).
    """
    config = config or TopologySweepConfig()
    settings = SweepSettings(**settings)
    grid = build_topology_grid(config)
    cell_by_key = {spec.cache_key(): cell for cell, spec in grid}

    def summarize(results: List[JobResult]) -> Dict[str, Any]:
        return {
            "cells": [
                _cell_payload(
                    config, cell_by_key[result.spec.cache_key()], result.value
                )
                for result in results
            ]
        }

    return run_sweep(
        [[spec for _, spec in grid]],
        summarize,
        partial(
            _write_sweep_artifacts, Path(settings.output_dir), config
        ),
        settings,
        command=f"topology-sweep --nodes {config.num_nodes} --seed "
                f"{config.seed} --jobs {settings.jobs}",
        manifest_name="topology-sweep-manifest.json",
        ledger_name="sweep-ledger",
        salt={"sweep": "topology-sweep", "config": asdict(config)},
    )

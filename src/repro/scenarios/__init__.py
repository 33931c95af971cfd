"""Calibrated reconstructions of the fork and its surrounding events."""

from .attack_window import (
    AttackAssessment,
    assess_attack_window,
    catchup_probability,
    simulate_race,
    vulnerability_window_days,
)
from .dao import ChainWriter, DaoScenario, DaoScenarioConfig, DaoScenarioResult
from .dos_forks import (
    ETC_DIFFUSE_FORK,
    ETH_EIP150_FORK,
    UpgradeForkConfig,
    UpgradeForkModel,
    UpgradeForkOutcome,
    compare_upgrade_forks,
)
from .partition_event import (
    ChaosPartitionConfig,
    PartitionResult,
    PartitionScenario,
    PartitionScenarioConfig,
    PartitionSnapshot,
    TopologyPartitionConfig,
    reachable_nodes,
)
from .topology_inference import (
    MonitorNode,
    TopologyInferenceConfig,
    TopologyInferenceResult,
    TopologyInferenceScenario,
)
from .replay_attack import (
    GroundTruth,
    ReplayModel,
    ReplayWorkload,
    ReplayWorkloadConfig,
    replay_stream,
)
from .transient_forks import (
    TransientForkConfig,
    TransientForkOutcome,
    latency_sweep,
    run_transient_forks,
)

__all__ = [
    "DaoScenario",
    "DaoScenarioConfig",
    "DaoScenarioResult",
    "ChainWriter",
    "PartitionScenario",
    "PartitionScenarioConfig",
    "ChaosPartitionConfig",
    "TopologyPartitionConfig",
    "PartitionResult",
    "PartitionSnapshot",
    "reachable_nodes",
    "MonitorNode",
    "TopologyInferenceConfig",
    "TopologyInferenceResult",
    "TopologyInferenceScenario",
    "ReplayWorkload",
    "ReplayWorkloadConfig",
    "ReplayModel",
    "GroundTruth",
    "replay_stream",
    "UpgradeForkModel",
    "UpgradeForkConfig",
    "UpgradeForkOutcome",
    "ETH_EIP150_FORK",
    "ETC_DIFFUSE_FORK",
    "compare_upgrade_forks",
    "TransientForkConfig",
    "TransientForkOutcome",
    "run_transient_forks",
    "latency_sweep",
    "AttackAssessment",
    "assess_attack_window",
    "catchup_probability",
    "simulate_race",
    "vulnerability_window_days",
]

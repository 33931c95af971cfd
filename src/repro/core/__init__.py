"""The paper's contribution: the fork-analysis toolkit.

Partition detection and stabilization analysis (Figure 1 / Observations
1-2), chain-usage metrics (Figure 2), mining-economics analysis (Figure 3 /
Observation 4), cross-chain echo detection (Figure 4 / Observation 5),
pool-concentration analysis (Figure 5 / Observation 6), and the figure
generators and observation predicates that tie them to the paper.
"""

from .classification import (
    ClassificationReport,
    EchoVerdict,
    IntentClassifier,
)
from .echoes import SAME_TIME_WINDOW, Echo, EchoDetector, EchoReport
from .flows import (
    FlowSummary,
    MinerFlow,
    daily_hashrate_series,
    estimate_flows,
)
from .market_analysis import (
    MarketEfficiencyReport,
    find_dip,
    hashes_per_usd_series,
    market_efficiency_report,
    relative_gap_series,
)
from .metrics import (
    db_blocks_per_hour,
    db_contract_fraction_per_day,
    db_daily_mean_difficulty,
    db_hourly_mean_block_delta,
    db_transactions_per_day,
    trace_transactions_per_day,
)
from .observations import Observation, evaluate_all
from .partition import (
    StabilizationReport,
    find_fork_point,
    find_trace_fork_point,
    hashpower_loss_fraction,
    node_loss_fraction,
    peak_block_delta,
    stabilization_from_columns,
    stabilization_time,
)
from .pools import (
    convergence_day,
    daily_top_n_shares,
    daily_top_pools,
    db_top_n_share_series,
    migration_consistency,
    top_n_share_series,
)
from .report import (
    FigureData,
    figure_1,
    figure_2,
    figure_3,
    figure_4,
    figure_5,
)
from .timeseries import TimeSeries, align, pearson

__all__ = [
    "TimeSeries",
    "align",
    "pearson",
    "trace_transactions_per_day",
    "EchoDetector",
    "Echo",
    "EchoReport",
    "SAME_TIME_WINDOW",
    "IntentClassifier",
    "EchoVerdict",
    "ClassificationReport",
    "daily_hashrate_series",
    "estimate_flows",
    "MinerFlow",
    "FlowSummary",
    "find_fork_point",
    "find_trace_fork_point",
    "node_loss_fraction",
    "hashpower_loss_fraction",
    "stabilization_time",
    "stabilization_from_columns",
    "peak_block_delta",
    "StabilizationReport",
    "daily_top_n_shares",
    "top_n_share_series",
    "daily_top_pools",
    "migration_consistency",
    "convergence_day",
    "hashes_per_usd_series",
    "market_efficiency_report",
    "MarketEfficiencyReport",
    "relative_gap_series",
    "find_dip",
    "Observation",
    "evaluate_all",
    "FigureData",
    "figure_1",
    "figure_2",
    "figure_3",
    "figure_4",
    "figure_5",
    "db_blocks_per_hour",
    "db_daily_mean_difficulty",
    "db_hourly_mean_block_delta",
    "db_transactions_per_day",
    "db_contract_fraction_per_day",
    "db_top_n_share_series",
]

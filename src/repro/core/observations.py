"""The paper's six headline observations, as checkable predicates.

Section 1 enumerates six findings; each function here evaluates one of
them against simulation outputs and returns an :class:`Observation` with
the measured quantities and a pass/fail verdict.  The benchmark harness
prints these verdicts, and the integration tests assert them — so "the
reproduction reproduces the paper" is itself a tested property.

Observations 2, 3, 4 and 6 read chain data through an analysis database
(``db``; by default the result's zero-copy columnar database), exactly
as the figures in :mod:`repro.core.report` do.  Observations 1 and 5
consume the partition scenario and the echo detector instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..data.windows import DAY
from ..scenarios.partition_event import PartitionResult
from ..sim.engine import ForkSimResult
from .echoes import EchoDetector
from .market_analysis import hashes_per_usd_series, market_efficiency_report
from .metrics import db_daily_mean_difficulty
from .partition import stabilization_from_columns
from .pools import convergence_day, db_top_n_share_series

__all__ = [
    "Observation",
    "evaluate_all",
    *(f"observation_{i}" for i in range(1, 7)),
]


@dataclass
class Observation:
    number: int
    claim: str
    holds: bool
    details: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        verdict = "REPRODUCED" if self.holds else "NOT REPRODUCED"
        detail = ", ".join(f"{k}={v:.3g}" for k, v in self.details.items())
        return f"Observation {self.number} [{verdict}]: {self.claim}\n    {detail}"


def observation_1(partition: PartitionResult) -> Observation:
    """Forks can lead to drastic, rapid partitions (~90% node loss)."""
    loss = partition.node_loss_fraction()
    return Observation(
        number=1,
        claim="ETC suddenly lost roughly 90% of the nodes in its network",
        holds=0.75 <= loss <= 0.99,
        details={
            "node_loss_fraction": loss,
            "incompatible_disconnects": float(
                partition.incompatible_disconnects
            ),
        },
    )


def observation_2(result: ForkSimResult, *, db=None) -> Observation:
    """Stabilization takes days; an influx returns over two weeks."""
    if db is None:
        db = result.to_database()
    report = stabilization_from_columns(
        *db.timestamps_and_difficulties("ETC"), result.fork_timestamp
    )
    days = report.stabilization_days or float("inf")
    # The return influx: ETC difficulty at day 14 well above its
    # post-recovery trough.
    etc_daily = db_daily_mean_difficulty(
        db, "ETC", start_ts=result.fork_timestamp
    )
    trough = min(etc_daily.values[:7]) if len(etc_daily) >= 7 else 0.0
    day14 = (
        etc_daily.values[14] if len(etc_daily) > 14 else float("nan")
    )
    influx = day14 / trough if trough else float("nan")
    return Observation(
        number=2,
        claim="ETC took ~2 days to resume the target block rate; miners "
        "flowed back over the following two weeks",
        holds=(1.0 <= days <= 4.0) and influx > 2.0,
        details={
            "stabilization_days": days,
            "peak_delta_seconds": report.peak_delta_seconds,
            "difficulty_influx_ratio_day14": influx,
        },
    )


def observation_3(result: ForkSimResult, *, db=None) -> Observation:
    """The fork persists; ETH's mining power grows, ETC's holds steady."""
    if db is None:
        db = result.to_database()
    horizon = result.config.days
    eth = db_daily_mean_difficulty(
        db, "ETH", start_ts=result.fork_timestamp + 14 * DAY
    )
    etc = db_daily_mean_difficulty(
        db, "ETC", start_ts=result.fork_timestamp + 14 * DAY
    )
    if not eth.values or not etc.values:
        # Horizon too short to even reach the comparison window.
        return Observation(
            number=3,
            claim="ETH difficulty grew tremendously while ETC's held roughly "
            "constant; both chains persist",
            holds=False,
            details={"horizon_days": float(horizon)},
        )
    eth_growth = eth.values[-1] / eth.values[0]
    etc_growth = etc.values[-1] / etc.values[0]
    ratio_end = eth.values[-1] / etc.values[-1]
    return Observation(
        number=3,
        claim="ETH difficulty grew tremendously while ETC's held roughly "
        "constant; both chains persist",
        holds=eth_growth > 2.0 and etc_growth < eth_growth / 1.5 and ratio_end > 5,
        details={
            "eth_difficulty_growth": eth_growth,
            "etc_difficulty_growth": etc_growth,
            "difficulty_ratio_at_end": ratio_end,
            "horizon_days": float(horizon),
        },
    )


def observation_4(result: ForkSimResult, *, db=None) -> Observation:
    """The market operates efficiently: mining payoff is near-identical."""
    if db is None:
        db = result.to_database()
    eth_series = hashes_per_usd_series(
        db_daily_mean_difficulty(db, "ETH", result.fork_timestamp),
        result.rates,
        "ETH",
        result.fork_timestamp,
    )
    etc_series = hashes_per_usd_series(
        db_daily_mean_difficulty(db, "ETC", result.fork_timestamp),
        result.rates,
        "ETC",
        result.fork_timestamp,
    )
    report = market_efficiency_report(
        eth_series, etc_series, result.fork_timestamp
    )
    return Observation(
        number=4,
        claim="expected mining return (hashes per USD) is almost identical "
        "between ETH and ETC",
        holds=report.curves_nearly_identical,
        details={
            "pearson_correlation": report.correlation,
            "median_relative_gap": report.median_relative_gap,
        },
    )


def observation_5(detector: EchoDetector, horizon_days: int = 270) -> Observation:
    """Replay vulnerability: echoes spike at the fork and persist."""
    into_etc = detector.daily_counts(chain="ETC")
    if into_etc.is_empty():
        return Observation(
            number=5,
            claim="rebroadcast transactions persist",
            holds=False,
            details={},
        )
    first_week_peak = max(into_etc.values[:7]) if into_etc.values else 0.0
    tail = [v for v in into_etc.values[-30:]]
    tail_mean = sum(tail) / len(tail) if tail else 0.0
    directions = detector.direction_totals()
    eth_to_etc = directions.get(("ETH", "ETC"), 0)
    etc_to_eth = directions.get(("ETC", "ETH"), 0)
    return Observation(
        number=5,
        claim="the fork introduced a replay vulnerability: a spike of "
        "rebroadcasts at the fork, still hundreds daily months later, "
        "mostly ETH-origin replayed into ETC",
        holds=(
            first_week_peak > 10 * max(tail_mean, 1.0)
            and tail_mean >= 100
            and eth_to_etc > 3 * max(etc_to_eth, 1)
        ),
        details={
            "first_week_peak_per_day": first_week_peak,
            "final_month_mean_per_day": tail_mean,
            "eth_to_etc_total": float(eth_to_etc),
            "etc_to_eth_total": float(etc_to_eth),
        },
    )


def observation_6(result: ForkSimResult, *, db=None) -> Observation:
    """ETC pool concentration slowly converged to ETH's distribution."""
    if db is None:
        db = result.to_database()
    eth_top5 = db_top_n_share_series(
        db, "ETH", 5, start_ts=result.fork_timestamp
    )
    etc_top5 = db_top_n_share_series(
        db, "ETC", 5, start_ts=result.fork_timestamp
    )
    # Early gap: ETC top-5 well below ETH's in the first month.
    early_gap = (
        sum(eth_top5.values[:30]) / 30 - sum(etc_top5.values[:30]) / 30
    )
    converged_at = convergence_day(eth_top5, etc_top5)
    converged_days = (
        (converged_at - result.fork_timestamp) / DAY
        if converged_at is not None
        else float("inf")
    )
    return Observation(
        number=6,
        claim="ETC's top-pool block share started far below ETH's and "
        "slowly converged to the same distribution",
        holds=early_gap > 10.0
        and converged_at is not None
        and 30 <= converged_days <= result.config.days,
        details={
            "early_top5_gap_points": early_gap,
            "convergence_day": converged_days,
        },
    )


def evaluate_all(
    result: ForkSimResult,
    partition: Optional[PartitionResult] = None,
    detector: Optional[EchoDetector] = None,
    *,
    db=None,
) -> List[Observation]:
    """Evaluate every observation the supplied inputs allow.

    Observations 2, 3, 4 and 6 share one analysis database (``db``,
    default: the result's zero-copy columnar database).
    """
    if db is None:
        db = result.to_database()
    observations = []
    if partition is not None:
        observations.append(observation_1(partition))
    observations.append(observation_2(result, db=db))
    observations.append(observation_3(result, db=db))
    observations.append(observation_4(result, db=db))
    if detector is not None:
        observations.append(observation_5(detector, result.config.days))
    observations.append(observation_6(result, db=db))
    return observations

"""Figure generators: regenerate every figure's series from simulation.

Each ``figure_N`` function returns a :class:`FigureData` carrying the same
series the paper plots, a plain-text rendering (weekly/daily sampled rows,
for benchmark output), and CSV export.  The benchmarks call these — one
per figure — so ``pytest benchmarks/`` literally prints the paper's
figures as tables.

Like the paper, every figure queries an analysis database rather than
the raw chains: by default the result's zero-copy
:class:`~repro.data.columnar.ColumnarChainDatabase`
(``result.to_database()``), read only through aggregated queries.
Passing ``db=reference_database(result)``
(:func:`repro.perf.reference.reference_database`) runs the same code on
the record-backed oracle, which must give the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..data.csvio import write_series_csv
from ..data.windows import DAY, HOUR
from ..sim.clock import format_date, timestamp_to_day
from ..sim.engine import ForkSimResult
from .echoes import EchoDetector, EchoReport
from .market_analysis import hashes_per_usd_series, market_efficiency_report
from .metrics import (
    db_blocks_per_hour,
    db_contract_fraction_per_day,
    db_daily_mean_difficulty,
    db_hourly_mean_block_delta,
    db_transactions_per_day,
)
from .pools import _share_series
from .timeseries import TimeSeries

__all__ = [
    "FigureData",
    "figure_1",
    "figure_2",
    "figure_3",
    "figure_4",
    "figure_5",
]

#: Series order within every two-chain figure.
CHAINS = ("ETH", "ETC")


@dataclass
class FigureData:
    """One regenerated figure: named series sharing a time axis."""

    figure_id: str
    title: str
    series: Dict[str, TimeSeries]
    notes: str = ""

    def render(self, sample_days: int = 7, max_rows: int = 60) -> str:
        """A text table sampled every ``sample_days`` days."""
        lines = [f"=== {self.figure_id}: {self.title} ==="]
        if self.notes:
            lines.append(self.notes)
        names = list(self.series)
        lines.append("date        " + "".join(f"{name:>24}" for name in names))

        # Collect the union of timestamps, sampled.
        all_ts = sorted(
            {t for series in self.series.values() for t, _ in series}
        )
        if not all_ts:
            return "\n".join(lines + ["(no data)"])
        step = max(1, sample_days)
        sampled: List[float] = []
        last_day = None
        for timestamp in all_ts:
            day = math.floor(timestamp_to_day(timestamp))
            if last_day is None or day >= last_day + step:
                sampled.append(timestamp)
                last_day = day
        sampled = sampled[:max_rows]

        lookup = {
            name: dict(zip(series.timestamps, series.values))
            for name, series in self.series.items()
        }
        for timestamp in sampled:
            row = [f"{format_date(timestamp)}"]
            for name in names:
                value = _nearest(lookup[name], timestamp)
                row.append(f"{value:>24.4g}" if value is not None else f"{'-':>24}")
            lines.append(" ".join(row))
        return "\n".join(lines)

    def write_csv(self, path) -> int:
        """Dense export on the union time axis (empty cells = nan)."""
        all_ts = sorted(
            {t for series in self.series.values() for t, _ in series}
        )
        columns: Dict[str, List[float]] = {}
        for name, series in self.series.items():
            lookup = dict(zip(series.timestamps, series.values))
            columns[name] = [
                lookup.get(t, float("nan")) for t in all_ts
            ]
        return write_series_csv(path, columns, index_name="timestamp", index=all_ts)


def _nearest(lookup: Dict[float, float], timestamp: float) -> Optional[float]:
    if timestamp in lookup:
        return lookup[timestamp]
    # fall back to the closest earlier point within a week
    best = None
    for t in lookup:
        if t <= timestamp and (best is None or t > best):
            best = t
    if best is not None and timestamp - best <= 7 * DAY:
        return lookup[best]
    return None


def figure_1(
    result: ForkSimResult, horizon_days: int = 30, *, db=None
) -> FigureData:
    """Blocks/hour, block difficulty, inter-block delta — the fork month."""
    if db is None:
        db = result.to_database()
    start = result.fork_timestamp - 12 * HOUR
    end = result.fork_timestamp + horizon_days * DAY
    series: Dict[str, TimeSeries] = {}
    for name in CHAINS:
        series[f"{name} blocks/hr"] = db_blocks_per_hour(db, name).clip_time(
            start, end
        )
        series[f"{name} difficulty"] = (
            db_daily_mean_difficulty(db, name).clip_time(start, end)
        )
        series[f"{name} delta(s)"] = (
            db_hourly_mean_block_delta(db, name).clip_time(start, end)
        )
    return FigureData(
        figure_id="Figure 1",
        title="Blocks per hour, block difficulty, and time delta between "
        "blocks in the month following the hard fork",
        series=series,
        notes="(difficulty and delta shown as daily/hourly means)",
    )


def figure_2(result: ForkSimResult, *, db=None) -> FigureData:
    """Difficulty, transactions/day, contract fraction — nine months."""
    if db is None:
        db = result.to_database()
    start = result.fork_timestamp
    series: Dict[str, TimeSeries] = {}
    for name in CHAINS:
        series[f"{name} difficulty"] = db_daily_mean_difficulty(
            db, name, start_ts=start
        )
        series[f"{name} tx/day"] = db_transactions_per_day(
            db, name, start_ts=start
        )
        series[f"{name} contract %"] = db_contract_fraction_per_day(
            db, name, start_ts=start
        ).map(lambda v: 100 * v)
    return FigureData(
        figure_id="Figure 2",
        title="Overall difficulty per block, transactions per day, and "
        "fraction of contract transactions in the nine months since the fork",
        series=series,
    )


def figure_3(result: ForkSimResult, *, db=None) -> FigureData:
    """Expected hashes per USD for both chains."""
    if db is None:
        db = result.to_database()
    series: Dict[str, TimeSeries] = {}
    for name in CHAINS:
        daily_difficulty = db_daily_mean_difficulty(
            db, name, start_ts=result.fork_timestamp
        )
        series[f"{name} hashes/USD"] = hashes_per_usd_series(
            daily_difficulty, result.rates, name, result.fork_timestamp
        )
    report = market_efficiency_report(
        series["ETH hashes/USD"],
        series["ETC hashes/USD"],
        result.fork_timestamp,
    )
    return FigureData(
        figure_id="Figure 3",
        title="Expected payoff for mining in ETH and ETC (hashes per USD)",
        series=series,
        notes=(
            f"pearson correlation = {report.correlation:.4f}, "
            f"median relative gap = {report.median_relative_gap:.3f}"
        ),
    )


def figure_4(
    result: ForkSimResult, detector: EchoDetector, *, db=None
) -> FigureData:
    """Rebroadcast (echo) counts and percentages."""
    if db is None:
        db = result.to_database()
    series: Dict[str, TimeSeries] = {}
    for chain in CHAINS:
        daily_totals = db_transactions_per_day(
            db, chain, start_ts=result.fork_timestamp
        )
        report = EchoReport.build(detector, chain, daily_totals)
        series[f"into {chain}/day"] = report.echoes_per_day
        series[f"% of {chain} txs"] = report.percent_of_transactions
    series["same-time/day"] = detector.daily_counts(same_time=True)
    return FigureData(
        figure_id="Figure 4",
        title="Rebroadcast transactions ('echoes') per day and the "
        "percentage of all transactions they represent",
        series=series,
    )


def figure_5(result: ForkSimResult, *, db=None) -> FigureData:
    """Percent of blocks mined by the top 1/3/5 pools, daily."""
    if db is None:
        db = result.to_database()
    series: Dict[str, TimeSeries] = {}
    for name in CHAINS:
        days = db.daily_miner_counts(name, result.fork_timestamp)
        for top_n in (1, 3, 5):
            series[f"{name} top {top_n}"] = _share_series(days, name, top_n)
    return FigureData(
        figure_id="Figure 5",
        title="Percent of all mined blocks won by the top 1, 3, and 5 "
        "mining pools in ETH and ETC",
        series=series,
    )

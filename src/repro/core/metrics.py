"""Chain metrics: the series plotted in Figures 1 and 2.

The figure pipeline has one implementation: the ``db_*`` functions
below, which wrap the aggregated queries of an analysis database and
return :class:`~repro.core.timeseries.TimeSeries` objects ready for the
report layer.  The figures and observations run them on the zero-copy
:class:`~repro.data.columnar.ColumnarChainDatabase`
(``result.to_database(columnar=True)``); the record-backed
:class:`~repro.data.store.ChainDatabase` answers the same queries and is
kept only as the differential oracle.  The unprefixed helpers read
record-level queries, and :func:`trace_transactions_per_day` sizes the
replay workload straight from a :class:`~repro.sim.blockprod.ChainTrace`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..data.store import ChainDatabase
from ..data.windows import DAY, HOUR
from ..sim.blockprod import ChainTrace
from .timeseries import TimeSeries

__all__ = [
    "blocks_per_hour",
    "difficulty_series",
    "block_delta_series",
    "transactions_per_day",
    "contract_fraction_per_day",
    "daily_mean_difficulty",
    "db_blocks_per_hour",
    "db_daily_mean_difficulty",
    "db_hourly_mean_block_delta",
    "db_transactions_per_day",
    "db_contract_fraction_per_day",
    "trace_transactions_per_day",
]


# -- database-backed (record-level) variants -----------------------------------


def blocks_per_hour(db: ChainDatabase, chain: str) -> TimeSeries:
    """Figure 1 (top): hourly block counts.

    Empty hours are *not* filled here; the report layer densifies over the
    plot range so that ETC's near-zero day renders as near-zero.
    """
    return TimeSeries.from_window_dict(
        {k: float(v) for k, v in db.blocks_per_hour(chain).items()},
        HOUR,
        name=f"{chain} blocks/hour",
    )


def difficulty_series(db: ChainDatabase, chain: str) -> TimeSeries:
    """Figures 1-2 (difficulty panels): per-block difficulty over time."""
    pairs = db.difficulty_series(chain)
    return TimeSeries(
        [t for t, _ in pairs],
        [float(d) for _, d in pairs],
        name=f"{chain} difficulty",
    )


def block_delta_series(db: ChainDatabase, chain: str) -> TimeSeries:
    """Figure 1 (bottom): seconds between consecutive blocks."""
    pairs = db.block_deltas(chain)
    return TimeSeries(
        [t for t, _ in pairs],
        [float(d) for _, d in pairs],
        name=f"{chain} block delta",
    )


def transactions_per_day(db: ChainDatabase, chain: str) -> TimeSeries:
    """Figure 2 (middle): daily transaction counts."""
    return TimeSeries.from_window_dict(
        {k: float(v) for k, v in db.transactions_per_day(chain).items()},
        DAY,
        name=f"{chain} tx/day",
    )


def contract_fraction_per_day(db: ChainDatabase, chain: str) -> TimeSeries:
    """Figure 2 (bottom): daily contract-call fraction."""
    return TimeSeries.from_window_dict(
        db.contract_fraction_per_day(chain),
        DAY,
        name=f"{chain} contract fraction",
    )


def daily_mean_difficulty(db: ChainDatabase, chain: str) -> TimeSeries:
    """Daily mean difficulty — the difficulty input to Figure 3."""
    return difficulty_series(db, chain).resample_mean(DAY)


# -- aggregated database variants (either backend) -------------------------------
#
# These wrap the aggregated queries shared by :class:`ChainDatabase` and
# :class:`~repro.data.columnar.ColumnarChainDatabase`; the two backends
# answer them byte-identically (``tests/test_data_columnar.py``).  No
# per-record iteration happens on this side of the query boundary.


def db_blocks_per_hour(db, chain: str, start_ts: Optional[float] = None) -> TimeSeries:
    """Figure 1 (top): hourly block counts from aggregated queries."""
    return TimeSeries.from_window_dict(
        {k: float(v) for k, v in db.blocks_per_hour(chain, start_ts).items()},
        HOUR,
        name=f"{chain} blocks/hour",
    )


def db_daily_mean_difficulty(
    db, chain: str, start_ts: Optional[float] = None
) -> TimeSeries:
    """Daily mean block difficulty — Figures 1-3 and Observations 2-4."""
    return TimeSeries.from_window_dict(
        db.daily_mean_difficulty(chain, start_ts),
        DAY,
        name=f"{chain} difficulty",
    )


def db_hourly_mean_block_delta(
    db, chain: str, start_ts: Optional[float] = None
) -> TimeSeries:
    """Figure 1 (bottom): hourly mean inter-block gap."""
    return TimeSeries.from_window_dict(
        db.hourly_mean_block_delta(chain, start_ts),
        HOUR,
        name=f"{chain} block delta",
    )


def db_transactions_per_day(
    db, chain: str, start_ts: Optional[float] = None
) -> TimeSeries:
    """Figure 2 (middle): daily tx counts from per-block counts."""
    return TimeSeries.from_window_dict(
        {
            k: float(v)
            for k, v in db.block_transactions_per_day(chain, start_ts).items()
        },
        DAY,
        name=f"{chain} tx/day",
    )


def db_contract_fraction_per_day(
    db, chain: str, start_ts: Optional[float] = None
) -> TimeSeries:
    """Figure 2 (bottom): daily contract fraction from per-block counts."""
    return TimeSeries.from_window_dict(
        db.block_contract_fraction_per_day(chain, start_ts),
        DAY,
        name=f"{chain} contract fraction",
    )


# -- trace-backed ---------------------------------------------------------------


def trace_transactions_per_day(
    trace: ChainTrace, start_ts: Optional[float] = None
) -> TimeSeries:
    """Daily tx counts straight from a trace: the replay workload's
    volume input, read before any analysis database exists."""
    counts: Dict[int, int] = {}
    for timestamp, tx_count in zip(trace.timestamps, trace.tx_counts):
        if start_ts is not None and timestamp < start_ts:
            continue
        index = timestamp // DAY
        counts[index] = counts.get(index, 0) + tx_count
    return TimeSeries.from_window_dict(
        {k: float(v) for k, v in counts.items()},
        DAY,
        name=f"{trace.chain} tx/day",
    )

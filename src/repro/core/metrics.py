"""Chain metrics: the series plotted in Figures 1 and 2.

The figure pipeline has one implementation: the ``db_*`` functions
below, which wrap the aggregated queries of the analysis database
(:class:`~repro.data.columnar.ColumnarChainDatabase`,
``result.to_database()``) and return
:class:`~repro.core.timeseries.TimeSeries` objects ready for the report
layer.  The record-backed
:class:`~repro.perf.reference.ReferenceChainDatabase` answers the same
queries and serves only as the differential oracle.
:func:`trace_transactions_per_day` sizes the replay workload straight
from a :class:`~repro.sim.blockprod.ChainTrace`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..data.windows import DAY, HOUR
from ..sim.blockprod import ChainTrace
from .timeseries import TimeSeries

__all__ = [
    "db_blocks_per_hour",
    "db_daily_mean_difficulty",
    "db_hourly_mean_block_delta",
    "db_transactions_per_day",
    "db_contract_fraction_per_day",
    "trace_transactions_per_day",
]


# -- aggregated database queries ------------------------------------------------
#
# These wrap the aggregated queries shared by the analysis database and
# its record-backed oracle; the two answer them byte-identically
# (``tests/test_data_columnar.py``).  No per-record iteration happens on
# this side of the query boundary.


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

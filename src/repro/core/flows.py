"""Miner-flow estimation — the paper's second "future work" item.

Section 4 lists "how miners actually moved between both chains" as open
work: the blockchain shows difficulty, not migrations.  This module
inverts the visible signal.  By the Poisson mining identity, a chain's
effective hashrate over a window is

    H = (blocks in window x mean difficulty) / window seconds

so daily hashrate series for ETH and ETC fall straight out of the block
data.  Day-over-day *changes* then decompose into migration between the
two chains plus net entry/exit of the combined pool:

    net_flow(day)  = the portion of the changes explainable by migration
                     (mass leaving one chain appearing on the other)
    entry_exit(day) = the remainder (new rigs, rigs leaving for Zcash, …)

The decomposition attributes min(|ΔETH|, |ΔETC|) to migration when the
changes have opposite signs — a conservative lower bound on migration,
exact when entry/exit is zero.  Applied to the fork fortnight it recovers
the paper's hypothesis ("miners who originally 'took' the fork and
switched to ETH actually switched back"), and the tests validate it
against the simulator's ground-truth daily allocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..data.windows import DAY
from ..sim.blockprod import ChainTrace
from .timeseries import TimeSeries

__all__ = ["daily_hashrate_series", "MinerFlow", "estimate_flows", "FlowSummary"]


def daily_hashrate_series(
    trace: ChainTrace, start_ts: Optional[float] = None
) -> TimeSeries:
    """Effective hashrate per day, inferred from blocks alone."""
    work: Dict[int, float] = {}
    for timestamp, difficulty in zip(trace.timestamps, trace.difficulties):
        if start_ts is not None and timestamp < start_ts:
            continue
        index = timestamp // DAY
        work[index] = work.get(index, 0.0) + difficulty
    indices = sorted(work)
    return TimeSeries(
        [index * DAY for index in indices],
        [work[index] / DAY for index in indices],
        name=f"{trace.chain} hashrate",
    )


@dataclass(frozen=True)
class MinerFlow:
    """One day's decomposition of hashrate changes."""

    timestamp: int
    #: Hashrate moving between the chains this day; positive = toward the
    #: *second* chain of the pair passed to :func:`estimate_flows`
    #: (conventionally ETC, so positive = "switching back").
    migration: float
    #: Net hashpower entering (+) or leaving (-) the combined pool.
    entry_exit: float


@dataclass
class FlowSummary:
    flows: List[MinerFlow]
    pair: Tuple[str, str]

    def total_migration_toward_second(
        self, start_ts: float, end_ts: float
    ) -> float:
        """Cumulative migration toward the second chain in a window."""
        return sum(
            flow.migration
            for flow in self.flows
            if start_ts <= flow.timestamp < end_ts and flow.migration > 0
        )


def estimate_flows(
    first: TimeSeries, second: TimeSeries, pair: Tuple[str, str] = ("ETH", "ETC")
) -> FlowSummary:
    """Decompose aligned daily hashrate series into migration + entry/exit.

    For each day: ``delta1 = H1[d] - H1[d-1]``, ``delta2`` likewise.
    Opposite-signed deltas overlap by ``min(|delta1|, |delta2|)`` — that
    mass moved between the chains; the rest entered or left the pool.
    """
    from .timeseries import align

    a, b = align(first, second)
    flows: List[MinerFlow] = []
    for index in range(1, len(a)):
        delta1 = a.values[index] - a.values[index - 1]
        delta2 = b.values[index] - b.values[index - 1]
        if delta1 * delta2 < 0:
            moved = min(abs(delta1), abs(delta2))
            # Positive when the second chain is the gainer.
            migration = moved if delta2 > 0 else -moved
        else:
            migration = 0.0
        entry_exit = delta1 + delta2
        flows.append(
            MinerFlow(
                timestamp=int(a.timestamps[index]),
                migration=migration,
                entry_exit=entry_exit,
            )
        )
    return FlowSummary(flows=flows, pair=pair)

"""Partition detection and post-fork stabilization analysis.

Quantifies the paper's Observations 1 and 2:

1. "ETC experienced a sudden loss of roughly 90% of the nodes in its
   network immediately after the fork" — :func:`node_loss_fraction` over
   P2P censuses, and :func:`hashpower_loss_fraction` over chain data.
2. "It took two days for ETC to resume producing blocks at the target
   rate" — :func:`stabilization_time`; "the average time delta per block
   spiked to over 1,200 seconds" — :func:`peak_block_delta`.

Plus the structural primitive: :func:`find_fork_point` locates where two
chains diverge, from data alone.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

from ..chain.chainstore import Blockchain
from ..data.windows import HOUR
from ..net.network import NetworkCensus
from ..sim.blockprod import ChainTrace

__all__ = [
    "find_fork_point",
    "find_trace_fork_point",
    "node_loss_fraction",
    "hashpower_loss_fraction",
    "stabilization_time",
    "stabilization_from_columns",
    "peak_block_delta",
    "StabilizationReport",
]


def find_fork_point(chain_a: Blockchain, chain_b: Blockchain) -> Optional[int]:
    """Height of the last block canonical on both chains (None if even the
    genesis differs)."""
    ancestor = chain_a.common_ancestor(chain_b)
    return ancestor.number if ancestor is not None else None


def find_trace_fork_point(trace_a: ChainTrace, trace_b: ChainTrace) -> Optional[int]:
    """Fork height from columnar traces.

    Traces carry no hashes, so divergence is detected where the
    (timestamp, miner) sequences stop agreeing — the data-level shadow of
    the hash comparison, and exact for traces built by
    :meth:`ChainTrace.forked_from`.
    """
    limit = min(len(trace_a), len(trace_b))
    for index in range(limit):
        if (
            trace_a.timestamps[index] != trace_b.timestamps[index]
            or trace_a.miner_ids[index] != trace_b.miner_ids[index]
            or trace_a.numbers[index] != trace_b.numbers[index]
        ):
            return trace_a.numbers[index] - 1 if index > 0 else None
    if limit == 0:
        return None
    return trace_a.numbers[limit - 1]


def node_loss_fraction(
    before: NetworkCensus, after: NetworkCensus, network_name: str
) -> float:
    """Fraction of a network's nodes lost between two censuses.

    ``before`` is typically taken just under the fork height (everyone
    still in one group — compare against the total) and ``after`` shortly
    past it.
    """
    baseline = before.count(network_name)
    if baseline == 0:
        # Pre-fork, the group may not exist yet: everyone is "pre-fork".
        baseline = sum(len(names) for names in before.members.values())
    if baseline == 0:
        raise ValueError("empty baseline census")
    remaining = after.count(network_name)
    return 1.0 - remaining / baseline


def hashpower_loss_fraction(
    trace: ChainTrace,
    fork_timestamp: int,
    window: int = 6 * HOUR,
) -> float:
    """Hashpower lost at the fork, inferred from block production.

    Compares the block rate in the ``window`` before the fork with the
    *effective hashrate* just after (block rate × difficulty, which is
    hashrate by the Poisson identity, so the unchanged difficulty right
    after the fork doesn't bias the estimate).
    """
    before = trace.slice_by_time(fork_timestamp - window, fork_timestamp)
    after = trace.slice_by_time(fork_timestamp, fork_timestamp + window)
    if len(before) == 0:
        raise ValueError("no pre-fork blocks in window")
    hashrate_before = (
        sum(trace.difficulties[i] for i in before) / window
    )
    hashrate_after = (
        sum(trace.difficulties[i] for i in after) / window
    )
    return 1.0 - hashrate_after / hashrate_before


@dataclass(frozen=True)
class StabilizationReport:
    """How the difficulty mechanism digested the partition."""

    #: Seconds from the fork until block production sustainably returned
    #: to the target rate (None = never within the data).
    stabilization_seconds: Optional[float]
    #: Largest inter-block gap observed during recovery.
    peak_delta_seconds: float
    #: Difficulty at the fork and at the recovery point.
    difficulty_at_fork: int
    difficulty_at_recovery: Optional[int]

    @property
    def stabilization_days(self) -> Optional[float]:
        if self.stabilization_seconds is None:
            return None
        return self.stabilization_seconds / 86_400


def stabilization_time(
    trace: ChainTrace,
    fork_timestamp: int,
    target_block_time: float = 14.0,
    rate_tolerance: float = 0.5,
    sustain_hours: int = 6,
    horizon_days: int = 14,
) -> StabilizationReport:
    """Observation 2's statistic over a chain trace's columns."""
    return stabilization_from_columns(
        trace.timestamps,
        trace.difficulties,
        fork_timestamp,
        target_block_time=target_block_time,
        rate_tolerance=rate_tolerance,
        sustain_hours=sustain_hours,
        horizon_days=horizon_days,
    )


def stabilization_from_columns(
    timestamps: Sequence[int],
    difficulties: Sequence[int],
    fork_timestamp: int,
    target_block_time: float = 14.0,
    rate_tolerance: float = 0.5,
    sustain_hours: int = 6,
    horizon_days: int = 14,
) -> StabilizationReport:
    """Observation 2's statistic, computed the way the paper eyeballs it.

    Finds the first hour after the fork where the hourly block count
    reaches ``(1 - rate_tolerance)`` of the target rate and *stays* there
    for ``sustain_hours`` consecutive hours.  ``timestamps`` must be
    non-decreasing (every chain trace is): the window and each hour are
    located by bisection, so no block is visited in Python.
    """
    threshold = HOUR / target_block_time * (1.0 - rate_tolerance)
    lo = bisect_left(timestamps, fork_timestamp)
    hi = bisect_left(timestamps, fork_timestamp + horizon_days * 24 * HOUR)
    if lo == hi:
        raise ValueError("no post-fork blocks to analyze")

    run = 0
    recovery_hour: Optional[int] = None
    start = lo
    last_hour = int((timestamps[hi - 1] - fork_timestamp) // HOUR)
    for hour in range(last_hour + 1):
        end = bisect_left(
            timestamps, fork_timestamp + (hour + 1) * HOUR, start, hi
        )
        if end - start >= threshold:
            run += 1
            if run >= sustain_hours:
                recovery_hour = hour - sustain_hours + 1
                break
        else:
            run = 0
        start = end

    difficulty_at_recovery = None
    stabilization_seconds = None
    if recovery_hour is not None:
        stabilization_seconds = recovery_hour * HOUR
        recovery_ts = fork_timestamp + stabilization_seconds
        index = bisect_left(timestamps, recovery_ts)
        if index < len(timestamps) and timestamps[index] < recovery_ts + HOUR:
            difficulty_at_recovery = difficulties[index]

    return StabilizationReport(
        stabilization_seconds=stabilization_seconds,
        peak_delta_seconds=_peak_gap(timestamps[lo:hi]),
        difficulty_at_fork=difficulties[lo],
        difficulty_at_recovery=difficulty_at_recovery,
    )


def _peak_gap(window: Sequence[int]) -> float:
    """Largest gap between consecutive timestamps; ``0.0`` below two
    blocks or when every gap is zero (``max`` keeps the first of equal
    values, so a positive peak stays the column's integer type)."""
    gaps = map(operator.sub, window[1:], window[:-1])
    return max(0.0, max(gaps, default=0.0))


def peak_block_delta(
    trace: ChainTrace, start_ts: int, end_ts: int
) -> float:
    """Largest inter-block gap in a window (the 1,200+ second spike)."""
    indices = trace.slice_by_time(start_ts, end_ts)
    return _peak_gap(trace.timestamps[indices.start:indices.stop])

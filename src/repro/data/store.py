"""The analysis database: indexed block & transaction storage.

This is the reproduction of the paper's "separate database" (Section 3.1):
a queryable store decoupled from node operation.  It indexes block records
by chain and window, and transaction records by hash for the cross-chain
echo join.  All figures read from here — never directly from a node — so
the analysis code is identical whether the data came from the message-level
simulator, the fast simulator, or (in principle) a real chain export.

This record-backed store is the *oracle* implementation: every aggregated
query here has a columnar twin in
:class:`~repro.data.columnar.ColumnarChainDatabase`, and the differential
tests pin the two byte-identical.  Aggregations therefore accumulate in
**stored order** (blocks sorted by number, the ingest invariant) with the
exact float semantics the columnar kernels replicate.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .records import BlockRecord, TxRecord
from .windows import DAY, HOUR, window_index

__all__ = ["ChainDatabase"]

_BLOCK_KEY = operator.attrgetter("number")
_BLOCK_TS_KEY = operator.attrgetter("timestamp")
_TX_KEY = operator.attrgetter("timestamp", "block_number")
_SIGHTING_KEY = operator.attrgetter("timestamp", "chain", "block_number")


class ChainDatabase:
    """In-memory, chain-partitioned store with the paper's query surface."""

    def __init__(self) -> None:
        self._blocks: Dict[str, List[BlockRecord]] = {}
        self._txs: Dict[str, List[TxRecord]] = {}
        self._tx_by_hash: Dict[str, Dict[bytes, TxRecord]] = {}
        #: Per-chain "timestamps are non-decreasing in stored order" flag:
        #: True/False when known, None when it must be recomputed (after a
        #: number-order re-sort shuffled an unknown timestamp order).
        self._ts_monotone: Dict[str, Optional[bool]] = {}

    # -- ingest ----------------------------------------------------------------

    def insert_blocks(self, records: Iterable[BlockRecord]) -> int:
        # Two ingest fast paths: (a) only the chains this batch touched are
        # examined, and (b) a batch that arrives in number order — the
        # streaming ``to_database`` path always does — skips the per-chain
        # re-sort entirely (stable sort of a sorted list is the identity,
        # so skipping it is observationally equivalent).
        count = 0
        needs_sort: Dict[str, bool] = {}
        blocks = self._blocks
        monotone = self._ts_monotone
        for record in records:
            chain = record.chain
            rows = blocks.get(chain)
            if rows is None:
                rows = blocks[chain] = []
                needs_sort[chain] = False
                monotone[chain] = True
            else:
                if chain not in needs_sort:
                    needs_sort[chain] = False
                last = rows[-1]
                if record.number < last.number:
                    needs_sort[chain] = True
                if monotone.get(chain) and record.timestamp < last.timestamp:
                    monotone[chain] = False
            rows.append(record)
            count += 1
        for chain, dirty in needs_sort.items():
            if dirty:
                blocks[chain].sort(key=_BLOCK_KEY)
                # The re-sort (by number) may have reordered timestamps in
                # either direction; recompute lazily on the next range query.
                monotone[chain] = None
        return count

    def insert_transactions(self, records: Iterable[TxRecord]) -> int:
        count = 0
        needs_sort: Dict[str, bool] = {}
        txs = self._txs
        for record in records:
            chain = record.chain
            rows = txs.get(chain)
            if rows is None:
                rows = txs[chain] = []
                needs_sort[chain] = False
            else:
                if chain not in needs_sort:
                    needs_sort[chain] = False
                last = rows[-1]
                if (record.timestamp, record.block_number) < (
                    last.timestamp,
                    last.block_number,
                ):
                    needs_sort[chain] = True
            rows.append(record)
            index = self._tx_by_hash.setdefault(chain, {})
            # First observation wins: block order approximates broadcast
            # order, and the echo join wants the earliest sighting.
            index.setdefault(record.tx_hash, record)
            count += 1
        for chain, dirty in needs_sort.items():
            if dirty:
                txs[chain].sort(key=_TX_KEY)
        return count

    # -- block queries ------------------------------------------------------------

    def chains(self) -> List[str]:
        return sorted(set(self._blocks) | set(self._txs))

    def blocks(self, chain: str) -> List[BlockRecord]:
        return list(self._blocks.get(chain, []))

    def block_count(self, chain: str) -> int:
        return len(self._blocks.get(chain, []))

    def _timestamps_monotone(self, chain: str) -> bool:
        """Whether the chain's stored timestamps are non-decreasing."""
        flag = self._ts_monotone.get(chain)
        if flag is None:
            records = self._blocks.get(chain, [])
            flag = all(
                a.timestamp <= b.timestamp
                for a, b in zip(records, records[1:])
            )
            self._ts_monotone[chain] = flag
        return flag

    def blocks_between(
        self, chain: str, start_ts: float, end_ts: float
    ) -> List[BlockRecord]:
        records = self._blocks.get(chain, [])
        if not records:
            return []
        if self._timestamps_monotone(chain):
            # Simulator traces have non-decreasing timestamps, so the
            # half-open window is a contiguous slice found by bisection.
            lo = bisect_left(records, start_ts, key=_BLOCK_TS_KEY)
            hi = bisect_left(records, end_ts, key=_BLOCK_TS_KEY)
            return records[lo:hi]
        return [
            record
            for record in records
            if start_ts <= record.timestamp < end_ts
        ]

    def blocks_per_hour(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, int]:
        """Figure 1 (top): hourly block production histogram."""
        counts: Dict[int, int] = {}
        for record in self._blocks.get(chain, []):
            if start_ts is not None and record.timestamp < start_ts:
                continue
            index = window_index(record.timestamp, HOUR)
            counts[index] = counts.get(index, 0) + 1
        return counts

    def difficulty_series(self, chain: str) -> List[Tuple[int, int]]:
        """(timestamp, difficulty) per block, in chain order."""
        return [
            (record.timestamp, record.difficulty)
            for record in self._blocks.get(chain, [])
        ]

    def block_deltas(self, chain: str) -> List[Tuple[int, int]]:
        """Figure 1 (bottom): (timestamp, seconds since previous block)."""
        records = self._blocks.get(chain, [])
        deltas = []
        for previous, current in zip(records, records[1:]):
            deltas.append((current.timestamp, current.timestamp - previous.timestamp))
        return deltas

    def timestamps_and_difficulties(
        self, chain: str
    ) -> Tuple[List[int], List[int]]:
        """(timestamps, difficulties) columns in chain order; raises
        ``ValueError`` when the timestamps are not non-decreasing."""
        if not self._timestamps_monotone(chain):
            raise ValueError(f"chain {chain!r} timestamps are not sorted")
        records = self._blocks.get(chain, [])
        return (
            [record.timestamp for record in records],
            [record.difficulty for record in records],
        )

    def miner_label_series(self, chain: str) -> List[Tuple[int, str]]:
        """(timestamp, miner label) per block — Figure 5's raw input."""
        return [
            (record.timestamp, record.miner)
            for record in self._blocks.get(chain, [])
        ]

    # -- aggregated block queries (the figure-path kernels) ---------------------
    #
    # Each of these is the record-level oracle for a columnar kernel in
    # :class:`~repro.data.columnar.ColumnarChainDatabase`, written the
    # plain way: epoch-aligned half-open windows, the start filter applied
    # *before* bucketing, and per-record accumulation in stored order.
    # The columnar kernels must reproduce these bytes exactly.

    def daily_mean_difficulty(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, float]:
        """Day index -> mean difficulty, accumulated in stored order.

        Difficulty day-sums exceed 2**53, so the result depends on the
        IEEE addition order; both backends accumulate sequentially in
        stored order — the same order ``TimeSeries.resample_mean`` uses.
        """
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for record in self._blocks.get(chain, []):
            timestamp = record.timestamp
            if start_ts is not None and timestamp < start_ts:
                continue
            index = window_index(timestamp, DAY)
            sums[index] = sums.get(index, 0.0) + float(record.difficulty)
            counts[index] = counts.get(index, 0) + 1
        return {index: sums[index] / counts[index] for index in sums}

    def hourly_mean_block_delta(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, float]:
        """Hour index -> mean inter-block gap (seconds).

        A delta belongs to the *current* block's hour, and the start
        filter tests the current block only (the previous one may predate
        it).
        """
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        records = self._blocks.get(chain, [])
        for previous, current in zip(records, records[1:]):
            timestamp = current.timestamp
            if start_ts is not None and timestamp < start_ts:
                continue
            index = window_index(timestamp, HOUR)
            sums[index] = sums.get(index, 0.0) + float(
                timestamp - previous.timestamp
            )
            counts[index] = counts.get(index, 0) + 1
        return {index: sums[index] / counts[index] for index in sums}

    def block_transactions_per_day(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, int]:
        """Day index -> transactions, summed from per-block tx counts.

        Unlike :meth:`transactions_per_day` (which counts ``TxRecord``
        rows), this reads the block table — the figure pipeline's source,
        since the fast simulator emits counts, not individual txs.
        """
        counts: Dict[int, int] = {}
        for record in self._blocks.get(chain, []):
            timestamp = record.timestamp
            if start_ts is not None and timestamp < start_ts:
                continue
            index = window_index(timestamp, DAY)
            counts[index] = counts.get(index, 0) + record.tx_count
        return counts

    def block_contract_fraction_per_day(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, float]:
        """Day index -> contract-tx fraction from per-block counts.

        Days whose blocks carry zero transactions are skipped (a gap, not
        a zero) — the same rule as the trace-level helper.
        """
        totals: Dict[int, int] = {}
        contracts: Dict[int, int] = {}
        for record in self._blocks.get(chain, []):
            timestamp = record.timestamp
            if start_ts is not None and timestamp < start_ts:
                continue
            index = window_index(timestamp, DAY)
            totals[index] = totals.get(index, 0) + record.tx_count
            contracts[index] = contracts.get(index, 0) + record.contract_tx_count
        return {
            index: contracts.get(index, 0) / totals[index]
            for index in totals
            if totals[index] > 0
        }

    def daily_miner_counts(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, Counter]:
        """Day index -> Counter of miner labels (Figure 5's raw input).

        Counter insertion order is each label's first appearance that day
        (in stored order) — ``most_common`` tie-breaking is stable, so the
        columnar twin must and does reproduce this order.
        """
        days: Dict[int, Counter] = {}
        for record in self._blocks.get(chain, []):
            timestamp = record.timestamp
            if start_ts is not None and timestamp < start_ts:
                continue
            index = window_index(timestamp, DAY)
            counter = days.get(index)
            if counter is None:
                counter = days[index] = Counter()
            counter[record.miner] += 1
        return days

    # -- transaction queries ----------------------------------------------------

    def transactions(self, chain: str) -> List[TxRecord]:
        return list(self._txs.get(chain, []))

    def tx_count(self, chain: str) -> int:
        return len(self._txs.get(chain, []))

    def lookup_tx(self, chain: str, tx_hash: bytes) -> Optional[TxRecord]:
        return self._tx_by_hash.get(chain, {}).get(tx_hash)

    def transactions_per_day(self, chain: str) -> Dict[int, int]:
        """Figure 2 (middle): daily transaction counts."""
        counts: Dict[int, int] = {}
        for record in self._txs.get(chain, []):
            index = window_index(record.timestamp, DAY)
            counts[index] = counts.get(index, 0) + 1
        return counts

    def contract_fraction_per_day(self, chain: str) -> Dict[int, float]:
        """Figure 2 (bottom): daily fraction of contract transactions."""
        totals: Dict[int, int] = {}
        contracts: Dict[int, int] = {}
        for record in self._txs.get(chain, []):
            index = window_index(record.timestamp, DAY)
            totals[index] = totals.get(index, 0) + 1
            if record.is_contract:
                contracts[index] = contracts.get(index, 0) + 1
        return {
            index: contracts.get(index, 0) / totals[index] for index in totals
        }

    def iter_tx_sightings(self) -> Iterator[TxRecord]:
        """All transaction observations across chains, time-ordered.

        This is the stream the echo detector consumes: interleaved
        first-sightings from every chain, as a node operator watching both
        networks would observe them.
        """
        streams = [
            record for records in self._txs.values() for record in records
        ]
        streams.sort(key=_SIGHTING_KEY)
        return iter(streams)

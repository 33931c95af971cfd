"""Columnar analytics backend: the ChainDatabase surface over packed arrays.

:class:`ColumnarChainDatabase` exposes the exact query surface of
:class:`~repro.data.store.ChainDatabase` but keeps block data in
``array('q')`` columns — the same representation
:class:`~repro.sim.blockprod.ChainTrace` produces — so the figure path
never boxes a :class:`~repro.data.records.BlockRecord`.  Adopting a
finished trace (:meth:`adopt_trace`, reached through
``ForkSimResult.to_database(columnar=True)``) is zero-copy: the database
holds references to the trace's arrays until a mutation forces a private
copy.

Aggregated queries are bisect-and-bucket kernels: when a chain's
timestamps are non-decreasing (simulator traces are), each epoch-aligned
window is a contiguous slice located by bisection, and per-window
reductions run at C speed over array slices.  Chains with shuffled
timestamps fall back to per-record loops that mirror the record-backed
oracle line for line.

Byte-identity with the oracle is a contract, not an accident:

* **Difficulty sums** exceed 2**53, so day means depend on IEEE addition
  order.  The kernels use ``sum(map(float, slice))`` — CPython performs
  the same sequential double additions as the oracle's running
  ``sums[index] + float(value)``, starting from the same exact zero.
* **Delta and tx-count sums** stay below 2**53, so every partial sum is
  exact and telescoping (``ts[hi-1] - ts[lo-1]``) or C integer sums are
  legitimate shortcuts: they produce the *same double* after division.
* **Counter ordering**: ``Counter(ids_slice)`` preserves first-occurrence
  order (the C ``_count_elements`` path), which maps 1:1 onto the
  oracle's label insertion order because the label table is interned —
  so ``most_common`` tie-breaking (stable sort) agrees.

The differential tests in ``tests/test_data_columnar.py`` pin all of
this across seeds and horizons.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .records import BlockRecord, TxRecord
from .store import ChainDatabase
from .windows import DAY, HOUR, window_index

__all__ = ["ColumnarChainDatabase"]


class _ChainColumns:
    """Packed per-chain block storage (mirrors ChainTrace's layout)."""

    __slots__ = (
        "numbers",
        "timestamps",
        "difficulties",
        "miner_ids",
        "tx_counts",
        "contract_tx_counts",
        "gas_used",
        "labels",
        "label_index",
        "owned",
        "_monotone",
    )

    def __init__(self) -> None:
        self.numbers = array("q")
        self.timestamps = array("q")
        self.difficulties = array("q")
        self.miner_ids = array("q")
        self.tx_counts = array("q")
        self.contract_tx_counts = array("q")
        #: ``None`` means "all zeros" — the simulator emits no gas data,
        #: and the lazy column keeps adoption allocation-free.
        self.gas_used: Optional[array] = None
        self.labels: List[str] = []
        self.label_index: Dict[str, int] = {}
        #: False when the arrays are shared with an adopted trace and
        #: must be copied before any mutation.
        self.owned = True
        self._monotone: Optional[bool] = None

    def __len__(self) -> int:
        return len(self.numbers)

    def monotone(self) -> bool:
        """Whether timestamps are non-decreasing in stored order."""
        if self._monotone is None:
            ts = self.timestamps
            self._monotone = all(map(operator.le, ts, islice(ts, 1, None)))
        return self._monotone

    def ensure_owned(self) -> None:
        if self.owned:
            return
        self.numbers = array("q", self.numbers)
        self.timestamps = array("q", self.timestamps)
        self.difficulties = array("q", self.difficulties)
        self.miner_ids = array("q", self.miner_ids)
        self.tx_counts = array("q", self.tx_counts)
        self.contract_tx_counts = array("q", self.contract_tx_counts)
        if self.gas_used is not None:
            self.gas_used = array("q", self.gas_used)
        self.labels = list(self.labels)
        self.label_index = dict(self.label_index)
        self.owned = True

    def label_id(self, label: str) -> int:
        index = self.label_index.get(label)
        if index is None:
            index = len(self.labels)
            self.labels.append(label)
            self.label_index[label] = index
        return index

    def materialize_gas(self) -> None:
        """Promote the implicit all-zero gas column to a real array."""
        if self.gas_used is None:
            self.gas_used = array("q", bytes(8 * len(self.numbers)))

    def resort_by_number(self) -> None:
        """Stable re-sort of every column by block number."""
        order = sorted(range(len(self.numbers)), key=self.numbers.__getitem__)
        for name in (
            "numbers",
            "timestamps",
            "difficulties",
            "miner_ids",
            "tx_counts",
            "contract_tx_counts",
            "gas_used",
        ):
            column = getattr(self, name)
            if column is None:
                continue
            setattr(self, name, array("q", map(column.__getitem__, order)))
        self._monotone = None

    def record_at(self, chain: str, i: int) -> BlockRecord:
        gas = self.gas_used
        return BlockRecord(
            chain=chain,
            number=self.numbers[i],
            timestamp=self.timestamps[i],
            difficulty=self.difficulties[i],
            miner=self.labels[self.miner_ids[i]],
            tx_count=self.tx_counts[i],
            contract_tx_count=self.contract_tx_counts[i],
            gas_used=gas[i] if gas is not None else 0,
        )


class ColumnarChainDatabase:
    """Drop-in :class:`ChainDatabase` twin backed by packed columns.

    Block queries run on ``array('q')`` columns; the transaction side
    (which only ever enters through :meth:`insert_transactions` — the
    fast simulator emits per-block counts, not tx rows) delegates to an
    embedded record store so the echo join behaves identically.
    """

    def __init__(self) -> None:
        self._columns: Dict[str, _ChainColumns] = {}
        self._txdb = ChainDatabase()

    # -- ingest ----------------------------------------------------------------

    def adopt_trace(self, trace, chain: Optional[str] = None, start_index: int = 0) -> int:
        """Adopt a :class:`~repro.sim.blockprod.ChainTrace`'s columns.

        ``start_index=0`` shares the arrays zero-copy (copy-on-write on
        any later mutation); a positive ``start_index`` slices off the
        prefix, which copies only the suffix.  Returns the block count
        adopted.  The label table is shared by reference either way.
        """
        name = chain or trace.chain
        if name in self._columns:
            raise ValueError(f"chain {name!r} already present")
        cols = _ChainColumns()
        if start_index:
            cols.numbers = trace.numbers[start_index:]
            cols.timestamps = trace.timestamps[start_index:]
            cols.difficulties = trace.difficulties[start_index:]
            cols.miner_ids = trace.miner_ids[start_index:]
            cols.tx_counts = trace.tx_counts[start_index:]
            cols.contract_tx_counts = trace.contract_tx_counts[start_index:]
        else:
            cols.numbers = trace.numbers
            cols.timestamps = trace.timestamps
            cols.difficulties = trace.difficulties
            cols.miner_ids = trace.miner_ids
            cols.tx_counts = trace.tx_counts
            cols.contract_tx_counts = trace.contract_tx_counts
        cols.labels = trace.miner_labels
        cols.label_index = trace._label_index
        cols.owned = False
        self._columns[name] = cols
        return len(cols)

    def insert_blocks(self, records: Iterable[BlockRecord]) -> int:
        count = 0
        needs_sort: Dict[str, bool] = {}
        for record in records:
            chain = record.chain
            cols = self._columns.get(chain)
            if cols is None:
                cols = self._columns[chain] = _ChainColumns()
                needs_sort[chain] = False
            else:
                cols.ensure_owned()
                if chain not in needs_sort:
                    needs_sort[chain] = False
                if len(cols):
                    if record.number < cols.numbers[-1]:
                        needs_sort[chain] = True
                    if (
                        cols._monotone
                        and record.timestamp < cols.timestamps[-1]
                    ):
                        cols._monotone = False
            cols.numbers.append(record.number)
            cols.timestamps.append(record.timestamp)
            cols.difficulties.append(record.difficulty)
            cols.miner_ids.append(cols.label_id(record.miner))
            cols.tx_counts.append(record.tx_count)
            cols.contract_tx_counts.append(record.contract_tx_count)
            if record.gas_used and cols.gas_used is None:
                cols.materialize_gas()
                cols.gas_used.pop()  # placeholder for the current record
            if cols.gas_used is not None:
                cols.gas_used.append(record.gas_used)
            count += 1
        for chain, dirty in needs_sort.items():
            if dirty:
                self._columns[chain].resort_by_number()
        return count

    def insert_transactions(self, records: Iterable[TxRecord]) -> int:
        return self._txdb.insert_transactions(records)

    # -- block queries ------------------------------------------------------------

    def chains(self) -> List[str]:
        return sorted(set(self._columns) | set(self._txdb.chains()))

    def blocks(self, chain: str) -> List[BlockRecord]:
        """Materialize boxed records — the escape hatch, not the hot path."""
        cols = self._columns.get(chain)
        if cols is None:
            return []
        return [cols.record_at(chain, i) for i in range(len(cols))]

    def block_count(self, chain: str) -> int:
        cols = self._columns.get(chain)
        return len(cols) if cols is not None else 0

    def blocks_between(
        self, chain: str, start_ts: float, end_ts: float
    ) -> List[BlockRecord]:
        cols = self._columns.get(chain)
        if cols is None or not len(cols):
            return []
        if cols.monotone():
            ts = cols.timestamps
            lo = bisect_left(ts, start_ts)
            hi = bisect_left(ts, end_ts)
            return [cols.record_at(chain, i) for i in range(lo, hi)]
        return [
            cols.record_at(chain, i)
            for i in range(len(cols))
            if start_ts <= cols.timestamps[i] < end_ts
        ]

    def blocks_per_hour(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, int]:
        cols = self._columns.get(chain)
        if cols is None:
            return {}
        counts: Dict[int, int] = {}
        ts = cols.timestamps
        n = len(ts)
        if cols.monotone():
            i = bisect_left(ts, start_ts) if start_ts is not None else 0
            while i < n:
                index = ts[i] // HOUR
                hi = bisect_left(ts, (index + 1) * HOUR, i, n)
                counts[index] = hi - i
                i = hi
            return counts
        for timestamp in ts:
            if start_ts is not None and timestamp < start_ts:
                continue
            index = window_index(timestamp, HOUR)
            counts[index] = counts.get(index, 0) + 1
        return counts

    def difficulty_series(self, chain: str) -> List[Tuple[int, int]]:
        cols = self._columns.get(chain)
        if cols is None:
            return []
        return list(zip(cols.timestamps, cols.difficulties))

    def block_deltas(self, chain: str) -> List[Tuple[int, int]]:
        cols = self._columns.get(chain)
        if cols is None:
            return []
        ts = cols.timestamps
        return [(ts[i], ts[i] - ts[i - 1]) for i in range(1, len(ts))]

    def timestamps_and_difficulties(self, chain: str) -> Tuple[array, array]:
        """The chain's timestamp and difficulty columns, zero-copy.

        Read-only views for bisecting kernels; raises ``ValueError``
        when the timestamps are not non-decreasing.
        """
        cols = self._columns.get(chain)
        if cols is None:
            return array("q"), array("q")
        if not cols.monotone():
            raise ValueError(f"chain {chain!r} timestamps are not sorted")
        return cols.timestamps, cols.difficulties

    def miner_label_series(self, chain: str) -> List[Tuple[int, str]]:
        cols = self._columns.get(chain)
        if cols is None:
            return []
        labels = cols.labels
        return [
            (timestamp, labels[miner_id])
            for timestamp, miner_id in zip(cols.timestamps, cols.miner_ids)
        ]

    # -- aggregated block queries (columnar kernels) -----------------------------

    def daily_mean_difficulty(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, float]:
        cols = self._columns.get(chain)
        if cols is None:
            return {}
        ts = cols.timestamps
        diffs = cols.difficulties
        n = len(ts)
        if cols.monotone():
            out: Dict[int, float] = {}
            i = bisect_left(ts, start_ts) if start_ts is not None else 0
            while i < n:
                index = ts[i] // DAY
                hi = bisect_left(ts, (index + 1) * DAY, i, n)
                # Same sequential IEEE additions as the oracle's running
                # accumulation — order matters, the sums exceed 2**53.
                out[index] = sum(map(float, diffs[i:hi])) / (hi - i)
                i = hi
            return out
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for i in range(n):
            timestamp = ts[i]
            if start_ts is not None and timestamp < start_ts:
                continue
            index = window_index(timestamp, DAY)
            sums[index] = sums.get(index, 0.0) + float(diffs[i])
            counts[index] = counts.get(index, 0) + 1
        return {index: sums[index] / counts[index] for index in sums}

    def hourly_mean_block_delta(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, float]:
        cols = self._columns.get(chain)
        if cols is None:
            return {}
        ts = cols.timestamps
        n = len(ts)
        if cols.monotone():
            out: Dict[int, float] = {}
            lo = bisect_left(ts, start_ts) if start_ts is not None else 0
            i = max(lo, 1)
            while i < n:
                index = ts[i] // HOUR
                hi = bisect_left(ts, (index + 1) * HOUR, i, n)
                # Telescoping: delta sums stay below 2**53, so the exact
                # integer sum converts to the same double the oracle's
                # float accumulation reaches.
                out[index] = float(ts[hi - 1] - ts[i - 1]) / (hi - i)
                i = hi
            return out
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for i in range(1, n):
            timestamp = ts[i]
            if start_ts is not None and timestamp < start_ts:
                continue
            index = window_index(timestamp, HOUR)
            sums[index] = sums.get(index, 0.0) + float(timestamp - ts[i - 1])
            counts[index] = counts.get(index, 0) + 1
        return {index: sums[index] / counts[index] for index in sums}

    def block_transactions_per_day(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, int]:
        cols = self._columns.get(chain)
        if cols is None:
            return {}
        ts = cols.timestamps
        txs = cols.tx_counts
        n = len(ts)
        if cols.monotone():
            out: Dict[int, int] = {}
            i = bisect_left(ts, start_ts) if start_ts is not None else 0
            while i < n:
                index = ts[i] // DAY
                hi = bisect_left(ts, (index + 1) * DAY, i, n)
                out[index] = sum(txs[i:hi])
                i = hi
            return out
        counts: Dict[int, int] = {}
        for i in range(n):
            timestamp = ts[i]
            if start_ts is not None and timestamp < start_ts:
                continue
            index = window_index(timestamp, DAY)
            counts[index] = counts.get(index, 0) + txs[i]
        return counts

    def block_contract_fraction_per_day(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, float]:
        cols = self._columns.get(chain)
        if cols is None:
            return {}
        ts = cols.timestamps
        txs = cols.tx_counts
        contract = cols.contract_tx_counts
        n = len(ts)
        if cols.monotone():
            out: Dict[int, float] = {}
            i = bisect_left(ts, start_ts) if start_ts is not None else 0
            while i < n:
                index = ts[i] // DAY
                hi = bisect_left(ts, (index + 1) * DAY, i, n)
                total = sum(txs[i:hi])
                if total > 0:
                    out[index] = sum(contract[i:hi]) / total
                i = hi
            return out
        totals: Dict[int, int] = {}
        contracts: Dict[int, int] = {}
        for i in range(n):
            timestamp = ts[i]
            if start_ts is not None and timestamp < start_ts:
                continue
            index = window_index(timestamp, DAY)
            totals[index] = totals.get(index, 0) + txs[i]
            contracts[index] = contracts.get(index, 0) + contract[i]
        return {
            index: contracts.get(index, 0) / totals[index]
            for index in totals
            if totals[index] > 0
        }

    def daily_miner_counts(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, Counter]:
        cols = self._columns.get(chain)
        if cols is None:
            return {}
        ts = cols.timestamps
        ids = cols.miner_ids
        labels = cols.labels
        n = len(ts)
        if cols.monotone():
            days: Dict[int, Counter] = {}
            i = bisect_left(ts, start_ts) if start_ts is not None else 0
            while i < n:
                index = ts[i] // DAY
                hi = bisect_left(ts, (index + 1) * DAY, i, n)
                # Counter over the id slice preserves first-occurrence
                # order; the interned label table maps ids 1:1, so the
                # label Counter's insertion order (and therefore stable
                # most_common tie-breaking) matches the oracle's.
                id_counts = Counter(ids[i:hi])
                days[index] = Counter(
                    {labels[mid]: c for mid, c in id_counts.items()}
                )
                i = hi
            return days
        days_fallback: Dict[int, Counter] = {}
        for i in range(n):
            timestamp = ts[i]
            if start_ts is not None and timestamp < start_ts:
                continue
            index = window_index(timestamp, DAY)
            counter = days_fallback.get(index)
            if counter is None:
                counter = days_fallback[index] = Counter()
            counter[labels[ids[i]]] += 1
        return days_fallback

    # -- transaction queries (delegated to the record store) ---------------------

    def transactions(self, chain: str) -> List[TxRecord]:
        return self._txdb.transactions(chain)

    def tx_count(self, chain: str) -> int:
        return self._txdb.tx_count(chain)

    def lookup_tx(self, chain: str, tx_hash: bytes) -> Optional[TxRecord]:
        return self._txdb.lookup_tx(chain, tx_hash)

    def transactions_per_day(self, chain: str) -> Dict[int, int]:
        return self._txdb.transactions_per_day(chain)

    def contract_fraction_per_day(self, chain: str) -> Dict[int, float]:
        return self._txdb.contract_fraction_per_day(chain)

    def iter_tx_sightings(self) -> Iterator[TxRecord]:
        return self._txdb.iter_tx_sightings()

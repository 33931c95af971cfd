"""The analysis database: aggregated queries over packed trace columns.

:class:`ColumnarChainDatabase` is the paper's "separate database"
(Section 3.1): every figure and observation reads chain data through
its aggregated queries, never from a node or a trace directly.  It keeps
block data in ``array('q')`` columns — the representation
:class:`~repro.sim.blockprod.ChainTrace` produces — and its one ingest,
:meth:`~ColumnarChainDatabase.adopt_trace` (reached through
``ForkSimResult.to_database()``), shares a finished trace's arrays
zero-copy, so the figure path never boxes a block.

Aggregated queries are bisect-and-bucket kernels: a chain's timestamps
are non-decreasing (every producer emits strictly increasing ones), so
each epoch-aligned window is a contiguous slice located by bisection,
and per-window reductions run at C speed over array slices.  A chain
whose timestamps are not sorted — only a hand-built trace can have
one — is rejected with ``ValueError``.

The record-backed oracle,
:class:`~repro.perf.reference.ReferenceChainDatabase`, accumulates the
same queries block by block.  Byte-identity with it is a contract, not
an accident:

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
from typing import Dict, Optional, Tuple

from .windows import DAY, HOUR

__all__ = ["ColumnarChainDatabase"]


class _ChainColumns:
    """One adopted trace's columns, shared by reference."""

    __slots__ = (
        "timestamps",
        "difficulties",
        "miner_ids",
        "tx_counts",
        "contract_tx_counts",
        "labels",
        "_monotone",
    )

    def __init__(self, trace) -> None:
        self.timestamps = trace.timestamps
        self.difficulties = trace.difficulties
        self.miner_ids = trace.miner_ids
        self.tx_counts = trace.tx_counts
        self.contract_tx_counts = trace.contract_tx_counts
        self.labels = trace.miner_labels
        self._monotone: Optional[bool] = None

    def monotone(self) -> bool:
        """Whether timestamps are non-decreasing in stored order."""
        if self._monotone is None:
            ts = self.timestamps
            self._monotone = all(map(operator.le, ts, islice(ts, 1, None)))
        return self._monotone


class ColumnarChainDatabase:
    """Chain-partitioned block columns with the paper's aggregated queries."""

    def __init__(self) -> None:
        self._columns: Dict[str, _ChainColumns] = {}

    def adopt_trace(self, trace) -> None:
        """Adopt a :class:`~repro.sim.blockprod.ChainTrace`'s columns
        under its chain name.

        The arrays and the label table are shared zero-copy; the
        database never mutates them.
        """
        if trace.chain in self._columns:
            raise ValueError(f"chain {trace.chain!r} already present")
        self._columns[trace.chain] = _ChainColumns(trace)

    def _sorted(self, chain: str) -> Optional[_ChainColumns]:
        """The chain's columns (``None`` if absent); raises ``ValueError``
        when its timestamps are not non-decreasing."""
        cols = self._columns.get(chain)
        if cols is not None and not cols.monotone():
            raise ValueError(f"chain {chain!r} timestamps are not sorted")
        return cols

    def timestamps_and_difficulties(self, chain: str) -> Tuple[array, array]:
        """The chain's timestamp and difficulty columns, zero-copy.

        Read-only views for bisecting kernels; raises ``ValueError``
        when the timestamps are not non-decreasing.
        """
        cols = self._sorted(chain)
        if cols is None:
            return array("q"), array("q")
        return cols.timestamps, cols.difficulties

    # -- aggregated block queries ------------------------------------------------

    def blocks_per_hour(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, int]:
        cols = self._sorted(chain)
        if cols is None:
            return {}
        counts: Dict[int, int] = {}
        ts = cols.timestamps
        n = len(ts)
        i = bisect_left(ts, start_ts) if start_ts is not None else 0
        while i < n:
            index = ts[i] // HOUR
            hi = bisect_left(ts, (index + 1) * HOUR, i, n)
            counts[index] = hi - i
            i = hi
        return counts

    def daily_mean_difficulty(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, float]:
        cols = self._sorted(chain)
        if cols is None:
            return {}
        ts = cols.timestamps
        diffs = cols.difficulties
        n = len(ts)
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

    def hourly_mean_block_delta(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, float]:
        cols = self._sorted(chain)
        if cols is None:
            return {}
        ts = cols.timestamps
        n = len(ts)
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

    def block_transactions_per_day(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, int]:
        cols = self._sorted(chain)
        if cols is None:
            return {}
        ts = cols.timestamps
        txs = cols.tx_counts
        n = len(ts)
        out: Dict[int, int] = {}
        i = bisect_left(ts, start_ts) if start_ts is not None else 0
        while i < n:
            index = ts[i] // DAY
            hi = bisect_left(ts, (index + 1) * DAY, i, n)
            out[index] = sum(txs[i:hi])
            i = hi
        return out

    def block_contract_fraction_per_day(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, float]:
        cols = self._sorted(chain)
        if cols is None:
            return {}
        ts = cols.timestamps
        txs = cols.tx_counts
        contract = cols.contract_tx_counts
        n = len(ts)
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

    def daily_miner_counts(
        self, chain: str, start_ts: Optional[float] = None
    ) -> Dict[int, Counter]:
        cols = self._sorted(chain)
        if cols is None:
            return {}
        ts = cols.timestamps
        ids = cols.miner_ids
        labels = cols.labels
        n = len(ts)
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

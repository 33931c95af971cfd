"""Data layer: records, windowing, the analysis database, CSV IO."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.columnar import ColumnarChainDatabase
from repro.data.records import BlockRecord
from repro.data.windows import DAY, HOUR, window_index, window_start
from repro.perf.reference import ReferenceChainDatabase
from repro.sim.blockprod import ChainTrace

AGGREGATED = (
    "blocks_per_hour",
    "daily_mean_difficulty",
    "hourly_mean_block_delta",
    "block_transactions_per_day",
    "block_contract_fraction_per_day",
    "daily_miner_counts",
)


def block(chain="ETH", number=1, timestamp=1000, difficulty=100,
          miner="poolA", tx_count=2, contract_tx_count=1):
    return BlockRecord(chain=chain, number=number, timestamp=timestamp,
                       difficulty=difficulty, miner=miner, tx_count=tx_count,
                       contract_tx_count=contract_tx_count)


def analysis_db(rows, chain="ETH"):
    """The analysis database over a hand-built trace of ``rows``."""
    trace = ChainTrace(chain)
    for row in rows:
        trace.append(row.number, row.timestamp, row.difficulty, row.miner,
                     row.tx_count, row.contract_tx_count)
    db = ColumnarChainDatabase()
    db.adopt_trace(trace)
    return db


def reference_db(rows):
    db = ReferenceChainDatabase()
    db.insert_blocks(rows)
    return db


class TestWindows:
    def test_window_index_floor(self):
        assert window_index(0, HOUR) == 0
        assert window_index(3599, HOUR) == 0
        assert window_index(3600, HOUR) == 1

    def test_window_start_inverse(self):
        assert window_start(window_index(5000, HOUR), HOUR) == 3600

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            window_index(0, 0)

    @given(st.lists(st.integers(min_value=0, max_value=10**9), max_size=50))
    @settings(max_examples=50)
    def test_counts_partition_the_events(self, timestamps):
        rows = [block(number=n, timestamp=t)
                for n, t in enumerate(sorted(timestamps))]
        counts = analysis_db(rows).blocks_per_hour("ETH")
        assert sum(counts.values()) == len(timestamps)
        assert counts == reference_db(rows).blocks_per_hour("ETH")


class TestChainDatabase:
    def test_insert_and_query_blocks(self):
        # The oracle re-sorts an out-of-order batch by number; the
        # analysis database adopts the already-ordered trace.
        rows = [block(number=1, timestamp=1000, difficulty=10),
                block(number=2, timestamp=2000, difficulty=30)]
        oracle = reference_db(rows[::-1])
        db = analysis_db(rows)
        assert oracle.timestamps_and_difficulties("ETH") == (
            [1000, 2000], [10, 30]
        )
        for name in AGGREGATED:
            assert getattr(db, name)("ETH") == getattr(oracle, name)("ETH")

    def test_blocks_per_hour(self):
        db = analysis_db([block(number=n, timestamp=t)
                          for n, t in enumerate((0, 100, 3700))])
        assert db.blocks_per_hour("ETH") == {0: 2, 1: 1}
        assert db.blocks_per_hour("ETH", start_ts=100) == {0: 1, 1: 1}

    def test_block_deltas(self):
        db = analysis_db([
            block(number=1, timestamp=100),
            block(number=2, timestamp=130),
            block(number=3, timestamp=144),
        ])
        assert db.hourly_mean_block_delta("ETH") == {0: 22.0}
        # The start filter tests the current block; its gap may reach
        # back before the start.
        assert db.hourly_mean_block_delta("ETH", start_ts=144) == {0: 14.0}

    def test_difficulty_series(self):
        db = analysis_db([block(number=1, difficulty=5, timestamp=10)])
        ts, diffs = db.timestamps_and_difficulties("ETH")
        assert (list(ts), list(diffs)) == ([10], [5])
        ts, diffs = db.timestamps_and_difficulties("missing")
        assert (len(ts), len(diffs)) == (0, 0)

    def test_transactions_per_day(self):
        db = analysis_db([
            block(number=1, timestamp=100, tx_count=2),
            block(number=2, timestamp=200, tx_count=0),
            block(number=3, timestamp=DAY + 5, tx_count=1),
        ])
        assert db.block_transactions_per_day("ETH") == {0: 2, 1: 1}

    def test_contract_fraction(self):
        db = analysis_db([
            block(number=1, timestamp=10, tx_count=3, contract_tx_count=1),
            block(number=2, timestamp=20, tx_count=1, contract_tx_count=1),
            block(number=3, timestamp=DAY, tx_count=0, contract_tx_count=0),
        ])
        # A day without transactions is a gap, not a zero.
        assert db.block_contract_fraction_per_day("ETH") == {0: 0.5}

    def test_miner_label_series(self):
        db = analysis_db([block(number=1, miner="p2", timestamp=10),
                          block(number=2, miner="p1", timestamp=20),
                          block(number=3, miner="p1", timestamp=30),
                          block(number=4, miner="p2", timestamp=DAY)])
        days = db.daily_miner_counts("ETH")
        assert days == {0: {"p2": 1, "p1": 2}, 1: {"p2": 1}}
        # First-appearance order fixes most_common tie-breaking.
        assert list(days[0]) == ["p2", "p1"]


class TestCsvIO:
    def test_series_round_trip(self, tmp_path):
        from repro.data.csvio import read_series_csv, write_series_csv

        path = tmp_path / "series.csv"
        write_series_csv(
            path, {"a": [1.0, 2.0], "b": [3.0, 4.0]}, index=[10, 20]
        )
        header, rows = read_series_csv(path)
        assert header == ["t", "a", "b"]
        assert rows == [[10.0, 1.0, 3.0], [20.0, 2.0, 4.0]]

    def test_series_length_mismatch_rejected(self, tmp_path):
        from repro.data.csvio import write_series_csv

        with pytest.raises(ValueError):
            write_series_csv(tmp_path / "x.csv", {"a": [1.0], "b": []})


class TestExportChain:
    def test_export_full_chain(self, funded_chain, alice_key, bob_key):
        from repro.chain.transaction import Transaction, sign_transaction
        from repro.chain.types import ether
        from repro.data.records import export_chain, export_transactions

        chain, writer = funded_chain
        transfer = sign_transaction(
            alice_key,
            Transaction(nonce=0, gas_price=10**9, gas_limit=21_000,
                        to=bob_key.address, value=ether(1)),
        )
        call = sign_transaction(
            alice_key,
            Transaction(nonce=1, gas_price=10**9, gas_limit=50_000,
                        to=bob_key.address, value=0, data=b"\x01"),
        )
        writer.extend((transfer,))
        writer.extend((call,))
        records = export_chain(chain, lambda c: "miner", start=1)
        assert len(records) == 2
        assert records[0].tx_count == 1
        assert records[0].contract_tx_count == 0
        assert records[1].contract_tx_count == 1

        txs = list(export_transactions(chain, start=1))
        assert len(txs) == 2
        assert txs[0].tx_hash == bytes(transfer.tx_hash)
        assert txs[1].is_contract


class TestIngestOrdering:
    """The oracle's skip-sort fast path is observationally invisible.

    ``ReferenceChainDatabase.insert_blocks`` only re-sorts a chain when a
    batch actually arrives out of order; an in-order ingest (sort
    skipped) and a shuffled ingest of the same rows answer every query
    identically — and agree with the analysis database's kernels.
    """

    ROWS = [block(number=n, timestamp=500 + n * 137 + (n % 3) * 40,
                  difficulty=90 + n, miner=f"p{n % 4}",
                  tx_count=n % 5, contract_tx_count=n % 2)
            for n in range(1, 40)]

    @staticmethod
    def _shuffled(rows):
        shuffled = list(rows)
        random.Random(13).shuffle(shuffled)
        return shuffled

    def test_block_queries_order_independent(self):
        ordered = reference_db(self.ROWS)
        scrambled = reference_db(self._shuffled(self.ROWS))
        columnar = analysis_db(self.ROWS)
        assert scrambled.timestamps_and_difficulties("ETH") == (
            ordered.timestamps_and_difficulties("ETH")
        )
        for name in AGGREGATED:
            expected = getattr(ordered, name)("ETH")
            assert getattr(scrambled, name)("ETH") == expected
            assert getattr(columnar, name)("ETH") == expected

    def test_blocks_between_bisect_vs_scan(self):
        # The analysis database bisects to the start filter and to each
        # window edge; the oracle scans every block.  Starts before, at,
        # between and after block timestamps must select the same
        # half-open windows on both.
        columnar = analysis_db(self.ROWS)
        oracle = reference_db(self.ROWS)
        stamps = [row.timestamp for row in self.ROWS]
        for start in (None, 0, stamps[4], stamps[4] + 1, stamps[20],
                      HOUR, 2 * HOUR, stamps[-1], stamps[-1] + 1):
            for name in AGGREGATED:
                assert getattr(columnar, name)("ETH", start) == (
                    getattr(oracle, name)("ETH", start)
                )
        assert columnar.blocks_per_hour("ETH", stamps[-1] + 1) == {}

    def test_aggregates_match_brute_force(self):
        days = {}
        for row in self.ROWS:
            days.setdefault(row.timestamp // DAY, []).append(row)
        expected = {
            d: sum(float(r.difficulty) for r in rows) / len(rows)
            for d, rows in days.items()
        }
        expected_tx = {
            d: sum(r.tx_count for r in rows) for d, rows in days.items()
        }
        for db in (analysis_db(self.ROWS), reference_db(self.ROWS)):
            assert db.daily_mean_difficulty("ETH") == expected
            assert db.block_transactions_per_day("ETH") == expected_tx

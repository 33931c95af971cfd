"""The figure metrics: ``db_*`` wrappers over the analysis database."""

import pytest

from repro.core.metrics import (
    db_blocks_per_hour,
    db_contract_fraction_per_day,
    db_daily_mean_difficulty,
    db_hourly_mean_block_delta,
    db_transactions_per_day,
)
from repro.data.columnar import ColumnarChainDatabase
from repro.data.windows import DAY, HOUR
from repro.sim.blockprod import ChainTrace


@pytest.fixture
def db():
    trace = ChainTrace("ETH")
    ts = 0
    for number in range(1, 8):
        ts += 600  # ten-minute spacing: 6 blocks/hour
        trace.append(number, ts, 1000 * number, "p", 2, 1)
    # One late block a day on, carrying three plain transactions.
    trace.append(8, DAY + 60, 9000, "p", 3, 0)
    database = ColumnarChainDatabase()
    database.adopt_trace(trace)
    return database


class TestDbMetrics:
    def test_blocks_per_hour(self, db):
        series = db_blocks_per_hour(db, "ETH")
        assert series.values[:2] == [5.0, 2.0]  # blocks at 600..3000, 3600..
        assert series.timestamps[:2] == [0, HOUR]
        assert sum(series.values) == 8.0

    def test_difficulty_series(self, db):
        timestamps, difficulties = db.timestamps_and_difficulties("ETH")
        assert list(timestamps) == [600 * n for n in range(1, 8)] + [DAY + 60]
        assert list(difficulties) == [1000 * n for n in range(1, 8)] + [9000]

    def test_block_delta_series(self, db):
        series = db_hourly_mean_block_delta(db, "ETH")
        # Hour 0 holds four 600 s gaps; hour 1 two more; the late block's
        # gap lands in its own hour.
        assert series.values[:2] == [600.0, 600.0]
        assert series.values[-1] == float(DAY + 60 - 4200)

    def test_daily_mean_difficulty(self, db):
        series = db_daily_mean_difficulty(db, "ETH")
        assert series.values == [4000.0, 9000.0]  # mean of 1k..7k, then 9k
        assert db_daily_mean_difficulty(db, "ETH", start_ts=DAY).values == [
            9000.0
        ]

    def test_transactions_per_day(self, db):
        series = db_transactions_per_day(db, "ETH")
        assert series.values == [14.0, 3.0]

    def test_contract_fraction_per_day(self, db):
        series = db_contract_fraction_per_day(db, "ETH")
        assert series.values == [0.5, 0.0]

    def test_empty_chain_yields_empty_series(self, db):
        for metric in (
            db_blocks_per_hour,
            db_daily_mean_difficulty,
            db_hourly_mean_block_delta,
            db_transactions_per_day,
            db_contract_fraction_per_day,
        ):
            assert metric(db, "missing").is_empty()

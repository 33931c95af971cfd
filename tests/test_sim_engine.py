"""The fork-simulation engine: structural and calibration checks.

One moderately sized run (90 days) is shared module-wide; the full
270-day reproduction lives in the benchmarks.
"""

import pytest

from repro.core.metrics import (
    db_daily_mean_difficulty,
    trace_transactions_per_day,
)
from repro.core.partition import find_trace_fork_point, stabilization_time
from repro.data.windows import DAY, HOUR
from repro.sim.engine import ForkSimConfig, ForkSimulation


@pytest.fixture(scope="module")
def result():
    return ForkSimulation(
        ForkSimConfig(days=90, prefork_days=7, seed=77)
    ).run()


class TestStructure:
    def test_traces_share_the_prefix(self, result):
        fork_point = find_trace_fork_point(result.eth_trace, result.etc_trace)
        assert fork_point == result.fork_number

    def test_fork_anchored_to_calendar(self, result):
        from repro.sim.clock import FORK_TIMESTAMP

        assert abs(result.fork_timestamp - FORK_TIMESTAMP) < DAY

    def test_rates_cover_the_horizon(self, result):
        assert result.rates.days("ETH") == 90
        assert result.rates.days("ETC") == 90

    def test_daily_hashrate_recorded(self, result):
        assert len(result.daily_hashrate["ETH"]) == 90
        assert len(result.daily_hashrate["ETC"]) == 90

    def test_to_database(self, result):
        db = result.to_database()
        for chain, trace in result.traces().items():
            hourly = db.blocks_per_hour(chain)
            assert sum(hourly.values()) == len(trace)
            times, _ = db.timestamps_and_difficulties(chain)
            assert times is trace.timestamps  # adopted zero-copy
        post_fork = db.blocks_per_hour("ETH", result.fork_timestamp)
        assert sum(post_fork.values()) > 80 * 6000

    def test_deterministic(self):
        config = ForkSimConfig(days=10, prefork_days=2, seed=123)
        a = ForkSimulation(config).run()
        b = ForkSimulation(config).run()
        assert list(a.etc_trace.timestamps) == list(b.etc_trace.timestamps)


class TestCalibration:
    def test_eth_unaffected_at_fork(self, result):
        """ETH's block rate never dips: the majority's chain continues."""
        eth = result.eth_trace
        first_day = eth.slice_by_time(
            result.fork_timestamp, result.fork_timestamp + DAY
        )
        assert 5000 < len(first_day) < 7500

    def test_etc_collapses_then_recovers_in_about_two_days(self, result):
        report = stabilization_time(result.etc_trace, result.fork_timestamp)
        assert report.stabilization_days is not None
        assert 1.0 <= report.stabilization_days <= 3.5
        assert report.peak_delta_seconds > 1200  # the paper's delta spike

    def test_etc_difficulty_an_order_below_eth(self, result):
        db = result.to_database()
        eth = db_daily_mean_difficulty(
            db, "ETH", result.fork_timestamp + 30 * DAY
        )
        etc = db_daily_mean_difficulty(
            db, "ETC", result.fork_timestamp + 30 * DAY
        )
        ratio = eth.mean() / etc.mean()
        assert 6 <= ratio <= 20

    def test_mirror_image_difficulty_drift(self, result):
        """Figure 1's second fortnight: ETH sheds difficulty while ETC
        gains it, as profit miners flow back."""
        db = result.to_database()
        eth = db_daily_mean_difficulty(db, "ETH")
        etc = db_daily_mean_difficulty(db, "ETC")
        fork = result.fork_timestamp

        def value_near(series, timestamp):
            best = min(series.timestamps, key=lambda t: abs(t - timestamp))
            return series.values[series.timestamps.index(best)]

        eth_day1 = value_near(eth, fork + 1 * DAY)
        eth_day14 = value_near(eth, fork + 14 * DAY)
        etc_day3 = value_near(etc, fork + 3 * DAY)
        etc_day14 = value_near(etc, fork + 14 * DAY)
        assert eth_day14 < eth_day1  # ETH loses hashpower
        assert etc_day14 > etc_day3 * 2  # ETC regains it

    def test_transaction_volumes_track_workloads(self, result):
        eth = trace_transactions_per_day(
            result.eth_trace, result.fork_timestamp + 10 * DAY
        )
        etc = trace_transactions_per_day(
            result.etc_trace, result.fork_timestamp + 10 * DAY
        )
        assert eth.mean() == pytest.approx(45_000, rel=0.25)
        ratio = eth.mean() / etc.mean()
        assert 2.0 <= ratio <= 3.2

    def test_transactions_can_be_disabled(self):
        config = ForkSimConfig(days=5, prefork_days=1, seed=5,
                               with_transactions=False)
        result = ForkSimulation(config).run()
        assert sum(result.eth_trace.tx_counts) == 0

"""Pool-concentration analysis — Figure 5's machinery."""

from collections import Counter

import pytest

from repro.core.pools import (
    convergence_day,
    daily_top_n_shares,
    daily_top_pools,
    db_top_n_share_series,
    migration_consistency,
    top_n_share_series,
)
from repro.core.timeseries import TimeSeries
from repro.data.columnar import ColumnarChainDatabase
from repro.data.windows import DAY
from repro.sim.blockprod import ChainTrace


class TestDailyShares:
    def test_top_n_share(self):
        counts = Counter({"a": 50, "b": 30, "c": 15, "d": 5})
        assert daily_top_n_shares(counts, 1) == 0.50
        assert daily_top_n_shares(counts, 3) == 0.95
        assert daily_top_n_shares(counts, 10) == 1.0

    def test_empty_day(self):
        assert daily_top_n_shares(Counter(), 3) == 0.0

    def test_series_partitions_by_day(self):
        blocks = (
            [(0, "a")] * 8 + [(100, "b")] * 2          # day 0: a has 80%
            + [(DAY + 1, "a")] * 5 + [(DAY + 2, "b")] * 5  # day 1: 50/50
        )
        series = top_n_share_series(blocks, top_n=1)
        assert series.values == [80.0, 50.0]

    def test_top_pools_per_day_tracks_identity(self):
        blocks = [(0, "a")] * 3 + [(0, "b")] * 2 + [(DAY, "c")] * 4
        tops = daily_top_pools(blocks, top_n=1)
        assert tops[0] == ["a"]
        assert tops[1] == ["c"]


class TestTraceVariant:
    """The Figure 5 kernel over a trace adopted by the columnar database."""

    def build_db(self):
        trace = ChainTrace("ETH")
        for i in range(8):
            trace.append(i, i * 100, 1000, "bigpool")
        for i in range(2):
            trace.append(8 + i, 900 + i, 1000, f"solo-{i:05d}")
        db = ColumnarChainDatabase()
        db.adopt_trace(trace)
        return db

    def test_solo_miners_never_count_as_pools(self):
        series = db_top_n_share_series(self.build_db(), "ETH", top_n=1)
        # bigpool has 8 of 10 blocks; the solos are denominators only.
        assert series.values == [80.0]

    def test_start_ts_filter(self):
        series = db_top_n_share_series(
            self.build_db(), "ETH", top_n=1, start_ts=850
        )
        assert series.values == [0.0]  # only solo blocks remain


class TestMigration:
    def test_same_pools_before_and_after(self):
        pre = [(0, name) for name in "aabbbcc"]
        post = [(DAY, name) for name in "aabbccc"]
        assert migration_consistency(pre, post, top_n=3) == 1.0

    def test_disjoint_pools(self):
        pre = [(0, "a"), (0, "b")]
        post = [(DAY, "x"), (DAY, "y")]
        assert migration_consistency(pre, post, top_n=2) == 0.0

    def test_partial_overlap(self):
        pre = [(0, "a"), (0, "b")]
        post = [(DAY, "a"), (DAY, "x")]
        assert migration_consistency(pre, post, top_n=2) == pytest.approx(1 / 3)


class TestConvergence:
    def test_detects_convergence_day(self):
        timestamps = [d * DAY for d in range(40)]
        stable = TimeSeries(timestamps, [80.0] * 40)
        # climber converges at day 20 and stays within tolerance.
        climber_values = [40.0 + 2.0 * d for d in range(20)] + [79.0] * 20
        climber = TimeSeries(timestamps, climber_values)
        day = convergence_day(stable, climber, tolerance=8.0, sustain_days=10)
        assert day is not None
        assert day / DAY == pytest.approx(18, abs=3)

    def test_no_convergence_returns_none(self):
        timestamps = [d * DAY for d in range(30)]
        a = TimeSeries(timestamps, [80.0] * 30)
        b = TimeSeries(timestamps, [20.0] * 30)
        assert convergence_day(a, b) is None

    def test_transient_touch_does_not_count(self):
        timestamps = [d * DAY for d in range(30)]
        a = TimeSeries(timestamps, [80.0] * 30)
        values = [20.0] * 10 + [79.0] * 3 + [20.0] * 17  # brief touch
        b = TimeSeries(timestamps, values)
        assert convergence_day(a, b, sustain_days=5) is None

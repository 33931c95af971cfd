"""Partition metrics and market-efficiency analysis."""

import random

import pytest

from repro.core.market_analysis import (
    find_dip,
    hashes_per_usd_series,
    market_efficiency_report,
    relative_gap_series,
)
from repro.core.partition import (
    find_trace_fork_point,
    hashpower_loss_fraction,
    peak_block_delta,
    stabilization_from_columns,
    stabilization_time,
)
from repro.core.timeseries import TimeSeries
from repro.data.columnar import ColumnarChainDatabase
from repro.data.windows import DAY, HOUR
from repro.market.exchange import ExchangeRateSeries
from repro.perf.reference import ReferenceChainDatabase
from repro.sim.blockprod import ChainTrace


def stalled_trace(fork_ts=100_000, pre_blocks=100, stall=3000, post_blocks=2000):
    """A trace that mines at 14 s, stalls at the fork, then recovers."""
    trace = ChainTrace("ETC")
    ts = fork_ts - pre_blocks * 14
    for i in range(pre_blocks):
        trace.append(i, ts, 14_000_000, "m")
        ts += 14
    # Stall: 20 blocks at `stall`-second gaps.
    for i in range(20):
        ts += stall
        trace.append(pre_blocks + i, ts, 14_000_000, "m")
    # Recovery at target rate.
    for i in range(post_blocks):
        ts += 14
        trace.append(pre_blocks + 20 + i, ts, 1_000_000, "m")
    return trace


class TestForkPoint:
    def test_forked_traces_report_divergence(self):
        parent = ChainTrace("pre")
        for i in range(5):
            parent.append(i, i * 14, 1000, "m")
        eth = ChainTrace.forked_from(parent, "ETH")
        etc = ChainTrace.forked_from(parent, "ETC")
        eth.append(5, 80, 1000, "eth-pool")
        etc.append(5, 95, 1000, "etc-pool")
        assert find_trace_fork_point(eth, etc) == 4

    def test_identical_traces(self):
        parent = ChainTrace("a")
        for i in range(3):
            parent.append(i, i * 14, 1000, "m")
        clone = ChainTrace.forked_from(parent, "b")
        assert find_trace_fork_point(parent, clone) == 2


class TestHashpowerLoss:
    def test_ninety_percent_drop_detected(self):
        fork_ts = 100_000
        trace = ChainTrace("ETC")
        # Before: 14 s blocks; after: 140 s blocks at equal difficulty
        # → one tenth of the hashpower remains.
        ts = fork_ts - 3 * HOUR
        index = 0
        while ts < fork_ts:
            trace.append(index, ts, 14_000_000, "m")
            ts += 14
            index += 1
        while ts < fork_ts + 3 * HOUR:
            trace.append(index, ts, 14_000_000, "m")
            ts += 140
            index += 1
        loss = hashpower_loss_fraction(trace, fork_ts, window=2 * HOUR)
        assert loss == pytest.approx(0.9, abs=0.03)


class TestStabilization:
    def test_recovery_detected(self):
        trace = stalled_trace(stall=3000)
        report = stabilization_time(trace, 100_000)
        assert report.stabilization_seconds is not None
        # 20 stalled blocks × 3000 s ≈ 0.7 days of stall.
        assert 0.5 <= report.stabilization_days <= 1.2
        assert report.peak_delta_seconds == 3000
        assert report.difficulty_at_recovery < report.difficulty_at_fork

    def test_peak_block_delta_window(self):
        trace = stalled_trace(stall=2222)
        assert peak_block_delta(trace, 100_000, 100_000 + DAY) == 2222

    def test_no_recovery_within_horizon(self):
        trace = stalled_trace(stall=5000, post_blocks=0)
        report = stabilization_time(trace, 100_000, horizon_days=1)
        assert report.stabilization_seconds is None


def timestamp_trace(timestamps, fork_ts=100_000):
    """A trace mining at the given timestamps; difficulty = 1000 + index."""
    trace = ChainTrace("ETC")
    trace.append(0, fork_ts - 14, 999, "m")
    for index, ts in enumerate(timestamps):
        trace.append(index + 1, ts, 1000 + index, "m")
    return trace


#: Six blocks/hour target with 50% tolerance: an hour "counts" at >= 3
#: blocks, and three such hours in a row mark the recovery.
SMALL = dict(target_block_time=600.0, sustain_hours=3)


def hours_of_blocks(counts, fork_ts=100_000, per_hour_gap=600):
    """Timestamps putting ``counts[h]`` blocks into fork-relative hour h."""
    stamps = []
    for hour, count in enumerate(counts):
        base = fork_ts + hour * HOUR
        stamps.extend(base + i * per_hour_gap for i in range(count))
    return stamps


class TestStabilizationKernel:
    def test_empty_window_raises(self):
        trace = timestamp_trace([100_000 + 15 * DAY])
        with pytest.raises(ValueError):
            stabilization_time(trace, 100_000)

    def test_one_block_window_has_float_zero_peak(self):
        trace = timestamp_trace([100_000 + 10])
        report = stabilization_time(trace, 100_000)
        assert report.peak_delta_seconds == 0.0
        assert isinstance(report.peak_delta_seconds, float)
        assert report.difficulty_at_fork == 1000

    def test_all_zero_deltas_give_float_zero(self):
        trace = timestamp_trace([100_000 + 5] * 4)
        report = stabilization_time(trace, 100_000)
        assert report.peak_delta_seconds == 0.0
        assert isinstance(report.peak_delta_seconds, float)

    def test_positive_peak_keeps_the_column_int(self):
        trace = timestamp_trace([100_000, 100_007, 100_107, 100_110])
        report = stabilization_time(trace, 100_000)
        assert report.peak_delta_seconds == 100
        assert isinstance(report.peak_delta_seconds, int)

    def test_empty_hour_resets_the_sustain_run(self):
        stamps = hours_of_blocks([4, 4, 0, 4, 4, 4])
        trace = timestamp_trace(stamps)
        report = stabilization_time(trace, 100_000, **SMALL)
        # Hours 0-1 qualify, hour 2 is empty: the run restarts at hour 3.
        assert report.stabilization_seconds == 3 * HOUR
        assert report.difficulty_at_recovery == 1000 + 8
        # Last block of hour 1 (offset 1800 s) to the first of hour 3.
        assert report.peak_delta_seconds == 2 * HOUR - 3 * 600

    def test_thin_hour_resets_the_sustain_run(self):
        stamps = hours_of_blocks([4, 4, 2, 4, 4, 4])
        report = stabilization_time(timestamp_trace(stamps), 100_000, **SMALL)
        assert report.stabilization_seconds == 3 * HOUR

    def test_sustained_rate_from_the_fork_recovers_at_zero(self):
        stamps = hours_of_blocks([3, 3, 3])
        report = stabilization_time(timestamp_trace(stamps), 100_000, **SMALL)
        assert report.stabilization_seconds == 0
        assert report.difficulty_at_recovery == report.difficulty_at_fork

    def test_no_recovery_gives_none(self):
        stamps = hours_of_blocks([4, 4, 0, 4, 4])
        report = stabilization_time(timestamp_trace(stamps), 100_000, **SMALL)
        assert report.stabilization_seconds is None
        assert report.stabilization_days is None
        assert report.difficulty_at_recovery is None

    def test_database_columns_match_the_trace(self):
        trace = stalled_trace(stall=2500)
        columnar = ColumnarChainDatabase()
        columnar.adopt_trace(trace)
        record = ReferenceChainDatabase()
        record.insert_blocks(trace.iter_block_records())
        expected = stabilization_time(trace, 100_000)
        for db in (columnar, record):
            report = stabilization_from_columns(
                *db.timestamps_and_difficulties("ETC"), 100_000
            )
            assert report == expected

    def test_unsorted_database_columns_are_rejected(self):
        trace = ChainTrace("ETC")
        for n, ts in ((1, 200), (2, 100)):
            trace.append(n, ts, 1, "m")
        columnar = ColumnarChainDatabase()
        columnar.adopt_trace(trace)
        record = ReferenceChainDatabase()
        record.insert_blocks(trace.iter_block_records())
        for db in (columnar, record):
            with pytest.raises(ValueError):
                db.timestamps_and_difficulties("ETC")


def loop_stabilization(trace, fork_ts, target_block_time=14.0,
                       rate_tolerance=0.5, sustain_hours=6, horizon_days=14):
    """Per-block reference for the bisecting kernel (plain loops)."""
    threshold = HOUR / target_block_time * (1.0 - rate_tolerance)
    window = [
        (ts, d) for ts, d in zip(trace.timestamps, trace.difficulties)
        if fork_ts <= ts < fork_ts + horizon_days * DAY
    ]
    hourly, peak, previous = {}, 0.0, None
    for ts, _ in window:
        hour = (ts - fork_ts) // HOUR
        hourly[hour] = hourly.get(hour, 0) + 1
        if previous is not None:
            peak = max(peak, ts - previous)
        previous = ts
    run, recovery_hour = 0, None
    for hour in range(max(hourly) + 1):
        if hourly.get(hour, 0) >= threshold:
            run += 1
            if run >= sustain_hours:
                recovery_hour = hour - sustain_hours + 1
                break
        else:
            run = 0
    seconds, at_recovery = None, None
    if recovery_hour is not None:
        seconds = recovery_hour * HOUR
        start = fork_ts + seconds
        later = [d for ts, d in window if start <= ts < start + HOUR]
        at_recovery = later[0] if later else None
    return seconds, peak, window[0][1], at_recovery


@pytest.mark.parametrize("seed", range(16))
def test_kernel_matches_per_block_loop(seed):
    rng = random.Random(seed)
    fork_ts = 100_000
    ts = fork_ts - rng.randrange(0, 3 * HOUR)
    typical = rng.choice((5, 14, 60))
    stall_rate = rng.choice((0.0, 0.002, 0.01))
    trace = ChainTrace("ETC")
    for number in range(rng.randrange(1, 6000)):
        # Zero gaps, near-target gaps and multi-hour stalls all occur.
        roll = rng.random()
        if roll < stall_rate:
            ts += rng.randrange(HOUR, 4 * HOUR)
        elif roll < 0.1:
            ts += 0
        else:
            ts += rng.randrange(0, 2 * typical + 1)
        trace.append(number, ts, rng.randrange(1, 10**15), "m")
    params = dict(
        target_block_time=rng.choice((14.0, 60.0, 600.0)),
        rate_tolerance=rng.choice((0.0, 0.5, 0.9)),
        sustain_hours=rng.choice((1, 3, 6)),
        horizon_days=rng.choice((1, 14)),
    )
    try:
        expected = loop_stabilization(trace, fork_ts, **params)
    except ValueError:  # max() of an empty window: no post-fork blocks
        with pytest.raises(ValueError):
            stabilization_time(trace, fork_ts, **params)
        return
    report = stabilization_time(trace, fork_ts, **params)
    assert (
        report.stabilization_seconds,
        report.peak_delta_seconds,
        report.difficulty_at_fork,
        report.difficulty_at_recovery,
    ) == expected
    assert type(report.peak_delta_seconds) is type(expected[1])


class TestMarketAnalysis:
    def build_series(self, gap=0.0):
        fork_ts = 0
        days = 60
        rates = ExchangeRateSeries()
        rates.set_series("ETH", [10.0] * days)
        rates.set_series("ETC", [1.0] * days)
        eth_difficulty = TimeSeries(
            [d * DAY for d in range(days)],
            [50e12 + d * 1e11 for d in range(days)],
        )
        etc_difficulty = TimeSeries(
            [d * DAY for d in range(days)],
            [(50e12 + d * 1e11) * (1 + gap) / 10 for d in range(days)],
        )
        eth = hashes_per_usd_series(eth_difficulty, rates, "ETH", fork_ts)
        etc = hashes_per_usd_series(etc_difficulty, rates, "ETC", fork_ts)
        return eth, etc, fork_ts

    def test_formula(self):
        rates = ExchangeRateSeries()
        rates.set_series("ETH", [14.0])
        series = hashes_per_usd_series(
            TimeSeries([0], [7e13]), rates, "ETH", 0
        )
        assert series.values[0] == pytest.approx(1e12)

    def test_identical_economics_gives_unit_correlation(self):
        eth, etc, fork_ts = self.build_series(gap=0.0)
        report = market_efficiency_report(eth, etc, fork_ts, skip_days=0)
        assert report.correlation == pytest.approx(1.0)
        assert report.median_relative_gap == pytest.approx(0.0, abs=1e-9)
        assert report.curves_nearly_identical

    def test_persistent_gap_measured(self):
        eth, etc, fork_ts = self.build_series(gap=0.5)
        gaps = relative_gap_series(eth, etc)
        assert gaps.values[0] == pytest.approx(0.4, abs=0.02)

    def test_find_dip(self):
        timestamps = [d * DAY for d in range(100)]
        values = [100.0] * 50 + [60.0] * 10 + [100.0] * 40
        series = TimeSeries(timestamps, values)
        dip = find_dip(series, 45 * DAY, 70 * DAY)
        assert dip is not None
        when, depth = dip
        assert 50 * DAY <= when < 60 * DAY
        assert depth == pytest.approx(0.4, abs=0.01)

    def test_no_dip_returns_none(self):
        timestamps = [d * DAY for d in range(100)]
        series = TimeSeries(timestamps, [100.0] * 100)
        assert find_dip(series, 45 * DAY, 70 * DAY) is None

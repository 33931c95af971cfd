"""Fast simulator: traces, block production, stalls, forking."""

import random

import pytest

from repro.chain.config import PRE_FORK_CONFIG
from repro.sim.blockprod import BlockProducer, ChainTrace
from repro.sim.clock import (
    FORK_TIMESTAMP,
    day_to_timestamp,
    format_date,
    month_label,
    timestamp_to_day,
)


def miner(label="pool-a"):
    return lambda rng: label


def make_producer(trace=None, difficulty=14_000_000, seed=1):
    trace = trace if trace is not None else ChainTrace("T")
    return BlockProducer(
        config=PRE_FORK_CONFIG,
        trace=trace,
        start_number=0,
        start_timestamp=1_000_000,
        start_difficulty=difficulty,
        seed=seed,
    )


class TestClock:
    def test_day_round_trip(self):
        assert timestamp_to_day(day_to_timestamp(30)) == pytest.approx(30)

    def test_fork_is_day_zero(self):
        assert timestamp_to_day(FORK_TIMESTAMP) == 0.0

    def test_format_date_is_fork_day(self):
        assert format_date(FORK_TIMESTAMP) == "2016-07-20"

    def test_month_label_matches_paper_axis(self):
        assert month_label(FORK_TIMESTAMP) == "07/16"


class TestChainTrace:
    def test_append_and_access(self):
        trace = ChainTrace("X")
        trace.append(1, 100, 1000, "poolA", tx_count=5, contract_tx_count=2)
        assert len(trace) == 1
        assert trace.miner_of(0) == "poolA"
        assert trace.tx_counts[0] == 5

    def test_label_table_dedups(self):
        trace = ChainTrace("X")
        for i in range(5):
            trace.append(i, 100 + i, 1000, "poolA")
        assert len(trace.miner_labels) == 1

    def test_block_records_round_trip(self):
        trace = ChainTrace("X")
        trace.append(1, 100, 1000, "poolA", 3, 1)
        records = list(trace.iter_block_records())
        assert records[0].chain == "X"
        assert records[0].miner == "poolA"
        assert records[0].plain_tx_count == 2

    def test_slice_by_time(self):
        trace = ChainTrace("X")
        for i in range(10):
            trace.append(i, 100 + 10 * i, 1000, "m")
        window = trace.slice_by_time(120, 150)
        assert list(window) == [2, 3, 4]

    def test_slice_by_time_half_open_boundaries(self):
        trace = ChainTrace("X")
        for i in range(10):
            trace.append(i, 100 + 10 * i, 1000, "m")
        # A block exactly at start_ts is included; exactly at end_ts is
        # excluded — the half-open windows the analysis queries bucket by.
        assert list(trace.slice_by_time(120, 140)) == [2, 3]
        assert list(trace.slice_by_time(0, 100)) == []
        assert list(trace.slice_by_time(190, 10_000)) == [9]
        assert list(trace.slice_by_time(145, 145)) == []

    def test_forked_from_copies_history(self):
        parent = ChainTrace("pre")
        parent.append(1, 100, 1000, "m")
        child = ChainTrace.forked_from(parent, "ETH")
        child.append(2, 114, 1000, "m2")
        assert len(parent) == 1  # parent untouched
        assert len(child) == 2
        assert child.chain == "ETH"
        assert child.miner_of(0) == "m"


class TestBlockProducer:
    def test_produces_blocks_until_deadline(self):
        producer = make_producer(difficulty=14_000_000)
        count = producer.run_until(
            1_000_000 + 3600, hashrate=1e6, miner_sampler=miner()
        )
        # 14s target → ~257 blocks/hour.
        assert 180 < count < 350

    def test_difficulty_seeks_equilibrium(self):
        # Start far above equilibrium for this hashrate.
        producer = make_producer(difficulty=140_000_000)
        producer.run_until(1_000_000 + 86_400, hashrate=1e6,
                           miner_sampler=miner())
        assert producer.difficulty < 30_000_000

    def test_zero_hashrate_stalls_without_blocks(self):
        producer = make_producer()
        count = producer.run_until(1_000_000 + 3600, hashrate=0,
                                   miner_sampler=miner())
        assert count == 0
        assert producer.clock == 1_000_000 + 3600
        assert producer.timestamp == 1_000_000  # head unchanged

    def test_stall_gap_reaches_the_next_block_delta(self):
        """After an idle stretch, the first new block carries the whole
        gap — the difficulty free-fall trigger."""
        producer = make_producer(difficulty=14_000_000)
        producer.run_until(1_000_000 + 3600, hashrate=0, miner_sampler=miner())
        difficulty_before = producer.difficulty
        producer.advance_one(hashrate=1e6, miner_sampler=miner())
        delta = producer.timestamp - 1_000_000
        assert delta >= 3600
        assert producer.difficulty < difficulty_before

    def test_timestamps_strictly_increase(self):
        producer = make_producer(difficulty=100_000)
        producer.run_until(1_000_000 + 600, hashrate=1e6, miner_sampler=miner())
        timestamps = list(producer.trace.timestamps)
        assert all(b > a for a, b in zip(timestamps, timestamps[1:]))

    def test_deterministic_per_seed(self):
        a = make_producer(seed=9)
        a.run_until(1_000_000 + 3600, 1e6, miner(), None)
        b = make_producer(seed=9)
        b.run_until(1_000_000 + 3600, 1e6, miner(), None)
        assert list(a.trace.timestamps) == list(b.trace.timestamps)

    def test_tx_sampler_fills_blocks(self):
        producer = make_producer()

        def sampler(rng, gap):
            return 10, 3

        producer.run_until(1_000_000 + 600, 1e6, miner(), sampler)
        assert all(c == 10 for c in producer.trace.tx_counts)
        assert all(c == 3 for c in producer.trace.contract_tx_counts)

    def test_runaway_guard(self):
        producer = make_producer(difficulty=140)  # absurdly easy
        with pytest.raises(RuntimeError):
            producer.run_until(
                1_000_000 + 86_400 * 300, 1e12, miner(), max_blocks=1000
            )

    def test_advance_one_rejects_zero_hashrate(self):
        with pytest.raises(ValueError):
            make_producer().advance_one(0, miner())

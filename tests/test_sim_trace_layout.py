"""The compact ``ChainTrace`` layout keeps every digest.

A trace stores its block numbers as a range, its miner ids and
transaction counts in two bytes while they fit, and widens a column to
int64 when a value does not.  None of that may move a digest: the
literal values below were computed on the all-int64 layout, and the
widening tests compare each widened trace against the same values
stored all-``'q'``.
"""

import base64
import pickle
import sys
from array import array
from pathlib import Path

import pytest

from repro.chain.config import ETH_CONFIG
from repro.harness import ResultCache, run_cached, simulate_chunk_spec
from repro.market.exchange import ExchangeRateSeries
from repro.sim.blockprod import BlockProducer, ChainTrace
from repro.sim.checkpoint import ForkSimCheckpoint
from repro.sim.engine import ForkSimConfig, ForkSimResult, run_fork_sim
from repro.sim.population import eth_pool_landscape
from repro.sim.workload import eth_workload

#: ``ForkSimResult.digest()`` of a 4-day run (default 14-day prefix).
PINNED_RUNS = {
    (1, True): "0f0e7a52ed87ab99df4cbc992685871da5936aa06a24600b96bfdc91bc4cd4c3",
    (1, False): "2fc5881a5d74c969a40af736d48b787b0b0a7767203345283085f26054baae51",
    (7, True): "9bfd87782de3ef9a20fc4b77f113e4dab353833abf82c41e6b083d9272b0a9e3",
    (7, False): "dbb1c7975d073c9387f41a40ac93511bffd099c47e4737f3f2710a348e2da366",
}

#: ``simulate-chunk`` values of a 6-day, seed-7 horizon in 2-day chunks:
#: ``(digest, blocks, checkpoint digest)`` per chunk.
PINNED_CHUNKS = {
    2: (
        "c4c82e7648209f3c513c34029d2a11f93637250c0ae6bc4add2992c48cfde694",
        40718,
        "b933849df421da10e14a8abf525a05823a7dde8655dae8496b39ae33cf46914e",
    ),
    4: (
        "f0224d3c725cf2c7a9019b1e88700f32f736293403e4ccaa8dda44a6159b4c6d",
        65875,
        "518d91ddb3eb2aabea10b214df0cb36bae9c938fcd21cf6248571a384abf8558",
    ),
    6: (
        "d7e1f71d94902b7a34d655da31d6ff748eb2a1ce8c57db78873f463e9b164430",
        92487,
        None,
    ),
}


def digest_of(trace: ChainTrace) -> str:
    """``ForkSimResult.digest()`` over ``trace`` beside an empty chain."""
    return ForkSimResult(
        config=ForkSimConfig(days=1),
        eth_trace=trace,
        etc_trace=ChainTrace("ETC"),
        fork_timestamp=0,
        fork_number=0,
        rates=ExchangeRateSeries(),
        daily_hashrate={},
    ).digest()


def all_int64(trace: ChainTrace) -> ChainTrace:
    """The same values with every stored column an ``array('q')``."""
    wide = trace.copy()
    for name in ChainTrace.NARROW:
        setattr(wide, name, array("q", getattr(trace, name)))
    return wide


class CountingProducer(BlockProducer):
    """Counts :meth:`advance_one` calls, to tell the kernel from the
    per-block path."""

    one_calls = 0

    def advance_one(self, *args, **kwargs):
        self.one_calls += 1
        return super().advance_one(*args, **kwargs)


def make_producer(cls=BlockProducer):
    return cls(
        ETH_CONFIG,
        ChainTrace("ETH"),
        start_number=1_920_000,
        start_timestamp=1_469_020_840,
        start_difficulty=62_413_376_722_602,
        seed=42,
    )


def assert_widened(trace: ChainTrace, wide: set) -> None:
    """``wide`` narrow columns are int64, the rest two bytes, and the
    digest equals the all-int64 layout's, also through pickling."""
    for name in ChainTrace.NARROW:
        assert getattr(trace, name).typecode == ("q" if name in wide else "H")
    digest = digest_of(trace)
    assert digest == digest_of(all_int64(trace))
    for protocol in (2, 5):
        loaded = pickle.loads(pickle.dumps(trace, protocol=protocol))
        for name in ChainTrace.STORED:
            column = getattr(loaded, name)
            assert column.typecode == getattr(trace, name).typecode
            assert column == getattr(trace, name)
        assert loaded.numbers == trace.numbers
        assert digest_of(loaded) == digest


class TestPinnedDigests:
    @pytest.mark.parametrize("seed,transactions", sorted(PINNED_RUNS))
    def test_single_shot_digest(self, seed, transactions):
        config = ForkSimConfig(
            days=4, seed=seed, with_transactions=transactions
        )
        assert run_fork_sim(config).digest() == PINNED_RUNS[
            seed, transactions
        ]

    def test_chunk_chain_digests(self, tmp_path: Path):
        config = ForkSimConfig(days=6, prefork_days=2, seed=7)
        cache = ResultCache(tmp_path / "cache")
        for upto, (digest, blocks, checkpoint) in sorted(PINNED_CHUNKS.items()):
            value = run_cached(simulate_chunk_spec(config, upto, 2), cache)
            assert value["digest"] == digest
            assert value["blocks"] == blocks
            if checkpoint is None:
                assert value["checkpoint"] is None
            else:
                assert value["checkpoint"].digest() == checkpoint


class TestLayout:
    def test_numbers_are_derived(self):
        trace = ChainTrace("X")
        for number in range(5, 9):
            trace.append(number, 100 + number, 1000, "m")
        assert trace.numbers == range(5, 9)
        assert trace.first_number == 5
        assert {getattr(trace, n).typecode for n in ChainTrace.NARROW} == {"H"}

    def test_non_consecutive_append_raises(self):
        trace = ChainTrace("X")
        trace.append(5, 100, 1000, "m")
        with pytest.raises(ValueError, match="does not follow"):
            trace.append(7, 101, 1000, "m")
        with pytest.raises(ValueError, match="does not follow"):
            trace.append(5, 101, 1000, "m")
        assert len(trace) == 1

    def test_non_consecutive_extend_raises(self):
        trace, segment = ChainTrace("X"), ChainTrace("X")
        trace.append(5, 100, 1000, "m")
        segment.append(7, 101, 1000, "m")
        with pytest.raises(ValueError, match="does not follow"):
            trace.extend(segment)

    def test_append_widens_on_overflow_and_negatives(self):
        trace = ChainTrace("X")
        trace.append(1, 100, 1000, "m", 3, 1)
        trace.append(2, 101, 1000, "m", 70_000, 1)
        trace.append(3, 102, 1000, "m", 4, -1)
        assert list(trace.tx_counts) == [3, 70_000, 4]
        assert list(trace.contract_tx_counts) == [1, 1, -1]
        assert_widened(trace, {"tx_counts", "contract_tx_counts"})

    def test_advance_one_widens(self):
        counts = iter([(5, 1), (70_000, 2), (2**40, 3), (6, 0)])

        def tx_sampler(rng, gap):
            return next(counts)

        producer = make_producer()
        miners = eth_pool_landscape().make_sampler(0.0)
        for _ in range(4):
            producer.advance_one(1e12, miners, tx_sampler)
        trace = producer.trace
        assert list(trace.tx_counts) == [5, 70_000, 2**40, 6]
        assert_widened(trace, {"tx_counts"})

    def test_kernel_widens_on_the_gauss_branch(self):
        # About 140k transactions a block: above two bytes, so the flush
        # widens the tx column; a second batch extends the wide column.
        def make_tx_sampler():
            return eth_workload().per_block_sampler(0, 86_400 * 10_000)

        batched = make_producer(CountingProducer)
        stepped = make_producer()
        hashrate = 4.5e12
        for _ in range(2):
            batched.advance_batch(
                20, hashrate, eth_pool_landscape().make_sampler(0.0),
                make_tx_sampler(),
            )
        assert batched.one_calls == 0
        for _ in range(2):
            miners = eth_pool_landscape().make_sampler(0.0)
            tx_sampler = make_tx_sampler()
            for _ in range(20):
                stepped.advance_one(hashrate, miners, tx_sampler)
        trace = batched.trace
        assert max(trace.tx_counts) > 0xFFFF
        assert digest_of(trace) == digest_of(stepped.trace)
        for name in ChainTrace.STORED:
            assert getattr(trace, name) == getattr(stepped.trace, name)
        wide = {n for n in ChainTrace.NARROW if max(getattr(trace, n)) > 0xFFFF}
        assert "tx_counts" in wide
        assert_widened(trace, wide)

    def test_extend_widens_to_a_wider_segment(self):
        trace, segment = ChainTrace("X"), ChainTrace("X")
        trace.append(1, 100, 1000, "m", 3)
        segment.append(2, 101, 1000, "m", 70_000)
        segment.append(3, 102, 1000, "m", 4)
        trace.extend(segment)
        assert list(trace.tx_counts) == [3, 70_000, 4]
        assert trace.numbers == range(1, 4)
        assert_widened(trace, {"tx_counts"})
        # A narrow segment extends a wide trace too.
        narrow = ChainTrace("X")
        narrow.append(4, 103, 1000, "m", 5)
        trace.extend(narrow)
        assert list(trace.tx_counts) == [3, 70_000, 4, 5]

    def test_checkpoint_json_keeps_widths(self):
        config = ForkSimConfig(days=2, prefork_days=1, seed=3)
        result = run_fork_sim(config)
        checkpoint = ForkSimCheckpoint.capture(
            config, 2, result.fork_number, result.fork_timestamp, {},
            result.traces(), {}, result.daily_hashrate,
        )
        eth = checkpoint.traces["ETH"]
        eth.append(eth.numbers.stop, eth.timestamps[-1] + 1, 1000, "m", 70_000)
        loaded = ForkSimCheckpoint.from_dict(checkpoint.to_dict())
        assert loaded.digest() == checkpoint.digest()
        for chain, trace in loaded.traces.items():
            original = checkpoint.traces[chain]
            assert trace.numbers == original.numbers
            for name in ChainTrace.STORED:
                assert getattr(trace, name).typecode == getattr(
                    original, name
                ).typecode
                assert getattr(trace, name) == getattr(original, name)
        assert loaded.traces["ETH"].tx_counts.typecode == "q"
        assert loaded.traces["ETC"].tx_counts.typecode == "H"

    def test_checkpoint_json_rejects_gapped_numbers(self):
        trace = ChainTrace("ETH")
        trace.append(1, 100, 1000, "m")
        trace.append(2, 101, 1000, "m")
        checkpoint = ForkSimCheckpoint(
            config={}, day=1, fork_number=0, fork_timestamp=0, producers={},
            traces={"ETH": trace}, allocation={}, daily_hashrate={},
        )
        payload = checkpoint.to_dict()
        gapped = array("q", [1, 3])
        if sys.byteorder != "little":
            gapped.byteswap()
        payload["traces"]["ETH"]["columns"]["numbers"] = base64.b64encode(
            gapped.tobytes()
        ).decode("ascii")
        with pytest.raises(ValueError, match="consecutive"):
            ForkSimCheckpoint.from_dict(payload)

"""Differential tests for the performance kernels.

Every fast path in this repo rides on one invariant: the optimized code
is *trajectory-identical* to the seed-state implementation it replaced —
same RNG draw order, same outputs, bit for bit.  These tests hold each
kernel against its retained reference:

* ``BlockProducer.advance_batch`` vs a loop of ``advance_one``
* ``PoolLandscape.make_sampler`` vs ``reference_sampler``
* ``ChainConfig.fast_difficulty`` vs ``compute_difficulty``
* the ``Simulator`` hot loop vs ``ReferenceSimulator`` / the observed loop
* the ``Network.send`` fast path vs the full transport body
* whole fork-sim digests, in-process and across fork/spawn workers
"""

import random

import pytest

from repro.chain.config import ETC_CONFIG, ETH_CONFIG, PRE_FORK_CONFIG
from repro.harness import NullProgress, WorkerPool, perf_probe_spec
from repro.harness.cache import NullCache
from repro.harness.jobs import execute_job
from repro.net.simulator import Simulator
from repro.perf import (
    ReferenceBlockProducer,
    ReferenceForkSimulation,
    ReferencePartitionScenario,
    ReferenceSimulator,
    reference_sampler,
)
from repro.sim.blockprod import BlockProducer, ChainTrace
from repro.sim.engine import ForkSimConfig, run_fork_sim
from repro.sim.population import (
    etc_pool_landscape,
    eth_pool_landscape,
    prefork_pool_landscape,
)
from repro.sim.workload import eth_workload


def make_producer(seed: int = 42, cls=BlockProducer) -> BlockProducer:
    return cls(
        ETH_CONFIG,
        ChainTrace("ETH"),
        start_number=1_920_000,
        start_timestamp=1_469_020_840,
        start_difficulty=62_413_376_722_602,
        seed=seed,
    )


def trace_columns(trace: ChainTrace):
    return (
        list(trace.numbers),
        list(trace.timestamps),
        list(trace.difficulties),
        list(trace.miner_ids),
        list(trace.tx_counts),
        list(trace.contract_tx_counts),
        list(trace.miner_labels),
    )


def mine_both_ways(n, hashrate, make_tx_sampler):
    """Mine ``n`` blocks with ``advance_batch`` and with ``advance_one``
    (each arm gets its own ``make_tx_sampler()``), assert the two
    trajectories are identical, and return the batched producer."""
    landscape = eth_pool_landscape()
    batched = make_producer()
    stepped = make_producer()
    produced = batched.advance_batch(
        n, hashrate, landscape.make_sampler(0.0), make_tx_sampler()
    )
    sampler = landscape.make_sampler(0.0)
    tx_sampler = make_tx_sampler()
    for _ in range(n):
        stepped.advance_one(hashrate, sampler, tx_sampler)

    assert produced == n
    assert trace_columns(batched.trace) == trace_columns(stepped.trace)
    assert (batched.number, batched.timestamp, batched.clock,
            batched.difficulty) == (
        stepped.number, stepped.timestamp, stepped.clock,
        stepped.difficulty,
    )
    # The strongest claim: both arms consumed the exact same draws.
    assert batched.rng.getstate() == stepped.rng.getstate()
    return batched


class TestBatchKernel:
    @pytest.mark.parametrize("with_tx", [False, True])
    def test_batch_matches_advance_one_trajectory(self, with_tx):
        workload = eth_workload()

        def make_tx_sampler():
            if not with_tx:
                return None
            total = workload.daily_count(0, random.Random(7))
            return workload.per_block_sampler(0, total)

        mine_both_ways(4_000, 4.5e12, make_tx_sampler)

    #: Daily totals steering the inlined transaction draws through every
    #: branch of the ``per_block_sampler`` closure (blocks are ~14 s apart
    #: at this hashrate and difficulty), each with a check that the
    #: branch was really taken.
    TX_BRANCHES = {
        # lam <= 0: no draws at all.
        "no-demand": (0, lambda counts: max(counts) == 0),
        # lam ~ 0.08: Knuth's loop, mostly zero-transaction blocks.
        "mostly-empty": (
            500, lambda counts: counts.count(0) > len(counts) // 2
        ),
        # lam ~ 100: Knuth's loop with counts past 64, where the
        # contract share switches to the clamped Gaussian.
        "binomial-gauss": (600_000, lambda counts: max(counts) > 64),
        # lam > 1000 on every block: the Gaussian Poisson approximation.
        "poisson-gauss": (100_000_000, lambda counts: min(counts) > 1000),
    }

    @pytest.mark.parametrize("branch", sorted(TX_BRANCHES))
    def test_inline_transaction_draws_match_closure(self, branch):
        total, taken = self.TX_BRANCHES[branch]
        workload = eth_workload()
        batched = mine_both_ways(
            2_000, 4.5e12, lambda: workload.per_block_sampler(0, total)
        )
        assert taken(list(batched.trace.tx_counts))

    def test_tx_sampler_without_parts_takes_general_loop(self):
        # A transaction sampler that publishes no tx_parts (a user
        # callable, here wrapping the standard closure) must run through
        # the general loop and still match advance_one draw for draw.
        closure = eth_workload().per_block_sampler(0, 600_000)

        def tx_sampler(rng, gap):
            return closure(rng, gap)

        assert not hasattr(tx_sampler, "tx_parts")
        mine_both_ways(1_000, 4.5e12, lambda: tx_sampler)

    def test_batch_matches_across_landscapes_and_days(self):
        for landscape in (
            eth_pool_landscape(),
            etc_pool_landscape(),
            prefork_pool_landscape(),
        ):
            for day in (0.0, 30.0, 100.0):
                batched = make_producer(seed=int(day) + 1)
                stepped = make_producer(seed=int(day) + 1)
                batched.advance_batch(
                    500, 2.0e12, landscape.make_sampler(day)
                )
                sampler = landscape.make_sampler(day)
                for _ in range(500):
                    stepped.advance_one(2.0e12, sampler)
                assert trace_columns(batched.trace) == trace_columns(
                    stepped.trace
                )
                assert batched.rng.getstate() == stepped.rng.getstate()

    def test_batch_stops_at_end_timestamp(self):
        landscape = eth_pool_landscape()
        fast = make_producer()
        slow = make_producer(cls=ReferenceBlockProducer)
        end = fast.timestamp + 3_600

        fast_blocks = fast.run_until(end, 4.5e12, landscape.make_sampler(0.0))
        slow_blocks = slow.run_until(end, 4.5e12, landscape.make_sampler(0.0))

        assert fast_blocks == slow_blocks > 0
        assert trace_columns(fast.trace) == trace_columns(slow.trace)
        assert fast.clock == slow.clock
        assert fast.rng.getstate() == slow.rng.getstate()

    def test_batch_rejects_bad_hashrate_and_empty_batches(self):
        producer = make_producer()
        with pytest.raises(ValueError):
            producer.advance_batch(
                10, 0.0, eth_pool_landscape().make_sampler(0.0)
            )
        assert producer.advance_batch(
            0, 1e12, eth_pool_landscape().make_sampler(0.0)
        ) == 0
        assert len(producer.trace) == 0

    def test_plain_callable_sampler_still_works(self):
        # A miner sampler without categorical_parts (user-supplied
        # callable) must route through the generic loop unchanged.
        batched = make_producer()
        stepped = make_producer()

        def sampler(rng):
            return "pool-a" if rng.random() < 0.5 else "pool-b"

        batched.advance_batch(300, 1e12, sampler)
        for _ in range(300):
            stepped.advance_one(1e12, sampler)
        assert trace_columns(batched.trace) == trace_columns(stepped.trace)
        assert batched.rng.getstate() == stepped.rng.getstate()


class TestSamplerParity:
    @pytest.mark.parametrize("day", [0.0, 1.0, 45.0, 120.0])
    def test_fast_and_reference_samplers_agree(self, day):
        for landscape in (eth_pool_landscape(), etc_pool_landscape()):
            fast_rng = random.Random(99)
            ref_rng = random.Random(99)
            fast = landscape.make_sampler(day)
            reference = reference_sampler(landscape, day)
            winners_fast = [fast(fast_rng) for _ in range(20_000)]
            winners_ref = [reference(ref_rng) for _ in range(20_000)]
            assert winners_fast == winners_ref
            assert fast_rng.getstate() == ref_rng.getstate()

    def test_sampler_exposes_categorical_parts(self):
        sampler = eth_pool_landscape().make_sampler(0.0)
        cumulative, labels, pooled_mass, solo_count, solo_labels, last = (
            sampler.categorical_parts
        )
        assert len(cumulative) == len(labels) == last + 1
        assert 0 < pooled_mass < 1
        assert solo_count == len(solo_labels)


class TestDifficultyParity:
    @pytest.mark.parametrize(
        "config", [ETH_CONFIG, ETC_CONFIG, PRE_FORK_CONFIG]
    )
    def test_fast_rule_matches_reference_on_random_headers(self, config):
        fast = config.fast_difficulty
        rng = random.Random(1234)
        for _ in range(5_000):
            parent_difficulty = rng.randrange(131_072, 10**15)
            parent_timestamp = rng.randrange(1_400_000_000, 1_600_000_000)
            timestamp = parent_timestamp + rng.randrange(1, 2_000)
            number = rng.randrange(1, 6_000_000)
            assert fast(
                parent_difficulty, parent_timestamp, timestamp, number
            ) == config.compute_difficulty(
                parent_difficulty, parent_timestamp, timestamp, number
            )

    def test_fast_rule_matches_on_floor_and_bomb_edges(self):
        for config in (ETH_CONFIG, ETC_CONFIG):
            fast = config.fast_difficulty
            for number in (1, 199_999, 200_000, 200_001, 2_000_000,
                           4_000_000, 5_000_000):
                for dt in (1, 9, 10, 11, 999, 1_000, 10_000):
                    for parent in (131_072, 131_073, 10**9, 10**14):
                        assert fast(
                            parent, 1_469_000_000, 1_469_000_000 + dt, number
                        ) == config.compute_difficulty(
                            parent, 1_469_000_000, 1_469_000_000 + dt, number
                        )


class TestForkSimDigests:
    @pytest.mark.parametrize("seed", [1, 7, 2016_07_20])
    @pytest.mark.parametrize("with_transactions", [False, True])
    def test_fast_and_reference_digests_identical(
        self, seed, with_transactions
    ):
        config = ForkSimConfig(
            days=4,
            prefork_days=2,
            seed=seed,
            with_transactions=with_transactions,
        )
        fast = run_fork_sim(config)
        reference = ReferenceForkSimulation(config).run()
        assert fast.digest() == reference.digest()


class TestSimulatorHotLoop:
    @staticmethod
    def run_workload(sim):
        fired = []
        handles = {}

        def tick(label, period):
            fired.append((label, sim.now))
            if sim.now < 200.0:
                handles[label] = sim.schedule(period, tick, label, period)
            # Cancellation exercises the drain path: every third firing
            # of timer 0 cancels timer 2's pending event.
            if label == 0 and len(fired) % 3 == 0 and 2 in handles:
                handles[2].cancel()
                handles[2] = sim.schedule(5.0, tick, 2, 2.3)

        for label, period in enumerate((1.0, 1.7, 2.3)):
            handles[label] = sim.schedule(period, tick, label, period)
        processed = sim.run_until(250.0)
        return fired, processed, sim.now, sim.events_processed

    def test_hot_loop_matches_reference_and_observed(self):
        from repro.obs import Observability

        plain = self.run_workload(Simulator())
        reference = self.run_workload(ReferenceSimulator())
        observed = self.run_workload(Simulator(obs=Observability.enabled()))
        assert plain == reference == observed

    def test_max_events_exceeded_keeps_entry_queued(self):
        from repro.net.simulator import SimulationError

        def build():
            sim = Simulator()

            def tick():
                sim.schedule(1.0, tick)

            sim.schedule(1.0, tick)
            return sim

        fast, reference = build(), build()
        with pytest.raises(SimulationError):
            fast.run_until(100.0, max_events=10)
        with pytest.raises(SimulationError):
            reference._run_until_observed(100.0, max_events=10)
        assert fast.events_processed == reference.events_processed == 10
        assert fast.pending == reference.pending == 1
        assert fast.now == reference.now


class TestNetworkFastPath:
    def test_partition_scenario_identical_on_reference_scenario(self):
        from repro.scenarios.partition_event import (
            PartitionScenario,
            PartitionScenarioConfig,
        )

        config = PartitionScenarioConfig(
            num_nodes=14, num_miners=4, post_fork_horizon=600.0, seed=5
        )
        fast = PartitionScenario(config).run()
        reference = ReferencePartitionScenario(config).run()
        assert fast.snapshots == reference.snapshots
        assert fast.fork_time == reference.fork_time
        assert fast.handshake_refusals == reference.handshake_refusals
        assert (
            fast.incompatible_disconnects
            == reference.incompatible_disconnects
        )


class TestPerfProbeJob:
    def test_probe_digests_match_in_process(self):
        config = ForkSimConfig(
            days=3, prefork_days=1, seed=11, with_transactions=False
        )
        payload = execute_job(perf_probe_spec(config), NullCache()).value
        assert payload["digests_match"] is True
        assert payload["blocks"] > 0
        local = run_fork_sim(config)
        assert payload["fast_digest"] == local.digest()

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_probe_digests_match_across_workers(self, start_method):
        pool = WorkerPool(
            workers=2,
            cache_dir=None,
            timeout=300.0,
            retries=0,
            progress=NullProgress(),
            start_method=start_method,
        )
        if pool.workers == 1:
            pytest.skip("multiprocessing unavailable on this host")
        config = ForkSimConfig(
            days=3, prefork_days=1, seed=11, with_transactions=False
        )
        spec = perf_probe_spec(config)
        results = pool.run([spec, spec])
        assert all(r.record.status == "ok" for r in results)
        local_digest = run_fork_sim(config).digest()
        for result in results:
            assert result.value["digests_match"] is True
            assert result.value["fast_digest"] == local_digest


class TestBenchHarness:
    def test_smoke_bench_writes_valid_reports(self, forksim_bench_smoke):
        """The report of the shared forksim bench smoke run (driven
        through the CLI, see ``tests/conftest.py``)."""
        from repro.perf.bench import validate_report

        run = forksim_bench_smoke
        # The CLI exits 0 exactly when run_bench reports all_match.
        assert run.code == 0
        json_lines = [
            line for line in run.out.splitlines()
            if line.startswith("wrote ") and line.endswith(".json")
        ]
        assert len(json_lines) == 1
        payload = run.payload
        assert validate_report(payload) == []
        assert {row["case"] for row in payload["cases"]} == {
            "forksim_difficulty", "forksim_workload", "forksim_analysis",
        }
        assert all(row["digests_match"] for row in payload["cases"])
        # Every forksim case carries tracemalloc accounting, and the
        # analysis case enforces its columnar-vs-record memory floor.
        for row in payload["cases"]:
            assert row["fast"]["peak_bytes"] >= 0
            assert row["reference"]["peak_bytes"] >= 0
            assert row["memory_ok"] is True
        analysis = {row["case"]: row for row in payload["cases"]}[
            "forksim_analysis"
        ]
        assert analysis["memory_min_ratio"] > 1.0
        assert analysis["memory_ratio"] >= analysis["memory_min_ratio"]
        assert (run.out_dir / "reports" / "bench_forksim.txt").exists()

    def test_validate_report_flags_problems(self):
        from repro.perf.bench import validate_report

        assert validate_report({}) != []
        assert any(
            "schema" in problem for problem in validate_report({"cases": []})
        )

    def test_validate_report_flags_unequal_work(self):
        import copy
        import json
        from pathlib import Path

        from repro.perf.bench import validate_report

        root = Path(__file__).resolve().parent.parent
        for name in ("BENCH_eventloop.json", "BENCH_forksim.json"):
            payload = json.loads((root / name).read_text())
            assert validate_report(payload) == []
            broken = copy.deepcopy(payload)
            broken["cases"][0]["reference"]["work"] += 1
            problems = validate_report(broken)
            assert len(problems) == 1
            assert "work" in problems[0]

    def test_unknown_report_selection_raises(self):
        from repro.perf.bench import run_bench

        with pytest.raises(ValueError):
            run_bench(only=["nope"])

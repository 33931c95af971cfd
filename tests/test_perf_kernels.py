"""Differential tests for the performance kernels.

Every fast path in this repo rides on one invariant: the optimized code
is *trajectory-identical* to the seed-state implementation it replaced —
same RNG draw order, same outputs, bit for bit.  These tests hold each
kernel against its retained reference:

* ``BlockProducer.advance_batch``'s one Homestead loop vs a loop of
  ``advance_one``, with and without transactions; every configuration
  outside the loop mines through ``advance_one`` itself, and every
  ``ForkSimulation`` run (single-shot or resumed) stays on the loop
* ``PoolLandscape.make_sampler`` vs ``reference_sampler``
* the ``Simulator`` hot loop vs ``ReferenceSimulator`` / the observed loop
* the ``Network.send`` fast path vs the full transport body
* whole fork-sim digests, in-process and across fork/spawn workers
* the columnar ``ReplayWorkload.generate`` and ``observe_records`` vs
  ``ReferenceReplayWorkload``'s records fed one by one
"""

import pickle
import random
from dataclasses import replace

import pytest

from repro.chain.config import ETH_CONFIG
from repro.chain.difficulty import FRONTIER_RULE, MIN_DIFFICULTY, DifficultyRule
from repro.core.echoes import EchoDetector
from repro.data.sightings import Sightings
from repro.harness import NullProgress, WorkerPool, perf_probe_spec
from repro.harness.cache import NullCache
from repro.harness.jobs import execute_job
from repro.net.simulator import Simulator
from repro.perf import (
    ReferenceBlockProducer,
    ReferenceForkSimulation,
    ReferencePartitionScenario,
    ReferenceReplayWorkload,
    ReferenceSimulator,
    reference_sampler,
)
from repro.scenarios.replay_attack import (
    ReplayModel,
    ReplayWorkload,
    ReplayWorkloadConfig,
)
from repro.sim import blockprod
from repro.sim.blockprod import BlockProducer, ChainTrace
from repro.sim.engine import ForkSimConfig, ForkSimulation, run_fork_sim
from repro.sim.population import (
    PoolLandscape,
    PoolSpec,
    etc_pool_landscape,
    eth_pool_landscape,
    prefork_pool_landscape,
)
from repro.sim.workload import eth_workload


class CountingProducer(BlockProducer):
    """A producer that counts :meth:`advance_one` calls, so a test can
    tell the batch kernel (no calls) from the per-block fallback."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.one_calls = 0

    def advance_one(self, *args, **kwargs):
        self.one_calls += 1
        return super().advance_one(*args, **kwargs)


def make_producer(seed: int = 42, cls=BlockProducer, config=ETH_CONFIG):
    return cls(
        config,
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


def mine_both_ways(
    n,
    hashrate,
    make_tx_sampler,
    make_miner_sampler=lambda: eth_pool_landscape().make_sampler(0.0),
    config=ETH_CONFIG,
    end_offset=None,
    kernel=True,
):
    """Mine up to ``n`` blocks with ``advance_batch`` and with
    ``advance_one`` (each arm gets its own samplers), stopping both once
    the clock is ``end_offset`` seconds past the start, when given.
    Assert the two trajectories are identical and that the batched arm
    took the kernel (``kernel``) or the per-block fallback, and return
    the batched producer."""
    batched = make_producer(cls=CountingProducer, config=config)
    stepped = make_producer(config=config)
    end = None if end_offset is None else batched.clock + end_offset
    produced = batched.advance_batch(
        n, hashrate, make_miner_sampler(), make_tx_sampler(),
        end_timestamp=end,
    )
    sampler = make_miner_sampler()
    tx_sampler = make_tx_sampler()
    stepped_count = 0
    while stepped_count < n and (end is None or stepped.clock < end):
        stepped.advance_one(hashrate, sampler, tx_sampler)
        stepped_count += 1

    assert produced == stepped_count
    if end is None:
        assert produced == n
    else:
        assert 0 < produced < n
    assert batched.one_calls == (0 if kernel else produced)
    assert trace_columns(batched.trace) == trace_columns(stepped.trace)
    assert (batched.number, batched.timestamp, batched.clock,
            batched.difficulty) == (
        stepped.number, stepped.timestamp, stepped.clock,
        stepped.difficulty,
    )
    # The strongest claim: both arms consumed the exact same draws.
    assert batched.rng.getstate() == stepped.rng.getstate()
    return batched


def _custom_difficulty(
    parent_difficulty, parent_timestamp, timestamp, number, bomb_delay
):
    step = parent_difficulty // 1_024
    if timestamp - parent_timestamp >= 14:
        step = -step
    return max(parent_difficulty + step, MIN_DIFFICULTY)


def _coin_sampler(rng):
    return "pool-a" if rng.random() < 0.5 else "pool-b"


def _no_solo_sampler():
    pools = [PoolSpec("pool-a", 0.6), PoolSpec("pool-b", 0.4)]
    landscape = PoolLandscape(
        pools, pools, solo_fraction=0.0, solo_identities=0
    )
    return landscape.make_sampler(0.0)


def _standard_tx_sampler():
    return eth_workload().per_block_sampler(0, 600_000)


def _tx_sampler_without_parts():
    closure = _standard_tx_sampler()

    def tx_sampler(rng, gap):
        return closure(rng, gap)

    return tx_sampler


#: Configurations outside the kernel, each as ``mine_both_ways``
#: keywords plus the module flags to switch off (as a failed import-time
#: probe would).
FALLBACK_CASES = {
    "frontier-rule": (
        dict(config=replace(ETH_CONFIG, difficulty_rule=FRONTIER_RULE)), ()
    ),
    "custom-rule": (
        dict(config=replace(
            ETH_CONFIG,
            difficulty_rule=DifficultyRule("custom", _custom_difficulty),
        )),
        (),
    ),
    "no-solo-miners": (dict(make_miner_sampler=_no_solo_sampler), ()),
    "plain-miner-callable": (
        dict(make_miner_sampler=lambda: _coin_sampler), ()
    ),
    "tx-sampler-without-parts": (
        dict(make_tx_sampler=_tx_sampler_without_parts), ()
    ),
    "no-inline-expovariate": ({}, ("_INLINE_EXPOVARIATE",)),
    "no-inline-randbelow": ({}, ("_INLINE_RANDBELOW",)),
    "end-timestamp": (
        dict(
            config=replace(ETH_CONFIG, difficulty_rule=FRONTIER_RULE),
            make_tx_sampler=lambda: None,
            end_offset=3_600,
        ),
        (),
    ),
}


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

    @pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
    def test_fallback_runs_advance_one(self, case, monkeypatch):
        # Everything the kernel does not cover runs advance_one once per
        # block, which is the oracle itself: columns, tip, clock and RNG
        # state equal a hand-rolled advance_one loop.
        kwargs, disabled = FALLBACK_CASES[case]
        for flag in disabled:
            monkeypatch.setattr(blockprod, flag, False)
        kwargs = {"make_tx_sampler": _standard_tx_sampler, **kwargs}
        n = 10_000 if "end_offset" in kwargs else 500
        mine_both_ways(n, 4.5e12, kernel=False, **kwargs)

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


class TestKernelCoverage:
    """Real fork-sim runs must stay on the batch kernel.

    A configuration change that silently sent them down the per-block
    fallback would keep every digest and lose the speed; counting
    ``advance_one`` calls on every producer a run builds catches it.
    """

    @staticmethod
    def counting_simulation():
        producers = []

        class Producer(CountingProducer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                producers.append(self)

        class Simulation(ForkSimulation):
            producer_cls = Producer

        return Simulation, producers

    @pytest.mark.parametrize("with_transactions", [False, True])
    def test_fork_sim_never_calls_advance_one(self, with_transactions):
        simulation, producers = self.counting_simulation()
        config = ForkSimConfig(
            days=4, prefork_days=2, seed=7,
            with_transactions=with_transactions,
        )
        result = simulation(config).run()
        assert len(producers) == 3  # the prefix, then ETH and ETC
        assert [p.one_calls for p in producers] == [0, 0, 0]
        assert len(result.eth_trace) > 0 and len(result.etc_trace) > 0

    def test_resumed_chunks_never_call_advance_one(self):
        simulation, producers = self.counting_simulation()
        config = ForkSimConfig(days=4, prefork_days=2, seed=7)
        partial = simulation(config).run(until_day=2)
        final = simulation(config).run(resume_from=partial.checkpoint)
        assert len(producers) > 3  # the resumed run restores its own
        assert all(p.one_calls == 0 for p in producers)
        assert final.digest() == run_fork_sim(config).digest()


#: (id, seed, days, ETH volumes, ETC volumes, model).  ETH's volumes put
#: the Poisson draw on its Gaussian branch (lam > 50), ETC's on Knuth's
#: product loop.
REPLAY_CASES = [
    ("run-all-like", 4242, 12, [40_000.0] * 12, [16_000.0] * 12, None),
    ("knuth-only", 7, 9, [150.0] * 9, [90.0] * 9, None),
    (
        "zero-volume-days",
        3,
        8,
        [4_000.0, 0.0, 0.0, 2_500.0, 0.0, 3_000.0, 0.0, 0.0],
        [0.0, 1_500.0, 0.0, 0.0, 900.0, 0.0, 0.0, 0.0],
        None,
    ),
    ("etc-first", 5, 6, [0.0] + [3_000.0] * 5, [2_000.0] * 6, None),
    # Background rows past chain-id day draw their protected flag at 0.5.
    ("chain-id-early", 9, 5, [5_000.0] * 5, [2_000.0] * 5,
     ReplayModel(chain_id_day=2.0)),
]


class TestReplayKernel:
    """The columnar generator and detector kernel against the seed
    record path: same rows, RNG state, ground truth and detector bytes."""

    @pytest.mark.parametrize(
        "seed,days,eth,etc,model",
        [case[1:] for case in REPLAY_CASES],
        ids=[case[0] for case in REPLAY_CASES],
    )
    def test_columns_match_reference_records(self, seed, days, eth, etc, model):
        def config():
            return ReplayWorkloadConfig(
                days=days, seed=seed, model=model or ReplayModel()
            )

        fast = ReplayWorkload(config())
        table, truth = fast.generate(eth, etc)
        reference = ReferenceReplayWorkload(config())
        records, reference_truth = reference.generate(eth, etc)

        assert len(table) == len(records) > 0
        assert [
            (table.chains[code], tx_hash, timestamp)
            for code, tx_hash, timestamp in zip(
                table.codes, table.hashes, table.timestamps
            )
        ] == [(r.chain, r.tx_hash, r.timestamp) for r in records]
        assert fast.rng.getstate() == reference.rng.getstate()
        assert fast._counter == reference._counter
        assert truth == reference_truth
        assert pickle.dumps(truth) == pickle.dumps(reference_truth)
        assert truth.same_time > 0  # the intentional-broadcast branch

        detector = EchoDetector()
        assert detector.observe_records(table) == truth.total()
        oracle = EchoDetector()
        for record in records:
            oracle.observe(record.chain, record.tx_hash, record.timestamp)
        assert pickle.dumps(detector) == pickle.dumps(oracle)
        adapted = EchoDetector()
        adapted.observe_records(Sightings.from_records(records))
        assert pickle.dumps(adapted) == pickle.dumps(oracle)

    def test_etc_first_case_leads_with_etc(self):
        _, seed, days, eth, etc, _ = REPLAY_CASES[3]
        table, _ = ReplayWorkload(
            ReplayWorkloadConfig(days=days, seed=seed)
        ).generate(eth, etc)
        assert table.chains[table.codes[0]] == "ETC"
        detector = EchoDetector()
        detector.observe_records(table)
        assert detector._chains == ["ETC", "ETH"]

    def test_chain_codes_follow_chains_order(self):
        """Reordering ``CHAINS`` recodes the rows, not their chains."""

        class Swapped(ReplayWorkload):
            CHAINS = ("ETC", "ETH")

        _, seed, days, eth, etc, _ = REPLAY_CASES[0]

        def projection(cls):
            table, _ = cls(ReplayWorkloadConfig(days=days, seed=seed)).generate(
                eth, etc
            )
            return [(table.chains[code], h) for code, h in zip(table.codes, table.hashes)]

        assert projection(Swapped) == projection(ReplayWorkload)


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

        def build(cls):
            sim = cls()

            def tick():
                sim.schedule(1.0, tick)

            sim.schedule(1.0, tick)
            return sim

        fast, reference = build(Simulator), build(ReferenceSimulator)
        with pytest.raises(SimulationError):
            fast.run_until(100.0, max_events=10)
        with pytest.raises(SimulationError):
            reference.run_until(100.0, max_events=10)
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

    @staticmethod
    def pin_config(config_name):
        from repro.faults.schedule import FaultSchedule, SplitFault
        from repro.net.node import ResiliencePolicy
        from repro.scenarios.partition_event import (
            ChaosPartitionConfig,
            PartitionScenarioConfig,
        )

        if config_name == "plain":
            return PartitionScenarioConfig(
                num_nodes=14, num_miners=4, post_fork_horizon=600.0, seed=5
            )
        # The split-fault config of tests/test_chaos_scenario.py.
        schedule = FaultSchedule(
            faults=(
                SplitFault(start=400.0, duration=300.0, scope="region",
                           groups=(("na",), ("eu", "as"))),
            ),
            seed=5,
        )
        return ChaosPartitionConfig(
            num_nodes=14, num_miners=4, post_fork_horizon=900.0,
            census_interval=120.0,
            faults=schedule.to_dict(),
            resilience=ResiliencePolicy().to_dict(),
            max_events=2_000_000,
        )

    @pytest.mark.parametrize("config_name", ["plain", "split-fault"])
    def test_observed_digests_match_reference_scenario(self, config_name):
        """An observed run drives the fast kernels; its trace and metrics
        digests must equal the seed-state reference scenario's."""
        from repro.obs import Observability
        from repro.scenarios.partition_event import PartitionScenario

        config = self.pin_config(config_name)

        def run(scenario_cls):
            obs = Observability.enabled()
            scenario_cls(config, obs=obs).run()
            return (
                obs.tracer.digest(),
                obs.metrics.digest(),
                obs.tracer.events_emitted,
            )

        fast = run(PartitionScenario)
        assert fast[2] > 0
        assert fast == run(ReferencePartitionScenario)

    @pytest.mark.parametrize("config_name", ["plain", "split-fault"])
    def test_metrics_only_digests_match_reference_scenario(self, config_name):
        """A metrics-only run (no tracer) takes the unobserved loop and
        inline heap pushes; its counters, read off the engine's tallies,
        must equal the reference scenario's per-event increments."""
        from repro.obs import MetricsRegistry, Observability
        from repro.scenarios.partition_event import PartitionScenario

        config = self.pin_config(config_name)

        def run(scenario_cls):
            obs = Observability(metrics=MetricsRegistry())
            scenario_cls(config, obs=obs).run()
            return obs.metrics.dumps()

        fast = run(PartitionScenario)
        assert '"sim.events.fired":0' not in fast
        assert fast == run(ReferencePartitionScenario)


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

"""Cross-process seed determinism — the cache-key correctness precondition.

The harness equates "same config hash" with "same experiment", which is
only sound if an identical :class:`ForkSimConfig` yields bit-identical
results wherever it runs: twice in this process, or in a spawned
subprocess that re-imports everything from scratch.  The sim and
scenario layers therefore derive every RNG from explicit config seeds
(no module-level RNG state, no ``PYTHONHASHSEED``-dependent iteration);
these tests pin that property down to the digest level.
"""

import asyncio
import json
import pickle

import pytest

from repro.faults import ChurnBurst, FaultSchedule, LinkFault, SplitFault
from repro.data.resultstore import ResultStore
from repro.harness import (
    CrashyPool,
    NullCache,
    NullProgress,
    ResultCache,
    SweepRunner,
    WorkerPool,
    chaos_partition_spec,
    echoes_spec,
    execute_job,
    figure_spec,
    fork_lengths_spec,
    obs_probe_spec,
    observations_spec,
    partition_spec,
    perf_probe_spec,
    plan_chunks,
    registered_kinds,
    simulate_chunk_spec,
    simulate_spec,
    topology_infer_spec,
    topology_partition_spec,
)
from repro.net.node import ResiliencePolicy
from repro.net.topology import TopologySpec
from repro.scenarios.partition_event import (
    ChaosPartitionConfig,
    PartitionScenario,
    PartitionScenarioConfig,
    TopologyPartitionConfig,
)
from repro.scenarios.topology_inference import TopologyInferenceConfig
from repro.serve.executor import ExecutorBridge
from repro.serve.registry import JobRegistry
from repro.serve.summary import summarize, summary_digest
from repro.sim.engine import ForkSimConfig, ForkSimulation, run_fork_sim

SMALL = ForkSimConfig(days=3, prefork_days=2)
#: Small degree-skewed and geo-clustered graphs for the topology-sweep
#: cell kinds.
POWERLAW = TopologySpec(kind="powerlaw", num_nodes=12, target_degree=3, seed=5)
GEO = TopologySpec(kind="geo", num_nodes=12, target_degree=3, seed=5)


class TestInProcessDeterminism:
    def test_identical_configs_identical_digests(self):
        assert (
            ForkSimulation(SMALL).run().digest()
            == ForkSimulation(SMALL).run().digest()
        )

    def test_run_fork_sim_matches_class_api(self):
        assert (
            run_fork_sim(SMALL).digest() == ForkSimulation(SMALL).run().digest()
        )

    def test_seed_changes_digest(self):
        other = ForkSimConfig(days=3, prefork_days=2, seed=SMALL.seed + 1)
        assert run_fork_sim(SMALL).digest() != run_fork_sim(other).digest()

    def test_config_roundtrips_through_dict(self):
        restored = ForkSimConfig.from_dict(SMALL.to_dict())
        assert restored == SMALL
        assert restored.to_dict() == SMALL.to_dict()

    def test_result_is_picklable_and_digest_survives(self):
        result = run_fork_sim(SMALL)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.digest() == result.digest()

    def test_partition_scenario_deterministic(self):
        config = PartitionScenarioConfig(
            num_nodes=14, num_miners=4, post_fork_horizon=900.0
        )
        a = PartitionScenario(config).run()
        b = PartitionScenario(config).run()
        assert a.snapshots == b.snapshots
        assert a.incompatible_disconnects == b.incompatible_disconnects


class TestSubprocessDeterminism:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_subprocess_digest_matches_in_process(self, start_method):
        """The regression test the harness cache stands on.

        ``spawn`` is the strict variant: the worker re-imports the
        package in a fresh interpreter (fresh hash randomization, fresh
        module state), so any hidden global RNG or hash-order dependence
        would change the digest.
        """
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
        spec = simulate_spec(SMALL)
        # Two specs so the pool genuinely exercises the parallel path
        # (a single job short-circuits to serial execution).
        results = pool.run([spec, spec])
        assert all(r.record.status == "ok" for r in results)
        local_digest = run_fork_sim(SMALL).digest()
        for result in results:
            assert result.value.digest() == local_digest


#: Job specs (keyed by a test id; several may share one kind) whose
#: cached values hold nothing but deterministic data, so their serve
#: summaries digest identically on every cold run.
SUMMARY_SPECS = {
    "perf-probe": perf_probe_spec(
        ForkSimConfig(days=3, prefork_days=1, seed=11, with_transactions=False)
    ),
    "simulate": simulate_spec(SMALL),
    # An intermediate chunk: its value carries a ForkSimCheckpoint, which
    # the summary fingerprints by its canonical-JSON digest.
    "simulate-chunk": simulate_chunk_spec(SMALL, 2, 1),
    "echoes": echoes_spec(SMALL),
    "figure-1": figure_spec(1, SMALL),
    "figure-5": figure_spec(5, SMALL),
    "observations": observations_spec(
        SMALL,
        PartitionScenarioConfig(
            num_nodes=14, num_miners=4, post_fork_horizon=1200.0
        ),
    ),
    "partition": partition_spec(
        PartitionScenarioConfig(
            num_nodes=14, num_miners=4, post_fork_horizon=600.0
        )
    ),
    "fork-lengths": fork_lengths_spec(),
    # Metrics and trace digests of a fully instrumented run.
    "obs-probe": obs_probe_spec(
        PartitionScenarioConfig(
            num_nodes=14, num_miners=4, post_fork_horizon=600.0
        )
    ),
    "chaos-partition": chaos_partition_spec(
        ChaosPartitionConfig(
            num_nodes=14,
            num_miners=4,
            post_fork_horizon=600.0,
            faults=FaultSchedule(
                faults=(
                    ChurnBurst(start=200.0, duration=200.0, rate=0.01,
                               downtime=60.0),
                    LinkFault(start=250.0, duration=150.0, loss_rate=0.2,
                              scope="region"),
                    SplitFault(start=400.0, duration=150.0, scope="region",
                               groups=(("na",), ("eu", "as"))),
                ),
                seed=7,
            ).to_dict(),
            resilience=ResiliencePolicy().to_dict(),
        )
    ),
    # The topology sweep's two cell kinds, on the graph families whose
    # builders and transports the plain partition spec never touches.
    "topology-partition": topology_partition_spec(
        TopologyPartitionConfig(
            num_nodes=12,
            num_miners=3,
            fork_block=10,
            post_fork_horizon=600.0,
            target_degree=3,
            topology=GEO.to_dict(),
            latency="geo",
        )
    ),
    "topology-infer": topology_infer_spec(
        TopologyInferenceConfig(
            topology=POWERLAW.to_dict(), seed=5, probes_per_target=2
        )
    ),
}


#: Kinds that need no SUMMARY_SPECS entry: the harness's own self-test
#: runners, which sleep, flake on purpose or kill their worker.
SUMMARY_EXEMPT_KINDS = {
    "selftest-echo",
    "selftest-flaky",
    "selftest-killme",
    "selftest-sleep",
}


def _cold_digest(spec):
    return summary_digest(
        summarize(spec.kind, execute_job(spec, NullCache()).value)
    )


class TestSummaryDigestDeterminism:
    @pytest.mark.parametrize("kind", registered_kinds())
    def test_every_kind_is_covered(self, kind):
        """A new job kind must join SUMMARY_SPECS (or the exempt set),
        so the determinism checks below cannot silently skip it."""
        covered = {spec.kind for spec in SUMMARY_SPECS.values()}
        assert kind in covered or kind in SUMMARY_EXEMPT_KINDS, (
            f"job kind {kind!r} has no SUMMARY_SPECS entry"
        )

    @pytest.mark.parametrize("kind", sorted(SUMMARY_SPECS))
    def test_two_cold_runs_digest_identically(self, kind):
        spec = SUMMARY_SPECS[kind]
        assert _cold_digest(spec) == _cold_digest(spec)

    @pytest.mark.parametrize("kind", sorted(SUMMARY_SPECS))
    def test_spawned_worker_digest_matches_in_process(self, kind):
        pool = WorkerPool(
            workers=2,
            cache_dir=None,
            timeout=300.0,
            retries=0,
            progress=NullProgress(),
            start_method="spawn",
        )
        if pool.workers == 1:
            pytest.skip("multiprocessing unavailable on this host")
        spec = SUMMARY_SPECS[kind]
        results = pool.run([spec, spec])
        assert all(r.record.status == "ok" for r in results)
        local = _cold_digest(spec)
        for result in results:
            assert summary_digest(summarize(spec.kind, result.value)) == local


@pytest.fixture(scope="module")
def cache_tier(tmp_path_factory):
    """Per spec id: a result cache filled by one cold ``execute_job``,
    the cold outcome, and an independent in-process (uncached) digest —
    shared so each spec runs cold only twice across the tests below."""
    memo = {}

    def get(spec_id):
        if spec_id not in memo:
            spec = SUMMARY_SPECS[spec_id]
            cache_dir = tmp_path_factory.mktemp(f"cache-{spec_id}")
            stored = execute_job(spec, ResultCache(cache_dir))
            memo[spec_id] = (cache_dir, stored, _cold_digest(spec))
        return memo[spec_id]

    return get


def _digest(spec, value):
    return summary_digest(summarize(spec.kind, value))


class TestCacheTierDeterminism:
    """A value that crossed the cache or the serve store digests like
    the cold in-process run: pickling never changes a summary."""

    @pytest.mark.parametrize("spec_id", sorted(SUMMARY_SPECS))
    def test_result_cache_round_trip_digest_matches_cold(
        self, spec_id, cache_tier
    ):
        spec = SUMMARY_SPECS[spec_id]
        cache_dir, stored, cold = cache_tier(spec_id)
        assert not stored.cache_hit
        cache = ResultCache(cache_dir)
        hit, value = cache.lookup(spec.cache_key())
        assert hit
        warm = execute_job(spec, cache)
        assert warm.cache_hit
        assert _digest(spec, value) == cold
        assert _digest(spec, warm.value) == cold

    @pytest.mark.parametrize("spec_id", sorted(SUMMARY_SPECS))
    def test_serve_store_replay_digest_matches_cold(
        self, spec_id, cache_tier, tmp_path
    ):
        spec = SUMMARY_SPECS[spec_id]
        cache_dir, _, cold = cache_tier(spec_id)
        db = tmp_path / "serve.db"

        async def submit():
            # The first registry answers from the warm result cache and
            # persists the summary; the second replays the store row.
            with ResultStore(db) as store:
                executor = ExecutorBridge(
                    workers=1, cache_dir=str(cache_dir), timeout=300.0,
                    retries=0, collect_metrics=False,
                )
                try:
                    registry = JobRegistry(executor, store=store)
                    job, source = registry.submit(spec, "t")
                    await asyncio.wait_for(job.done.wait(), 300)
                finally:
                    executor.shutdown()
                return job, source

        first, first_source = asyncio.run(submit())
        assert (first_source, first.state) == ("executed", "ok")
        assert first.record["cache_hit"]
        replayed, source = asyncio.run(submit())
        assert source == "store"
        assert first.digest == replayed.digest == cold
        with ResultStore(db) as store:
            stored = store.get_result(cold)["summary"]
        assert summary_digest(json.loads(json.dumps(stored))) == cold


class TestChunkResumeDeterminism:
    """Every spec as one chunk of a sweep that is killed mid-run and
    finished by a fresh runner over the same ledger: the summaries the
    ledger rows hand back digest like the cold in-process run."""

    def test_killed_and_resumed_sweep_matches_cold(self, cache_tier, tmp_path):
        spec_ids = sorted(SUMMARY_SPECS)
        chunks = plan_chunks([[SUMMARY_SPECS[i] for i in spec_ids]], 1)

        def digests(chunk, results):
            return {"digests": [_digest(r.spec, r.value) for r in results]}

        def runner(pool):
            return SweepRunner(
                tmp_path / "ledger",
                pool,
                digests,
                lease_seconds=300.0,
                chunk_retries=0,
                install_signal_handlers=False,
            )

        kill_at = len(chunks) // 2
        killed = runner(
            CrashyPool(
                WorkerPool(cache_dir=None, timeout=300.0, retries=0),
                crash_at={kill_at: "hard"},
            )
        ).run(chunks)
        assert killed.state == "interrupted"
        assert killed.counts["done"] == kill_at

        resumed = runner(
            WorkerPool(cache_dir=None, timeout=300.0, retries=0)
        ).run(chunks, resume=True)
        assert resumed.state == "complete"
        assert resumed.metrics["counters"]["sweep.chunks.resumed"] == kill_at
        stitched = [
            digest
            for _, summary in resumed.summaries
            for digest in summary["digests"]
        ]
        assert dict(zip(spec_ids, stitched)) == {
            spec_id: cache_tier(spec_id)[2] for spec_id in spec_ids
        }

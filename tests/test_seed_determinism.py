"""Cross-process seed determinism — the cache-key correctness precondition.

The harness equates "same config hash" with "same experiment", which is
only sound if an identical :class:`ForkSimConfig` yields bit-identical
results wherever it runs: twice in this process, or in a spawned
subprocess that re-imports everything from scratch.  The sim and
scenario layers therefore derive every RNG from explicit config seeds
(no module-level RNG state, no ``PYTHONHASHSEED``-dependent iteration);
these tests pin that property down to the digest level.
"""

import pickle

import pytest

from repro.faults import ChurnBurst, FaultSchedule, LinkFault, SplitFault
from repro.harness import (
    NullCache,
    NullProgress,
    WorkerPool,
    chaos_partition_spec,
    echoes_spec,
    execute_job,
    figure_spec,
    observations_spec,
    partition_spec,
    perf_probe_spec,
    simulate_chunk_spec,
    simulate_spec,
)
from repro.net.node import ResiliencePolicy
from repro.scenarios.partition_event import (
    ChaosPartitionConfig,
    PartitionScenario,
    PartitionScenarioConfig,
)
from repro.serve.summary import summarize, summary_digest
from repro.sim.engine import ForkSimConfig, ForkSimulation, run_fork_sim

SMALL = ForkSimConfig(days=3, prefork_days=2)


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
}


def _cold_digest(spec):
    return summary_digest(
        summarize(spec.kind, execute_job(spec, NullCache()).value)
    )


class TestSummaryDigestDeterminism:
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


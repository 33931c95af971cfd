"""Observability determinism: same seed ⇒ same metric dumps, same trace
digests — in-process and across fork/spawn workers.

Mirrors ``tests/test_faults_determinism.py``: the obs layer's dumps are
only useful as regression fingerprints if they are as reproducible as
the simulation itself, and the disabled path must not perturb the
trajectory (observing a run cannot change it).
"""

from dataclasses import replace

import pytest

from repro.faults.schedule import ChurnBurst, FaultSchedule, LinkFault
from repro.harness import (
    NullProgress,
    WorkerPool,
    execute_job,
    obs_probe_spec,
    partition_spec,
)
from repro.harness.cache import NullCache
from repro.net.node import ResiliencePolicy
from repro.obs import Observability
from repro.scenarios.partition_event import (
    ChaosPartitionConfig,
    PartitionScenario,
    PartitionScenarioConfig,
)
from repro.sim.engine import ForkSimConfig, ForkSimulation, run_fork_sim


def small_config():
    return PartitionScenarioConfig(
        num_nodes=12, num_miners=4, post_fork_horizon=600.0
    )


def small_chaos_config():
    schedule = FaultSchedule(
        faults=(
            ChurnBurst(start=300.0, duration=300.0, rate=0.01,
                       downtime=90.0),
            LinkFault(start=400.0, duration=200.0, loss_rate=0.2,
                      scope="region"),
        ),
        seed=7,
    )
    return ChaosPartitionConfig(
        num_nodes=12,
        num_miners=4,
        post_fork_horizon=600.0,
        faults=schedule.to_dict(),
        resilience=ResiliencePolicy().to_dict(),
        max_events=2_000_000,
    )


class TestObservationDoesNotPerturb:
    @pytest.mark.parametrize("make_config",
                             [small_config, small_chaos_config])
    def test_trajectory_identical_with_and_without_obs(self, make_config):
        config = make_config()
        bare = PartitionScenario(config).run()
        observed = PartitionScenario(config, obs=Observability.enabled()).run()
        assert bare.snapshots == observed.snapshots
        assert bare.handshake_refusals == observed.handshake_refusals

    def test_forksim_digest_unchanged_by_obs(self):
        config = ForkSimConfig(days=4, prefork_days=2, seed=11,
                               with_transactions=False)
        bare = run_fork_sim(config)
        observed = run_fork_sim(config, obs=Observability.enabled())
        assert bare.digest() == observed.digest()


class TestInProcessObsDeterminism:
    def test_same_seed_same_metric_and_trace_digests(self):
        config = small_chaos_config()
        a, b = Observability.enabled(), Observability.enabled()
        PartitionScenario(config, obs=a).run()
        PartitionScenario(config, obs=b).run()
        assert a.metrics.dumps() == b.metrics.dumps()
        assert a.metrics.digest() == b.metrics.digest()
        assert a.tracer.digest() == b.tracer.digest()
        assert a.tracer.summary() == b.tracer.summary()

    def test_different_seed_different_digests(self):
        base = small_config()
        other = PartitionScenarioConfig(
            num_nodes=12, num_miners=4, post_fork_horizon=600.0,
            seed=base.seed + 1,
        )
        a, b = Observability.enabled(), Observability.enabled()
        PartitionScenario(base, obs=a).run()
        PartitionScenario(other, obs=b).run()
        assert a.tracer.digest() != b.tracer.digest()

    def test_ring_capacity_does_not_change_digest(self):
        config = small_config()
        small, large = Observability.enabled(capacity=16), \
            Observability.enabled(capacity=1 << 16)
        PartitionScenario(config, obs=small).run()
        PartitionScenario(config, obs=large).run()
        assert small.tracer.digest() == large.tracer.digest()

    def test_forksim_metrics_deterministic(self):
        config = ForkSimConfig(days=4, prefork_days=2, seed=11,
                               with_transactions=False)
        a, b = Observability.enabled(), Observability.enabled()
        run_fork_sim(config, obs=a)
        run_fork_sim(config, obs=b)
        assert a.metrics.dumps() == b.metrics.dumps()
        counters = a.metrics.dump()["counters"]
        assert counters["forksim.days"] == 4
        assert counters["forksim.eth.blocks"] > 0

    def test_forksim_days_counts_the_days_this_run_mined(self):
        config = ForkSimConfig(days=6, prefork_days=2, seed=11,
                               with_transactions=False)
        partial = Observability.enabled()
        ForkSimulation(config, obs=partial).run(until_day=2)
        assert partial.metrics.dump()["counters"]["forksim.days"] == 2
        single = Observability.enabled()
        run_fork_sim(replace(config, days=4), obs=single)
        assert single.metrics.dump()["counters"]["forksim.days"] == 4


class TestObsProbeJob:
    def test_probe_returns_digests(self):
        outcome = execute_job(obs_probe_spec(small_config()), NullCache())
        payload = outcome.value
        assert set(payload) == {
            "metrics", "metrics_digest", "trace_digest", "events",
        }
        assert payload["events"] > 0

    def test_per_job_metrics_summary_on_outcome(self):
        spec = obs_probe_spec(small_config())
        plain = execute_job(spec, NullCache())
        assert plain.metrics is None  # collection off by default
        # obs-probe is not registry-aware (it builds its own bundle), so
        # use a registry-aware kind to exercise collection.
        collected = execute_job(
            partition_spec(small_config()), NullCache(), collect_metrics=True
        )
        assert collected.metrics is not None
        assert collected.metrics["counters"]["net.messages.sent"] > 0
        assert "digest" in collected.metrics


class TestSubprocessObsDeterminism:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_worker_digests_match_in_process(self, start_method):
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
        config = small_chaos_config()
        spec = obs_probe_spec(config)
        results = pool.run([spec, spec])
        assert all(r.record.status == "ok" for r in results)

        local = Observability.enabled()
        PartitionScenario(config, obs=local).run()
        for result in results:
            assert result.value["metrics"] == local.metrics.dumps()
            assert result.value["metrics_digest"] == local.metrics.digest()
            assert result.value["trace_digest"] == local.tracer.digest()

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pool_embeds_job_metrics_in_records(self, start_method):
        pool = WorkerPool(
            workers=2,
            cache_dir=None,
            timeout=300.0,
            retries=0,
            progress=NullProgress(),
            start_method=start_method,
            collect_metrics=True,
        )
        if pool.workers == 1:
            pytest.skip("multiprocessing unavailable on this host")
        spec = partition_spec(small_config())
        first, second = pool.run([spec, spec])
        assert first.record.status == second.record.status == "ok"
        summaries = [
            r.record.metrics for r in (first, second)
            if r.record.metrics is not None
        ]
        # Both jobs executed (no shared cache), so both carry summaries
        # and — same seed — identical ones.
        assert len(summaries) == 2
        assert summaries[0] == summaries[1]
        assert summaries[0]["counters"]["net.messages.sent"] > 0

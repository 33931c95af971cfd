"""Registry semantics: single-flight dedupe, quotas, tenancy, summaries."""

import asyncio

import pytest

from repro.data.resultstore import ResultStore
from repro.harness import JobSpec, NullCache, execute_job
from repro.obs import MetricsRegistry
from repro.serve.executor import ExecutorBridge
from repro.serve.quotas import (
    AdmissionController,
    QuotaExceeded,
    TenantQuota,
    tenant_for,
)
from repro.serve.registry import JobRegistry
from repro.serve.summary import summarize, summary_digest


def echo_spec(value):
    return JobSpec.make("selftest-echo", {"value": value})


def sleep_spec(seconds):
    return JobSpec.make("selftest-sleep", {"seconds": seconds})


def make_registry(metrics=None, store=None, admission=None, max_threads=4):
    executor = ExecutorBridge(
        workers=1, cache_dir=None, timeout=30.0, retries=0,
        collect_metrics=False, max_threads=max_threads,
    )
    return JobRegistry(
        executor, store=store, metrics=metrics,
        admission=admission or AdmissionController(metrics=metrics),
    )


class TestTenantIdentity:
    def test_explicit_header_wins(self):
        assert tenant_for({"x-repro-tenant": "Team-A"}) == "team-a"

    def test_header_sanitized(self):
        assert tenant_for({"x-repro-tenant": "a b/c!"}) == "a-b-c-"

    def test_bearer_token_pseudonymized(self):
        tenant = tenant_for({"authorization": "Bearer s3cret"})
        assert tenant.startswith("tok-") and "s3cret" not in tenant
        # Stable across calls.
        assert tenant == tenant_for({"authorization": "Bearer s3cret"})

    def test_default_is_public(self):
        assert tenant_for({}) == "public"


class TestAdmissionController:
    def test_tenant_queue_budget(self):
        controller = AdmissionController(
            quota=TenantQuota(max_inflight=1, max_queued=1),
            max_inflight_total=100,
        )
        controller.admit("a")
        controller.started("a")  # 1 running, 0 queued
        controller.admit("a")    # 1 running, 1 queued
        with pytest.raises(QuotaExceeded):
            controller.admit("a")
        # An unrelated tenant is unaffected.
        controller.admit("b")

    def test_global_cap(self):
        controller = AdmissionController(
            quota=TenantQuota(max_inflight=10, max_queued=10),
            max_inflight_total=2,
        )
        controller.admit("a")
        controller.admit("b")
        with pytest.raises(QuotaExceeded):
            controller.admit("c")
        controller.started("a")
        controller.finished("a")
        controller.admit("c")

    def test_rejection_counts_per_tenant(self):
        metrics = MetricsRegistry()
        controller = AdmissionController(
            quota=TenantQuota(max_inflight=1, max_queued=0),
            max_inflight_total=10, metrics=metrics,
        )
        controller.admit("a")
        controller.started("a")
        with pytest.raises(QuotaExceeded):
            controller.admit("a")
        counters = metrics.dump()["counters"]
        assert counters["serve.tenant.a.admitted"] == 1
        assert counters["serve.tenant.a.rejected"] == 1


class TestSingleFlight:
    def test_concurrent_identical_submissions_share_one_job(self):
        async def go():
            metrics = MetricsRegistry()
            registry = make_registry(metrics=metrics)
            spec = sleep_spec(0.2)
            first, source_1 = registry.submit(spec, "a")
            second, source_2 = registry.submit(spec, "b")
            assert source_1 == "executed"
            assert source_2 == "inflight"
            assert first is second
            await asyncio.wait_for(first.done.wait(), 30)
            registry.executor.shutdown()
            return metrics.dump()["counters"], first

        counters, job = asyncio.run(go())
        assert counters["serve.jobs.submitted"] == 1
        assert counters["serve.jobs.deduped"] == 1
        assert job.state == "ok"
        assert job.digest

    def test_terminal_ok_job_replayed_from_memory(self):
        async def go():
            metrics = MetricsRegistry()
            registry = make_registry(metrics=metrics)
            spec = echo_spec(42)
            job, _ = registry.submit(spec, "a")
            await asyncio.wait_for(job.done.wait(), 30)
            again, source = registry.submit(spec, "a")
            registry.executor.shutdown()
            return job, again, source, metrics.dump()["counters"]

        job, again, source, counters = asyncio.run(go())
        assert again is job
        assert source == "memory"
        assert counters["serve.jobs.replayed_memory"] == 1

    def test_different_params_do_not_dedupe(self):
        async def go():
            registry = make_registry()
            a, _ = registry.submit(echo_spec(1), "t")
            b, _ = registry.submit(echo_spec(2), "t")
            assert a is not b
            await asyncio.wait_for(
                asyncio.gather(a.done.wait(), b.done.wait()), 30
            )
            registry.executor.shutdown()
            return a, b

        a, b = asyncio.run(go())
        assert a.digest != b.digest

    def test_failed_job_may_be_resubmitted(self):
        async def go():
            registry = make_registry()
            bad = JobSpec.make("selftest-flaky",
                               {"marker_path": "/nonexistent-dir/x",
                                "fail_times": 99})
            job, source = registry.submit(bad, "t")
            assert source == "executed"
            await asyncio.wait_for(job.done.wait(), 30)
            assert job.state == "failed"
            retry, retry_source = registry.submit(bad, "t")
            assert retry is not job
            assert retry_source == "executed"
            await asyncio.wait_for(retry.done.wait(), 30)
            registry.executor.shutdown()

        asyncio.run(go())


class TestDurability:
    def test_completed_job_lands_in_store(self, tmp_path):
        db = tmp_path / "serve.db"

        async def go():
            with ResultStore(db) as store:
                registry = make_registry(store=store)
                job, _ = registry.submit(echo_spec(7), "alice")
                await asyncio.wait_for(job.done.wait(), 30)
                registry.executor.shutdown()
                return job.digest

        digest = asyncio.run(go())
        with ResultStore(db) as store:
            rows = store.list_jobs()
            assert len(rows) == 1
            assert rows[0].status == "ok"
            assert rows[0].tenant == "alice"
            assert rows[0].digest == digest
            assert store.get_result(digest)["summary"]["value"] == 7

    def test_new_registry_replays_from_store(self, tmp_path):
        db = tmp_path / "serve.db"

        async def first():
            with ResultStore(db) as store:
                registry = make_registry(store=store)
                job, _ = registry.submit(echo_spec(9), "t")
                await asyncio.wait_for(job.done.wait(), 30)
                registry.executor.shutdown()
                return job.digest

        digest = asyncio.run(first())

        async def second():
            metrics = MetricsRegistry()
            with ResultStore(db) as store:
                registry = make_registry(store=store, metrics=metrics)
                job, source = registry.submit(echo_spec(9), "t")
                assert job.terminal  # no execution happened
                registry.executor.shutdown()
                return job, source, metrics.dump()["counters"]

        job, source, counters = asyncio.run(second())
        assert source == "store"
        assert job.digest == digest
        assert "serve.jobs.submitted" not in counters
        assert counters["serve.jobs.replayed_store"] == 1


class TestEventHistory:
    def test_late_subscriber_sees_full_history(self):
        async def go():
            registry = make_registry()
            job, _ = registry.submit(echo_spec(3), "t")
            await asyncio.wait_for(job.done.wait(), 30)
            history, queue = job.subscribe()
            job.unsubscribe(queue)
            registry.executor.shutdown()
            return [event for event, _ in history]

        events = asyncio.run(go())
        assert events[0] == "queued"
        assert "started" in events
        assert events[-1] == "done"


class TestSummaryContract:
    def test_digest_matches_local_execution(self):
        """The serve-layer digest is the local execute_job digest."""
        spec = echo_spec(123)

        async def go():
            registry = make_registry()
            job, _ = registry.submit(spec, "t")
            await asyncio.wait_for(job.done.wait(), 30)
            registry.executor.shutdown()
            return job.digest

        served = asyncio.run(go())
        outcome = execute_job(spec, NullCache())
        local = summary_digest(summarize(spec.kind, outcome.value))
        assert served == local


class TestReferenceArmIsolation:
    def test_perf_probe_leaves_concurrent_simulate_alone(self):
        """A ``perf-probe`` job runs the reference engines next to a
        ``simulate`` job in the same process: no class may change while
        they run, and the simulation must digest as it does alone."""
        import threading

        from repro.harness import perf_probe_spec, simulate_spec
        from repro.net.kademlia import RoutingTable
        from repro.net.network import Network
        from repro.net.node import FullNode
        from repro.net.simulator import Simulator
        from repro.scenarios.partition_event import PartitionScenario
        from repro.sim.blockprod import BlockProducer
        from repro.sim.engine import ForkSimConfig, ForkSimulation, run_fork_sim
        from repro.sim.population import PoolLandscape

        watched = (BlockProducer, PoolLandscape, Network, FullNode,
                   RoutingTable, Simulator, ForkSimulation, PartitionScenario)

        def snapshot():
            return [dict(vars(cls)) for cls in watched]

        baseline = snapshot()
        changed = []
        stop = threading.Event()

        def observe():
            while not stop.is_set():
                if snapshot() != baseline:
                    changed.append(True)
                stop.wait(0.001)

        sim_config = ForkSimConfig(days=6, prefork_days=2, seed=5)
        probe = perf_probe_spec(
            ForkSimConfig(days=6, prefork_days=2, seed=11,
                          with_transactions=False)
        )

        async def go():
            bridge = ExecutorBridge(workers=1, max_threads=2, timeout=120.0,
                                    retries=0)
            try:
                return await asyncio.gather(
                    bridge.execute(probe, lambda *_: None),
                    bridge.execute(simulate_spec(sim_config), lambda *_: None),
                )
            finally:
                bridge.shutdown()

        observer = threading.Thread(target=observe)
        observer.start()
        try:
            probed, simulated = asyncio.run(go())
        finally:
            stop.set()
            observer.join()
        assert probed.record.status == "ok"
        assert simulated.record.status == "ok"
        assert probed.value["digests_match"] is True
        assert simulated.value.digest() == run_fork_sim(sim_config).digest()
        assert not changed

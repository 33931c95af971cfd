"""Horizon-chunked ``run-all``: one horizon split into resumable day ranges.

``run_all(chunk_size=..., horizon_chunk_days=...)`` replaces the single
``simulate`` root with a chain of ``simulate-chunk`` jobs that hand a
checkpoint to their successor through the cache.  The contract: the
chunked run's artifacts are byte-identical to the classic single-shot
run, and the final chunk publishes the full result under the plain
``simulate`` cache key so downstream jobs cannot tell the difference.
"""

import json

import pytest

from repro.harness import (
    ResultCache,
    build_waves,
    run_all,
    run_cached,
    run_job,
    simulate_chunk_spec,
    simulate_spec,
)
from repro.scenarios.partition_event import PartitionScenarioConfig
from repro.sim.checkpoint import ForkSimCheckpoint
from repro.sim.engine import ForkSimConfig, ForkSimulation, run_fork_sim

DAYS = 6
QUICK_PARTITION = PartitionScenarioConfig(
    num_nodes=14, num_miners=4, post_fork_horizon=1200.0
)


class _MemoryCache:
    """A cache that hands back the very object it stored, so a test can
    see whether a resume mutates the cached checkpoint."""

    def __init__(self):
        self.values = {}

    def lookup(self, key):
        return key in self.values, self.values.get(key)

    def store(self, key, value):
        self.values[key] = value


def _runall_kwargs(root, out):
    return dict(
        days=DAYS,
        prefork_days=2,
        jobs=1,
        cache_dir=root / "cache",
        output_dir=root / out,
        timeout=300.0,
        partition_config=QUICK_PARTITION,
    )


class TestWavePlan:
    def test_chunk_chain_replaces_simulate_root(self):
        config = ForkSimConfig(days=10)
        waves = build_waves(config, horizon_chunk_days=3)
        # uptos 3, 6, 9, 10 → four chunk waves, then echoes, then figures.
        assert [len(wave) for wave in waves] == [2, 1, 1, 1, 1, 6]
        labels = [spec.label for wave in waves for spec in wave]
        assert labels[0] == f"simulate-chunk[3/10d seed={config.seed}]"
        assert f"simulate-chunk[10/10d seed={config.seed}]" in labels
        assert not any(label.startswith("simulate[") for label in labels)

    def test_exact_multiple_has_no_stub_chunk(self):
        waves = build_waves(ForkSimConfig(days=10), horizon_chunk_days=5)
        chunk_labels = [
            spec.label
            for wave in waves
            for spec in wave
            if spec.kind == "simulate-chunk"
        ]
        assert len(chunk_labels) == 2

    def test_chunk_days_validated(self):
        with pytest.raises(ValueError):
            build_waves(ForkSimConfig(days=10), horizon_chunk_days=0)


class TestChunkRunner:
    def test_cold_chunk_chains_through_cache(self, tmp_path):
        config = ForkSimConfig(days=DAYS, prefork_days=2, seed=7)
        cache = ResultCache(tmp_path / "cache")
        # Asking for the *final* chunk cold recursively computes its
        # predecessors through the cache.
        final = run_cached(simulate_chunk_spec(config, DAYS, 2), cache)
        assert final["checkpoint"] is None
        assert final["digest"] == run_fork_sim(config).digest()
        # Every intermediate chunk landed in the cache on the way.
        for upto in (2, 4):
            spec = simulate_chunk_spec(config, upto, 2)
            assert cache.contains(spec.cache_key())

    def test_final_chunk_publishes_simulate_key(self, tmp_path):
        config = ForkSimConfig(days=DAYS, prefork_days=2, seed=7)
        cache = ResultCache(tmp_path / "cache")
        run_cached(simulate_chunk_spec(config, DAYS, 3), cache)
        hit, value = cache.lookup(simulate_spec(config).cache_key())
        assert hit
        assert value.digest() == run_fork_sim(config).digest()

    def test_intermediate_chunk_does_not_publish(self, tmp_path):
        config = ForkSimConfig(days=DAYS, prefork_days=2, seed=7)
        cache = ResultCache(tmp_path / "cache")
        partial = run_cached(simulate_chunk_spec(config, 3, 3), cache)
        assert partial["checkpoint"] is not None
        assert not cache.contains(simulate_spec(config).cache_key())

    def test_intermediate_chunk_caches_checkpoint_object(self, tmp_path):
        config = ForkSimConfig(days=DAYS, prefork_days=2, seed=7)
        cache = ResultCache(tmp_path / "cache")
        spec = simulate_chunk_spec(config, 3, 3)
        run_cached(spec, cache)
        hit, value = cache.lookup(spec.cache_key())
        assert hit
        assert isinstance(value["checkpoint"], ForkSimCheckpoint)
        assert value["checkpoint"].day == 3

    def test_resumes_do_not_mutate_cached_checkpoint(self):
        config = ForkSimConfig(days=DAYS, prefork_days=2, seed=7)
        cache = _MemoryCache()
        checkpoint = run_cached(simulate_chunk_spec(config, 3, 3), cache)[
            "checkpoint"
        ]
        before = checkpoint.digest()
        # Both resumes load the same cached object through the runner.
        final = simulate_chunk_spec(config, DAYS, 3)
        first = run_job(final, cache)
        second = run_job(final, cache)
        assert first["digest"] == second["digest"]
        assert first["digest"] == run_fork_sim(config).digest()
        assert checkpoint.digest() == before

    def test_object_and_json_roundtrip_resume_identically(self):
        config = ForkSimConfig(days=DAYS, prefork_days=2, seed=7)
        checkpoint = run_cached(
            simulate_chunk_spec(config, 2, 2), _MemoryCache()
        )["checkpoint"]
        wire = ForkSimCheckpoint.from_dict(
            json.loads(json.dumps(checkpoint.to_dict()))
        )
        from_object = ForkSimulation(config).run(resume_from=checkpoint)
        from_wire = ForkSimulation(config).run(resume_from=wire)
        assert from_object.digest() == from_wire.digest()
        assert from_object.digest() == run_fork_sim(config).digest()


class TestHorizonChunkedRunAll:
    def test_artifacts_match_classic_run(self, tmp_path):
        classic = run_all(**_runall_kwargs(tmp_path / "a", "out")).manifest
        assert not classic.failures
        result = run_all(
            **_runall_kwargs(tmp_path / "b", "out"),
            chunk_size=2,
            horizon_chunk_days=2,
        )
        assert result.state == "complete"
        assert result.exit_code == 0
        assert not result.manifest.failures
        for number in range(1, 6):
            for suffix in ("txt", "csv"):
                name = f"figure{number}.{suffix}"
                assert (tmp_path / "b" / "out" / name).read_bytes() == (
                    tmp_path / "a" / "out" / name
                ).read_bytes()
        assert (tmp_path / "b" / "out" / "observations.txt").read_bytes() == (
            tmp_path / "a" / "out" / "observations.txt"
        ).read_bytes()

    def test_requires_cache(self, tmp_path):
        with pytest.raises(ValueError, match="cache"):
            run_all(
                days=DAYS,
                prefork_days=2,
                cache_dir=None,
                output_dir=tmp_path / "out",
                partition_config=QUICK_PARTITION,
                chunk_size=2,
                horizon_chunk_days=2,
            )

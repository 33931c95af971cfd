"""Cache keys and the content-addressed store."""

import pytest

from repro.harness import (
    JobSpec,
    NullCache,
    ResultCache,
    execute_job,
    figure_spec,
    simulate_spec,
)
from repro.harness.jobs import canonical_json
from repro.sim.engine import ForkSimConfig


class TestCacheKeys:
    def test_same_params_same_key(self):
        a = JobSpec.make("selftest-echo", {"value": 1, "other": "x"})
        b = JobSpec.make("selftest-echo", {"other": "x", "value": 1})
        assert a.cache_key() == b.cache_key()

    def test_key_insensitive_to_dict_insertion_order(self):
        config = ForkSimConfig(days=3)
        payload = config.to_dict()
        shuffled = dict(reversed(list(payload.items())))
        a = JobSpec.make("simulate", {"config": payload})
        b = JobSpec.make("simulate", {"config": shuffled})
        assert a.cache_key() == b.cache_key()

    def test_config_change_invalidates_key(self):
        base = simulate_spec(ForkSimConfig(days=3))
        longer = simulate_spec(ForkSimConfig(days=4))
        reseeded = simulate_spec(ForkSimConfig(days=3, seed=999))
        recalibrated = simulate_spec(
            ForkSimConfig(days=3, allocator_alpha=0.2)
        )
        keys = {
            base.cache_key(),
            longer.cache_key(),
            reseeded.cache_key(),
            recalibrated.cache_key(),
        }
        assert len(keys) == 4

    def test_kind_distinguishes_keys(self):
        a = JobSpec.make("simulate", {"x": 1})
        b = JobSpec.make("partition", {"x": 1})
        assert a.cache_key() != b.cache_key()

    def test_label_does_not_affect_key(self):
        a = JobSpec.make("selftest-echo", {"value": 1}, label="first")
        b = JobSpec.make("selftest-echo", {"value": 1}, label="second")
        assert a.cache_key() == b.cache_key()

    def test_figure_spec_rejects_unknown_figure(self):
        with pytest.raises(ValueError):
            figure_spec(6, ForkSimConfig(days=3))

    def test_non_json_params_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({"bad": object()})


class TestResultCache:
    def test_store_then_lookup_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("ab" + "0" * 62, {"payload": [1, 2, 3]})
        hit, value = cache.lookup("ab" + "0" * 62)
        assert hit and value == {"payload": [1, 2, 3]}
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_missing_key_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        hit, value = cache.lookup("cd" + "0" * 62)
        assert not hit and value is None
        assert cache.stats.misses == 1

    def test_corrupt_entry_evicted_and_missed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        hit, _ = cache.lookup(key)
        assert not hit
        assert not path.exists()

    def test_null_cache_memoizes_within_one_instance(self):
        key = "aa" + "0" * 62
        cache = NullCache()
        assert cache.lookup(key) == (False, None)
        cache.store(key, 42)
        assert cache.contains(key)
        assert cache.lookup(key) == (True, 42)
        # A fresh instance starts empty, and nothing touched disk.
        assert NullCache().lookup(key) == (False, None)
        assert cache.root is None


class TestExecuteJob:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec.make("selftest-echo", {"value": "payload"})
        first = execute_job(spec, cache)
        second = execute_job(spec, cache)
        assert first.value == "payload" and not first.cache_hit
        assert second.value == "payload" and second.cache_hit

    def test_different_params_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = execute_job(JobSpec.make("selftest-echo", {"value": 1}), cache)
        b = execute_job(JobSpec.make("selftest-echo", {"value": 2}), cache)
        assert (a.value, b.value) == (1, 2)


class TestByteAccounting:
    def test_store_counts_bytes_written(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("aa" + "0" * 62, {"payload": list(range(100))})
        assert cache.stats.bytes_written > 0
        assert cache.stats.bytes_written == cache.total_bytes()

    def test_stats_dict_includes_byte_fields(self, tmp_path):
        cache = ResultCache(tmp_path)
        stats = cache.stats.as_dict()
        for field in ("bytes_written", "evictions", "bytes_evicted"):
            assert field in stats


class TestPrune:
    def fill(self, cache, count, size=1000):
        keys = []
        for index in range(count):
            key = f"{index:02x}" + "0" * 62
            cache.store(key, "x" * size)
            keys.append(key)
        return keys

    def test_prune_noop_under_budget(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.fill(cache, 3)
        result = cache.prune(max_bytes=10**9)
        assert result.evicted == 0
        assert result.bytes_evicted == 0
        assert result.remaining_bytes == cache.total_bytes()

    def test_prune_drops_oldest_first(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path)
        keys = self.fill(cache, 4)
        # Force a strict mtime ordering, oldest first.
        now = time.time()
        for age, key in enumerate(reversed(keys)):
            path = cache.path_for(key)
            os.utime(path, (now - age * 100, now - age * 100))
        per_entry = cache.total_bytes() // 4
        result = cache.prune(max_bytes=per_entry * 2)
        assert result.evicted == 2
        hit_oldest, _ = cache.lookup(keys[0])
        hit_newest, _ = cache.lookup(keys[-1])
        assert not hit_oldest  # LRU victim
        assert hit_newest
        assert cache.total_bytes() <= per_entry * 2
        assert cache.stats.evictions == 2
        assert cache.stats.bytes_evicted == result.bytes_evicted > 0

    def test_prune_to_zero_empties_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.fill(cache, 3)
        result = cache.prune(max_bytes=0)
        assert result.evicted == 3
        assert cache.total_bytes() == 0

    def test_prune_tolerates_concurrent_deletion(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = self.fill(cache, 2)
        # Simulate another process removing an entry mid-prune.
        cache.path_for(keys[0]).unlink()
        result = cache.prune(max_bytes=0)
        assert result.evicted == 1
        assert cache.total_bytes() == 0

    def test_prune_missing_dir_is_noop(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        result = cache.prune(max_bytes=0)
        assert result.evicted == 0


class TestConcurrentAccess:
    """Many threads hammering one cache directory: no torn reads."""

    def test_parallel_store_and_lookup_never_torn(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        payload = {"rows": list(range(500))}
        errors = []
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                ResultCache(tmp_path).store(key, payload)

        def reader():
            local = ResultCache(tmp_path)
            for _ in range(200):
                try:
                    hit, value = local.lookup(key)
                except Exception as exc:  # torn read would surface here
                    errors.append(exc)
                    return
                if hit and value != payload:
                    errors.append(AssertionError(f"torn value: {value!r}"))
                    return

        write_thread = threading.Thread(target=writer)
        readers = [threading.Thread(target=reader) for _ in range(4)]
        write_thread.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join()
        stop.set()
        write_thread.join()
        assert errors == []
        hit, value = cache.lookup(key)
        assert hit and value == payload

    def test_corrupt_entry_eviction_race_is_safe(self, tmp_path):
        """Two caches both spotting the same corrupt file must not crash."""
        import threading

        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        errors = []
        barrier = threading.Barrier(4)

        def evict():
            local = ResultCache(tmp_path)
            barrier.wait()
            try:
                hit, _ = local.lookup(key)
                assert not hit
            except Exception as exc:
                errors.append(exc)

        for _ in range(20):
            path.write_bytes(b"not a pickle")
            threads = [threading.Thread(target=evict) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert not path.exists()

"""End-to-end ``run_all``: artifacts, manifest, cold/warm cache behavior."""

import pytest

from repro.harness import RunManifest, build_waves, run_all
from repro.scenarios.partition_event import PartitionScenarioConfig
from repro.sim.engine import ForkSimConfig

#: Small enough for tier-1 latency, large enough that every job kind runs.
DAYS = 3
QUICK_PARTITION = PartitionScenarioConfig(
    num_nodes=14, num_miners=4, post_fork_horizon=1200.0
)


@pytest.fixture(scope="module")
def cold_and_warm(tmp_path_factory):
    root = tmp_path_factory.mktemp("runall")
    kwargs = dict(
        days=DAYS,
        prefork_days=2,
        jobs=1,
        cache_dir=root / "cache",
        output_dir=root / "out",
        timeout=300.0,
        partition_config=QUICK_PARTITION,
    )
    cold = run_all(**kwargs).manifest
    warm = run_all(**kwargs).manifest
    return root, cold, warm


class TestArtifacts:
    def test_all_figures_and_scoreboard_written(self, cold_and_warm):
        root, cold, _ = cold_and_warm
        for number in range(1, 6):
            assert (root / "out" / f"figure{number}.txt").exists()
            assert (root / "out" / f"figure{number}.csv").exists()
        scoreboard = (root / "out" / "observations.txt").read_text()
        assert scoreboard.count("Observation") == 6
        assert len(cold.outputs) == 11  # 5 txt + 5 csv + scoreboard

    def test_manifest_written_and_readable(self, cold_and_warm):
        root, cold, _ = cold_and_warm
        loaded = RunManifest.read(root / "out" / "manifest.json")
        # The file reflects the *warm* (latest) invocation.
        assert loaded.cache_hits == len(loaded.jobs)
        assert cold.cache_misses == len(cold.jobs)

    def test_figure_tables_have_content(self, cold_and_warm):
        root, _, _ = cold_and_warm
        table = (root / "out" / "figure1.txt").read_text()
        assert "Figure 1" in table
        assert "2016-07" in table


class TestCacheBehavior:
    def test_cold_run_all_misses(self, cold_and_warm):
        _, cold, _ = cold_and_warm
        assert cold.cache_hits == 0
        assert cold.cache_misses == 9  # 2 roots + echoes + 5 figures + obs
        assert not cold.failures

    def test_warm_run_all_hits(self, cold_and_warm):
        _, _, warm = cold_and_warm
        assert warm.cache_misses == 0
        assert warm.cache_hits == 9
        assert not warm.failures

    def test_warm_run_is_faster(self, cold_and_warm):
        _, cold, warm = cold_and_warm
        assert warm.total_wall_time < cold.total_wall_time

    def test_no_cache_mode_recomputes(self, tmp_path):
        manifest = run_all(
            days=2,
            prefork_days=2,
            jobs=1,
            cache_dir=None,
            output_dir=tmp_path / "out",
            timeout=300.0,
            partition_config=QUICK_PARTITION,
        ).manifest
        assert manifest.cache_hits == 0
        assert manifest.cache_dir is None
        assert not manifest.failures

    def test_single_shot_opens_no_ledger(self, cold_and_warm):
        root, _, _ = cold_and_warm
        assert not (root / "out" / "run-all-ledger").exists()


class TestChunkedRunAll:
    def test_chunked_run_matches_classic_artifacts(self, cold_and_warm):
        # Reuses the module fixture's warm cache: the chunked pass is
        # pure cache hits, and its figure/scoreboard files must be
        # byte-identical to the classic path's.
        root, _, _ = cold_and_warm
        result = run_all(
            days=DAYS,
            prefork_days=2,
            jobs=1,
            cache_dir=root / "cache",
            output_dir=root / "chunked",
            timeout=300.0,
            partition_config=QUICK_PARTITION,
            chunk_size=2,
        )
        assert result.state == "complete"
        assert result.exit_code == 0
        assert not result.manifest.failures
        assert result.manifest.cache_hits == 9
        for number in range(1, 6):
            for suffix in ("txt", "csv"):
                name = f"figure{number}.{suffix}"
                assert (root / "chunked" / name).read_bytes() == (
                    root / "out" / name
                ).read_bytes()
        assert (root / "chunked" / "observations.txt").read_bytes() == (
            root / "out" / "observations.txt"
        ).read_bytes()
        assert len(result.manifest.outputs) == 11

        # The waves became ledger stages: 2/1/6 jobs at chunk_size 2
        # → 1+1+3 chunks, claimed behind stage barriers.
        from repro.harness import SweepLedger

        ledger = SweepLedger(
            root / "chunked" / "run-all-ledger" / "ledger.db"
        )
        try:
            stages = [row.stage for row in ledger.chunks()]
        finally:
            ledger.close()
        assert stages == [0, 1, 2, 2, 2]

    def test_chunked_run_prunes_cache_to_budget(self, tmp_path):
        result = run_all(
            days=2,
            prefork_days=2,
            jobs=1,
            cache_dir=tmp_path / "cache",
            output_dir=tmp_path / "out",
            timeout=300.0,
            partition_config=QUICK_PARTITION,
            cache_max_bytes=0,
            chunk_size=3,
        )
        assert result.state == "complete"
        assert not list((tmp_path / "cache").glob("*/*.pkl"))

    def test_unknown_setting_is_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            run_all(days=2, output_dir=tmp_path / "out", chunk_sise=2)
        assert not (tmp_path / "out").exists()


class TestWavePlan:
    def test_three_waves_cover_nine_jobs(self):
        waves = build_waves(ForkSimConfig(days=DAYS))
        assert [len(wave) for wave in waves] == [2, 1, 6]
        labels = [spec.label for wave in waves for spec in wave]
        assert "observations" in labels
        assert sum(label.startswith("figure-") for label in labels) == 5

    def test_wave_specs_are_deterministic(self):
        config = ForkSimConfig(days=DAYS)
        first = build_waves(config)
        second = build_waves(config)
        assert [
            [spec.cache_key() for spec in wave] for wave in first
        ] == [[spec.cache_key() for spec in wave] for wave in second]

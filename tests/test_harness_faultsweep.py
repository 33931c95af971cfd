"""The fault-sweep job family: grid, artifacts, caching, reproducibility."""

import dataclasses
import json

import pytest

from repro.harness import (
    EXIT_DEGRADED,
    EXIT_OK,
    FaultSweepConfig,
    NullProgress,
    build_fault_grid,
    run_fault_sweep,
    sweep_digest,
)

TINY = FaultSweepConfig(
    num_nodes=10,
    num_miners=3,
    post_fork_horizon=600.0,
    census_interval=120.0,
    churn_rates=(0.0, 0.01),
    loss_rates=(0.0,),
    split_durations=(0.0, 300.0),
    max_events=2_000_000,
)


class TestGrid:
    def test_one_cell_per_cross_product_entry(self):
        grid = build_fault_grid(TINY)
        assert len(grid) == 4
        cells = [cell for cell, _ in grid]
        assert cells[0] == (0.0, 0.0, 0.0)  # the control arm survives
        assert len({spec.cache_key() for _, spec in grid}) == 4

    def test_cell_schedule_reflects_axes(self):
        schedule = TINY.cell_schedule(0.01, 0.1, 300.0)
        kinds = sorted(fault.KIND for fault in schedule.faults)
        assert kinds == ["churn", "link-loss", "split"]
        assert TINY.cell_schedule(0.0, 0.0, 0.0).faults == ()

    def test_sweep_digest_is_order_sensitive(self):
        assert sweep_digest(["a", "b"]) != sweep_digest(["b", "a"])
        assert sweep_digest(["a", "b"]) == sweep_digest(["a", "b"])


class TestRunFaultSweep:
    @pytest.fixture()
    def outcome(self, tmp_path):
        manifest = run_fault_sweep(
            TINY,
            jobs=1,
            cache_dir=tmp_path / "cache",
            output_dir=tmp_path / "out",
            progress=NullProgress(),
        ).manifest
        return manifest, tmp_path

    def test_all_cells_succeed_and_artifacts_land(self, outcome):
        manifest, tmp_path = outcome
        assert not manifest.failures
        out = tmp_path / "out"
        assert (out / "robustness.txt").exists()
        assert (out / "robustness.csv").exists()
        payload = json.loads((out / "robustness.json").read_text())
        assert len(payload["cells"]) == 4
        assert payload["sweep_digest"]
        assert (out / "fault-sweep-manifest.json").exists()
        lines = (out / "robustness.txt").read_text().strip().splitlines()
        assert len(lines) == 4
        assert "recovery=" in lines[0]

    def test_single_shot_opens_no_ledger(self, outcome):
        _, tmp_path = outcome
        assert not (tmp_path / "out" / "sweep-ledger").exists()
        payload = json.loads(
            (tmp_path / "out" / "robustness.json").read_text()
        )
        assert not {"degraded", "quarantined", "ledger"} & set(payload)

    def test_warm_cache_reproduces_sweep_digest(self, outcome):
        manifest, tmp_path = outcome
        first = json.loads(
            (tmp_path / "out" / "robustness.json").read_text()
        )
        second_manifest = run_fault_sweep(
            TINY,
            jobs=1,
            cache_dir=tmp_path / "cache",
            output_dir=tmp_path / "out2",
            progress=NullProgress(),
        ).manifest
        assert not second_manifest.failures
        records = second_manifest.jobs
        assert all(record.cache_hit for record in records)
        second = json.loads(
            (tmp_path / "out2" / "robustness.json").read_text()
        )
        assert second["sweep_digest"] == first["sweep_digest"]

    def test_cold_recompute_reproduces_sweep_digest(self, outcome):
        # No cache at all: every cell recomputed from scratch must land
        # on the same digest — the determinism claim, not just pickle
        # stability.
        manifest, tmp_path = outcome
        first = json.loads(
            (tmp_path / "out" / "robustness.json").read_text()
        )
        run_fault_sweep(
            TINY,
            jobs=1,
            cache_dir=None,
            output_dir=tmp_path / "out3",
            progress=NullProgress(),
        )
        third = json.loads(
            (tmp_path / "out3" / "robustness.json").read_text()
        )
        assert third["sweep_digest"] == first["sweep_digest"]


class TestChunkedSweep:
    def test_chunked_combine_matches_single_shot_byte_for_byte(
        self, tmp_path
    ):
        # THE determinism contract of the chunked engine: splitting the
        # grid into ledger chunks and stitching the artifacts back must
        # land on the identical sweep digest (and identical cells) as
        # the uninterrupted single-shot run.  The shared cache keeps
        # this to one cold sweep.
        manifest = run_fault_sweep(
            TINY,
            jobs=1,
            cache_dir=tmp_path / "cache",
            output_dir=tmp_path / "single",
            progress=NullProgress(),
        ).manifest
        assert not manifest.failures
        single = json.loads(
            (tmp_path / "single" / "robustness.json").read_text()
        )

        result = run_fault_sweep(
            TINY,
            jobs=1,
            cache_dir=tmp_path / "cache",
            output_dir=tmp_path / "chunked",
            chunk_size=1,
            progress=NullProgress(),
        )
        assert result.state == "complete"
        assert result.exit_code == EXIT_OK
        assert result.sweep_digest == single["sweep_digest"]
        chunked = json.loads(
            (tmp_path / "chunked" / "robustness.json").read_text()
        )
        assert chunked["cells"] == single["cells"]
        assert not chunked["degraded"]
        assert chunked["quarantined"] == []
        assert (tmp_path / "chunked" / "robustness.txt").read_text() == (
            tmp_path / "single" / "robustness.txt"
        ).read_text()
        assert not result.manifest.failures
        assert result.manifest.cache_hits == 4

    def test_poisoned_cells_quarantine_and_degrade(self, tmp_path):
        # A starved event budget makes every cell fail fast — the sweep
        # must complete DEGRADED (exit 4) with the quarantine manifest,
        # not hang or hard-fail.
        poisoned = dataclasses.replace(TINY, max_events=10)
        result = run_fault_sweep(
            poisoned,
            jobs=1,
            cache_dir=None,
            output_dir=tmp_path / "out",
            chunk_size=2,
            chunk_retries=0,
            progress=NullProgress(),
        )
        assert result.state == "degraded"
        assert result.exit_code == EXIT_DEGRADED
        assert len(result.quarantined) == 2  # 4 cells / chunk_size 2
        payload = json.loads(
            (tmp_path / "out" / "robustness.json").read_text()
        )
        assert payload["degraded"]
        assert payload["cells"] == []
        quarantined_cells = [
            label
            for entry in payload["quarantined"]
            for label in entry["cells"]
        ]
        assert len(quarantined_cells) == 4
        # The manifest records every quarantined cell as a failed job.
        assert len(result.manifest.failures) == 4

    def test_quarantine_budget_fails_the_sweep(self, tmp_path):
        poisoned = dataclasses.replace(TINY, max_events=10)
        result = run_fault_sweep(
            poisoned,
            jobs=1,
            cache_dir=None,
            output_dir=tmp_path / "out",
            chunk_size=2,
            chunk_retries=0,
            max_quarantined=0,
            progress=NullProgress(),
        )
        assert result.state == "failed"
        assert result.exit_code == 1
        assert result.manifest is None
        assert not (tmp_path / "out" / "robustness.json").exists()

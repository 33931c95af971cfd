"""The topology-sweep job family: grid, artifacts, caching, chunked parity."""

import json

import pytest

from repro.harness import (
    EXIT_OK,
    NullProgress,
    TopologySweepConfig,
    build_topology_grid,
    run_topology_sweep,
    topology_infer_spec,
    topology_partition_spec,
)
from repro.scenarios.partition_event import TopologyPartitionConfig
from repro.scenarios.topology_inference import TopologyInferenceConfig

TINY = TopologySweepConfig(
    num_nodes=10,
    num_miners=3,
    fork_block=10,
    post_fork_horizon=600.0,
    census_interval=120.0,
    target_degree=4,
    topologies=("uniform", "geo"),
    infer_probes=2,
)


class TestGrid:
    def test_partition_and_infer_cell_per_family(self):
        grid = build_topology_grid(TINY)
        assert [cell for cell, _ in grid] == [
            ("uniform", "partition"),
            ("uniform", "infer"),
            ("geo", "partition"),
            ("geo", "infer"),
        ]
        assert len({spec.cache_key() for _, spec in grid}) == 4

    def test_inference_cells_are_optional(self):
        import dataclasses

        config = dataclasses.replace(TINY, include_inference=False)
        grid = build_topology_grid(config)
        assert [cell for cell, _ in grid] == [
            ("uniform", "partition"),
            ("geo", "partition"),
        ]

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown topology families"):
            TopologySweepConfig(topologies=("uniform", "torus"))

    def test_geo_family_gets_strict_geo_latency(self):
        assert TINY.cell_config("geo").latency == "geo"
        assert TINY.cell_config("uniform").latency == "lognormal"

    def test_job_specs_round_trip_their_configs(self):
        partition = topology_partition_spec(TINY.cell_config("uniform"))
        assert partition.kind == "topology-partition"
        rebuilt = TopologyPartitionConfig(**partition.params["config"])
        assert rebuilt == TINY.cell_config("uniform")
        infer = topology_infer_spec(TINY.infer_config("uniform"))
        assert infer.kind == "topology-infer"
        rebuilt_infer = TopologyInferenceConfig(**infer.params["config"])
        assert rebuilt_infer == TINY.infer_config("uniform")


class TestRunTopologySweep:
    @pytest.fixture()
    def outcome(self, tmp_path):
        manifest = run_topology_sweep(
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
        assert (out / "topology.txt").exists()
        assert (out / "topology.csv").exists()
        payload = json.loads((out / "topology.json").read_text())
        assert len(payload["cells"]) == 4
        assert payload["sweep_digest"]
        assert payload["conclusion"]["reported_families"] == 2
        assert (out / "topology-sweep-manifest.json").exists()
        lines = (out / "topology.txt").read_text().strip().splitlines()
        assert lines[0].startswith("stabilization conclusion holds on")
        assert len(lines) == 3  # header + one row per family
        assert "infer P=" in lines[1]

    def test_single_shot_opens_no_ledger(self, outcome):
        _, tmp_path = outcome
        assert not (tmp_path / "out" / "sweep-ledger").exists()
        payload = json.loads((tmp_path / "out" / "topology.json").read_text())
        assert not {"degraded", "quarantined", "ledger"} & set(payload)

    def test_warm_cache_reproduces_sweep_digest(self, outcome):
        manifest, tmp_path = outcome
        first = json.loads((tmp_path / "out" / "topology.json").read_text())
        second_manifest = run_topology_sweep(
            TINY,
            jobs=1,
            cache_dir=tmp_path / "cache",
            output_dir=tmp_path / "out2",
            progress=NullProgress(),
        ).manifest
        assert not second_manifest.failures
        assert all(record.cache_hit for record in second_manifest.jobs)
        second = json.loads(
            (tmp_path / "out2" / "topology.json").read_text()
        )
        assert second["sweep_digest"] == first["sweep_digest"]

    def test_cold_recompute_reproduces_sweep_digest(self, outcome):
        # No cache at all: every cell recomputed from scratch must land
        # on the same digest — the determinism claim the CI smoke job
        # pins, not just pickle stability.
        manifest, tmp_path = outcome
        first = json.loads((tmp_path / "out" / "topology.json").read_text())
        run_topology_sweep(
            TINY,
            jobs=1,
            cache_dir=None,
            output_dir=tmp_path / "out3",
            progress=NullProgress(),
        )
        third = json.loads(
            (tmp_path / "out3" / "topology.json").read_text()
        )
        assert third["sweep_digest"] == first["sweep_digest"]


class TestChunkedTopologySweep:
    def test_chunked_combine_matches_single_shot_byte_for_byte(
        self, tmp_path
    ):
        single = run_topology_sweep(
            TINY,
            jobs=1,
            cache_dir=tmp_path / "cache-a",
            output_dir=tmp_path / "single",
            progress=NullProgress(),
        ).manifest
        assert not single.failures
        single_payload = json.loads(
            (tmp_path / "single" / "topology.json").read_text()
        )

        result = run_topology_sweep(
            TINY,
            jobs=1,
            cache_dir=tmp_path / "cache-b",
            output_dir=tmp_path / "chunked",
            ledger_dir=tmp_path / "ledger",
            chunk_size=2,
            progress=NullProgress(),
        )
        assert result.state == "complete"
        assert result.exit_code == EXIT_OK
        chunked_payload = json.loads(
            (tmp_path / "chunked" / "topology.json").read_text()
        )
        assert (
            chunked_payload["sweep_digest"]
            == single_payload["sweep_digest"]
        )
        assert chunked_payload["cells"] == single_payload["cells"]
        assert not chunked_payload["degraded"]
        assert chunked_payload["quarantined"] == []

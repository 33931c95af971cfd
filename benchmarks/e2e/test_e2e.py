"""Self-test of the end-to-end benchmark.

Runs ``run.py --smoke`` (about a minute) and holds its last output line
to BENCHMARK.json.  It sits outside the tier-1 ``testpaths``; run it
with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke():
    done = _run(ROOT, "--smoke")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_is_correct(smoke):
    assert smoke["correct"] is True
    assert smoke["failed"] == 0
    assert smoke["attempted"] >= 1


def test_smoke_reports_every_declared_metric(smoke):
    declared = SPEC["end_to_end"] + SPEC["per_layer"]
    for workload in SPEC["workloads"]:
        for metric in declared:
            got = smoke["metrics"][f"{workload['name']}/{metric['name']}"]
            assert got["unit"] == metric["unit"], metric["name"]
            assert math.isfinite(got["value"]), metric["name"]
        for metric in SPEC["end_to_end"]:
            assert smoke["metrics"][f"{workload['name']}/{metric['name']}"]["value"] > 0


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark must not report a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "partition_400", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_self_time_subtracts_direct_children():
    spans = [
        ["harness.pool.run", None, 0.0, 4.0],
        ["harness.cache.lookup", 0, 0.5, 1.5],
        ["sim.ForkSimulation.run", 0, 2.0, 3.0],
        ["harness.cache.store", None, 4.0, 4.5],
    ]
    summary = summarize(spans, work_s=5.0)
    assert summary["spans"]["harness.pool.run"] == {
        "calls": 1, "total_s": 4.0, "self_s": 2.0,
    }
    assert summary["spans"]["harness.cache.store"]["self_s"] == 0.5
    assert summary["coverage"] == pytest.approx(0.9)

"""Shared fixtures for the benchmark harness.

The expensive inputs — the nine-month fork simulation, the replay
workload, the message-level partition run — are routed through the
:mod:`repro.harness` content-addressed result cache, so they are
computed once *ever* (not once per session): a rerun of any figure
benchmark is a pickle load.  Set ``REPRO_CACHE_DIR`` to relocate the
cache, or ``REPRO_NO_CACHE=1`` to force recomputation.  Each benchmark
then times the *analysis* step it exercises and writes its regenerated
figure to ``benchmarks/output/`` as both a text table and a CSV.
"""

import os
from pathlib import Path

import pytest

from repro.core.metrics import trace_transactions_per_day
from repro.harness import (
    NullCache,
    ResultCache,
    echoes_spec,
    execute_job,
    partition_spec,
    simulate_spec,
)
from repro.scenarios.replay_attack import replay_stream
from repro.sim.engine import ForkSimConfig

OUTPUT_DIR = Path(__file__).parent / "output"

#: The paper's measurement window: July 20, 2016 → mid-April 2017.
FULL_DAYS = 270


def _shared_cache():
    if os.environ.get("REPRO_NO_CACHE"):
        return NullCache()
    root = os.environ.get(
        "REPRO_CACHE_DIR", str(Path(__file__).parent / ".cache")
    )
    return ResultCache(root)


@pytest.fixture(scope="session")
def result_cache():
    return _shared_cache()


@pytest.fixture(scope="session")
def sim_config():
    return ForkSimConfig(days=FULL_DAYS, prefork_days=14)


@pytest.fixture(scope="session")
def fork_result(result_cache, sim_config):
    """The full nine-month, two-chain reconstruction (cached)."""
    return execute_job(simulate_spec(sim_config), result_cache).value


@pytest.fixture(scope="session")
def daily_tx_totals(fork_result):
    eth = trace_transactions_per_day(
        fork_result.eth_trace, fork_result.fork_timestamp
    )
    etc = trace_transactions_per_day(
        fork_result.etc_trace, fork_result.fork_timestamp
    )
    return eth, etc


@pytest.fixture(scope="session")
def echo_data(result_cache, sim_config, fork_result):
    """Replay workload + a detector that has consumed it.

    The detector and ground truth come from the cache; the sighting
    stream is regenerated from the simulation, since the cached value
    does not keep it.
    """
    bundle = execute_job(echoes_spec(sim_config), result_cache).value
    sightings, _ = replay_stream(fork_result)
    return bundle.detector, bundle.truth, sightings


@pytest.fixture(scope="session")
def partition_result(result_cache):
    """The message-level node-census run (Observation 1, cached)."""
    return execute_job(partition_spec(), result_cache).value


@pytest.fixture(scope="session")
def output_dir():
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def publish(output_dir, name, figure, sample_days=7):
    """Write a regenerated figure as text + CSV and echo it to stdout."""
    text = figure.render(sample_days=sample_days)
    (output_dir / f"{name}.txt").write_text(text + "\n")
    figure.write_csv(output_dir / f"{name}.csv")
    print()
    print(text)
    return text

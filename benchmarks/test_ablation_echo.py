"""Experiment abl-echo — ablation: streaming vs naive echo detection.

The streaming :class:`EchoDetector` makes one pass over the interleaved
sighting stream; the naive baseline materializes both chains' full
transaction sets and joins them in two passes.  They must agree exactly
(asserted here and property-tested in the unit suite); the benchmark
quantifies the throughput difference on the full nine-month workload.
"""

import pytest

from repro.baselines.naive_echo import naive_echo_join
from repro.core.echoes import EchoDetector


def test_detectors_agree_on_full_workload(benchmark, echo_data, output_dir):
    detector, truth, sightings = echo_data
    naive = benchmark.pedantic(
        naive_echo_join, args=(sightings,), rounds=1, iterations=1
    )

    streaming_keys = {(e.tx_hash, e.echo_chain) for e in detector.echoes}
    naive_keys = {(e.tx_hash, e.echo_chain) for e in naive}
    assert streaming_keys == naive_keys
    assert len(naive) == truth.total()

    summary = (
        "=== Ablation: echo detectors on the nine-month workload ===\n"
        f"sightings: {len(sightings)}\n"
        f"echoes (streaming): {len(detector.echoes)}\n"
        f"echoes (naive join): {len(naive)}\n"
        f"ground truth: {truth.total()}\n"
    )
    (output_dir / "ablation_echo.txt").write_text(summary)
    print()
    print(summary)


def test_streaming_detector_throughput(benchmark, echo_data):
    _, _, sightings = echo_data

    def run():
        detector = EchoDetector()
        detector.observe_records(sightings)
        return len(detector.echoes)

    count = benchmark(run)
    assert count > 0


def test_naive_join_throughput(benchmark, echo_data):
    _, _, sightings = echo_data
    count = benchmark(lambda: len(naive_echo_join(sightings)))
    assert count > 0

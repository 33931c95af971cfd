"""The future-work extensions: intent classification, miner flows,
transient forks."""

import pytest

from repro.core.classification import (
    ClassificationReport,
    EchoVerdict,
    IntentClassifier,
)
from repro.core.echoes import Echo, EchoDetector
from repro.core.flows import daily_hashrate_series, estimate_flows
from repro.core.timeseries import TimeSeries
from repro.data.windows import DAY, HOUR
from repro.sim.blockprod import ChainTrace


def echo(lag, origin_ts=1_000_000, tx_hash=b"h1", same_time=None):
    return Echo(
        tx_hash=tx_hash,
        origin_chain="ETH",
        echo_chain="ETC",
        origin_timestamp=origin_ts,
        echo_timestamp=origin_ts + lag,
        same_time=(lag <= 900) if same_time is None else same_time,
    )


class TestIntentClassifier:
    def test_instant_echo_is_benign(self):
        classifier = IntentClassifier()
        assert classifier.score(echo(lag=60)) < 0.5

    def test_day_late_echo_is_malicious(self):
        classifier = IntentClassifier()
        assert classifier.score(echo(lag=DAY)) > 0.8

    def test_score_monotone_in_lag(self):
        classifier = IntentClassifier()
        lags = [60, 900, HOUR, 4 * HOUR, DAY]
        scores = [classifier.score(echo(lag=lag)) for lag in lags]
        assert scores == sorted(scores)

    def test_post_protection_echo_leans_malicious(self):
        neutral = IntentClassifier()
        aware = IntentClassifier(protection_timestamp=500_000)
        # Same mid-range lag: protection awareness breaks the tie upward.
        mid = echo(lag=30 * 60)
        assert aware.score(mid) > neutral.score(mid)

    def test_repeat_victim_raises_score(self):
        sender = b"\xaa" * 20
        sender_of = {bytes([i]): sender for i in range(6)}
        classifier = IntentClassifier(sender_of=sender_of)
        echoes = [
            echo(lag=30 * 60, tx_hash=bytes([i]), origin_ts=1_000_000 + i)
            for i in range(6)
        ]
        repeat_report = classifier.classify(echoes)
        single_report = IntentClassifier().classify(echoes[:1])
        assert (
            repeat_report.verdicts[0].malicious_score
            > single_report.verdicts[0].malicious_score
        )

    def test_classify_report_partitions(self):
        classifier = IntentClassifier()
        report = classifier.classify(
            [echo(lag=60, tx_hash=b"a"), echo(lag=DAY, tx_hash=b"b")]
        )
        assert len(report.benign) == 1
        assert len(report.malicious) == 1
        assert report.malicious_fraction() == 0.5
        assert sum(report.daily_malicious_counts().values()) == 1

    def test_accuracy_against_workload_ground_truth(self):
        """Validate against the generator's known intent labels."""
        from repro.scenarios.replay_attack import (
            ReplayWorkload,
            ReplayWorkloadConfig,
        )

        workload = ReplayWorkload(ReplayWorkloadConfig(days=40, seed=17))
        sightings, _ = workload.generate([30_000.0] * 40, [12_000.0] * 40)
        detector = EchoDetector()
        detector.observe_records(sightings)
        report = IntentClassifier().classify(detector.echoes)

        intentional = [v for v in report.verdicts if v.echo.same_time]
        scavenged = [v for v in report.verdicts if not v.echo.same_time]
        benign_recall = sum(
            1 for v in intentional if v.label == "benign"
        ) / len(intentional)
        malicious_recall = sum(
            1 for v in scavenged if v.label == "malicious"
        ) / len(scavenged)
        assert benign_recall > 0.95
        assert malicious_recall > 0.6

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            IntentClassifier(benign_lag_seconds=0)


class TestMinerFlows:
    def test_hashrate_inference_identity(self):
        """blocks x difficulty / time recovers the driving hashrate."""
        trace = ChainTrace("X")
        # 14 s blocks at difficulty 14e6 → hashrate 1e6.
        ts = 0
        for index in range(2 * DAY // 14):
            ts += 14
            trace.append(index, ts, 14_000_000, "m")
        series = daily_hashrate_series(trace)
        assert series.values[0] == pytest.approx(1e6, rel=0.02)

    def test_pure_migration_detected_exactly(self):
        timestamps = [d * DAY for d in range(5)]
        a = TimeSeries(timestamps, [100.0, 100.0, 90.0, 80.0, 80.0])
        b = TimeSeries(timestamps, [10.0, 10.0, 20.0, 30.0, 30.0])
        flows = estimate_flows(a, b)
        migration = sum(f.migration for f in flows.flows)
        assert migration == pytest.approx(20.0)
        assert all(f.entry_exit == pytest.approx(0.0) for f in flows.flows)

    def test_pure_entry_is_not_migration(self):
        timestamps = [d * DAY for d in range(3)]
        a = TimeSeries(timestamps, [100.0, 110.0, 120.0])
        b = TimeSeries(timestamps, [10.0, 11.0, 12.0])
        flows = estimate_flows(a, b)
        assert all(f.migration == 0.0 for f in flows.flows)
        assert sum(f.entry_exit for f in flows.flows) == pytest.approx(22.0)

    def test_direction_sign_convention(self):
        timestamps = [0, DAY]
        a = TimeSeries(timestamps, [100.0, 90.0])
        b = TimeSeries(timestamps, [10.0, 20.0])
        flows = estimate_flows(a, b, pair=("ETH", "ETC"))
        assert flows.flows[0].migration > 0  # toward ETC (the second chain)
        # Swapping the argument order flips the sign: the same physical
        # flow is now *away from* the second chain (ETH).
        reverse = estimate_flows(b, a, pair=("ETC", "ETH"))
        assert reverse.flows[0].migration == pytest.approx(
            -flows.flows[0].migration
        )

    def test_window_totals(self):
        timestamps = [d * DAY for d in range(4)]
        a = TimeSeries(timestamps, [100.0, 90.0, 90.0, 85.0])
        b = TimeSeries(timestamps, [0.0, 10.0, 10.0, 15.0])
        flows = estimate_flows(a, b)
        assert flows.total_migration_toward_second(0, 4 * DAY) == pytest.approx(15.0)
        assert flows.total_migration_toward_second(2 * DAY, 4 * DAY) == pytest.approx(5.0)

    def test_recovers_fork_return_from_simulation(self):
        """Applied to simulated chains, the estimator sees the post-fork
        return of miners to ETC (the paper's Figure 1 hypothesis)."""
        from repro.sim.engine import ForkSimConfig, ForkSimulation

        result = ForkSimulation(
            ForkSimConfig(days=25, prefork_days=3, seed=31)
        ).run()
        eth = daily_hashrate_series(result.eth_trace, result.fork_timestamp)
        etc = daily_hashrate_series(result.etc_trace, result.fork_timestamp)
        flows = estimate_flows(eth, etc)
        measured = flows.total_migration_toward_second(
            result.fork_timestamp + 3 * DAY, result.fork_timestamp + 21 * DAY
        )
        truth = (
            result.daily_hashrate["ETC"][20] - result.daily_hashrate["ETC"][3]
        )
        assert measured > 0
        # Conservative lower bound: detects a meaningful share of the
        # true inflow, never more than it plus noise.
        assert 0.25 * truth < measured < 1.5 * truth


class TestTransientForks:
    @pytest.fixture(scope="class")
    def outcomes(self):
        from repro.scenarios.transient_forks import (
            TransientForkConfig,
            latency_sweep,
        )

        return latency_sweep(
            [0.1, 3.0], TransientForkConfig(duration=3600.0, seed=21)
        )

    def test_orphan_rate_increases_with_latency(self, outcomes):
        low, high = outcomes
        assert high.orphan_rate > low.orphan_rate

    def test_low_latency_rate_near_theory(self, outcomes):
        low, _ = outcomes
        assert low.orphan_rate < 0.05
        assert low.canonical_blocks > 100

    def test_transient_forks_resolve(self, outcomes):
        """Unlike the DAO fork, these forks leave one canonical chain:
        orphans exist but every node follows the same head lineage at low
        latency."""
        low, _ = outcomes
        assert low.converged

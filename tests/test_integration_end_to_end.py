"""End-to-end integration: the full reproduction pipeline at test scale.

Runs the fork simulation, the replay workload, the echo detector, and the
figure generators together — the same pipeline the benchmarks run at the
paper's full nine-month scale — and asserts the paper's observations hold
in miniature.
"""

import pytest

from repro.core import (
    EchoDetector,
    figure_1,
    figure_2,
    figure_3,
    figure_4,
    figure_5,
)
from repro.core.metrics import trace_transactions_per_day
from repro.core.observations import (
    observation_2,
    observation_3,
    observation_4,
)
from repro.data.windows import DAY
from repro.scenarios.replay_attack import ReplayWorkload, ReplayWorkloadConfig
from repro.sim.engine import ForkSimConfig, ForkSimulation


@pytest.fixture(scope="module")
def pipeline():
    result = ForkSimulation(
        ForkSimConfig(days=120, prefork_days=7, seed=99)
    ).run()
    eth_daily = trace_transactions_per_day(
        result.eth_trace, result.fork_timestamp
    )
    etc_daily = trace_transactions_per_day(
        result.etc_trace, result.fork_timestamp
    )
    workload = ReplayWorkload(ReplayWorkloadConfig(days=120, seed=98))
    sightings, truth = workload.generate(eth_daily.values, etc_daily.values)
    detector = EchoDetector()
    detector.observe_records(sightings)
    return result, detector, truth


class TestObservations:
    def test_observation_2_stabilization(self, pipeline):
        result, _, _ = pipeline
        observation = observation_2(result)
        assert observation.holds, observation.details

    def test_observation_3_divergent_growth(self, pipeline):
        result, _, _ = pipeline
        observation = observation_3(result)
        assert observation.details["difficulty_ratio_at_end"] > 5

    def test_observation_4_market_efficiency(self, pipeline):
        result, _, _ = pipeline
        observation = observation_4(result)
        assert observation.holds, observation.details

    def test_echo_detector_matches_injected_truth(self, pipeline):
        _, detector, truth = pipeline
        assert len(detector.echoes) == truth.total()


class TestFigures:
    def test_figure_1_series_present_and_shaped(self, pipeline):
        result, _, _ = pipeline
        figure = figure_1(result)
        assert set(figure.series) == {
            "ETH blocks/hr", "ETH difficulty", "ETH delta(s)",
            "ETC blocks/hr", "ETC difficulty", "ETC delta(s)",
        }
        etc_rate = figure.series["ETC blocks/hr"]
        # The collapse: some post-fork hour produced almost nothing.
        post = etc_rate.clip_time(
            result.fork_timestamp, result.fork_timestamp + DAY
        )
        assert post.min() < 20
        # The recovery: rates back near target within the month shown.
        assert etc_rate.values[-1] > 150

    def test_figure_2_usage_gap(self, pipeline):
        result, _, _ = pipeline
        figure = figure_2(result)
        eth_tx = figure.series["ETH tx/day"].mean()
        etc_tx = figure.series["ETC tx/day"].mean()
        assert 2.0 < eth_tx / etc_tx < 3.5
        assert figure.series["ETH contract %"].mean() > 20

    def test_figure_3_correlation_noted(self, pipeline):
        result, _, _ = pipeline
        figure = figure_3(result)
        assert "pearson correlation" in figure.notes
        correlation = float(
            figure.notes.split("pearson correlation = ")[1].split(",")[0]
        )
        assert correlation > 0.85

    def test_figure_4_echo_panels(self, pipeline):
        result, detector, truth = pipeline
        figure = figure_4(result, detector)
        into_etc = figure.series["into ETC/day"]
        assert sum(into_etc.values) == truth.echoes_into["ETC"]
        percent = figure.series["% of ETC txs"]
        # The paper's top panel: an initial surge where a large share of
        # ETC's transactions are echoes, decaying over time.  (The last
        # simulated day may fall inside an October/November bump window,
        # so the decay is checked against the final month's floor.)
        assert percent.values[0] > 20
        assert min(percent.values[-30:]) < percent.values[0] / 3

    def test_figure_5_concentration_gap_then_convergence(self, pipeline):
        result, _, _ = pipeline
        figure = figure_5(result)
        eth_top5 = figure.series["ETH top 5"]
        etc_top5 = figure.series["ETC top 5"]
        early_eth = sum(eth_top5.values[:14]) / 14
        early_etc = sum(etc_top5.values[:14]) / 14
        late_etc = sum(etc_top5.values[-14:]) / 14
        assert early_eth - early_etc > 15  # ETC starts far less concentrated
        assert late_etc > early_etc + 10  # and coalesces upward

    def test_figure_render_and_csv(self, pipeline, tmp_path):
        result, _, _ = pipeline
        figure = figure_1(result)
        text = figure.render(sample_days=3)
        assert "Figure 1" in text
        assert "2016-07" in text
        rows = figure.write_csv(tmp_path / "fig1.csv")
        assert rows > 0
        assert (tmp_path / "fig1.csv").exists()

"""Experiment fig4 / obs5 — Figure 4: rebroadcast ("echo") transactions.

Paper's reading (Section 3.3, "Security vulnerabilities"):
* "an initial spike immediately following the fork, followed by
  subsequent spikes in October and November";
* "the overall number of rebroadcasts has fallen off, and yet there are
  still hundreds of daily rebroadcast transactions even today";
* "Most of the rebroadcasts were originally broadcast in ETH and then
  rebroadcast into ETC";
* the top panel: echoes peak above 50% of all ETC transactions.
"""

from conftest import publish

from repro.core.observations import observation_5
from repro.core.report import figure_4
from repro.data.windows import DAY


def test_figure_4(benchmark, fork_result, echo_data, output_dir):
    detector, truth, _ = echo_data
    figure = benchmark.pedantic(
        figure_4, args=(fork_result, detector), rounds=1, iterations=1
    )
    publish(output_dir, "figure4", figure, sample_days=14)

    into_etc = figure.series["into ETC/day"]
    percent_etc = figure.series["% of ETC txs"]

    # Initial spike: tens of thousands per day, most of ETC's traffic.
    first_week_peak = max(into_etc.values[:7])
    first_week_percent = max(percent_etc.values[:7])
    print(f"\ninitial spike: {first_week_peak:.0f} echoes/day, "
          f"{first_week_percent:.0f}% of ETC txs (paper: up to ~50-60%)")
    assert first_week_peak > 5_000
    assert 30 <= first_week_percent <= 95

    # Decay, but persistence: hundreds per day months later.
    final_month = into_etc.values[-30:]
    final_mean = sum(final_month) / len(final_month)
    print(f"final month: {final_mean:.0f} echoes/day "
          f"(paper: 'still hundreds of daily rebroadcasts')")
    assert 100 <= final_mean <= 2_000

    # Direction: overwhelmingly ETH -> ETC.
    directions = detector.direction_totals()
    eth_to_etc = directions.get(("ETH", "ETC"), 0)
    etc_to_eth = directions.get(("ETC", "ETH"), 0)
    print(f"direction: ETH→ETC {eth_to_etc}, ETC→ETH {etc_to_eth}")
    assert eth_to_etc > 3 * etc_to_eth

    # The October/November bump windows produce local maxima.
    def window_sum(series, start_day, end_day):
        clipped = series.clip_time(
            fork_result.fork_timestamp + start_day * DAY,
            fork_result.fork_timestamp + end_day * DAY,
        )
        return sum(clipped.values)

    bump = window_sum(into_etc, 108, 122)
    before_bump = window_sum(into_etc, 93, 107)
    print(f"Oct/Nov bump: {bump:.0f} vs {before_bump:.0f} in the "
          f"preceding fortnight")
    assert bump > before_bump

    # Same-time class exists but is the minority.
    same_time = figure.series["same-time/day"]
    assert 0 < sum(same_time.values) < sum(into_etc.values)

    # Detector exactness against the injected ground truth.
    assert sum(into_etc.values) == truth.echoes_into["ETC"]

    observation = observation_5(detector)
    print(observation.render())
    assert observation.holds


def test_echo_detection_throughput(benchmark, echo_data):
    """Timing: one streaming pass over the full nine-month sighting
    stream (the echo detector's hot loop)."""
    from repro.core.echoes import EchoDetector

    _, _, sightings = echo_data

    def run():
        detector = EchoDetector()
        detector.observe_records(sightings)
        return len(detector.echoes)

    echoes = benchmark(run)
    assert echoes > 0

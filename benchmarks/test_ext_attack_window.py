"""Experiment ext-attack — Section 3.2's vulnerability warning, priced.

"The network may be vulnerable in the time period immediately following
the fork."  We give an attacker 2% of the *pre-fork* network — a rounding
error on July 19th — and evaluate their power over ETC day by day.
"""

import pytest
from conftest import FULL_DAYS

from repro.core.flows import daily_hashrate_series
from repro.scenarios.attack_window import (
    assess_attack_window,
    catchup_probability,
    simulate_race,
    vulnerability_window_days,
)


def test_attack_window(benchmark, fork_result, output_dir):
    fork_ts = fork_result.fork_timestamp
    etc_hashrate = daily_hashrate_series(fork_result.etc_trace, fork_ts)

    # Daily mean difficulty for ETC, aligned to days since fork.
    from repro.core.report import figure_2

    etc_difficulty = figure_2(fork_result).series["ETC difficulty"]
    days = min(len(etc_hashrate), len(etc_difficulty), FULL_DAYS)
    prices = [fork_result.rates.rate("ETC", day) for day in range(days)]

    assessments = benchmark.pedantic(
        assess_attack_window,
        args=(
            etc_hashrate.values[:days],
            etc_difficulty.values[:days],
            prices,
        ),
        kwargs={
            "prefork_hashrate": fork_result.config.total_hashrate_at_fork,
            "attacker_prefork_share": 0.02,
        },
        rounds=1,
        iterations=1,
    )

    window = vulnerability_window_days(assessments)
    rows = [
        "=== Extension: 51% vulnerability window on post-fork ETC ===",
        "attacker budget: 2% of the PRE-FORK network",
        f"{'day':>4} {'share of ETC':>13} {'P(6-conf rewrite)':>18} "
        f"{'attack cost (USD-equiv)':>24}",
    ]
    for assessment in assessments[:21]:
        rows.append(
            f"{assessment.day:>4} "
            f"{assessment.attacker_minority_share:>12.0%} "
            f"{assessment.double_spend_probability:>18.3g} "
            f"{assessment.opportunity_cost_usd:>23.0f}"
        )
    rows.append("...")
    last = assessments[-1]
    rows.append(
        f"{last.day:>4} {last.attacker_minority_share:>12.0%} "
        f"{last.double_spend_probability:>18.3g} "
        f"{last.opportunity_cost_usd:>23.0f}"
    )
    rows.append("")
    rows.append(
        f"majority-control window: "
        f"{window if window else 0} day(s) immediately after the fork"
    )
    table = "\n".join(rows)
    (output_dir / "ext_attack_window.txt").write_text(table + "\n")
    print()
    print(table)

    # Day 0-1: the 2% attacker OWNS ETC (honest side started at ~0.5%).
    assert assessments[0].has_majority
    assert assessments[0].double_spend_probability == 1.0
    # The window closes as miners return: weeks in, the attacker is a
    # clear minority and a 6-conf rewrite is a long shot.
    assert not assessments[60].has_majority
    assert assessments[60].double_spend_probability < 0.2
    assert window is not None and 1 <= window <= 30
    # The monotone economics: attack cost in USD-equivalents grows with
    # the recovery (difficulty climbs while the share falls).
    assert assessments[120].opportunity_cost_usd > assessments[1].opportunity_cost_usd


class TestCatchupProbability:
    """The closed-form catch-up odds against a Monte-Carlo race (slow:
    12,000 simulated races, so it runs with the experiments)."""

    def test_monte_carlo_agrees_with_formula(self):
        for share, deficit in ((0.3, 3), (0.4, 4), (0.45, 2)):
            analytic = catchup_probability(share, deficit)
            empirical = simulate_race(share, deficit, trials=4000)
            assert empirical == pytest.approx(analytic, abs=0.04)

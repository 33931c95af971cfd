#!/usr/bin/env python3
"""How cheap was attacking ETC right after the fork? — Section 3.2, priced.

The paper warns that "the network may be vulnerable in the time period
immediately following the fork".  This example gives that warning numbers:
it simulates the fork, hands a hypothetical attacker a fixed slice of the
*pre-fork* network, and tracks their power over ETC day by day — majority
share, double-spend probability, and the cost of a six-confirmation
rewrite.

Run: ``python examples/attack_economics.py``
"""

from repro.core import figure_2
from repro.core.flows import daily_hashrate_series
from repro.scenarios import assess_attack_window, vulnerability_window_days
from repro.sim import ForkSimConfig, ForkSimulation


def main() -> None:
    print("simulating the fork (90 days)...")
    result = ForkSimulation(ForkSimConfig(days=90, prefork_days=7)).run()
    fork_ts = result.fork_timestamp

    etc_hashrate = daily_hashrate_series(result.etc_trace, fork_ts)
    etc_difficulty = figure_2(result).series["ETC difficulty"]
    days = min(len(etc_hashrate), len(etc_difficulty), 90)
    prices = [result.rates.rate("ETC", day) for day in range(days)]

    print(f"\n{'budget':>8} {'majority window':>16} "
          f"{'day-0 share':>12} {'day-0 rewrite cost':>19}")
    for budget in (0.005, 0.01, 0.02, 0.05):
        assessments = assess_attack_window(
            etc_hashrate.values[:days],
            etc_difficulty.values[:days],
            prices,
            prefork_hashrate=result.config.total_hashrate_at_fork,
            attacker_prefork_share=budget,
        )
        window = vulnerability_window_days(assessments) or 0
        first = assessments[0]
        print(
            f"{budget:>7.1%} {window:>13d} d "
            f"{first.attacker_minority_share:>12.0%} "
            f"{first.opportunity_cost_usd:>16.0f} $"
        )

    print("\nReading: even half a percent of the July-19 network — one")
    print("mid-sized pool's spare capacity — could out-mine all of ETC on")
    print("day one. The window closes as loyalists spin up and profit")
    print("miners arbitrage back in; by week two a 2% attacker is a clear")
    print("minority. This is the quantified version of the paper's 'the")
    print("network may be vulnerable immediately following the fork'.")


if __name__ == "__main__":
    main()

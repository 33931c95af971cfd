#!/usr/bin/env python3
"""Mining-pool dynamics across the fork — Figure 5.

Shows both layers of the pool story, from one fork simulation:

* the *micro* level: one fork day on ETH — each pool's weight in the
  landscape that drew the winners, next to the blocks that carry its
  label (a pool's whole membership mines under one coinbase);
* the *macro* level: the nine-month top-1/3/5 concentration series for
  ETH and ETC, including ETC's slow coalescence onto ETH's ratios.

Run: ``python examples/pool_dynamics.py``
"""

from collections import Counter

from repro.core import convergence_day, figure_5, migration_consistency
from repro.data.windows import DAY
from repro.sim import ForkSimConfig, ForkSimulation
from repro.sim.population import eth_pool_landscape


def micro_level(result) -> None:
    print("=" * 72)
    print("MICRO — ETH's first fork day: pool weights and the blocks won")
    print("=" * 72)
    # The landscape the simulation drew ETH's winners from (it seeds the
    # ETH landscape with the run's seed + 3).
    landscape = eth_pool_landscape(seed=result.config.seed + 3)
    weights = landscape.weights_on_day(0)
    trace = result.eth_trace
    fork_ts = result.fork_timestamp
    day_zero = trace.slice_by_time(fork_ts, fork_ts + DAY)
    wins = Counter(trace.miner_of(i) for i in day_zero)
    total = len(day_zero)

    print(f"{'label':>18} {'weight':>7} {'blocks':>7} {'share':>7}")
    for label, weight in sorted(weights.items(), key=lambda kv: -kv[1]):
        won = wins.pop(label, 0)
        print(f"{label:>18} {weight:7.1%} {won:7d} {won / total:7.1%}")
    # Whatever is left was won by solo miners, each under its own label.
    solo = sum(wins.values())
    print(f"{'solo miners':>18} {landscape.solo_fraction:7.1%} {solo:7d} "
          f"{solo / total:7.1%}  ({len(wins)} distinct labels)")
    print(f"\n{total} blocks on day 0. Every block a pool wins carries ONE "
          f"label — the pool's.")
    print("That is why Figure 5 can only measure pools, not miners.")


def macro_level(result) -> None:
    print()
    print("=" * 72)
    print("MACRO — nine months of pool concentration (Figure 5)")
    print("=" * 72)
    figure = figure_5(result)
    print()
    print(figure.render(sample_days=21))

    eth_top5 = figure.series["ETH top 5"]
    etc_top5 = figure.series["ETC top 5"]
    converged = convergence_day(eth_top5, etc_top5)
    if converged is not None:
        day = (converged - result.fork_timestamp) / DAY
        print(f"\nETC's top-5 share converges with ETH's around day "
              f"{day:.0f} after the fork")

    trace = result.eth_trace
    fork_ts = result.fork_timestamp
    prefork = [
        (trace.timestamps[i], trace.miner_of(i))
        for i in range(len(trace))
        if trace.timestamps[i] < fork_ts
        and not trace.miner_of(i).startswith("solo-")
    ]
    postfork = [
        (trace.timestamps[i], trace.miner_of(i))
        for i in range(len(trace))
        if fork_ts <= trace.timestamps[i] < fork_ts + 30 * DAY
        and not trace.miner_of(i).startswith("solo-")
    ]
    overlap = migration_consistency(prefork, postfork, top_n=5)
    print(f"pre-fork vs post-fork ETH top-5 identity overlap: {overlap:.0%} "
          f"(the pools 'immediately and pervasively chose to migrate')")


if __name__ == "__main__":
    print("simulating (270 days)...")
    result = ForkSimulation(ForkSimConfig(days=270, prefork_days=14)).run()
    micro_level(result)
    macro_level(result)

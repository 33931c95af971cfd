"""Transaction-demand model: the usage side of Figure 2.

The paper's Figure 2 (middle/bottom) shows the two networks being *used*
differently despite being variants of one system: ETH carried roughly
2.5x ETC's transactions for most of the window, rising to ~5x in late
March 2017 (speculation influx), while the contract-call fraction stayed
similar on both chains "until very recently".

The model is an anchored daily-rate trajectory per chain (same machinery
as the price processes) with Poisson noise, plus an anchored contract-call
fraction.  Daily totals spread over the day's blocks proportional to the
inter-block gaps, so a stalled chain (post-fork ETC) shows the backlog
compressing into the few blocks that do get mined.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence, Tuple

__all__ = [
    "RateAnchor",
    "AnchoredRate",
    "TransactionWorkload",
    "eth_workload",
    "etc_workload",
]


@dataclass(frozen=True)
class RateAnchor:
    day: float
    value: float


class AnchoredRate:
    """Piecewise-linear day->value interpolation (shared helper)."""

    def __init__(self, anchors: Sequence[RateAnchor]) -> None:
        if len(anchors) < 2:
            raise ValueError("need at least two anchors")
        days = [anchor.day for anchor in anchors]
        if days != sorted(days):
            raise ValueError("anchors out of order")
        self.anchors = list(anchors)

    def at(self, day: float) -> float:
        anchors = self.anchors
        if day <= anchors[0].day:
            return anchors[0].value
        if day >= anchors[-1].day:
            return anchors[-1].value
        for left, right in zip(anchors, anchors[1:]):
            if left.day <= day <= right.day:
                span = right.day - left.day
                frac = (day - left.day) / span if span else 0.0
                return (1 - frac) * left.value + frac * right.value
        raise AssertionError("unreachable")  # pragma: no cover


class TransactionWorkload:
    """Daily transaction demand for one chain.

    ``daily_count(day, rng)`` draws the day's transaction total (Poisson
    around the trajectory — approximated by a Gaussian above 1000 for
    speed) and ``contract_fraction(day)`` gives the expected share of
    contract interactions.  ``per_block_sampler`` adapts a day total into
    the per-block sampler the :class:`BlockProducer` consumes.
    """

    def __init__(
        self,
        rate: AnchoredRate,
        contract_fraction_rate: AnchoredRate,
        noise_cv: float = 0.08,
    ) -> None:
        self.rate = rate
        self.contract_fraction_rate = contract_fraction_rate
        self.noise_cv = noise_cv

    def daily_count(self, day: float, rng: random.Random) -> int:
        mean = self.rate.at(day)
        if mean <= 0:
            return 0
        # Poisson + an extra lognormal day effect (usage is burstier than
        # pure Poisson: news days, airdrops, attacks).
        day_effect = rng.lognormvariate(0.0, self.noise_cv)
        lam = mean * day_effect
        if lam > 1000:
            return max(0, round(rng.gauss(lam, math.sqrt(lam))))
        return _poisson(lam, rng)

    def contract_fraction(self, day: float) -> float:
        return min(1.0, max(0.0, self.contract_fraction_rate.at(day)))

    def per_block_sampler(self, day: float, daily_total: int, seconds_in_day: float = 86_400.0):
        """Build ``tx_sampler(rng, block_gap) -> (tx, contract_tx)``.

        Transactions arrive uniformly in time, so a block claims a share
        of the day's total proportional to the gap it closes.  The
        contract share is binomial around the day's expected fraction.

        The returned closure publishes its parameters as
        ``sampler.tx_parts = (rate_per_second, contract_p)`` (mirroring
        the pool sampler's ``categorical_parts``), so
        :meth:`~repro.sim.blockprod.BlockProducer.advance_batch` can run
        the same draws inline; the closure itself stays the reference.
        """
        contract_p = self.contract_fraction(day)
        rate_per_second = daily_total / seconds_in_day

        def sampler(rng: random.Random, gap_seconds: float) -> Tuple[int, int]:
            lam = rate_per_second * gap_seconds
            if lam <= 0:
                return 0, 0
            if lam > 1000:
                count = max(0, round(rng.gauss(lam, math.sqrt(lam))))
            else:
                count = _poisson(lam, rng)
            if count == 0:
                return 0, 0
            contracts = sum(
                1 for _ in range(count) if rng.random() < contract_p
            ) if count <= 64 else max(
                0,
                min(
                    count,
                    round(rng.gauss(count * contract_p,
                                    math.sqrt(count * contract_p * (1 - contract_p) + 1e-9))),
                ),
            )
            return count, contracts

        sampler.tx_parts = (rate_per_second, contract_p)
        return sampler


def _poisson(lam: float, rng: random.Random) -> int:
    """Knuth's algorithm (small lambda only)."""
    threshold = math.exp(-lam)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def eth_workload() -> TransactionWorkload:
    """ETH demand: ~40k/day post-fork rising to ~110k/day in late March."""
    return TransactionWorkload(
        rate=AnchoredRate(
            [
                RateAnchor(0, 42_000),
                RateAnchor(60, 45_000),
                RateAnchor(120, 48_000),
                RateAnchor(180, 52_000),
                RateAnchor(230, 65_000),
                RateAnchor(250, 100_000),
                RateAnchor(270, 112_000),
            ]
        ),
        contract_fraction_rate=AnchoredRate(
            [
                RateAnchor(0, 0.32),
                RateAnchor(90, 0.36),
                RateAnchor(180, 0.38),
                RateAnchor(240, 0.50),
                RateAnchor(270, 0.62),
            ]
        ),
    )


def etc_workload() -> TransactionWorkload:
    """ETC demand: ~2.5:1 below ETH for most of the window, ~5:1 by March."""
    return TransactionWorkload(
        rate=AnchoredRate(
            [
                RateAnchor(0, 17_000),
                RateAnchor(60, 18_000),
                RateAnchor(120, 19_000),
                RateAnchor(180, 20_500),
                RateAnchor(230, 21_000),
                RateAnchor(250, 21_500),
                RateAnchor(270, 22_000),
            ]
        ),
        contract_fraction_rate=AnchoredRate(
            [
                RateAnchor(0, 0.30),
                RateAnchor(90, 0.33),
                RateAnchor(180, 0.34),
                RateAnchor(240, 0.26),
                RateAnchor(270, 0.18),
            ]
        ),
    )

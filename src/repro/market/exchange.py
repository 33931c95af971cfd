"""Exchange-rate series and mining-economics conversions.

:class:`ExchangeRateSeries` is the reproduction's coinmarketcap: a daily
USD rate table per asset.  The conversion helpers implement the paper's
Figure 3 arithmetic verbatim: "we divided the average number of hashes to
earn one ether (i.e., the difficulty divided by 5, as each block earns 5
ether) by the daily ETH/ETC to USD exchange rates."
"""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = ["ExchangeRateSeries", "expected_hashes_per_usd", "expected_hashes_per_ether"]


def expected_hashes_per_ether(difficulty: float, block_reward_ether: float = 5.0) -> float:
    """Average hashes a miner computes per ether earned.

    A block takes ``difficulty`` hashes in expectation and pays
    ``block_reward_ether``.
    """
    if block_reward_ether <= 0:
        raise ValueError("block reward must be positive")
    return difficulty / block_reward_ether


def expected_hashes_per_usd(
    difficulty: float, price_usd: float, block_reward_ether: float = 5.0
) -> float:
    """Figure 3's y-axis: hashes per USD of expected mining revenue."""
    if price_usd <= 0:
        raise ValueError("price must be positive")
    return expected_hashes_per_ether(difficulty, block_reward_ether) / price_usd


class ExchangeRateSeries:
    """Daily USD rates for one or more assets, indexed by day number."""

    def __init__(self) -> None:
        self._rates: Dict[str, List[float]] = {}

    def set_series(self, asset: str, daily_prices: Sequence[float]) -> None:
        if any(price <= 0 for price in daily_prices):
            raise ValueError("prices must be positive")
        self._rates[asset] = list(daily_prices)

    def assets(self) -> List[str]:
        return sorted(self._rates)

    def days(self, asset: str) -> int:
        return len(self._rates.get(asset, []))

    def rate(self, asset: str, day: int) -> float:
        """USD price of ``asset`` on ``day`` (clamped to series ends)."""
        series = self._rates.get(asset)
        if not series:
            raise KeyError(f"no rates for {asset!r}")
        if day < 0:
            return series[0]
        if day >= len(series):
            return series[-1]
        return series[day]

    def series(self, asset: str) -> List[float]:
        return list(self._rates.get(asset, []))

    def ratio_series(self, numerator: str, denominator: str) -> List[float]:
        """Daily price ratio (e.g. ETH:ETC, the ~10:1 driver)."""
        top = self._rates.get(numerator, [])
        bottom = self._rates.get(denominator, [])
        days = min(len(top), len(bottom))
        return [top[day] / bottom[day] for day in range(days)]

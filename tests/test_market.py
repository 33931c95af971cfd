"""Market models: prices, events, arbitrage equilibrium, exchange series."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.market.arbitrage import LaggedAllocator, allocate_profit_hashpower
from repro.market.events import ExternalDraw, HashpowerSupply, ZcashLaunch
from repro.market.exchange import (
    ExchangeRateSeries,
    expected_hashes_per_ether,
    expected_hashes_per_usd,
)
from repro.market.price import (
    AnchoredPriceProcess,
    PriceAnchor,
    etc_price_process,
    eth_price_process,
)


class TestPriceProcess:
    def test_reference_hits_anchors(self):
        process = AnchoredPriceProcess(
            [PriceAnchor(0, 10.0), PriceAnchor(10, 20.0)]
        )
        assert process.reference(0) == pytest.approx(10.0)
        assert process.reference(10) == pytest.approx(20.0)

    def test_reference_interpolates_in_log_space(self):
        process = AnchoredPriceProcess(
            [PriceAnchor(0, 1.0), PriceAnchor(10, 100.0)]
        )
        assert process.reference(5) == pytest.approx(10.0)

    def test_reference_clamps_outside_anchors(self):
        process = AnchoredPriceProcess(
            [PriceAnchor(5, 3.0), PriceAnchor(10, 4.0)]
        )
        assert process.reference(0) == 3.0
        assert process.reference(100) == 4.0

    def test_series_deterministic_per_seed(self):
        assert eth_price_process(seed=3).series(50) == eth_price_process(
            seed=3
        ).series(50)
        assert eth_price_process(seed=3).series(50) != eth_price_process(
            seed=4
        ).series(50)

    def test_series_stays_near_reference(self):
        process = eth_price_process()
        prices = process.series(270)
        for day in (0, 100, 250):
            assert prices[day] == pytest.approx(
                process.reference(day), rel=0.5
            )

    def test_prices_always_positive(self):
        assert all(p > 0 for p in etc_price_process().series(270))

    def test_eth_etc_ratio_is_order_ten(self):
        """The price structure behind the order-of-magnitude difficulty
        gap (Figure 2 top)."""
        eth = eth_price_process().series(270)
        etc = etc_price_process().series(270)
        mid_ratios = [eth[d] / etc[d] for d in range(30, 240)]
        assert 5 < sum(mid_ratios) / len(mid_ratios) < 20

    def test_anchor_validation(self):
        with pytest.raises(ValueError):
            PriceAnchor(0, -1.0)
        with pytest.raises(ValueError):
            AnchoredPriceProcess([PriceAnchor(0, 1.0)])
        with pytest.raises(ValueError):
            AnchoredPriceProcess(
                [PriceAnchor(5, 1.0), PriceAnchor(0, 1.0)]
            )


class TestEvents:
    def test_draw_zero_before_event(self):
        draw = ExternalDraw("z", day=100, peak_fraction=0.3)
        assert draw.drawn_fraction(99) == 0.0

    def test_draw_ramps_and_decays(self):
        draw = ExternalDraw("z", day=100, peak_fraction=0.3, ramp_days=10,
                            decay_days=20)
        assert draw.drawn_fraction(105) == pytest.approx(0.15)
        assert draw.drawn_fraction(110) == pytest.approx(0.3)
        assert draw.drawn_fraction(130) < 0.3
        assert draw.drawn_fraction(1000) < 0.01

    def test_zcash_timing(self):
        zcash = ZcashLaunch()
        assert zcash.day == 100  # late October 2016
        assert zcash.drawn_fraction(106) > 0.2

    def test_supply_growth_trend(self):
        supply = HashpowerSupply(1e12, growth_rate_per_day=0.005, events=())
        assert supply.available(0) == pytest.approx(1e12)
        assert supply.available(270) == pytest.approx(
            1e12 * 2.718**1.35, rel=0.01
        )

    def test_supply_dips_during_zcash(self):
        supply = HashpowerSupply(1e12, events=(ZcashLaunch(),))
        assert supply.available(106) < supply.trend(106) * 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            ExternalDraw("bad", 0, peak_fraction=1.0)
        with pytest.raises(ValueError):
            HashpowerSupply(0)


class TestArbitrage:
    def test_no_floors_splits_by_price(self):
        allocation = allocate_profit_hashpower(
            1000.0, {"ETH": 9.0, "ETC": 1.0}, {}
        )
        assert allocation.hashrate["ETH"] == pytest.approx(900.0)
        assert allocation.hashrate["ETC"] == pytest.approx(100.0)

    def test_small_floors_do_not_distort(self):
        """Water-filling: a floor below the proportional share is
        invisible — the Figure 3 identity survives ideological miners."""
        allocation = allocate_profit_hashpower(
            650.0, {"ETH": 9.0, "ETC": 1.0},
            {"ETH": 300.0, "ETC": 50.0},
        )
        # total = 1000; proportional = 900/100; both floors below that.
        assert allocation.hashrate["ETH"] == pytest.approx(900.0)
        assert allocation.hashrate["ETC"] == pytest.approx(100.0)

    def test_binding_floor_pins_and_redistributes(self):
        allocation = allocate_profit_hashpower(
            100.0, {"ETH": 9.0, "ETC": 1.0},
            {"ETH": 0.0, "ETC": 500.0},
        )
        assert allocation.hashrate["ETC"] == 500.0
        assert allocation.hashrate["ETH"] == pytest.approx(100.0)

    @given(
        st.floats(min_value=1.0, max_value=1e6),
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.0, max_value=1e5),
        st.floats(min_value=0.0, max_value=1e5),
    )
    @settings(max_examples=100)
    def test_allocation_conserves_hashpower(self, profit, p1, p2, f1, f2):
        allocation = allocate_profit_hashpower(
            profit, {"A": p1, "B": p2}, {"A": f1, "B": f2}
        )
        total = profit + f1 + f2
        assert sum(allocation.hashrate.values()) == pytest.approx(total)
        assert allocation.hashrate["A"] >= f1 - 1e-6
        assert allocation.hashrate["B"] >= f2 - 1e-6

    def test_lagged_allocator_converges(self):
        allocator = LaggedAllocator(alpha=0.3)
        allocator.reset({"ETH": 990.0, "ETC": 10.0})
        prices = {"ETH": 8.0, "ETC": 2.0}
        for _ in range(40):
            allocation = allocator.step(1000.0, prices, {})
        assert allocation["ETH"] == pytest.approx(800.0, rel=0.01)
        assert allocation["ETC"] == pytest.approx(200.0, rel=0.05)

    def test_lagged_allocator_moves_gradually(self):
        allocator = LaggedAllocator(alpha=0.1)
        allocator.reset({"ETH": 1000.0, "ETC": 0.0})
        allocation = allocator.step(1000.0, {"ETH": 5.0, "ETC": 5.0}, {})
        # One step at alpha=0.1 moves 10% of the way to the 500/500 target.
        assert allocation["ETC"] == pytest.approx(50.0, rel=0.01)

    def test_supply_changes_bind_immediately(self):
        allocator = LaggedAllocator(alpha=0.1)
        allocator.reset({"ETH": 900.0, "ETC": 100.0})
        allocation = allocator.step(2000.0, {"ETH": 9.0, "ETC": 1.0}, {})
        assert sum(allocation.values()) == pytest.approx(2000.0)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            LaggedAllocator(alpha=0.0)


class TestExchange:
    def test_hashes_per_ether(self):
        assert expected_hashes_per_ether(50.0, 5.0) == 10.0

    def test_hashes_per_usd_matches_paper_formula(self):
        # difficulty/5 per ether, divided by price.
        assert expected_hashes_per_usd(7e13, 14.0) == pytest.approx(1e12)

    def test_series_storage_and_clamping(self):
        rates = ExchangeRateSeries()
        rates.set_series("ETH", [10.0, 11.0, 12.0])
        assert rates.rate("ETH", 1) == 11.0
        assert rates.rate("ETH", -5) == 10.0
        assert rates.rate("ETH", 99) == 12.0

    def test_ratio_series(self):
        rates = ExchangeRateSeries()
        rates.set_series("ETH", [10.0, 20.0])
        rates.set_series("ETC", [1.0, 2.0])
        assert rates.ratio_series("ETH", "ETC") == [10.0, 10.0]

    def test_validation(self):
        rates = ExchangeRateSeries()
        with pytest.raises(ValueError):
            rates.set_series("X", [1.0, -1.0])
        with pytest.raises(KeyError):
            rates.rate("missing", 0)
        with pytest.raises(ValueError):
            expected_hashes_per_usd(1e12, 0.0)

"""The two-chain fork simulation: one engine behind Figures 1, 2, 3 and 5.

:class:`ForkSimulation` reconstructs the July 2016 partition end-to-end at
day granularity:

1. A **pre-fork segment** mines the shared prefix under the pre-fork pool
   landscape.
2. At the fork instant the trace splits (:meth:`ChainTrace.forked_from`):
   ideologically pro-fork hashpower and — crucially — the entire
   profit-driven majority *follow the upgrade to ETH*, leaving ETC with
   only its "code is law" loyalists (~1% of hashpower).  That initial
   condition is what collapses ETC block production to a handful of blocks
   per hour while the clamped difficulty algorithm grinds down
   (Observations 1-2, Figure 1).
3. Each simulated day, the market model produces ETH/ETC prices, the
   supply model produces available hashpower (growth + Zcash draw), and
   the lagged arbitrage allocator moves profit hashpower toward the
   revenue-equalizing split — sending a slice *back* to ETC as its price
   finds a floor (the mirror-image difficulty drift in Figure 1's second
   fortnight, and Figure 3's near-identical hashes-per-USD curves).
4. Block production for the day runs through the exact consensus
   difficulty rule; the transaction workload model fills blocks.

Everything downstream (the figures) reads the resulting traces and rate
series through :class:`~repro.data.columnar.ColumnarChainDatabase`.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import struct
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Observability

#: Shared reusable no-op context for the obs-disabled path.
_NULL_CONTEXT = nullcontext()

from ..chain.config import ETC_CONFIG, ETH_CONFIG, PRE_FORK_CONFIG, DAO_FORK_BLOCK
from ..data.columnar import ColumnarChainDatabase
from ..market.arbitrage import LaggedAllocator
from ..market.events import DEFAULT_EVENTS, ExternalDraw, HashpowerSupply
from ..market.exchange import ExchangeRateSeries
from ..market.price import etc_price_process, eth_price_process
from .blockprod import BlockProducer, ChainTrace
from .checkpoint import ForkSimCheckpoint
from .clock import FORK_TIMESTAMP, SECONDS_PER_DAY
from .population import (
    PoolLandscape,
    etc_pool_landscape,
    eth_pool_landscape,
    prefork_pool_landscape,
)
from .workload import TransactionWorkload, etc_workload, eth_workload

__all__ = ["ForkSimConfig", "ForkSimResult", "ForkSimulation", "run_fork_sim"]


@dataclass
class ForkSimConfig:
    """Calibration knobs for the fork reconstruction.

    Defaults reproduce the paper's measurement window: 270 days from the
    fork (July 2016 → April 2017), total hashpower ~4.8 TH/s at the fork
    (putting equilibrium difficulty at the ~6.7e13 the paper's Figure 1
    shows), ~1.2% of hashpower ideologically committed to ETC at the
    instant of the fork, and a daily arbitrage adjustment rate of 18%.
    """

    days: int = 270
    prefork_days: int = 14
    seed: int = 2016_07_20
    total_hashrate_at_fork: float = 4.8e12
    hashrate_growth_per_day: float = 0.005
    #: Fractions of fork-time hashpower that are ideologically pinned.
    etc_loyal_fraction: float = 0.012
    eth_loyal_fraction: float = 0.35
    #: ETC loyalist hashpower online at the fork instant.  The anti-fork
    #: camp needed days to regroup (dedicated clients, new bootnodes, pool
    #: infrastructure), so day-zero ETC ran on a sliver of its eventual
    #: loyalist base; the rest ramps in over ``etc_loyal_ramp_days``.
    etc_day0_fraction: float = 0.005
    etc_loyal_ramp_days: float = 3.0
    #: Day ETC became tradeable (Poloniex listed it ~July 24, day 4).
    #: Profit-driven hashpower cannot arbitrage an unpriced asset, so no
    #: profit flow reaches ETC before this day.
    etc_listing_day: int = 4
    #: Lagged-allocator daily adjustment rate.
    allocator_alpha: float = 0.12
    events: Sequence[ExternalDraw] = field(default_factory=lambda: list(DEFAULT_EVENTS))
    #: Include the per-block transaction workload (disable for
    #: difficulty-only experiments: a 90-day run then takes about 0.7x
    #: the CPU time).
    with_transactions: bool = True

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable snapshot of every calibration knob.

        The harness hashes this dict (canonically ordered) into cache
        keys, so it must capture *everything* that influences the run —
        including the event list, serialized field by field.
        """
        payload: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "events":
                value = [
                    {
                        "name": event.name,
                        "day": event.day,
                        "peak_fraction": event.peak_fraction,
                        "ramp_days": event.ramp_days,
                        "decay_days": event.decay_days,
                    }
                    for event in value
                ]
            payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ForkSimConfig":
        """Inverse of :meth:`to_dict` (round-trips exactly)."""
        kwargs = dict(payload)
        if "events" in kwargs:
            kwargs["events"] = [
                ExternalDraw(**event) for event in kwargs["events"]
            ]
        return cls(**kwargs)


@dataclass
class ForkSimResult:
    """Everything a figure needs, in one bundle."""

    config: ForkSimConfig
    eth_trace: ChainTrace
    etc_trace: ChainTrace
    fork_timestamp: int
    fork_number: int
    rates: ExchangeRateSeries
    #: Day index -> allocated hashrate per chain.
    daily_hashrate: Dict[str, List[float]]
    #: Set on partial runs (``until_day`` short of the horizon): resume
    #: state for the remaining days.  Deliberately excluded from
    #: :meth:`digest` — a chunk's digest fingerprints the *mined
    #: outcome*, and the final chunk of a resumed sequence must hash
    #: identically to a single-shot run (which carries no checkpoint).
    checkpoint: Optional[ForkSimCheckpoint] = None

    def traces(self) -> Dict[str, ChainTrace]:
        return {"ETH": self.eth_trace, "ETC": self.etc_trace}

    def digest(self) -> str:
        """Bit-exact fingerprint of the simulated outcome.

        Hashes every trace column (its int64 bytes, whatever width it
        is stored in: see :meth:`ChainTrace.int64_slices`), the miner
        label tables, the daily hashrate allocation, and the price
        series — two runs with the same config must produce the same
        digest whether they executed in this process or a worker
        subprocess.  The harness's cache correctness rests on this
        property.
        """
        hasher = hashlib.sha256()
        for trace in (self.eth_trace, self.etc_trace):
            hasher.update(trace.chain.encode("utf-8"))
            for name in ChainTrace.COLUMNS:
                for chunk in trace.int64_slices(name):
                    hasher.update(chunk)
            hasher.update("\x00".join(trace.miner_labels).encode("utf-8"))
        hasher.update(struct.pack("<qq", self.fork_timestamp, self.fork_number))
        for chain in sorted(self.daily_hashrate):
            values = self.daily_hashrate[chain]
            hasher.update(chain.encode("utf-8"))
            hasher.update(struct.pack(f"<{len(values)}d", *values))
        for asset in self.rates.assets():
            series = self.rates.series(asset)
            hasher.update(asset.encode("utf-8"))
            hasher.update(struct.pack(f"<{len(series)}d", *series))
        return hasher.hexdigest()

    def to_database(self) -> ColumnarChainDatabase:
        """The analysis database over both traces.

        The :class:`~repro.data.columnar.ColumnarChainDatabase` adopts
        the trace columns zero-copy, so no block is boxed.  The
        record-backed oracle is built explicitly, by
        :func:`repro.perf.reference.reference_database`.
        """
        database = ColumnarChainDatabase()
        for trace in (self.eth_trace, self.etc_trace):
            database.adopt_trace(trace)
        return database


class ForkSimulation:
    """Runs the full scenario; see the module docstring for the phases.

    ``obs`` (a :class:`repro.obs.Observability`) is optional: when set,
    the run records per-phase wall-time spans plus deterministic
    per-chain metrics (block counts, final difficulty, daily-block
    histograms) into the bundle.  The simulated trajectory is identical
    with or without it.

    Block production goes through :attr:`producer_cls` and the per-day
    winner samplers through :meth:`_sampler`; the benchmark's reference
    arm (:class:`repro.perf.reference.ReferenceForkSimulation`) overrides
    both.
    """

    #: The block producer every chain segment is mined with.
    producer_cls = BlockProducer

    def __init__(
        self,
        config: Optional[ForkSimConfig] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.config = config or ForkSimConfig()
        self.obs = obs

    def _span(self, label: str):
        if self.obs is None:
            return _NULL_CONTEXT
        return self.obs.span(label)

    def _sampler(self, landscape: PoolLandscape, day: float):
        """The per-block winner sampler for ``landscape`` on ``day``."""
        return landscape.make_sampler(day)

    def run(
        self,
        resume_from: Optional[ForkSimCheckpoint] = None,
        until_day: Optional[int] = None,
    ) -> ForkSimResult:
        """Simulate the scenario, optionally in resumable day chunks.

        ``until_day`` stops the day loop early (after mining days
        ``[0, until_day)``); the partial result then carries a
        :class:`ForkSimCheckpoint` for the remaining days.
        ``resume_from`` picks up from such a checkpoint instead of
        re-mining the prefix; the result's traces are the checkpoint's
        columns plus the new blocks (only the new ones when resuming
        from a :meth:`~ForkSimCheckpoint.tip`).  Chaining chunks
        produces a final result whose :meth:`ForkSimResult.digest` is
        byte-identical to a single-shot run: producer RNG state is
        restored exactly, and every other daily input (prices, supply,
        pool landscapes, transaction workloads) is a pure function of
        ``config.seed`` recomputed identically on every (re)entry.
        """
        config = self.config
        if until_day is not None and until_day < 1:
            raise ValueError("until_day must be >= 1")
        stop = config.days if until_day is None else min(until_day, config.days)
        if resume_from is not None:
            if resume_from.config != config.to_dict():
                raise ValueError(
                    "checkpoint was taken under a different configuration"
                )
            if resume_from.day > stop:
                raise ValueError(
                    f"checkpoint already covers day {resume_from.day}; "
                    f"cannot resume to day {stop}"
                )

        # -- market inputs, precomputed day by day -------------------------
        with self._span("forksim.market"):
            eth_prices = eth_price_process(seed=config.seed + 1).series(
                config.days
            )
            etc_prices = etc_price_process(seed=config.seed + 2).series(
                config.days
            )
        rates = ExchangeRateSeries()
        rates.set_series("ETH", eth_prices)
        rates.set_series("ETC", etc_prices)

        supply = HashpowerSupply(
            base_hashrate=config.total_hashrate_at_fork,
            growth_rate_per_day=config.hashrate_growth_per_day,
            events=config.events,
        )

        allocator = LaggedAllocator(alpha=config.allocator_alpha)

        if resume_from is None:
            # -- phase 1: the shared prefix --------------------------------
            prefork_landscape = prefork_pool_landscape(seed=config.seed + 3)
            prefork_workload = eth_workload()
            equilibrium_difficulty = int(
                config.total_hashrate_at_fork * 14
            )
            prefork_trace = ChainTrace("pre-fork")
            start_ts = FORK_TIMESTAMP - config.prefork_days * SECONDS_PER_DAY
            producer = self.producer_cls(
                config=PRE_FORK_CONFIG,
                trace=prefork_trace,
                start_number=DAO_FORK_BLOCK
                - self._expected_blocks(config.prefork_days),
                start_timestamp=start_ts,
                start_difficulty=equilibrium_difficulty,
                seed=config.seed + 4,
            )
            with self._span("forksim.prefix"):
                for day_offset in range(config.prefork_days):
                    day = day_offset - config.prefork_days  # negative: before fork
                    hashrate = supply.trend(day)
                    sampler = self._sampler(prefork_landscape, day)
                    tx_sampler = None
                    if config.with_transactions:
                        rng = random.Random(
                            f"{config.seed}:wl-pre:{day_offset}"
                        )
                        total = prefork_workload.daily_count(0, rng)
                        tx_sampler = prefork_workload.per_block_sampler(
                            0, total
                        )
                    producer.run_until(
                        start_ts + (day_offset + 1) * SECONDS_PER_DAY,
                        hashrate,
                        sampler,
                        tx_sampler,
                    )

            fork_number = producer.number
            fork_timestamp = producer.timestamp

            # -- phase 2: the split ----------------------------------------
            eth_trace = ChainTrace.forked_from(prefork_trace, "ETH")
            etc_trace = ChainTrace.forked_from(prefork_trace, "ETC")
            eth_producer = self.producer_cls(
                ETH_CONFIG,
                eth_trace,
                producer.number,
                producer.timestamp,
                producer.difficulty,
                seed=config.seed + 5,
            )
            etc_producer = self.producer_cls(
                ETC_CONFIG,
                etc_trace,
                producer.number,
                producer.timestamp,
                producer.difficulty,
                seed=config.seed + 6,
            )

            # Initial allocation: ETC holds only its day-zero loyalists;
            # everyone else — the pro-fork bloc and the entire profit bloc —
            # is on ETH.
            fork_supply = supply.available(0)
            allocator.reset(
                {
                    "ETH": fork_supply * (1 - config.etc_day0_fraction),
                    "ETC": fork_supply * config.etc_day0_fraction,
                }
            )
            producers = {"ETH": eth_producer, "ETC": etc_producer}
            daily_hashrate: Dict[str, List[float]] = {"ETH": [], "ETC": []}
            first_day = 0
            segment_start = 0
        else:
            # -- resume: restore exactly what the day loop carries ---------
            fork_number = resume_from.fork_number
            fork_timestamp = resume_from.fork_timestamp
            restored_traces = resume_from.restore_traces()
            eth_trace = restored_traces["ETH"]
            etc_trace = restored_traces["ETC"]
            producers = {}
            for chain, chain_config, trace in (
                ("ETH", ETH_CONFIG, eth_trace),
                ("ETC", ETC_CONFIG, etc_trace),
            ):
                state = resume_from.producers[chain]
                restored = self.producer_cls(
                    chain_config,
                    trace,
                    state.number,
                    state.timestamp,
                    state.difficulty,
                )
                state.apply(restored)
                producers[chain] = restored
            allocator.reset(resume_from.allocation)
            daily_hashrate = {
                chain: list(values)
                for chain, values in resume_from.daily_hashrate.items()
            }
            first_day = resume_from.day
            segment_start = resume_from.first_day

        landscapes: Dict[str, PoolLandscape] = {
            "ETH": eth_pool_landscape(seed=config.seed + 3),
            "ETC": etc_pool_landscape(seed=config.seed + 7),
        }
        workloads: Dict[str, TransactionWorkload] = {
            "ETH": eth_workload(),
            "ETC": etc_workload(),
        }

        # -- phase 3+4: the day loop ------------------------------------------
        with self._span("forksim.day_loop"):
            for day in range(first_day, stop):
                day_supply = supply.available(day)
                etc_loyal_today = config.etc_day0_fraction + (
                    config.etc_loyal_fraction - config.etc_day0_fraction
                ) * min(1.0, day / config.etc_loyal_ramp_days)
                floors = {
                    "ETH": config.eth_loyal_fraction * day_supply,
                    "ETC": etc_loyal_today * day_supply,
                }
                profit = max(0.0, day_supply - sum(floors.values()))
                if day < config.etc_listing_day:
                    # No market for ETC yet: profit hashpower cannot price
                    # it and stays on ETH.  Pin the allocation directly (and
                    # keep the allocator's state in sync for the handover).
                    allocation = {
                        "ETH": floors["ETH"] + profit,
                        "ETC": floors["ETC"],
                    }
                    allocator.reset(allocation)
                else:
                    prices = {"ETH": eth_prices[day], "ETC": etc_prices[day]}
                    allocation = allocator.step(profit, prices, floors)

                day_end = fork_timestamp + (day + 1) * SECONDS_PER_DAY
                for chain in ("ETH", "ETC"):
                    hashrate = allocation[chain]
                    daily_hashrate[chain].append(hashrate)
                    sampler = self._sampler(landscapes[chain], day)
                    tx_sampler = None
                    if config.with_transactions:
                        rng = random.Random(f"{config.seed}:wl:{chain}:{day}")
                        total = workloads[chain].daily_count(day, rng)
                        tx_sampler = workloads[chain].per_block_sampler(
                            day, total
                        )
                    producers[chain].run_until(
                        day_end, hashrate, sampler, tx_sampler
                    )

        checkpoint: Optional[ForkSimCheckpoint] = None
        if stop < config.days:
            checkpoint = ForkSimCheckpoint.capture(
                config=config,
                day=stop,
                fork_number=fork_number,
                fork_timestamp=fork_timestamp,
                producers=producers,
                traces={"ETH": eth_trace, "ETC": etc_trace},
                allocation=allocator.current,
                daily_hashrate=daily_hashrate,
                first_day=segment_start,
            )

        result = ForkSimResult(
            config=config,
            eth_trace=eth_trace,
            etc_trace=etc_trace,
            fork_timestamp=fork_timestamp,
            fork_number=fork_number,
            rates=rates,
            daily_hashrate=daily_hashrate,
            checkpoint=checkpoint,
        )
        if self.obs is not None and self.obs.metrics is not None:
            self._record_metrics(result, stop - first_day)
        return result

    def _record_metrics(self, result: ForkSimResult, days: int) -> None:
        """Deterministic per-chain accounting for the run's registry.

        ``days`` counts the post-fork days this run mined (fewer than
        the horizon for a partial or resumed run).  Everything recorded
        here derives from the simulated traces (virtual time and seeded
        RNG only), so same-seed runs dump byte-identical registries.
        """
        metrics = self.obs.metrics
        metrics.counter("forksim.days").inc(days)
        for chain, trace in result.traces().items():
            key = chain.lower()
            # Block numbers are strictly increasing, so the post-fork
            # suffix starts at a bisection point — no full-trace scan.
            start = bisect.bisect_right(trace.numbers, result.fork_number)
            post_fork = range(start, len(trace.numbers))
            metrics.counter(f"forksim.{key}.blocks").inc(len(post_fork))
            if len(trace.difficulties):
                metrics.gauge(f"forksim.{key}.final_difficulty").set(
                    float(trace.difficulties[-1])
                )
            # Daily block production, bucketed: the collapse signature
            # (ETC's handful of blocks per day vs ETH's ~5900) in one
            # histogram per chain.
            hist = metrics.histogram(
                f"forksim.{key}.blocks_per_day",
                buckets=(10.0, 50.0, 100.0, 500.0, 1000.0, 2000.0,
                         4000.0, 6000.0, 8000.0),
            )
            per_day: Dict[int, int] = {}
            for i in post_fork:
                day = int(
                    (trace.timestamps[i] - result.fork_timestamp)
                    // SECONDS_PER_DAY
                )
                per_day[day] = per_day.get(day, 0) + 1
            for day in sorted(per_day):
                hist.observe(float(per_day[day]))

    @staticmethod
    def _expected_blocks(days: int) -> int:
        """Rough pre-fork block count for numbering the prefix."""
        return int(days * SECONDS_PER_DAY / 14)


def run_fork_sim(
    config: ForkSimConfig, obs: Optional["Observability"] = None
) -> ForkSimResult:
    """Pure entry point for cross-process dispatch.

    Every source of randomness below here is derived from
    ``config.seed`` (no module-level RNG state), so a worker subprocess
    running this function produces a bit-identical
    :meth:`ForkSimResult.digest` to an in-process call — the property
    the harness cache keys depend on.  ``obs`` records metrics/spans
    without perturbing the trajectory.
    """
    return ForkSimulation(config, obs=obs).run()

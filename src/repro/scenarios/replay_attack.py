"""The replay-attack workload: who echoed what, when — Figure 4's source.

Mechanism recap (paper, Section 3.3): every pre-fork account exists on both
chains with the same balance and nonce.  A transaction signed without a
chain id is valid on both; so until a user *splits* their funds (moves
them to chain-specific addresses), anyone — typically the transaction's
recipient — can rebroadcast it on the sibling chain and collect twice.

The generator models the user population's slow march to safety:

* ``replayable_fraction(day)`` — share of ETH transactions sent from
  still-unsplit, non-chain-id accounts.  Starts near 0.9 (nobody had
  split: ETC "was not widely expected to survive") and decays as the
  Ethereum Foundation's advice (day ~6, [8] in the paper) and wallet
  tooling spread, with a second drop when ETC activates EIP-155-style
  chain ids (day ~177, January 2017).
* ``rebroadcast_probability(day)`` — share of replayable transactions
  actually echoed.  High initially (bots actively farmed the overlap),
  decaying to a persistent floor — the paper still measured "hundreds of
  daily rebroadcast transactions even today" at submission time — with
  bumps during the October/November contract-transaction spikes.
* A small fraction of echoes are *intentional* same-time broadcasts
  (users deliberately executing on both chains), giving Figure 4's
  "Same time" class.

Output is a time-ordered :class:`~repro.data.sightings.Sightings` table
for both chains (echoed transactions appear twice, with the replay lag),
ready for :meth:`~repro.core.echoes.EchoDetector.observe_records` — plus
the generator's own ground truth for validating the detector.  The rows
are written straight into columns; the RNG stream still draws each
sighting's sender, recipient, value and contract flag, in the seed
order, because Figure 4's trajectory depends on that stream, but no
row keeps them (nothing reads them).  The record-building seed
generator is kept as the differential oracle
:class:`~repro.perf.reference.ReferenceReplayWorkload`.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..core.echoes import EchoDetector
from ..core.metrics import trace_transactions_per_day
from ..data.sightings import Sightings
from ..data.windows import DAY
from ..sim.clock import FORK_TIMESTAMP

__all__ = [
    "ReplayModel",
    "ReplayWorkloadConfig",
    "ReplayWorkload",
    "GroundTruth",
    "replay_detector",
    "replay_stream",
]

#: Exclusive upper bound of a sighting's (discarded) value draw.
VALUE_LIMIT = 10**18


@dataclass(frozen=True)
class ReplayModel:
    """The behavioural decay curves (all days since fork)."""

    initial_replayable: float = 0.92
    split_adoption_tau_days: float = 45.0
    replayable_floor: float = 0.22
    chain_id_day: float = 177.0  # ETC's Jan 13, 2017 fork
    chain_id_factor: float = 0.45  # replayable share that survives EIP-155
    #: Echoed transactions are *observed as part of* the destination
    #: chain's volume, so the product replayable x rebroadcast must keep
    #: day-one echoes at the paper's ~50-60% of ETC traffic (ETH's volume
    #: is ~2.5x ETC's): 0.92 x 0.25 x 2.5 ≈ 0.57.
    initial_rebroadcast: float = 0.25
    rebroadcast_tau_days: float = 9.0
    rebroadcast_floor: float = 0.016
    #: (start day, end day, extra probability) bump windows — the
    #: contract-spike-correlated surges in October/November.
    bumps: Tuple[Tuple[float, float, float], ...] = (
        (78.0, 92.0, 0.06),
        (108.0, 122.0, 0.10),
    )
    #: Probability an echo is an intentional both-chains broadcast.
    intentional_fraction: float = 0.12
    #: Fraction of ETC-native transactions echoed into ETH (the reverse
    #: direction is an order of magnitude rarer: fewer ETC-only actors).
    reverse_scale: float = 0.12

    def replayable_fraction(self, day: float) -> float:
        decayed = self.replayable_floor + (
            self.initial_replayable - self.replayable_floor
        ) * math.exp(-max(day, 0.0) / self.split_adoption_tau_days)
        if day >= self.chain_id_day:
            decayed *= self.chain_id_factor
        return decayed

    def rebroadcast_probability(self, day: float) -> float:
        probability = self.rebroadcast_floor + (
            self.initial_rebroadcast - self.rebroadcast_floor
        ) * math.exp(-max(day, 0.0) / self.rebroadcast_tau_days)
        for start, end, extra in self.bumps:
            if start <= day < end:
                probability += extra
        return min(probability, 1.0)

    def expected_echoes_into(self, day: float, source_tx_count: float) -> float:
        """Expected echo count for one day, given source-chain volume."""
        return (
            source_tx_count
            * self.replayable_fraction(day)
            * self.rebroadcast_probability(day)
        )


@dataclass
class ReplayWorkloadConfig:
    days: int = 270
    seed: int = 4242
    model: ReplayModel = field(default_factory=ReplayModel)
    #: Fraction of never-echoed transactions also materialized as records
    #: (background noise for the detector; totals come from the traces).
    background_sample: float = 0.01
    #: Echo lag distribution (lognormal, seconds): median ~2 hours with a
    #: heavy tail of day-scale replays.
    lag_median_seconds: float = 2 * 3600.0
    lag_sigma: float = 1.4


@dataclass
class GroundTruth:
    """What the generator actually injected, for detector validation."""

    echoes_into: Dict[str, int] = field(default_factory=dict)
    same_time: int = 0
    per_day_into_etc: Dict[int, int] = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.echoes_into.values())


class ReplayWorkload:
    """Generates the two chains' transaction-sighting streams."""

    #: Chain names by sighting code.
    CHAINS = ("ETH", "ETC")

    def __init__(self, config: Optional[ReplayWorkloadConfig] = None) -> None:
        self.config = config or ReplayWorkloadConfig()
        self.rng = random.Random(self.config.seed)
        self._counter = 0

    def generate(
        self,
        eth_daily_tx: Sequence[float],
        etc_daily_tx: Sequence[float],
    ) -> Tuple[Sightings, GroundTruth]:
        """Produce time-ordered sightings for both chains.

        ``eth_daily_tx``/``etc_daily_tx`` are the total daily volumes from
        the fork simulation traces — the echo workload scales against real
        chain activity rather than inventing its own.

        Each sighting draws, in order: the hash's 24 random bytes, and
        for a background row first its replay-protected flag; its time
        of day; for an echo the intentional flag and lag; then per row
        the sender and recipient (one fused ``randbytes(40)``, the same
        stream as two ``randbytes(20)``), the value and the contract
        flag.  Rows are ordered by a stable argsort on timestamp: the
        permutation the seed generator's ``list.sort`` applied to its
        records.
        """
        config = self.config
        model = config.model
        rng = self.rng
        randbytes = rng.randbytes
        randrange = rng.randrange
        random_ = rng.random
        lognormvariate = rng.lognormvariate
        intentional_fraction = model.intentional_fraction
        lag_median, lag_sigma = config.lag_median_seconds, config.lag_sigma
        counter = self._counter
        codes = bytearray()
        hashes = []
        stamps = array("q")
        truth = GroundTruth(echoes_into={"ETH": 0, "ETC": 0})
        into_etc = truth.per_day_into_etc
        same_time = 0

        eth, etc = map(self.CHAINS.index, ("ETH", "ETC"))
        days = min(config.days, len(eth_daily_tx), len(etc_daily_tx))
        for day in range(days):
            day_start = FORK_TIMESTAMP + day * DAY
            # ``pair``: the (origin, destination) codes of an echo's rows.
            for pair, destination, volume, scale in (
                (bytes((eth, etc)), "ETC", eth_daily_tx[day], 1.0),
                (bytes((etc, eth)), "ETH", etc_daily_tx[day], model.reverse_scale),
            ):
                expected = model.expected_echoes_into(day, volume) * scale
                echo_count = self._poisson(expected)
                for _ in range(echo_count):
                    counter += 1
                    tx_hash = counter.to_bytes(8, "big") + randbytes(24)
                    origin_ts = day_start + randrange(DAY)
                    if random_() < intentional_fraction:
                        # Intentional both-chain broadcast: near-zero lag.
                        lag = randrange(60, 900)
                        same_time += 1
                    else:
                        lag = int(lag_median * lognormvariate(0.0, lag_sigma))
                    # Both rows' sender/recipient, value and contract draws.
                    randbytes(40)
                    randrange(1, VALUE_LIMIT)
                    random_()
                    randbytes(40)
                    randrange(1, VALUE_LIMIT)
                    random_()
                    echo_ts = origin_ts + max(lag, 1)
                    codes += pair
                    hashes.append(tx_hash)
                    hashes.append(tx_hash)
                    stamps.append(origin_ts)
                    stamps.append(echo_ts)
                    if destination == "ETC":
                        day_index = echo_ts // DAY
                        into_etc[day_index] = into_etc.get(day_index, 0) + 1
                truth.echoes_into[destination] += echo_count

                # Background (never-echoed) sightings on the origin chain.
                background = int(volume * config.background_sample)
                for _ in range(background):
                    random_()  # replay-protected flag
                    counter += 1
                    hashes.append(counter.to_bytes(8, "big") + randbytes(24))
                    stamps.append(day_start + randrange(DAY))
                    randbytes(40)
                    randrange(1, VALUE_LIMIT)
                    random_()
                codes += pair[:1] * background

        self._counter = counter
        truth.same_time = same_time
        order = sorted(range(len(stamps)), key=stamps.__getitem__)
        sightings = Sightings(
            self.CHAINS,
            bytes(map(codes.__getitem__, order)),
            list(map(hashes.__getitem__, order)),
            array("q", map(stamps.__getitem__, order)),
        )
        return sightings, truth

    def _poisson(self, lam: float) -> int:
        if lam <= 0:
            return 0
        if lam > 50:
            return max(0, round(self.rng.gauss(lam, math.sqrt(lam))))
        threshold = math.exp(-lam)
        count = 0
        product = self.rng.random()
        while product > threshold:
            count += 1
            product *= self.rng.random()
        return count


def replay_stream(
    result, seed: int = ReplayWorkloadConfig.seed
) -> Tuple[Sightings, GroundTruth]:
    """The replay workload over one fork-sim result's horizon.

    Echo volumes scale with each chain's post-fork daily transaction
    totals from ``result`` (a :class:`~repro.sim.engine.ForkSimResult`).
    Returns the time-ordered sightings and the generator's ground truth.
    """
    eth = trace_transactions_per_day(result.eth_trace, result.fork_timestamp)
    etc = trace_transactions_per_day(result.etc_trace, result.fork_timestamp)
    workload = ReplayWorkload(
        ReplayWorkloadConfig(days=result.config.days, seed=seed)
    )
    return workload.generate(eth.values, etc.values)


def replay_detector(
    result, seed: int = ReplayWorkloadConfig.seed
) -> Tuple[EchoDetector, GroundTruth]:
    """Figure 4's detector: :func:`replay_stream` fed through a fresh
    :class:`~repro.core.echoes.EchoDetector`, plus the ground truth.

    The one echo path: the ``echoes`` job calls it, and the CLI runs
    that job, so they produce the same detector bytes.
    """
    sightings, truth = replay_stream(result, seed)
    detector = EchoDetector()
    detector.observe_records(sightings)
    return detector, truth

"""Per-block fast simulation: traces and the block producer.

Month-scale experiments (Figures 2-5) need ~1.7M blocks per chain; pushing
those through the message-level simulator would be wasteful, since header
dynamics depend only on the difficulty rule and the hashrate trajectory.
:class:`BlockProducer` therefore advances one chain block-by-block:

    interval ~ Exponential(mean = difficulty / hashrate)
    difficulty' = rule(difficulty, timestamp, timestamp + interval, number)

which is *exactly* the consensus difficulty algorithm fed by exact Poisson
mining — not an approximation of the dynamics, only of the networking.
Results append to a columnar :class:`ChainTrace` (Python lists of scalars;
~40 bytes/block instead of a full object graph).
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..chain.config import ChainConfig
from ..chain.difficulty import (
    BOMB_PERIOD,
    DIFFICULTY_BOUND_DIVISOR,
    HOMESTEAD_CLAMP,
    MIN_DIFFICULTY,
    frontier_difficulty,
    homestead_difficulty,
)
from ..data.records import BlockRecord

__all__ = ["ChainTrace", "BlockProducer"]

_INF = float("inf")


def _expovariate_inline_ok() -> bool:
    """Probe whether ``Random.expovariate(lambd)`` is bit-identical to
    ``-log(1.0 - random()) / lambd`` on this interpreter.

    CPython has used exactly that formula for decades, but the batch
    kernel's trajectory guarantee must not rest on an assumption about
    the standard library: probe a few draws (values *and* RNG state) at
    import time and fall back to calling ``expovariate`` if they ever
    diverge.
    """
    try:
        import math

        for seed, lambd in ((12345, 0.5), (7, 3.25e-7), (99, 1.0)):
            a, b = random.Random(seed), random.Random(seed)
            if a.expovariate(lambd) != -math.log(1.0 - b.random()) / lambd:
                return False
            if a.getstate() != b.getstate():
                return False
        return True
    except Exception:  # pragma: no cover - exotic interpreters
        return False


_INLINE_EXPOVARIATE = _expovariate_inline_ok()


def _randbelow_inline_ok() -> bool:
    """Probe whether ``Random.randrange(n)`` (positive ``n``) is
    bit-identical to an inline ``getrandbits`` accept/reject loop.

    ``randrange`` with a single positive int argument draws via
    ``_randbelow_with_getrandbits``: draw ``n.bit_length()`` bits, retry
    while the value is >= ``n``.  The batch kernel inlines exactly that
    loop (with the bit length precomputed) to skip two Python frames per
    solo-miner draw.  As with the expovariate probe, verify values *and*
    RNG state on draws that exercise the retry path, and fall back to
    calling the sampler if anything diverges.
    """
    try:
        for seed, bound in ((12345, 2000), (7, 3), (99, (1 << 40) - 17)):
            a, b = random.Random(seed), random.Random(seed)
            getrandbits = b.getrandbits
            k = bound.bit_length()
            for _ in range(8):
                r = getrandbits(k)
                while r >= bound:
                    r = getrandbits(k)
                if a.randrange(bound) != r:
                    return False
            if a.getstate() != b.getstate():
                return False
        return True
    except Exception:  # pragma: no cover - exotic interpreters
        return False


_INLINE_RANDBELOW = _randbelow_inline_ok()


class ChainTrace:
    """Columnar block history for one chain.

    Columns (aligned by index): ``numbers``, ``timestamps``,
    ``difficulties``, ``miner_ids`` (indexes into ``miner_labels``),
    ``tx_counts``, ``contract_tx_counts``.  Columns are ``array('q')``
    (packed int64) so month-scale traces — millions of blocks — stay tens
    of megabytes instead of gigabytes of boxed integers.
    """

    def __init__(self, chain: str) -> None:
        self.chain = chain
        self.numbers = array("q")
        self.timestamps = array("q")
        self.difficulties = array("q")
        self.miner_ids = array("q")
        self.tx_counts = array("q")
        self.contract_tx_counts = array("q")
        self.miner_labels: List[str] = []
        self._label_index: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.numbers)

    def label_id(self, label: str) -> int:
        index = self._label_index.get(label)
        if index is None:
            index = len(self.miner_labels)
            self.miner_labels.append(label)
            self._label_index[label] = index
        return index

    def append(
        self,
        number: int,
        timestamp: int,
        difficulty: int,
        miner: str,
        tx_count: int = 0,
        contract_tx_count: int = 0,
    ) -> None:
        self.numbers.append(number)
        self.timestamps.append(timestamp)
        self.difficulties.append(difficulty)
        self.miner_ids.append(self.label_id(miner))
        self.tx_counts.append(tx_count)
        self.contract_tx_counts.append(contract_tx_count)

    def miner_of(self, index: int) -> str:
        return self.miner_labels[self.miner_ids[index]]

    @classmethod
    def forked_from(cls, parent: "ChainTrace", chain: str) -> "ChainTrace":
        """A new trace sharing ``parent``'s full history as its prefix.

        This is the storage-level mirror of a hard fork: ETH and ETC both
        contain every pre-fork block, then diverge.  Columns are copied
        (packed arrays, so this is cheap) and the label table is shared by
        value, letting pre-fork pool identities persist on both sides.
        """
        child = cls(chain)
        child.numbers = array("q", parent.numbers)
        child.timestamps = array("q", parent.timestamps)
        child.difficulties = array("q", parent.difficulties)
        child.miner_ids = array("q", parent.miner_ids)
        child.tx_counts = array("q", parent.tx_counts)
        child.contract_tx_counts = array("q", parent.contract_tx_counts)
        child.miner_labels = list(parent.miner_labels)
        child._label_index = dict(parent._label_index)
        return child

    def iter_block_records(self) -> Iterator[BlockRecord]:
        """Yield analysis records lazily, one block at a time.

        Month-scale traces hold millions of blocks; materializing them
        as a list of :class:`BlockRecord` objects costs gigabytes.  Bulk
        consumers (:meth:`~repro.sim.engine.ForkSimResult.to_database`)
        stream through this generator instead, so peak memory stays at
        the columnar arrays plus one record.
        """
        chain = self.chain
        labels = self.miner_labels
        numbers = self.numbers
        timestamps = self.timestamps
        difficulties = self.difficulties
        miner_ids = self.miner_ids
        tx_counts = self.tx_counts
        contract_tx_counts = self.contract_tx_counts
        for i in range(len(numbers)):
            yield BlockRecord(
                chain=chain,
                number=numbers[i],
                timestamp=timestamps[i],
                difficulty=difficulties[i],
                miner=labels[miner_ids[i]],
                tx_count=tx_counts[i],
                contract_tx_count=contract_tx_counts[i],
            )

    def block_records(self) -> List[BlockRecord]:
        """Materialize as analysis records (thin wrapper; prefer
        :meth:`iter_block_records` for million-block traces)."""
        return list(self.iter_block_records())

    def slice_by_time(self, start_ts: float, end_ts: float) -> range:
        """Index range of blocks with timestamp in [start_ts, end_ts)."""
        lo = bisect_left(self.timestamps, start_ts)
        hi = bisect_left(self.timestamps, end_ts)
        return range(lo, hi)


class BlockProducer:
    """Advances one chain's head under Poisson mining.

    The producer holds the chain tip (number, timestamp, difficulty) and
    appends to a :class:`ChainTrace`.  Hashrate, the winning-miner sampler,
    and the per-block transaction sampler are supplied per call so the
    driving scenario can change them daily.
    """

    def __init__(
        self,
        config: ChainConfig,
        trace: ChainTrace,
        start_number: int,
        start_timestamp: int,
        start_difficulty: int,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.trace = trace
        self.number = start_number
        self.timestamp = start_timestamp
        self.difficulty = start_difficulty
        #: Wall-clock time: equals the head timestamp while mining is
        #: continuous, but advances past it through idle stretches (zero
        #: hashrate), so the first block after a stall carries the full
        #: gap in its delta — the mechanism behind difficulty free-fall
        #: after an exodus.
        self.clock = start_timestamp
        self.rng = random.Random(seed)
        #: ``(solo_labels, ids)`` memo for the batch kernel's inline
        #: sampler — see :meth:`advance_batch`.
        self._solo_memo: Optional[Tuple[List[str], List[Optional[int]]]] = None

    def advance_one(
        self,
        hashrate: float,
        miner_sampler: Callable[[random.Random], str],
        tx_sampler: Optional[Callable[[random.Random, float], Tuple[int, int]]] = None,
    ) -> int:
        """Mine exactly one block; returns its timestamp."""
        if hashrate <= 0:
            raise ValueError("cannot mine with zero hashrate")
        interval = self.rng.expovariate(hashrate / self.difficulty)
        # Consensus timestamps are integer seconds and must strictly
        # increase; quantize but never collapse to zero.  Solving starts at
        # the wall clock, which may sit past the head after an idle spell.
        step = max(1, round(interval))
        new_timestamp = max(self.timestamp + 1, self.clock + step)
        new_number = self.number + 1
        new_difficulty = self.config.compute_difficulty(
            self.difficulty, self.timestamp, new_timestamp, new_number
        )
        tx_count, contract_count = (0, 0)
        if tx_sampler is not None:
            tx_count, contract_count = tx_sampler(self.rng, step)
        self.trace.append(
            number=new_number,
            timestamp=new_timestamp,
            difficulty=new_difficulty,
            miner=miner_sampler(self.rng),
            tx_count=tx_count,
            contract_tx_count=contract_count,
        )
        self.number = new_number
        self.timestamp = new_timestamp
        self.clock = new_timestamp
        self.difficulty = new_difficulty
        return new_timestamp

    def advance_batch(
        self,
        n: int,
        hashrate: float,
        miner_sampler: Callable[[random.Random], str],
        tx_sampler: Optional[Callable[[random.Random, float], Tuple[int, int]]] = None,
        end_timestamp: Optional[int] = None,
    ) -> int:
        """Mine up to ``n`` blocks in one call; returns blocks produced.

        The batched hot-loop kernel: trajectory-identical to ``n``
        successive :meth:`advance_one` calls (stopping early once the
        clock reaches ``end_timestamp``, when given) — RNG draws happen
        in the exact same order (interval, then transactions, then the
        winning miner), proven by the differential tests in
        ``tests/test_perf_kernels.py``.  The speed comes from hoisting
        every attribute and method lookup out of the loop: the chain tip
        lives in locals, the three always-present trace columns buffer
        interleaved through one bound ``array.extend`` per block (de-
        interleaved by stepped slices in the flush), the miner-label
        intern table is a bound ``dict.get``, the Homestead/Frontier
        difficulty rule is inlined as straight integer arithmetic
        (generic rules fall back to the per-config closure from
        :attr:`~repro.chain.config.ChainConfig.fast_difficulty`), and
        the standard pool and transaction samplers run inline from the
        parameters they publish (``categorical_parts``, ``tx_parts``).
        """
        if hashrate <= 0:
            raise ValueError("cannot mine with zero hashrate")
        if n <= 0:
            return 0
        end = _INF if end_timestamp is None else end_timestamp

        # -- hoisted bindings (the whole point of the kernel) -------------
        rng = self.rng
        expovariate = rng.expovariate
        rng_random = rng.random
        _log = math.log
        inline_expo = _INLINE_EXPOVARIATE
        trace = self.trace
        label_get = trace._label_index.get
        label_id = trace.label_id
        _round = round
        _bisect_right = bisect_right
        # The three always-present columns (timestamp, difficulty, miner)
        # buffer interleaved in ONE packed array: a single
        # ``extend((ts, diff, mid))`` per block replaces three bound
        # appends — one C call instead of three — and the flush
        # de-interleaves with stepped slices (``buf[0::3]`` etc.), which
        # is a same-typecode array copy, ~2 orders of magnitude cheaper
        # than the per-block calls it absorbs.  Block numbers are
        # consecutive, so they need no per-block append at all — a
        # single ``extend(range(...))`` in the flush; likewise the
        # transaction columns zero-fill in one C call when no
        # transaction sampler is installed.  The flush runs in a
        # ``finally`` so the columns stay aligned (complete blocks only)
        # even if a sampler raises mid-batch — the buffer gains a
        # block's triple only after every draw for that block succeeded,
        # matching the reference path's exception behavior.
        buf = array("q")
        put = buf.extend
        append_txs = trace.tx_counts.append
        append_contract_txs = trace.contract_tx_counts.append

        # The standard pool sampler publishes its closure parameters so
        # the categorical draw can run inline: one ``random()`` plus a
        # bisect (or a ``_randbelow`` on solo wins), with miner-label ids
        # memoized lazily per index.  The memo preserves the reference
        # path's first-win label interning order exactly — ids are only
        # assigned the first time a miner actually wins a block.
        parts = getattr(miner_sampler, "categorical_parts", None)
        inline_sampler = _INLINE_RANDBELOW and parts is not None
        if inline_sampler:
            (
                cumulative,
                pool_labels,
                pooled_mass,
                solo_count,
                solo_labels,
                last_pool,
            ) = parts
            if solo_count <= 0:
                inline_sampler = False
            else:
                getrandbits = rng.getrandbits
                solo_bits = solo_count.bit_length()
                pool_ids: List[Optional[int]] = [None] * len(pool_labels)
                # The solo-label list is shared across days (one list per
                # landscape), so its id memo survives between batches;
                # the identity check keys the cache without hashing, and
                # holding the list itself keeps the key from being
                # recycled.  Pool labels are rebuilt daily, so their memo
                # is per-batch.
                memo = self._solo_memo
                if memo is not None and memo[0] is solo_labels:
                    solo_ids = memo[1]
                else:
                    solo_ids: List[Optional[int]] = [None] * solo_count
                    self._solo_memo = (solo_labels, solo_ids)

        number = start_number = self.number
        timestamp = self.timestamp
        difficulty = self.difficulty
        clock = self.clock
        has_tx = tx_sampler is not None

        # The standard transaction sampler likewise publishes
        # ``tx_parts``, so the Homestead workload loop draws each block's
        # transactions inline; any other callable runs the general loop.
        tx_parts = getattr(tx_sampler, "tx_parts", None)
        if tx_parts is not None:
            rate_per_second, contract_p = tx_parts
            gauss = rng.gauss
            _exp = math.exp

        rule = self.config.difficulty_rule
        compute = rule.compute
        bomb_delay = self.config.bomb_delay
        bomb_floor = 2 * BOMB_PERIOD + bomb_delay
        # Consensus constants as locals: LOAD_FAST instead of LOAD_GLOBAL
        # on every block.
        bound_divisor = DIFFICULTY_BOUND_DIVISOR
        clamp = HOMESTEAD_CLAMP
        min_difficulty = MIN_DIFFICULTY
        bomb_period = BOMB_PERIOD
        homestead = compute is homestead_difficulty
        frontier = compute is frontier_difficulty
        fast_rule = (
            None if homestead or frontier else self.config.fast_difficulty
        )

        # Bomb cache for the dedicated loops: the bomb term is constant
        # between exponent boundaries (every ``bomb_period`` blocks), so
        # recompute the shift only when ``number`` crosses one.  Starting
        # ``bomb_next`` at the activation floor folds the is-the-bomb-
        # active test into the same compare: below the floor the cached
        # term stays 0, and adding 0 is exact integer identity.
        bomb_term = 0
        bomb_next = bomb_floor

        produced = 0
        # A ``for`` over ``range`` replaces the per-iteration
        # ``produced < n`` compare and counter increment with a single C
        # iterator step; ``produced`` lands on the block count either way.
        #
        # The dominant configuration — Homestead rule, inline expovariate,
        # inline categorical sampler — gets dedicated loops with zero
        # per-iteration mode checks, specialized once more on whether a
        # transaction sampler is installed (so the difficulty-only loop
        # carries no dead ``has_tx`` tests and the workload loop no
        # always-true ones; the workload loop also needs the inline
        # transaction parameters); every other combination runs the
        # general loop in the ``else`` branch.  All bodies are
        # expression-for-expression the same where they overlap, and all
        # are held to the reference trajectory by the differential tests.
        # The ``finally`` flush keeps the derived columns (numbers, the
        # zero-filled transaction columns) and the chain tip consistent
        # with whatever full blocks were appended, even if a sampler
        # raises mid-batch — the same partial-progress state the
        # reference per-call loop leaves behind.
        try:
            if homestead and inline_expo and inline_sampler and not has_tx:
                for produced in range(1, n + 1):
                    if clock >= end:
                        produced -= 1
                        break
                    # interval ~ Exponential(hashrate / difficulty),
                    # inlined (see _expovariate_inline_ok).
                    interval = -_log(1.0 - rng_random()) / (
                        hashrate / difficulty
                    )
                    step = _round(interval)
                    if step < 1:
                        step = 1
                    # ``clock >= timestamp`` is an invariant of every
                    # producer code path (construction sets them equal,
                    # the loops keep them equal, the zero-hashrate stall
                    # only raises the clock), so with ``step >= 1`` the
                    # reference path's ``new_timestamp <= timestamp``
                    # clamp can never fire — elided here; the digest
                    # gate would catch any divergence.
                    new_timestamp = clock + step
                    number += 1
                    # EIP-2 difficulty update + bomb, straight-line.  A
                    # zero multiplier (block time in [10, 20)) adds
                    # nothing, so skip the divide/multiply entirely; the
                    # cached bomb term is exact between exponent
                    # boundaries (and exactly 0 before activation).
                    multiplier = 1 - (new_timestamp - timestamp) // 10
                    if multiplier < clamp:
                        multiplier = clamp
                    if multiplier:
                        difficulty += (
                            difficulty // bound_divisor * multiplier
                        )
                    if number >= bomb_next:
                        bomb_exp = (number - bomb_delay) // bomb_period
                        bomb_term = 1 << (bomb_exp - 2)
                        bomb_next = (
                            bomb_exp + 1
                        ) * bomb_period + bomb_delay
                    difficulty += bomb_term
                    if difficulty < min_difficulty:
                        difficulty = min_difficulty
                    # The winning-miner draw, in advance_one's exact RNG
                    # order (no transaction draw in this loop); appends
                    # only after every draw for the block succeeded.
                    point = rng_random()
                    if point >= pooled_mass:
                        slot = getrandbits(solo_bits)
                        while slot >= solo_count:
                            slot = getrandbits(solo_bits)
                        miner_id = solo_ids[slot]
                        if miner_id is None:
                            miner = solo_labels[slot]
                            miner_id = label_get(miner)
                            if miner_id is None:
                                miner_id = label_id(miner)
                            solo_ids[slot] = miner_id
                    else:
                        slot = _bisect_right(cumulative, point)
                        if slot > last_pool:
                            slot = last_pool
                        miner_id = pool_ids[slot]
                        if miner_id is None:
                            miner = pool_labels[slot]
                            miner_id = label_get(miner)
                            if miner_id is None:
                                miner_id = label_id(miner)
                            pool_ids[slot] = miner_id
                    put((new_timestamp, difficulty, miner_id))
                    timestamp = clock = new_timestamp
            elif (
                homestead and inline_expo and inline_sampler
                and tx_parts is not None
            ):
                for produced in range(1, n + 1):
                    if clock >= end:
                        produced -= 1
                        break
                    # Same body as the loop above, with the transaction
                    # draws between the interval and the winning miner —
                    # advance_one's exact RNG order.
                    interval = -_log(1.0 - rng_random()) / (
                        hashrate / difficulty
                    )
                    step = _round(interval)
                    if step < 1:
                        step = 1
                    new_timestamp = clock + step
                    if new_timestamp <= timestamp:
                        new_timestamp = timestamp + 1
                    number += 1
                    multiplier = 1 - (new_timestamp - timestamp) // 10
                    if multiplier < clamp:
                        multiplier = clamp
                    if multiplier:
                        difficulty += (
                            difficulty // bound_divisor * multiplier
                        )
                    if number >= bomb_next:
                        bomb_exp = (number - bomb_delay) // bomb_period
                        bomb_term = 1 << (bomb_exp - 2)
                        bomb_next = (
                            bomb_exp + 1
                        ) * bomb_period + bomb_delay
                    difficulty += bomb_term
                    if difficulty < min_difficulty:
                        difficulty = min_difficulty
                    # The per_block_sampler closure, expression for
                    # expression.  Plain loops: at ~7 transactions per
                    # block, building itertools pipelines costs more
                    # than the few iterations they would save.
                    lam = rate_per_second * step
                    tx_count = contract_count = 0
                    if lam > 1000:
                        tx_count = max(0, _round(gauss(lam, math.sqrt(lam))))
                    elif lam > 0:
                        threshold = _exp(-lam)
                        product = rng_random()
                        while product > threshold:
                            tx_count += 1
                            product *= rng_random()
                    if tx_count <= 64:
                        for _ in range(tx_count):
                            if rng_random() < contract_p:
                                contract_count += 1
                    else:
                        mean = tx_count * contract_p
                        sigma = math.sqrt(mean * (1 - contract_p) + 1e-9)
                        contract_count = max(
                            0, min(tx_count, _round(gauss(mean, sigma)))
                        )
                    point = rng_random()
                    if point >= pooled_mass:
                        slot = getrandbits(solo_bits)
                        while slot >= solo_count:
                            slot = getrandbits(solo_bits)
                        miner_id = solo_ids[slot]
                        if miner_id is None:
                            miner = solo_labels[slot]
                            miner_id = label_get(miner)
                            if miner_id is None:
                                miner_id = label_id(miner)
                            solo_ids[slot] = miner_id
                    else:
                        slot = _bisect_right(cumulative, point)
                        if slot > last_pool:
                            slot = last_pool
                        miner_id = pool_ids[slot]
                        if miner_id is None:
                            miner = pool_labels[slot]
                            miner_id = label_get(miner)
                            if miner_id is None:
                                miner_id = label_id(miner)
                            pool_ids[slot] = miner_id
                    append_txs(tx_count)
                    append_contract_txs(contract_count)
                    put((new_timestamp, difficulty, miner_id))
                    timestamp = clock = new_timestamp
            else:
                for produced in range(1, n + 1):
                    if clock >= end:
                        produced -= 1
                        break
                    # ``Random.expovariate`` is a Python-level wrapper
                    # around ``-log(1.0 - random()) / lambd``; inline it
                    # (same single draw, same operation order, bit-
                    # identical result — see _expovariate_inline_ok).
                    if inline_expo:
                        interval = -_log(1.0 - rng_random()) / (
                            hashrate / difficulty
                        )
                    else:  # pragma: no cover - non-CPython fallback
                        interval = expovariate(hashrate / difficulty)
                    step = _round(interval)
                    if step < 1:
                        step = 1
                    new_timestamp = clock + step
                    if new_timestamp <= timestamp:
                        new_timestamp = timestamp + 1
                    number += 1
                    # -- difficulty rule, inlined for the consensus
                    # algorithms ------------------------------------------
                    if homestead:
                        multiplier = 1 - (new_timestamp - timestamp) // 10
                        if multiplier < clamp:
                            multiplier = clamp
                        difficulty += (
                            difficulty // bound_divisor * multiplier
                        )
                        if number >= bomb_floor:
                            difficulty += 1 << (
                                (number - bomb_delay) // bomb_period - 2
                            )
                        if difficulty < min_difficulty:
                            difficulty = min_difficulty
                    elif frontier:
                        adjustment = difficulty // bound_divisor
                        if new_timestamp - timestamp < 13:
                            difficulty += adjustment
                        else:
                            difficulty -= adjustment
                        if number >= bomb_floor:
                            difficulty += 1 << (
                                (number - bomb_delay) // bomb_period - 2
                            )
                        if difficulty < min_difficulty:
                            difficulty = min_difficulty
                    else:
                        difficulty = fast_rule(
                            difficulty, timestamp, new_timestamp, number
                        )
                    # -- samplers, in advance_one's exact RNG draw order --
                    if has_tx:
                        tx_count, contract_count = tx_sampler(rng, step)
                    if inline_sampler:
                        point = rng_random()
                        if point >= pooled_mass:
                            slot = getrandbits(solo_bits)
                            while slot >= solo_count:
                                slot = getrandbits(solo_bits)
                            miner_id = solo_ids[slot]
                            if miner_id is None:
                                miner = solo_labels[slot]
                                miner_id = label_get(miner)
                                if miner_id is None:
                                    miner_id = label_id(miner)
                                solo_ids[slot] = miner_id
                        else:
                            slot = _bisect_right(cumulative, point)
                            if slot > last_pool:
                                slot = last_pool
                            miner_id = pool_ids[slot]
                            if miner_id is None:
                                miner = pool_labels[slot]
                                miner_id = label_get(miner)
                                if miner_id is None:
                                    miner_id = label_id(miner)
                                pool_ids[slot] = miner_id
                    else:
                        miner = miner_sampler(rng)
                        miner_id = label_get(miner)
                        if miner_id is None:
                            miner_id = label_id(miner)
                    if has_tx:
                        append_txs(tx_count)
                        append_contract_txs(contract_count)
                    put((new_timestamp, difficulty, miner_id))
                    timestamp = clock = new_timestamp
        finally:
            # De-interleave the per-block triples into their columns
            # (same-typecode array extends), then derive the rest: block
            # numbers are consecutive, so one ``extend(range(...))``
            # covers them.
            trace.timestamps.extend(buf[0::3])
            trace.difficulties.extend(buf[1::3])
            trace.miner_ids.extend(buf[2::3])
            trace.numbers.extend(range(start_number + 1, number + 1))
            if not has_tx:
                # Without a transaction sampler every block carries zero
                # transactions; fill both columns in one C call instead
                # of two dead appends per block.
                zeros = bytes(8 * (number - start_number))
                trace.tx_counts.frombytes(zeros)
                trace.contract_tx_counts.frombytes(zeros)
            self.number = number
            self.timestamp = timestamp
            self.clock = clock
            self.difficulty = difficulty
        return produced

    def run_until(
        self,
        end_timestamp: int,
        hashrate: float,
        miner_sampler: Callable[[random.Random], str],
        tx_sampler: Optional[Callable[[random.Random, float], Tuple[int, int]]] = None,
        max_blocks: int = 5_000_000,
    ) -> int:
        """Mine until the head timestamp passes ``end_timestamp``.

        With zero hashrate the chain simply does not advance (a stalled
        network — precisely ETC in the first post-fork hours if nobody had
        stayed).  Returns blocks produced.
        """
        if hashrate <= 0:
            self.clock = max(self.clock, end_timestamp)
            return 0
        produced = self.advance_batch(
            max_blocks + 1,
            hashrate,
            miner_sampler,
            tx_sampler,
            end_timestamp=end_timestamp,
        )
        if produced > max_blocks:
            raise RuntimeError(
                f"produced more than {max_blocks} blocks before "
                f"t={end_timestamp}; runaway parameters?"
            )
        return produced

"""Per-block fast simulation: traces and the block producer.

Month-scale experiments (Figures 2-5) need ~1.7M blocks per chain; pushing
those through the message-level simulator would be wasteful, since header
dynamics depend only on the difficulty rule and the hashrate trajectory.
:class:`BlockProducer` therefore advances one chain block-by-block:

    interval ~ Exponential(mean = difficulty / hashrate)
    difficulty' = rule(difficulty, timestamp, timestamp + interval, number)

which is *exactly* the consensus difficulty algorithm fed by exact Poisson
mining — not an approximation of the dynamics, only of the networking.
Results append to a columnar :class:`ChainTrace`: six packed ``array('q')``
columns, 48 bytes/block, instead of a full object graph.
"""

from __future__ import annotations

import math
import pickle
import random
import sys
from array import array
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..chain.config import ChainConfig
from ..chain.difficulty import (
    BOMB_PERIOD,
    DIFFICULTY_BOUND_DIVISOR,
    HOMESTEAD_CLAMP,
    MIN_DIFFICULTY,
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


def _rebuild_trace(
    chain: str, byteorder: str, payloads: Tuple, miner_labels: List[str]
) -> "ChainTrace":
    """Unpickle a :class:`ChainTrace` (see :meth:`ChainTrace.__reduce_ex__`)."""
    trace = ChainTrace(chain)
    for name, payload in zip(ChainTrace.COLUMNS, payloads):
        column = getattr(trace, name)
        column.frombytes(payload)
        if type(payload) is bytearray:
            # An in-band protocol-5 column, which the unpickler's memo
            # would keep until the whole load ends: free it now.
            payload.clear()
        if byteorder != sys.byteorder:
            column.byteswap()
    trace.set_labels(miner_labels)
    return trace


class ChainTrace:
    """Columnar block history for one chain.

    Columns (aligned by index, named in :attr:`COLUMNS`): ``numbers``,
    ``timestamps``, ``difficulties``, ``miner_ids`` (indexes into
    ``miner_labels``), ``tx_counts``, ``contract_tx_counts``.  Columns are
    ``array('q')`` (packed int64, 48 bytes/block in all) so month-scale
    traces — millions of blocks — stay tens of megabytes instead of
    gigabytes of boxed integers.

    A trace pickles each column as its raw native-order bytes plus the
    writer's byte order, which the loader swaps if it differs.  At
    protocol 5 a column goes out as a :class:`pickle.PickleBuffer` over
    the array itself, so writing a trace to a file makes no copy of it;
    older protocols fall back to ``tobytes()``.
    """

    COLUMNS = (
        "numbers",
        "timestamps",
        "difficulties",
        "miner_ids",
        "tx_counts",
        "contract_tx_counts",
    )

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

    def __reduce_ex__(self, protocol):
        columns = [getattr(self, name) for name in self.COLUMNS]
        if protocol >= 5:
            payloads = tuple(pickle.PickleBuffer(column) for column in columns)
        else:
            payloads = tuple(column.tobytes() for column in columns)
        return (
            _rebuild_trace,
            (self.chain, sys.byteorder, payloads, self.miner_labels),
        )

    def set_labels(self, miner_labels: List[str]) -> None:
        """Adopt ``miner_labels`` (not a copy) as the label table."""
        self.miner_labels = miner_labels
        self._label_index = {
            label: index for index, label in enumerate(miner_labels)
        }

    def copy(self, chain: Optional[str] = None) -> "ChainTrace":
        """An independent copy (columns and label table), optionally
        under another chain name."""
        twin = ChainTrace(self.chain if chain is None else chain)
        for name in self.COLUMNS:
            setattr(twin, name, array("q", getattr(self, name)))
        twin.miner_labels = list(self.miner_labels)
        twin._label_index = dict(self._label_index)
        return twin

    def extend(self, segment: "ChainTrace") -> None:
        """Append ``segment``'s blocks, mined right after this trace's.

        ``segment``'s label table must extend this one (a resumed trace
        keeps its predecessor's labels and appends new ones), so its
        miner ids carry over unchanged and its table replaces this one.
        """
        labels = segment.miner_labels
        if labels[: len(self.miner_labels)] != self.miner_labels:
            raise ValueError("segment label table does not extend this trace's")
        for name in self.COLUMNS:
            getattr(self, name).extend(getattr(segment, name))
        self.set_labels(list(labels))

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
        return parent.copy(chain)

    def iter_block_records(self) -> Iterator[BlockRecord]:
        """Yield analysis records lazily, one block at a time.

        Month-scale traces hold millions of blocks; materializing them
        as a list of :class:`BlockRecord` objects costs gigabytes.  Bulk
        consumers (:func:`~repro.perf.reference.reference_database`)
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
        intern table is a bound ``dict.get``, the Homestead difficulty
        rule is inlined as straight integer arithmetic, and the standard
        pool and transaction samplers run inline from the parameters
        they publish (``categorical_parts``, ``tx_parts``).  Without a
        transaction sampler the same loop runs with a zero transaction
        rate, which draws nothing.

        The kernel covers the configuration every fork-sim run uses.
        Any other one — a non-Homestead rule, a sampler that publishes
        no parameters or has no solo miners, or an interpreter whose
        ``random`` failed the import-time probes — mines through
        :meth:`advance_one`, one call per block.
        """
        if hashrate <= 0:
            raise ValueError("cannot mine with zero hashrate")
        if n <= 0:
            return 0
        end = _INF if end_timestamp is None else end_timestamp

        parts = getattr(miner_sampler, "categorical_parts", None)
        tx_parts = (
            (0.0, 0.0)
            if tx_sampler is None
            else getattr(tx_sampler, "tx_parts", None)
        )
        if (
            not (_INLINE_EXPOVARIATE and _INLINE_RANDBELOW)
            or parts is None
            or parts[3] <= 0  # no solo miners to draw from
            or tx_parts is None
            or self.config.difficulty_rule.compute is not homestead_difficulty
        ):
            produced = 0
            while produced < n and self.clock < end:
                self.advance_one(hashrate, miner_sampler, tx_sampler)
                produced += 1
            return produced

        # -- hoisted bindings (the whole point of the kernel) -------------
        rng = self.rng
        rng_random = rng.random
        getrandbits = rng.getrandbits
        gauss = rng.gauss
        _log = math.log
        _exp = math.exp
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
        # single ``extend(range(...))`` in the flush.  The flush runs in
        # a ``finally`` so the columns stay aligned (complete blocks
        # only) even if a sampler raises mid-batch — the buffer gains a
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
        (
            cumulative,
            pool_labels,
            pooled_mass,
            solo_count,
            solo_labels,
            last_pool,
        ) = parts
        solo_bits = solo_count.bit_length()
        pool_ids: List[Optional[int]] = [None] * len(pool_labels)
        # The solo-label list is shared across days (one list per
        # landscape), so its id memo survives between batches; the
        # identity check keys the cache without hashing, and holding the
        # list itself keeps the key from being recycled.  Pool labels are
        # rebuilt daily, so their memo is per-batch.
        memo = self._solo_memo
        if memo is not None and memo[0] is solo_labels:
            solo_ids = memo[1]
        else:
            solo_ids: List[Optional[int]] = [None] * solo_count
            self._solo_memo = (solo_labels, solo_ids)

        # The standard transaction sampler likewise publishes
        # ``tx_parts``, so each block's transactions are drawn inline.
        rate_per_second, contract_p = tx_parts

        number = start_number = self.number
        timestamp = self.timestamp
        difficulty = self.difficulty
        clock = self.clock

        bomb_delay = self.config.bomb_delay
        # Consensus constants as locals: LOAD_FAST instead of LOAD_GLOBAL
        # on every block.
        bound_divisor = DIFFICULTY_BOUND_DIVISOR
        clamp = HOMESTEAD_CLAMP
        min_difficulty = MIN_DIFFICULTY
        bomb_period = BOMB_PERIOD
        # Bomb cache: the bomb term is constant between exponent
        # boundaries (every ``bomb_period`` blocks), so recompute the
        # shift only when ``number`` crosses one.  Starting ``bomb_next``
        # at the activation floor (``2 * BOMB_PERIOD`` past the delay,
        # where the exponent first reaches zero) folds the is-the-bomb-
        # active test into the same compare: below the floor the cached
        # term stays 0, and adding 0 is exact integer identity.
        bomb_term = 0
        bomb_next = 2 * bomb_period + bomb_delay

        produced = 0
        # A ``for`` over ``range`` replaces the per-iteration
        # ``produced < n`` compare and counter increment with a single C
        # iterator step; ``produced`` lands on the block count either way.
        # The ``finally`` flush keeps the derived column (numbers) and the
        # chain tip consistent with whatever full blocks were appended,
        # even if a sampler raises mid-batch — the same partial-progress
        # state the reference per-call loop leaves behind.
        try:
            for produced in range(1, n + 1):
                if clock >= end:
                    produced -= 1
                    break
                # interval ~ Exponential(hashrate / difficulty), inlined
                # (same single draw, same operation order, bit-identical
                # result — see _expovariate_inline_ok).
                interval = -_log(1.0 - rng_random()) / (hashrate / difficulty)
                step = _round(interval)
                if step < 1:
                    step = 1
                new_timestamp = clock + step
                if new_timestamp <= timestamp:
                    new_timestamp = timestamp + 1
                number += 1
                # EIP-2 difficulty update + bomb, straight-line.  A zero
                # multiplier (block time in [10, 20)) adds nothing, so
                # skip the divide/multiply entirely; the cached bomb term
                # is exact between exponent boundaries (and exactly 0
                # before activation).
                multiplier = 1 - (new_timestamp - timestamp) // 10
                if multiplier < clamp:
                    multiplier = clamp
                if multiplier:
                    difficulty += difficulty // bound_divisor * multiplier
                if number >= bomb_next:
                    bomb_exp = (number - bomb_delay) // bomb_period
                    bomb_term = 1 << (bomb_exp - 2)
                    bomb_next = (bomb_exp + 1) * bomb_period + bomb_delay
                difficulty += bomb_term
                if difficulty < min_difficulty:
                    difficulty = min_difficulty
                # The per_block_sampler closure, expression for
                # expression.  Plain loops: at ~7 transactions per block,
                # building itertools pipelines costs more than the few
                # iterations they would save.
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
                # The winning-miner draw, last in advance_one's RNG order;
                # appends only after every draw for the block succeeded.
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
        finally:
            # De-interleave the per-block triples into their columns
            # (same-typecode array extends), then derive the block
            # numbers: they are consecutive, so one ``extend(range(...))``
            # covers them.
            trace.timestamps.extend(buf[0::3])
            trace.difficulties.extend(buf[1::3])
            trace.miner_ids.extend(buf[2::3])
            trace.numbers.extend(range(start_number + 1, number + 1))
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

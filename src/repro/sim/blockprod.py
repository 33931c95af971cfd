"""Per-block fast simulation: traces and the block producer.

Month-scale experiments (Figures 2-5) need ~1.7M blocks per chain; pushing
those through the message-level simulator would be wasteful, since header
dynamics depend only on the difficulty rule and the hashrate trajectory.
:class:`BlockProducer` therefore advances one chain block-by-block:

    interval ~ Exponential(mean = difficulty / hashrate)
    difficulty' = rule(difficulty, timestamp, timestamp + interval, number)

which is *exactly* the consensus difficulty algorithm fed by exact Poisson
mining — not an approximation of the dynamics, only of the networking.
Results append to a columnar :class:`ChainTrace`: five packed columns,
22 bytes/block, instead of a full object graph.
"""

from __future__ import annotations

import math
import pickle
import random
import sys
from array import array
from bisect import bisect_left, bisect_right
from functools import lru_cache
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
    chain: str,
    byteorder: str,
    first_number: int,
    typecodes: str,
    payloads: Tuple,
    miner_labels: List[str],
) -> "ChainTrace":
    """Unpickle a :class:`ChainTrace` (see :meth:`ChainTrace.__reduce_ex__`)."""
    trace = ChainTrace(chain)
    trace.first_number = first_number
    for name, typecode, payload in zip(ChainTrace.STORED, typecodes, payloads):
        column = array(typecode)
        column.frombytes(payload)
        if type(payload) is bytearray:
            # An in-band protocol-5 column, which the unpickler's memo
            # would keep until the whole load ends: free it now.
            payload.clear()
        if byteorder != sys.byteorder:
            column.byteswap()
        setattr(trace, name, column)
    trace.set_labels(miner_labels)
    return trace


#: Values a narrow column holds per slice when it is widened to int64
#: bytes (512 KiB of output per slice); also the span of
#: :func:`_u16_ramp`.
_WIDEN_SLICE = 1 << 16
#: Where a native uint16's two bytes sit inside a native int64.
_LOW_OFFSET = 0 if sys.byteorder == "little" else 6


@lru_cache(maxsize=None)
def _u16_ramp() -> bytes:
    """Native uint16 bytes of ``0, 1, ..., 65535``."""
    return array("H", range(_WIDEN_SLICE)).tobytes()


def _int64_bytes(low16: bytes, high: int = 0) -> bytearray:
    """Native int64 bytes of ``(high << 16) + v`` for each native uint16
    ``v`` packed in ``low16``.

    Strided byte copies run at C speed: about seven times faster than
    building an ``array('q')`` one element at a time.
    """
    count = len(low16) // 2
    out = bytearray(8 * count)
    if high:
        word = (high << 16).to_bytes(8, sys.byteorder, signed=True)
        for offset, byte in enumerate(word):
            if byte:
                out[offset::8] = bytes((byte,)) * count
    out[_LOW_OFFSET::8] = low16[0::2]
    out[_LOW_OFFSET + 1 :: 8] = low16[1::2]
    return out


class ChainTrace:
    """Columnar block history for one chain.

    Columns (aligned by index, named in :attr:`COLUMNS`): ``numbers``,
    ``timestamps``, ``difficulties``, ``miner_ids`` (indexes into
    ``miner_labels``), ``tx_counts``, ``contract_tx_counts``.  A trace
    stores only what it cannot derive, so month-scale traces — millions
    of blocks — stay tens of megabytes instead of gigabytes of boxed
    integers:

    * ``numbers`` is consecutive, so it is a read-only ``range`` from
      :attr:`first_number`; :meth:`append` and :meth:`extend` refuse a
      block that does not come next.
    * ``timestamps`` and ``difficulties`` are ``array('q')``.
    * the :attr:`NARROW` columns are ``array('H')``, 22 bytes/block in
      all.  A value that does not fit (negative, or above 65535) widens
      its column to ``array('q')``, so no configuration can overflow one.

    The typecodes are storage only: :meth:`int64_slices` yields every
    column as the native int64 bytes an all-``'q'`` trace would hold,
    which is what :meth:`~repro.sim.engine.ForkSimResult.digest` hashes.

    A trace pickles each stored column as its raw native-order bytes
    plus its typecode and the writer's byte order, which the loader
    swaps if it differs.  At protocol 5 a column goes out as a
    :class:`pickle.PickleBuffer` over the array itself, so writing a
    trace to a file makes no copy of it; older protocols fall back to
    ``tobytes()``.
    """

    COLUMNS = (
        "numbers",
        "timestamps",
        "difficulties",
        "miner_ids",
        "tx_counts",
        "contract_tx_counts",
    )
    #: The columns held as arrays (all but the derived ``numbers``).
    STORED = COLUMNS[1:]
    #: The columns kept in two bytes while their values fit.
    NARROW = ("miner_ids", "tx_counts", "contract_tx_counts")

    def __init__(self, chain: str) -> None:
        self.chain = chain
        #: Number of the first block (meaningless while the trace is
        #: empty: the first block appended sets it).
        self.first_number = 0
        self.timestamps = array("q")
        self.difficulties = array("q")
        self.miner_ids = array("H")
        self.tx_counts = array("H")
        self.contract_tx_counts = array("H")
        self.miner_labels: List[str] = []
        self._label_index: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def numbers(self) -> range:
        return range(self.first_number, self.first_number + len(self.timestamps))

    def __reduce_ex__(self, protocol):
        columns = [getattr(self, name) for name in self.STORED]
        if protocol >= 5:
            payloads = tuple(pickle.PickleBuffer(column) for column in columns)
        else:
            payloads = tuple(column.tobytes() for column in columns)
        return (
            _rebuild_trace,
            (
                self.chain,
                sys.byteorder,
                self.first_number,
                "".join(column.typecode for column in columns),
                payloads,
                self.miner_labels,
            ),
        )

    def int64_slices(self, name: str) -> Iterator:
        """Column ``name`` as native int64 bytes, in bounded slices.

        A ``'q'`` column comes out whole and uncopied; a narrow column
        and the derived ``numbers`` are widened :data:`_WIDEN_SLICE`
        values at a time, never as one whole-trace copy.
        """
        if name == "numbers":
            number = self.first_number
            end = number + len(self)
            ramp = _u16_ramp()
            while number < end:
                high, low = divmod(number, _WIDEN_SLICE)
                stop = min(end, (high + 1) * _WIDEN_SLICE)
                yield _int64_bytes(ramp[2 * low : 2 * (low + stop - number)], high)
                number = stop
            return
        column = getattr(self, name)
        if column.typecode == "q":
            yield memoryview(column).cast("B")
            return
        for start in range(0, len(column), _WIDEN_SLICE):
            yield _int64_bytes(column[start : start + _WIDEN_SLICE].tobytes())

    def _check_next(self, number: int) -> None:
        """Require block ``number`` to come next (any number may start
        an empty trace)."""
        if not self.timestamps:
            self.first_number = number
        elif number != self.first_number + len(self.timestamps):
            raise ValueError(
                f"{self.chain}: block {number} does not follow block "
                f"{self.first_number + len(self.timestamps) - 1}"
            )

    def _widen(self, name: str) -> array:
        """Replace narrow column ``name`` by an ``array('q')`` copy."""
        column = array("q", getattr(self, name))
        setattr(self, name, column)
        return column

    def _put(self, name: str, values: array) -> None:
        """Append ``values`` (an array of any integer typecode) to stored
        column ``name``, widening the column when they do not fit."""
        column = getattr(self, name)
        if column.typecode == values.typecode:
            column.extend(values)
            return
        try:
            # ``fromlist`` leaves the column unchanged when it raises.
            column.fromlist(values.tolist())
        except OverflowError:
            self._widen(name).extend(values)

    @classmethod
    def from_columns(
        cls, chain: str, columns: Dict[str, array], miner_labels: List[str]
    ) -> "ChainTrace":
        """A trace over one array per name in :attr:`COLUMNS`, of any
        integer typecode: the narrow columns narrow where their values
        fit, and ``numbers`` must be consecutive."""
        trace = cls(chain)
        for name in cls.STORED:
            trace._put(name, columns[name])
        numbers = columns["numbers"]
        if numbers:
            trace.first_number = numbers[0]
        if numbers != array("q", trace.numbers):
            raise ValueError(f"{chain}: block numbers are not consecutive")
        trace.set_labels(miner_labels)
        return trace

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
        twin.first_number = self.first_number
        for name in self.STORED:
            column = getattr(self, name)
            setattr(twin, name, array(column.typecode, column))
        twin.miner_labels = list(self.miner_labels)
        twin._label_index = dict(self._label_index)
        return twin

    def extend(self, segment: "ChainTrace") -> None:
        """Append ``segment``'s blocks, mined right after this trace's.

        ``segment``'s label table must extend this one (a resumed trace
        keeps its predecessor's labels and appends new ones), so its
        miner ids carry over unchanged and its table replaces this one.
        A column the segment holds wider than this trace widens here.
        """
        labels = segment.miner_labels
        if labels[: len(self.miner_labels)] != self.miner_labels:
            raise ValueError("segment label table does not extend this trace's")
        if len(segment):
            self._check_next(segment.first_number)
        for name in self.STORED:
            self._put(name, getattr(segment, name))
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
        self._check_next(number)
        self.timestamps.append(timestamp)
        self.difficulties.append(difficulty)
        for name, value in zip(
            self.NARROW, (self.label_id(miner), tx_count, contract_tx_count)
        ):
            try:
                getattr(self, name).append(value)
            except OverflowError:
                self._widen(name).append(value)

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
        lives in locals, the five per-block values (timestamp,
        difficulty, miner id, tx and contract counts) buffer interleaved
        through one bound ``array.extend`` per block (de-interleaved by
        stepped slices in the flush), the miner-label
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
        # The five per-block values (timestamp, difficulty, miner id, tx
        # and contract counts) buffer interleaved in ONE packed int64
        # array: a single ``extend`` per block replaces five bound
        # appends — one C call instead of five — and the flush
        # de-interleaves with stepped slices (``buf[0::5]`` etc.), ~2
        # orders of magnitude cheaper than the per-block calls they
        # absorb.  Block numbers are consecutive, so the trace derives
        # them and needs only the first.  The flush runs in a
        # ``finally`` so the columns stay aligned (complete blocks only)
        # even if a sampler raises mid-batch — the buffer gains a
        # block's values only after every draw for that block succeeded,
        # matching the reference path's exception behavior.
        trace._check_next(self.number + 1)
        buf = array("q")
        put = buf.extend

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

        number = self.number
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
        # The ``finally`` flush keeps the columns and the chain tip
        # consistent with whatever full blocks were buffered, even if a
        # sampler raises mid-batch — the same partial-progress state the
        # reference per-call loop leaves behind.
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
                put(
                    (new_timestamp, difficulty, miner_id, tx_count, contract_count)
                )
                timestamp = clock = new_timestamp
        finally:
            # De-interleave the per-block values into their columns: a
            # same-typecode extend for the int64 ones, a narrowing
            # ``fromlist`` for the two-byte ones (widening on overflow).
            for offset, name in enumerate(trace.STORED):
                trace._put(name, buf[offset::5])
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

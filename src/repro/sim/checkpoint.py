"""Mid-horizon simulator checkpoints: pause a fork run, resume bit-exact.

A 270-day reconstruction mines ~1.7M blocks per chain in one
:meth:`~repro.sim.engine.ForkSimulation.run` call.  The chunked sweep
harness (§10) can already split a *grid* of runs into resumable chunks,
but a single horizon was all-or-nothing: a preempted worker lost the
whole run.  :class:`ForkSimCheckpoint` closes that gap by snapshotting
everything the day loop carries across iterations:

* the chain tips (number, timestamp, wall clock, difficulty) and the
  **full Mersenne Twister state** of each producer's RNG,
* the trace columns of the run that took it (copies of its
  :class:`~repro.sim.blockprod.ChainTrace` objects, label tables
  included),
* the lagged allocator's current hashpower split,
* the per-day hashrate ledger.

Everything else the loop consumes — price processes, hashpower supply,
pool landscapes, transaction workloads — is a pure function of the
config seed and is recomputed identically on resume, so the checkpoint
stays small (the trace columns dominate: 48 bytes/block).

Resuming means "the checkpoint's columns plus the new blocks".  A
checkpoint whose ``first_day`` is 0 holds the whole prefix; resuming it
yields the full traces.  :meth:`ForkSimCheckpoint.tip` drops the
columns, so a run resumed from a tip mines and returns only its own
days: a *delta* checkpoint, whose ``first_day`` is where its segment
starts.  :meth:`ForkSimCheckpoint.stitch` joins consecutive delta
checkpoints back into one full prefix.  The harness's ``simulate-chunk``
jobs cache one delta per chunk and stitch before the final chunk
resumes, so a chunked horizon keeps each block in the cache once.

The determinism contract, pinned by ``tests/test_sim_checkpoint.py``:
running days ``[0, k)``, checkpointing, and resuming through ``[k,
days)`` yields a :meth:`~repro.sim.engine.ForkSimResult.digest`
byte-identical to the single-shot run — through any number of chunk
boundaries, through tips and stitches, and through a JSON round-trip of
the checkpoint itself.

In the result cache a checkpoint travels *as an object*: its traces
pickle their columns copy-free (see :class:`~repro.sim.blockprod.
ChainTrace`).  :meth:`ForkSimCheckpoint.to_dict` / ``from_dict`` are the
JSON wire format (base64 columns) for anything outside that cache, and
:meth:`ForkSimCheckpoint.digest` fingerprints that canonical form.
Resuming copies the checkpoint's columns, so one checkpoint can seed
any number of independent resumes; only a stitched checkpoint, whose
columns nobody else holds, hands them over to its one resume.
"""

from __future__ import annotations

import base64
import hashlib
import json
import sys
from array import array
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .blockprod import BlockProducer, ChainTrace

__all__ = [
    "CHECKPOINT_VERSION",
    "ProducerState",
    "ForkSimCheckpoint",
]

#: Bump on any change to the serialized layout; ``from_dict`` rejects
#: mismatches instead of guessing.
#: v2: ``first_day`` (delta checkpoints).
CHECKPOINT_VERSION = 2


def _pack_column(column: array) -> str:
    """Base64 of the column's int64 payload, normalized little-endian."""
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        column = array("q", column)
        column.byteswap()
    return base64.b64encode(column.tobytes()).decode("ascii")


def _unpack_column(payload: str) -> array:
    column = array("q")
    column.frombytes(base64.b64decode(payload.encode("ascii")))
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        column.byteswap()
    return column


def _trace_to_dict(trace: ChainTrace) -> Dict[str, Any]:
    return {
        "chain": trace.chain,
        "columns": {
            name: _pack_column(getattr(trace, name))
            for name in ChainTrace.COLUMNS
        },
        "miner_labels": trace.miner_labels,
    }


def _trace_from_dict(payload: Dict[str, Any]) -> ChainTrace:
    trace = ChainTrace(payload["chain"])
    for name in ChainTrace.COLUMNS:
        setattr(trace, name, _unpack_column(payload["columns"][name]))
    trace.set_labels(list(payload["miner_labels"]))
    return trace


def _columnless(trace: ChainTrace) -> ChainTrace:
    """An empty trace carrying ``trace``'s chain name and label table."""
    tip = ChainTrace(trace.chain)
    tip.set_labels(list(trace.miner_labels))
    return tip


@dataclass
class ProducerState:
    """One :class:`~repro.sim.blockprod.BlockProducer`'s resumable state.

    The ``(number, timestamp, clock, difficulty)`` tip plus the full RNG
    state (``random.Random.getstate()``: version, 625 Mersenne words,
    and the Gaussian carry).  The producer's ``_solo_memo`` is a lazily
    rebuilt cache keyed by list identity, so it is deliberately *not*
    part of the state — a resumed producer re-warms it on first use
    with identical results.
    """

    number: int
    timestamp: int
    clock: int
    difficulty: int
    rng_state: Tuple[int, Tuple[int, ...], Optional[float]]

    @classmethod
    def capture(cls, producer: BlockProducer) -> "ProducerState":
        return cls(
            number=producer.number,
            timestamp=producer.timestamp,
            clock=producer.clock,
            difficulty=producer.difficulty,
            rng_state=producer.rng.getstate(),
        )

    def apply(self, producer: BlockProducer) -> None:
        """Overwrite a freshly constructed producer's tip and RNG."""
        producer.number = self.number
        producer.timestamp = self.timestamp
        producer.clock = self.clock
        producer.difficulty = self.difficulty
        producer.rng.setstate(self.rng_state)

    def to_dict(self) -> Dict[str, Any]:
        version, words, gauss_next = self.rng_state
        return {
            "number": self.number,
            "timestamp": self.timestamp,
            "clock": self.clock,
            "difficulty": self.difficulty,
            "rng_state": [version, list(words), gauss_next],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ProducerState":
        version, words, gauss_next = payload["rng_state"]
        return cls(
            number=payload["number"],
            timestamp=payload["timestamp"],
            clock=payload["clock"],
            difficulty=payload["difficulty"],
            rng_state=(version, tuple(words), gauss_next),
        )


@dataclass
class ForkSimCheckpoint:
    """Everything :meth:`ForkSimulation.run` needs to pick up at day ``day``.

    ``config`` is the owning :meth:`ForkSimConfig.to_dict` snapshot;
    resume refuses a checkpoint taken under a different configuration
    (same-seed purity of the recomputed inputs is what makes resumption
    exact, so a mismatched config would silently diverge).
    """

    config: Dict[str, Any]
    #: Next day index to simulate (days ``[0, day)`` are already mined).
    day: int
    fork_number: int
    fork_timestamp: int
    producers: Dict[str, ProducerState]
    #: Per-chain trace columns of days ``[first_day, day)`` (pre-fork
    #: blocks included when ``first_day`` is 0); the label tables are
    #: always whole.
    traces: Dict[str, ChainTrace]
    #: The lagged allocator's current per-chain hashrate split.
    allocation: Dict[str, float]
    #: Per-chain daily hashrate mined so far (``day`` entries each).
    daily_hashrate: Dict[str, List[float]]
    #: First day the trace columns cover: 0 for a full prefix, the
    #: segment start for a delta checkpoint.
    first_day: int = 0
    version: int = CHECKPOINT_VERSION
    #: Set on a :meth:`stitch` result: its columns are nobody else's, so
    #: its one resume adopts them instead of copying.
    owned: bool = field(default=False, compare=False, repr=False)

    @classmethod
    def capture(
        cls,
        config: Any,
        day: int,
        fork_number: int,
        fork_timestamp: int,
        producers: Dict[str, BlockProducer],
        traces: Dict[str, ChainTrace],
        allocation: Dict[str, float],
        daily_hashrate: Dict[str, List[float]],
        first_day: int = 0,
    ) -> "ForkSimCheckpoint":
        return cls(
            config=config.to_dict(),
            day=day,
            fork_number=fork_number,
            fork_timestamp=fork_timestamp,
            producers={
                chain: ProducerState.capture(producer)
                for chain, producer in producers.items()
            },
            traces={chain: trace.copy() for chain, trace in traces.items()},
            allocation=dict(allocation),
            daily_hashrate={
                chain: list(values)
                for chain, values in daily_hashrate.items()
            },
            first_day=first_day,
        )

    def _live_traces(self) -> Dict[str, ChainTrace]:
        if self.traces is None:
            raise ValueError(
                "this stitched checkpoint already handed its columns to a resume"
            )
        return self.traces

    def restore_traces(self) -> Dict[str, ChainTrace]:
        """The traces a resume appends to.

        Copies, so the checkpoint can seed any number of resumes — except
        on a stitched checkpoint, which hands over its own columns once
        and is spent afterwards.
        """
        traces = self._live_traces()
        if self.owned:
            self.traces = None
            return traces
        return {chain: trace.copy() for chain, trace in traces.items()}

    def tip(self) -> "ForkSimCheckpoint":
        """This checkpoint without its columns.

        A run resumed from the tip mines days ``[day, stop)`` and returns
        exactly those blocks; the checkpoint it takes is a delta starting
        at ``day``.
        """
        return replace(
            self,
            traces={
                chain: _columnless(trace)
                for chain, trace in self._live_traces().items()
            },
            first_day=self.day,
            owned=False,
        )

    @classmethod
    def stitch(
        cls, segments: Iterable["ForkSimCheckpoint"]
    ) -> "ForkSimCheckpoint":
        """Join consecutive delta checkpoints into one full prefix.

        ``segments`` must start at day 0 and each must start where the
        previous one ends.  It is consumed lazily, so a caller loading
        segments from a cache holds one at a time.  The result carries
        the last segment's tip with every segment's columns copied into
        fresh arrays; it is :attr:`owned`, so the resume it seeds adopts
        them without another copy, and the segments stay untouched.
        """
        stitched: Optional[ForkSimCheckpoint] = None
        for segment in segments:
            traces = segment._live_traces()
            if stitched is None:
                if segment.first_day != 0:
                    raise ValueError(
                        f"first segment starts at day {segment.first_day}, "
                        "not 0"
                    )
                stitched = replace(
                    segment,
                    traces={
                        chain: trace.copy() for chain, trace in traces.items()
                    },
                    owned=True,
                )
                continue
            if segment.config != stitched.config:
                raise ValueError("segments come from different configurations")
            if segment.first_day != stitched.day:
                raise ValueError(
                    f"segment starts at day {segment.first_day}, but the "
                    f"prefix ends at day {stitched.day}"
                )
            for chain, trace in stitched.traces.items():
                trace.extend(traces[chain])
            stitched.day = segment.day
            stitched.producers = segment.producers
            stitched.allocation = segment.allocation
            stitched.daily_hashrate = segment.daily_hashrate
        if stitched is None:
            raise ValueError("no segments to stitch")
        return stitched

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload (round-trips exactly through ``from_dict``).

        Floats survive via ``repr``-based JSON serialization (shortest
        round-trip), int64 columns via base64, RNG words as plain ints —
        nothing lossy anywhere, which the resume-digest tests depend on.
        """
        return {
            "version": self.version,
            "config": self.config,
            "day": self.day,
            "first_day": self.first_day,
            "fork_number": self.fork_number,
            "fork_timestamp": self.fork_timestamp,
            "producers": {
                chain: state.to_dict()
                for chain, state in self.producers.items()
            },
            "traces": {
                chain: _trace_to_dict(trace)
                for chain, trace in self._live_traces().items()
            },
            "allocation": self.allocation,
            "daily_hashrate": self.daily_hashrate,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ForkSimCheckpoint":
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        return cls(
            config=payload["config"],
            day=payload["day"],
            first_day=payload["first_day"],
            fork_number=payload["fork_number"],
            fork_timestamp=payload["fork_timestamp"],
            producers={
                chain: ProducerState.from_dict(state)
                for chain, state in payload["producers"].items()
            },
            traces={
                chain: _trace_from_dict(trace)
                for chain, trace in payload["traces"].items()
            },
            allocation=dict(payload["allocation"]),
            daily_hashrate={
                chain: list(values)
                for chain, values in payload["daily_hashrate"].items()
            },
            version=version,
        )

    def digest(self) -> str:
        """Fingerprint of the serialized checkpoint (ledger audit trail)."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

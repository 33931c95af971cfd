"""Cross-chain echo (rebroadcast / replay) detection — Figure 4.

The paper's definition (Section 3.3): "We say that there was an 'echo' in
ETH if we first saw that same transaction appear in ETC (and vice versa)."
Plus a third class for transactions appearing in both networks within the
same observation window ("Same time" in Figure 4), whose direction cannot
be attributed.

:class:`EchoDetector` is a streaming one-pass join over time-ordered
transaction sightings from any number of chains.  For each transaction
hash it remembers the first sighting; a later sighting on a *different*
chain is classified as an echo into that chain (or "same time" if the two
sightings fall within ``same_time_window`` seconds).  Memory is bounded by
the number of distinct transaction hashes seen, and the stream never needs
to be materialized twice — unlike the naive two-pass hash join kept in
:mod:`repro.baselines.naive_echo` as the ablation comparator.

A stream arrives either one sighting at a time (:meth:`EchoDetector.observe`)
or as a columnar :class:`~repro.data.sightings.Sightings` table
(:meth:`EchoDetector.observe_records`, the kernel the replay workload
feeds); both leave the detector in the same state, byte for byte.
"""

from __future__ import annotations

import operator
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..data.sightings import Sightings
from ..data.windows import DAY
from .timeseries import TimeSeries

__all__ = ["Echo", "EchoDetector", "EchoReport", "SAME_TIME_WINDOW"]

#: Two sightings closer than this are direction-ambiguous ("Same time").
#: Fifteen minutes: close enough that block-timestamp ordering cannot
#: establish which network saw the transaction first — the signature of
#: a user intentionally broadcasting on both chains at once, which is the
#: small residual class Figure 4 plots as "Same time".
SAME_TIME_WINDOW = 900


@dataclass(frozen=True)
class Echo:
    """One detected rebroadcast."""

    tx_hash: bytes
    #: Chain where the transaction appeared first.
    origin_chain: str
    #: Chain it was rebroadcast into (where the echo materialized).
    echo_chain: str
    origin_timestamp: int
    echo_timestamp: int
    #: True when the gap is inside the same-time window.
    same_time: bool

    @property
    def lag_seconds(self) -> int:
        return self.echo_timestamp - self.origin_timestamp


class EchoDetector:
    """Streaming cross-chain duplicate-transaction detector.

    Detected echoes are kept as packed columns, one row per echo in
    detection order: the tx hashes as one blob with end offsets, origin
    and destination chain codes (a code is the chain's index in
    first-sighting order), origin and echo timestamps as ``array('q')``,
    and the same-time flag.  The Figure 4 aggregates are kernels over
    those columns; :attr:`echoes` builds :class:`Echo` objects only when
    asked.

    Pickling keeps the columns plus the first-seen index, packed the
    same way.  The lookup dict and the reported set are rebuilt only if
    :meth:`observe` runs again after unpickling, so a loaded detector
    answers the aggregates without ever materializing them.
    """

    def __init__(self, same_time_window: int = SAME_TIME_WINDOW) -> None:
        if same_time_window < 0:
            raise ValueError("window must be non-negative")
        self.same_time_window = same_time_window
        self.sightings = 0
        self._chains: List[str] = []
        self._codes: Dict[str, int] = {}
        # -- echo columns --
        self._hashes = bytearray()
        self._hash_ends = array("I")
        self._origin = bytearray()
        self._dest = bytearray()
        self._origin_ts = array("q")
        self._echo_ts = array("q")
        self._same_time = bytearray()
        # -- streaming index --
        #: tx hash -> (first chain code, first timestamp)
        self._first_seen: Optional[Dict[bytes, Tuple[int, int]]] = {}
        #: (hash, chain code) pairs already reported (dedups repeats).
        self._reported: Optional[set] = set()
        #: The packed first-seen index while the dict is not rebuilt.
        self._seen: Optional[tuple] = None

    # -- pickling ----------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        state = {name: getattr(self, name) for name in _PICKLED}
        rebuilt = self._first_seen is not None
        state["_seen"] = self._pack_index() if rebuilt else self._seen
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        vars(self).update(state)
        self._codes = {name: code for code, name in enumerate(self._chains)}
        self._first_seen = None
        self._reported = None

    def _pack_index(self) -> tuple:
        # The codes are a bytearray so that pickle can never share one
        # memo entry between them and the hash blob: equal one-byte
        # ``bytes`` are the same object only when CPython interned both,
        # which unpickling always does and a live run may not.
        hashes = list(self._first_seen)
        firsts = self._first_seen.values()
        return (
            b"".join(hashes),
            array("I", accumulate(map(len, hashes))),
            bytearray(code for code, _ in firsts),
            array("q", [timestamp for _, timestamp in firsts]),
        )

    def _rebuild_index(self) -> None:
        blob, ends, codes, stamps = self._seen
        self._first_seen = dict(zip(_split(blob, ends), zip(codes, stamps)))
        self._reported = set(
            zip(_split(bytes(self._hashes), self._hash_ends), self._dest)
        )
        self._seen = None

    # -- streaming ---------------------------------------------------------

    def observe(self, chain: str, tx_hash: bytes, timestamp: int) -> Optional[Echo]:
        """Feed one sighting; returns an :class:`Echo` if one was detected.

        Sightings should arrive in non-decreasing timestamp order for
        direction attribution to match the paper's first-seen rule; the
        detector itself tolerates disorder (attribution then follows feed
        order, as it would for a live observer).
        """
        key = bytes(tx_hash)
        first = self._feed(chain, key, timestamp)
        if first is None:
            return None
        origin, origin_ts = first
        return Echo(
            tx_hash=key,
            origin_chain=self._chains[origin],
            echo_chain=chain,
            origin_timestamp=origin_ts,
            echo_timestamp=timestamp,
            same_time=bool(self._same_time[-1]),
        )

    def observe_records(self, sightings: Sightings) -> int:
        """Feed a time-ordered sighting table; returns echoes found.

        The columnar kernel: equivalent to :meth:`observe` on every row
        in order.  The table's chains are registered in first-sighting
        order (each one's first row is found by ``bytes.find``), its
        codes are translated to the detector's in one pass, and the
        echo rows are gathered locally and appended to the columns at
        the end.
        """
        if self._first_seen is None:
            self._rebuild_index()
        codes = sightings.codes
        table = bytearray(range(256))
        firsts = []
        for code, name in enumerate(sightings.chains):
            row = codes.find(code)
            if row >= 0:
                firsts.append((row, code, name))
        for _, code, name in sorted(firsts):
            mine = self._codes.get(name)
            if mine is None:
                mine = self._codes[name] = len(self._chains)
                self._chains.append(name)
            table[code] = mine
        first_seen = self._first_seen
        setdefault = first_seen.setdefault
        reported = self._reported
        window = self.same_time_window
        keys: List[bytes] = []
        origins = bytearray()
        dests = bytearray()
        origin_stamps = array("q")
        echo_stamps = array("q")
        flags = bytearray()
        for code, key, timestamp in zip(
            codes.translate(table), sightings.hashes, sightings.timestamps
        ):
            first = setdefault(key, (code, timestamp))
            if first[0] == code:
                continue  # a new hash, or a same-chain duplicate
            report_key = (key, code)
            if report_key in reported:
                continue
            reported.add(report_key)
            origin, origin_ts = first
            keys.append(key)
            origins.append(origin)
            dests.append(code)
            origin_stamps.append(origin_ts)
            echo_stamps.append(timestamp)
            flags.append(abs(timestamp - origin_ts) <= window)
        self.sightings += len(codes)
        ends = accumulate(map(len, keys), initial=len(self._hashes))
        next(ends)  # the initial offset is the previous row's end
        self._hash_ends.extend(ends)
        self._hashes += b"".join(keys)
        self._origin += origins
        self._dest += dests
        self._origin_ts += origin_stamps
        self._echo_ts += echo_stamps
        self._same_time += flags
        return len(keys)

    def _feed(
        self, chain: str, key: bytes, timestamp: int
    ) -> Optional[Tuple[int, int]]:
        """Record one sighting; returns its first sighting's (code,
        timestamp) when this one is a new echo, else None."""
        self.sightings += 1
        if self._first_seen is None:
            self._rebuild_index()
        code = self._codes.get(chain)
        if code is None:
            code = self._codes[chain] = len(self._chains)
            self._chains.append(chain)
        first = self._first_seen.get(key)
        if first is None:
            self._first_seen[key] = (code, timestamp)
            return None
        origin, origin_ts = first
        if origin == code:
            return None  # same-chain duplicate (reorg resurrection); not an echo
        report_key = (key, code)
        if report_key in self._reported:
            return None
        self._reported.add(report_key)
        self._hashes += key
        self._hash_ends.append(len(self._hashes))
        self._origin.append(origin)
        self._dest.append(code)
        self._origin_ts.append(origin_ts)
        self._echo_ts.append(timestamp)
        self._same_time.append(
            abs(timestamp - origin_ts) <= self.same_time_window
        )
        return first

    # -- echo rows -----------------------------------------------------------

    @property
    def echoes(self) -> List[Echo]:
        """Every detected echo in detection order, built on each access."""
        return self._build(range(len(self._echo_ts)))

    def _build(self, rows: Iterable[int]) -> List[Echo]:
        blob, ends, names = bytes(self._hashes), self._hash_ends, self._chains
        return [
            Echo(
                tx_hash=blob[ends[row - 1] if row else 0 : ends[row]],
                origin_chain=names[self._origin[row]],
                echo_chain=names[self._dest[row]],
                origin_timestamp=self._origin_ts[row],
                echo_timestamp=self._echo_ts[row],
                same_time=bool(self._same_time[row]),
            )
            for row in rows
        ]

    def _mask(self, chain: Optional[str], same_time: Optional[bool]):
        """Row selector for a destination / same-time filter, or None
        when neither filter is set."""
        masks = []
        if chain is not None:
            code = self._codes.get(chain, -1)  # -1: unseen chain, no rows
            masks.append(map(code.__eq__, self._dest))
        if same_time is not None:
            flags = self._same_time
            masks.append(flags if same_time else map(operator.not_, flags))
        if not masks:
            return None
        return masks[0] if len(masks) == 1 else map(operator.and_, *masks)

    # -- aggregation (the Figure 4 panels) ---------------------------------

    def echoes_into(self, chain: str, include_same_time: bool = True) -> List[Echo]:
        rows = compress(
            range(len(self._echo_ts)),
            self._mask(chain, None if include_same_time else False),
        )
        return self._build(rows)

    def daily_counts(self, chain: Optional[str] = None, same_time: Optional[bool] = None) -> TimeSeries:
        """Echoes per day (Figure 4, bottom).

        ``chain`` filters by destination; ``same_time`` selects only the
        ambiguous (True) or attributed (False) class.
        """
        stamps: Iterable[int] = self._echo_ts
        mask = self._mask(chain, same_time)
        if mask is not None:
            stamps = compress(stamps, mask)
        counts = Counter(stamp // DAY for stamp in stamps)
        label = chain or "all"
        return TimeSeries.from_window_dict(
            {k: float(v) for k, v in counts.items()},
            DAY,
            name=f"echoes/day into {label}",
        )

    def direction_totals(self) -> Dict[Tuple[str, str], int]:
        """(origin, destination) -> echo count, in first-detection order.

        The paper's finding: "Most of the rebroadcasts were originally
        broadcast in ETH and then rebroadcast into ETC" — i.e. the
        ("ETH", "ETC") entry dominates.
        """
        names = self._chains
        pairs = Counter(zip(self._origin, self._dest))
        return {
            (names[origin], names[dest]): count
            for (origin, dest), count in pairs.items()
        }


#: The attributes :class:`EchoDetector` pickles, in a fixed order (the
#: serve layer digests the pickle bytes).
_PICKLED = (
    "same_time_window",
    "sightings",
    "_chains",
    "_hashes",
    "_hash_ends",
    "_origin",
    "_dest",
    "_origin_ts",
    "_echo_ts",
    "_same_time",
)


def _split(blob: bytes, ends: array) -> List[bytes]:
    """Cut a packed hash blob back into its hashes."""
    return [blob[start:end] for start, end in zip([0, *ends], ends)]


@dataclass
class EchoReport:
    """Figure 4's two panels for one destination chain."""

    chain: str
    echoes_per_day: TimeSeries
    percent_of_transactions: TimeSeries

    @classmethod
    def build(
        cls,
        detector: EchoDetector,
        chain: str,
        daily_tx_totals: TimeSeries,
    ) -> "EchoReport":
        """Combine echo counts with the chain's total daily transactions.

        ``daily_tx_totals`` comes from the trace/database (it includes the
        vast majority of transactions that were never echoed, so the
        denominator is the real daily volume).
        """
        per_day = detector.daily_counts(chain=chain)
        totals_by_index = {
            int(t // DAY): v for t, v in daily_tx_totals
        }
        timestamps = []
        percents = []
        for timestamp, count in per_day:
            index = int(timestamp // DAY)
            total = totals_by_index.get(index, 0.0)
            if total > 0:
                timestamps.append(timestamp)
                percents.append(100.0 * count / total)
        return cls(
            chain=chain,
            echoes_per_day=per_day,
            percent_of_transactions=TimeSeries(
                timestamps, percents, name=f"% {chain} txs that are echoes"
            ),
        )

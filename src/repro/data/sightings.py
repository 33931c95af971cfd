"""Transaction sightings as a columnar table — the echo detector's input.

A sighting is one transaction hash seen on one chain at one timestamp;
that triple is all :class:`~repro.core.echoes.EchoDetector` and the
naive join read.  :class:`Sightings` keeps a stream of them as three
parallel columns instead of one :class:`~repro.data.records.TxRecord`
per row: chain codes as ``bytes`` (a code indexes :attr:`chains`), the
hashes as a list of ``bytes``, and the timestamps as ``array('q')``.
The replay generator writes these columns directly;
:meth:`Sightings.from_records` adapts an exported record stream (a real
chain's transactions) to the same shape.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Sequence

__all__ = ["Sightings"]


class Sightings:
    """A sighting stream, one row per (chain, tx hash, timestamp).

    Rows keep their stream order: the detector attributes echo
    direction by feed order, so a caller that wants the paper's
    first-seen rule hands over a time-ordered table.
    """

    __slots__ = ("chains", "codes", "hashes", "timestamps")

    def __init__(
        self,
        chains: Sequence[str],
        codes: bytes,
        hashes: List[bytes],
        timestamps: array,
    ) -> None:
        if not len(codes) == len(hashes) == len(timestamps):
            raise ValueError("sighting columns must have equal length")
        if max(codes, default=-1) >= len(chains):
            raise ValueError("every chain code must index chains")
        #: Chain names by code.
        self.chains = tuple(chains)
        self.codes = bytes(codes)
        self.hashes = hashes
        self.timestamps = timestamps

    def __len__(self) -> int:
        return len(self.codes)

    @classmethod
    def from_records(cls, records: Iterable) -> "Sightings":
        """The ``(chain, tx_hash, timestamp)`` projection of a record
        stream, in its order; chains are coded by first appearance."""
        index: Dict[str, int] = {}
        codes = bytearray()
        hashes: List[bytes] = []
        timestamps = array("q")
        for record in records:
            code = index.setdefault(record.chain, len(index))
            codes.append(code)
            hashes.append(bytes(record.tx_hash))
            timestamps.append(record.timestamp)
        return cls(list(index), codes, hashes, timestamps)

"""Baseline echo detector: the naive two-pass hash join.

The obvious way to find rebroadcasts is to materialize each chain's full
transaction set and intersect by hash, then look timestamps up again to
attribute direction.  It produces identical answers to the streaming
:class:`~repro.core.echoes.EchoDetector` (the ablation test asserts this)
but needs both datasets resident and makes two passes — the comparison the
ablation benchmark quantifies.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.echoes import SAME_TIME_WINDOW, Echo
from ..data.sightings import Sightings

__all__ = ["naive_echo_join"]


def naive_echo_join(
    sightings: Sightings,
    same_time_window: int = SAME_TIME_WINDOW,
) -> List[Echo]:
    """Two-pass join over a full sighting table.

    Pass 1 buckets first-sightings per chain by hash; pass 2 intersects
    hash sets pairwise and emits one echo per (hash, later chain).
    """
    names = sightings.chains
    first_seen: Dict[str, Dict[bytes, int]] = {}
    for code, tx_hash, timestamp in zip(
        sightings.codes, sightings.hashes, sightings.timestamps
    ):
        chain_map = first_seen.setdefault(names[code], {})
        existing = chain_map.get(tx_hash)
        if existing is None or timestamp < existing:
            chain_map[tx_hash] = timestamp

    echoes: List[Echo] = []
    chains = sorted(first_seen)
    for i, chain_a in enumerate(chains):
        for chain_b in chains[i + 1 :]:
            shared = set(first_seen[chain_a]) & set(first_seen[chain_b])
            for tx_hash in shared:
                ts_a = first_seen[chain_a][tx_hash]
                ts_b = first_seen[chain_b][tx_hash]
                if ts_a <= ts_b:
                    origin, origin_ts = chain_a, ts_a
                    destination, echo_ts = chain_b, ts_b
                else:
                    origin, origin_ts = chain_b, ts_b
                    destination, echo_ts = chain_a, ts_a
                echoes.append(
                    Echo(
                        tx_hash=tx_hash,
                        origin_chain=origin,
                        echo_chain=destination,
                        origin_timestamp=origin_ts,
                        echo_timestamp=echo_ts,
                        same_time=abs(echo_ts - origin_ts) <= same_time_window,
                    )
                )
    echoes.sort(key=lambda e: (e.echo_timestamp, e.tx_hash))
    return echoes

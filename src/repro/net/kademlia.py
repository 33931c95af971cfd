"""Kademlia routing: XOR-metric node discovery.

The paper notes (Section 2.2) that "Ethereum does use Kademlia's
peer-to-peer protocol to find peers to communicate with, but this is not a
part of the blockchain consensus protocol."  That separation matters for
the fork analysis: *discovery* keeps returning peers from both sides of the
partition (the DHT is fork-blind), and the split is enforced one layer up,
at the ``eth`` handshake.  Our :class:`RoutingTable` reproduces the real
structure — 256 k-buckets by XOR-distance prefix, least-recently-seen
eviction candidates, iterative lookups — so the post-fork churn (ETC nodes
repeatedly dialing ETH nodes found via discovery, only to be dropped at
handshake) emerges in the simulator the same way operators observed it.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Set

from ..chain.crypto import keccak256

__all__ = ["node_id_digest", "xor_distance", "bucket_index", "RoutingTable"]

#: Bucket width (Kademlia's "k"): max peers retained per distance bucket.
BUCKET_SIZE = 16

_ID_BITS = 256


def node_id_digest(node_name: str) -> bytes:
    """The 256-bit DHT identity of a node (hash of its public name)."""
    return bytes(keccak256(b"node-id:" + node_name.encode("utf-8")))


def xor_distance(id_a: bytes, id_b: bytes) -> int:
    """Kademlia's metric: the ids XORed, read as an integer."""
    return int.from_bytes(id_a, "big") ^ int.from_bytes(id_b, "big")


def bucket_index(own_id: bytes, other_id: bytes) -> int:
    """Which k-bucket ``other_id`` falls in: floor(log2(distance)).

    Bucket i holds peers at distance [2^i, 2^(i+1)).  Raises for the
    self-distance (zero), which has no bucket.
    """
    distance = xor_distance(own_id, other_id)
    if distance == 0:
        raise ValueError("a node does not bucket itself")
    return distance.bit_length() - 1


class RoutingTable:
    """One node's view of the DHT: 256 k-buckets of peer names.

    Peers are stored by name; digests are derived on demand.  Recency is
    a stamp, not a list position: ``_seen`` maps every member to the
    tick of its last contact (a per-table counter), so refreshing a
    known peer — once per received message — is one dict store.  Each
    bucket is a set of member names whose size alone decides admission.
    :meth:`all_peers` walks buckets in creation order and sorts each by
    tick, which is exactly the least-recently-seen order (stalest first)
    the list-based table kept by moving a refreshed peer to the end:
    the Kademlia eviction order the protocol cites.
    """

    def __init__(self, own_name: str, bucket_size: int = BUCKET_SIZE) -> None:
        self.own_name = own_name
        self.own_id = node_id_digest(own_name)
        self.bucket_size = bucket_size
        #: bucket index -> member names, in bucket creation order.
        self._buckets: Dict[int, Set[str]] = {}
        #: member name -> tick of its last contact.
        self._seen: Dict[str, int] = {}
        self._tick = itertools.count().__next__
        self._digests: Dict[str, bytes] = {}
        #: name -> bucket index.  name -> index is immutable (both ids
        #: are digests of fixed names), so the two 256-bit
        #: ``int.from_bytes`` conversions, the XOR and the
        #: ``bit_length`` run once per name.  Never invalidated, same
        #: as ``_digests``.
        self._indices: Dict[str, int] = {}

    def _digest(self, name: str) -> bytes:
        digest = self._digests.get(name)
        if digest is None:
            digest = node_id_digest(name)
            self._digests[name] = digest
        return digest

    def _index(self, name: str) -> int:
        index = self._indices.get(name)
        if index is None:
            index = bucket_index(self.own_id, self._digest(name))
            self._indices[name] = index
        return index

    def observe(self, name: str) -> bool:
        """Record contact with ``name``; returns False if the bucket is
        full and the peer was not admitted (classic Kademlia keeps the
        old, long-lived entry — a Sybil defence)."""
        seen = self._seen
        if name in seen:
            seen[name] = self._tick()  # refresh to most-recently-seen
            return True
        if name == self.own_name:
            return False
        return self._admit(self._index(name), name)

    def _admit(self, index: int, name: str) -> bool:
        """Add a non-member to bucket ``index`` if it has room."""
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = set()
        if len(bucket) < self.bucket_size:
            bucket.add(name)
            self._seen[name] = self._tick()
            return True
        return False

    def remove(self, name: str) -> None:
        if self._seen.pop(name, None) is not None:
            self._buckets[self._index(name)].remove(name)

    def __contains__(self, name: str) -> bool:
        return name in self._seen

    def __len__(self) -> int:
        return len(self._seen)

    def all_peers(self) -> List[str]:
        """Every member: buckets in creation order, each stalest first."""
        by_tick = self._seen.__getitem__
        peers: List[str] = []
        for bucket in self._buckets.values():
            peers.extend(sorted(bucket, key=by_tick))
        return peers

    def closest(self, target: bytes, count: int = BUCKET_SIZE) -> List[str]:
        """The ``count`` known peers closest to ``target`` (FindNode)."""
        return sorted(
            self.all_peers(),
            key=lambda name: xor_distance(self._digest(name), target),
        )[:count]

    def random_peers(self, count: int, rng: random.Random) -> List[str]:
        """A uniform sample for dialing (discovery walks approximate this)."""
        peers = self.all_peers()
        if len(peers) <= count:
            return peers
        return rng.sample(peers, count)

    def bucket_fill(self) -> Dict[int, int]:
        """bucket index -> occupancy (topology diagnostics in tests)."""
        return {index: len(bucket) for index, bucket in self._buckets.items() if bucket}

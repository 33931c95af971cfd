"""Kademlia routing: XOR metric laws, buckets, lookups."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.kademlia import (
    BUCKET_SIZE,
    RoutingTable,
    bucket_index,
    node_id_digest,
    xor_distance,
)

ids = st.binary(min_size=32, max_size=32)


class TestXorMetric:
    @given(ids)
    def test_identity(self, a):
        assert xor_distance(a, a) == 0

    @given(ids, ids)
    def test_symmetry(self, a, b):
        assert xor_distance(a, b) == xor_distance(b, a)

    @given(ids, ids, ids)
    def test_triangle_inequality(self, a, b, c):
        assert xor_distance(a, c) <= xor_distance(a, b) + xor_distance(b, c)

    @given(ids, ids)
    def test_unidirectional(self, a, b):
        """Kademlia's key lemma: for any a and distance d there is exactly
        one b with d(a,b)=d — xor is a bijection."""
        d = xor_distance(a, b)
        recovered = (int.from_bytes(a, "big") ^ d).to_bytes(32, "big")
        assert recovered == b


class TestBucketIndex:
    def test_self_has_no_bucket(self):
        digest = node_id_digest("n")
        with pytest.raises(ValueError):
            bucket_index(digest, digest)

    def test_bucket_is_log2_distance(self):
        a = (0).to_bytes(32, "big")
        b = (1).to_bytes(32, "big")
        assert bucket_index(a, b) == 0
        c = (2**255).to_bytes(32, "big")
        assert bucket_index(a, c) == 255


class TestRoutingTable:
    def test_observe_and_contains(self):
        table = RoutingTable("me")
        assert table.observe("peer1")
        assert "peer1" in table
        assert len(table) == 1

    def test_never_buckets_itself(self):
        table = RoutingTable("me")
        assert not table.observe("me")
        assert "me" not in table

    def test_bucket_capacity_enforced(self):
        table = RoutingTable("me", bucket_size=2)
        admitted = 0
        # Flood with peers; each bucket holds at most 2.
        for index in range(200):
            if table.observe(f"peer{index}"):
                admitted += 1
        for bucket_length in table.bucket_fill().values():
            assert bucket_length <= 2

    def test_reobserving_refreshes_not_duplicates(self):
        table = RoutingTable("me")
        table.observe("peer")
        table.observe("peer")
        assert len(table) == 1

    def test_remove(self):
        table = RoutingTable("me")
        table.observe("peer")
        table.remove("peer")
        assert "peer" not in table

    def test_closest_orders_by_distance(self):
        table = RoutingTable("me")
        peers = [f"peer{i}" for i in range(50)]
        for peer in peers:
            table.observe(peer)
        target = node_id_digest("target")
        closest = table.closest(target, count=10)
        assert len(closest) == 10
        distances = [
            xor_distance(node_id_digest(name), target) for name in closest
        ]
        assert distances == sorted(distances)
        # And they really are the globally closest of the known peers.
        best_known = min(
            table.all_peers(),
            key=lambda name: xor_distance(node_id_digest(name), target),
        )
        assert closest[0] == best_known

    def test_random_peers_bounded_sample(self):
        table = RoutingTable("me")
        for index in range(30):
            table.observe(f"peer{index}")
        rng = random.Random(1)
        sample = table.random_peers(10, rng)
        assert len(sample) == 10
        assert len(set(sample)) == 10

    def test_random_peers_small_table_returns_all(self):
        table = RoutingTable("me")
        table.observe("only")
        assert table.random_peers(10, random.Random(1)) == ["only"]

    def test_fork_blindness(self):
        """The paper's point (Section 2.2): discovery has no notion of
        chain rules — a routing table happily holds peers from both sides
        of a partition.  Nothing in the table's API can distinguish them.
        """
        table = RoutingTable("etc-node")
        for index in range(10):
            table.observe(f"eth-node{index}")
            table.observe(f"etc-node{index}")
        assert len(table) == 20


class ListRoutingTable:
    """The list-based table the stamp representation replaced, kept as
    the differential oracle: each bucket is a list in least-recently-seen
    order, and a refresh moves the peer to the end."""

    def __init__(self, own_name, bucket_size=BUCKET_SIZE):
        self.own_name = own_name
        self.own_id = node_id_digest(own_name)
        self.bucket_size = bucket_size
        self._buckets = {}

    def observe(self, name):
        if name == self.own_name:
            return False
        index = bucket_index(self.own_id, node_id_digest(name))
        bucket = self._buckets.setdefault(index, [])
        if name in bucket:
            bucket.remove(name)
            bucket.append(name)
            return True
        if len(bucket) < self.bucket_size:
            bucket.append(name)
            return True
        return False

    def remove(self, name):
        for bucket in self._buckets.values():
            if name in bucket:
                bucket.remove(name)
                return

    def __contains__(self, name):
        return any(name in bucket for bucket in self._buckets.values())

    def __len__(self):
        return sum(len(bucket) for bucket in self._buckets.values())

    def all_peers(self):
        peers = []
        for bucket in self._buckets.values():
            peers.extend(bucket)
        return peers

    def closest(self, target, count=BUCKET_SIZE):
        return sorted(
            self.all_peers(),
            key=lambda name: xor_distance(node_id_digest(name), target),
        )[:count]

    def random_peers(self, count, rng):
        peers = self.all_peers()
        if len(peers) <= count:
            return peers
        return rng.sample(peers, count)

    def bucket_fill(self):
        return {i: len(b) for i, b in self._buckets.items() if b}


class TestStampRepresentation:
    """The recency-stamp table against the list-based oracle."""

    def assert_same_view(self, table, oracle, rng_seed, names):
        assert table.all_peers() == oracle.all_peers()
        assert len(table) == len(oracle)
        assert table.bucket_fill() == oracle.bucket_fill()
        for name in names:
            assert (name in table) == (name in oracle)
        for count in (1, 3, 40):
            assert table.random_peers(count, random.Random(rng_seed)) == (
                oracle.random_peers(count, random.Random(rng_seed))
            )
        target = node_id_digest(f"target-{rng_seed}")
        assert table.closest(target) == oracle.closest(target)
        assert table.closest(target, count=3) == oracle.closest(target, 3)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("observe_name", ["observe", "observe_reference"])
    def test_random_sequences_match_list_oracle(self, seed, observe_name):
        rng = random.Random(seed)
        bucket_size = rng.choice((1, 2, 3, BUCKET_SIZE))
        table = RoutingTable("me", bucket_size=bucket_size)
        oracle = ListRoutingTable("me", bucket_size=bucket_size)
        observe = getattr(table, observe_name)
        names = ["me"] + [f"peer{i}" for i in range(40)]
        last = None
        for step in range(400):
            roll = rng.random()
            if roll < 0.15 and last is not None:
                name = last  # re-observe the most recent entry
            elif roll < 0.2:
                name = "me"  # self-observe
            else:
                name = rng.choice(names)
            if rng.random() < 0.2:
                table.remove(name)
                oracle.remove(name)
                if rng.random() < 0.5:
                    # Remove then re-add: the peer re-enters as the
                    # most recently seen member of its bucket.
                    assert observe(name) == oracle.observe(name)
            else:
                assert observe(name) == oracle.observe(name)
            last = name
            if step % 25 == 0:
                self.assert_same_view(table, oracle, step, names)
        self.assert_same_view(table, oracle, seed, names)
        # Small buckets really filled up and turned peers away.
        if bucket_size < BUCKET_SIZE:
            assert max(oracle.bucket_fill().values()) == bucket_size

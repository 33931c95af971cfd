#!/usr/bin/env python3
"""The replay ("echo") attack, from mechanism to measurement — Figure 4.

Part 1 demonstrates the mechanism with real transactions: why a legacy
transaction replays, why an EIP-155 transaction does not, and why
splitting funds closes the hole.

Part 2 runs the nine-month replay workload against simulated chain
volumes and prints Figure 4's two panels (echoes/day and the percentage
of transactions they represent).

Run: ``python examples/replay_attack_demo.py``
"""

from repro.chain import (
    ETC_CONFIG,
    ETH_CONFIG,
    PrivateKey,
    StateDB,
    Transaction,
    apply_transaction,
    ether,
    sign_transaction,
)
from repro.chain.processor import TransactionRejected
from repro.core import EchoDetector, figure_4
from repro.core.metrics import trace_transactions_per_day
from repro.evm.vm import BlockEnvironment
from repro.scenarios import ReplayWorkload, ReplayWorkloadConfig
from repro.sim import ForkSimConfig, ForkSimulation


def part_one_mechanism() -> None:
    print("=" * 72)
    print("PART 1 — the mechanism")
    print("=" * 72)
    alice = PrivateKey.from_seed("replay:alice")
    bob = PrivateKey.from_seed("replay:bob")

    # Two chains, one shared pre-fork history: identical balances.
    eth_state, etc_state = StateDB(), StateDB()
    for side in (eth_state, etc_state):
        side.credit(alice.address, ether(10))

    env = BlockEnvironment(block_number=3_100_000, chain_name="demo")

    legacy = sign_transaction(
        alice,
        Transaction(nonce=0, gas_price=10**9, gas_limit=21_000,
                    to=bob.address, value=ether(4)),
    )
    print("\n1. Alice pays Bob 4 ether on ETH with a LEGACY transaction")
    apply_transaction(eth_state, legacy, ETH_CONFIG, env)
    print("   Bob rebroadcasts the same signed bytes on ETC...")
    receipt = apply_transaction(etc_state, legacy, ETC_CONFIG, env)
    print(f"   -> executed on ETC too ({receipt.status}); Bob collected twice")

    protected = sign_transaction(
        alice,
        Transaction(nonce=1, gas_price=10**9, gas_limit=21_000,
                    to=bob.address, value=ether(1), chain_id=1),
    )
    print("\n2. Alice pays again, now with an EIP-155 (chain id 1) transaction")
    apply_transaction(eth_state, protected, ETH_CONFIG, env)
    try:
        apply_transaction(etc_state, protected, ETC_CONFIG, env)
        print("   -> UNEXPECTEDLY replayed")
    except TransactionRejected as rejected:
        print(f"   -> ETC rejects the replay: {rejected.reason}")

    # Splitting funds: nonce divergence closes the hole for legacy txs too.
    print("\n3. Alice splits her funds: she moves her ETC balance to a fresh")
    print("   ETC-only address, desynchronizing her accounts")
    splitter = sign_transaction(
        alice,
        Transaction(nonce=1, gas_price=10**9, gas_limit=21_000,
                    to=PrivateKey.from_seed("replay:etc-only").address,
                    value=ether(5)),
    )
    apply_transaction(etc_state, splitter, ETC_CONFIG, env)
    stale = sign_transaction(
        alice,
        Transaction(nonce=2, gas_price=10**9, gas_limit=21_000,
                    to=bob.address, value=ether(4)),
    )
    apply_transaction(eth_state, stale, ETH_CONFIG, env)
    try:
        apply_transaction(etc_state, stale, ETC_CONFIG, env)
        print("   -> UNEXPECTEDLY replayed")
    except TransactionRejected as rejected:
        print(f"   -> later ETH transaction no longer replays on ETC: "
              f"{rejected.reason}")


def part_two_measurement() -> None:
    print()
    print("=" * 72)
    print("PART 2 — nine months of echoes (Figure 4)")
    print("=" * 72)
    print("simulating both chains and the replay workload (270 days)...")
    result = ForkSimulation(ForkSimConfig(days=270, prefork_days=7)).run()
    eth_daily = trace_transactions_per_day(
        result.eth_trace, result.fork_timestamp
    )
    etc_daily = trace_transactions_per_day(
        result.etc_trace, result.fork_timestamp
    )
    workload = ReplayWorkload(ReplayWorkloadConfig(days=270))
    sightings, truth = workload.generate(eth_daily.values, etc_daily.values)

    detector = EchoDetector()
    detector.observe_records(sightings)
    print(f"sightings processed: {len(sightings)}; echoes found: "
          f"{len(detector.echoes)} (injected: {truth.total()})")

    figure = figure_4(result, detector)
    print()
    print(figure.render(sample_days=14))

    directions = detector.direction_totals()
    print(f"\ndirection totals: {dict(directions)}")
    print("-> most rebroadcasts originate on ETH and echo into ETC, "
          "matching the paper")


if __name__ == "__main__":
    part_one_mechanism()
    part_two_measurement()

#!/usr/bin/env python3
"""Quickstart: build a chain, fork it, replay a transaction, analyze it.

A compressed tour of the library in five steps:

1. create a funded genesis and grow a small chain with real
   consensus-validated blocks;
2. split it into a pro-fork chain (applies a DAO-style irregular state
   change) and an anti-fork chain;
3. replay a legacy transaction across the split — the paper's "echo";
4. detect the echo from exported chain data alone;
5. print the fork point, balances, and detection result.

Run: ``python examples/quickstart.py``
"""

from dataclasses import replace

from repro.chain import (
    ETC_CONFIG,
    ETH_CONFIG,
    Blockchain,
    PrivateKey,
    Transaction,
    build_genesis,
    ether,
    from_wei,
    sign_transaction,
)
from repro.core import EchoDetector, find_fork_point
from repro.data import Sightings, export_transactions
from repro.scenarios import ChainWriter

FORK_HEIGHT = 5


def main() -> None:
    # -- 1. a funded chain ------------------------------------------------
    alice = PrivateKey.from_seed("quickstart:alice")
    bob = PrivateKey.from_seed("quickstart:bob")
    attacker = PrivateKey.from_seed("quickstart:attacker")
    miner = PrivateKey.from_seed("quickstart:miner")

    genesis, state = build_genesis(
        {alice.address: ether(100), attacker.address: ether(40)}
    )
    eth_config = replace(
        ETH_CONFIG, dao_fork_block=FORK_HEIGHT, bomb_delay=10**9,
        gas_reprice_block=None, replay_protection_block=None,
    )
    chain = Blockchain(eth_config, genesis, state.fork())
    writer = ChainWriter(chain, miner.address)
    print(f"genesis: {genesis.block_hash.hex()[:16]}…")

    # Grow the shared history to just below the fork height.
    while chain.height < FORK_HEIGHT - 1:
        writer.extend(())
    print(f"shared prefix grown to height {chain.height}")

    # -- 2. the split -----------------------------------------------------
    # The pro-fork side will confiscate the "attacker" balance at the
    # fork block; the anti-fork side refuses ("code is law").
    refund = PrivateKey.from_seed("quickstart:refund").address
    chain.irregular_transfers = [(attacker.address, refund)]

    etc_config = replace(
        ETC_CONFIG, dao_fork_block=FORK_HEIGHT, bomb_delay=10**9,
        gas_reprice_block=None, replay_protection_block=None,
    )
    etc_chain = Blockchain(etc_config, genesis, state.fork())
    for block in chain.canonical_blocks(1):
        assert etc_chain.import_block(block).accepted
    etc_writer = ChainWriter(etc_chain, miner.address)

    writer.extend(())      # ETH fork block: applies the state change
    etc_writer.extend(())  # ETC fork block: plain

    eth_fork_block = chain.block_by_number(FORK_HEIGHT)
    etc_fork_block = etc_chain.block_by_number(FORK_HEIGHT)
    print(
        f"fork block {FORK_HEIGHT}: "
        f"ETH {eth_fork_block.block_hash.hex()[:12]}… vs "
        f"ETC {etc_fork_block.block_hash.hex()[:12]}…"
    )
    assert not etc_chain.import_block(eth_fork_block).accepted
    print("each side rejects the other's fork block -> permanent partition")

    # -- 3. the replay ------------------------------------------------------
    # Alice never split her funds; her payment to Bob is signed without a
    # chain id, so Bob can rebroadcast it on the other chain and collect
    # twice.
    payment = sign_transaction(
        alice,
        Transaction(nonce=0, gas_price=10**9, gas_limit=21_000,
                    to=bob.address, value=ether(10)),
    )
    writer.extend((payment,))
    # The echo lands on ETC a little later — Bob had to notice first.
    etc_writer.extend((payment,), timestamp=etc_chain.head.timestamp + 300)
    print(f"\npayment {payment.tx_hash.hex()[:12]}… executed on BOTH chains")

    # -- 4. detect it from exported data only --------------------------------
    records = list(export_transactions(chain)) + list(
        export_transactions(etc_chain)
    )
    records.sort(key=lambda record: (record.timestamp, record.chain))
    detector = EchoDetector()
    detector.observe_records(Sightings.from_records(records))
    assert len(detector.echoes) == 1
    echo = detector.echoes[0]

    # -- 5. report --------------------------------------------------------------
    print("\n=== analysis ===")
    print(f"fork point (from data): block {find_fork_point(chain, etc_chain)}")
    print(
        f"echo detected: {echo.tx_hash.hex()[:12]}… "
        f"{echo.origin_chain} -> {echo.echo_chain}"
    )
    for name, side in (("ETH", chain), ("ETC", etc_chain)):
        bob_balance = from_wei(side.head_state().balance_of(bob.address))
        attacker_balance = from_wei(
            side.head_state().balance_of(attacker.address)
        )
        print(
            f"{name}: bob={bob_balance:.0f} ether "
            f"(paid twice!), attacker={attacker_balance:.0f} ether"
        )
    print("\nOn ETH the attacker's balance was moved at the fork block; "
          "on ETC it remains.")


if __name__ == "__main__":
    main()

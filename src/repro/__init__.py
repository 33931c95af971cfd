"""repro — a full reproduction of Kiffer, Levin & Mislove,
"Stick a fork in it: Analyzing the Ethereum network partition" (HotNets 2017).

The package is layered bottom-up:

* :mod:`repro.chain` — Ethereum-style consensus substrate (RLP, blocks,
  transactions, Homestead difficulty, fork configs, chain store).
* :mod:`repro.evm` — a gas-metered EVM running the DAO-style contracts.
* :mod:`repro.net` — message-level P2P simulator (Kademlia discovery,
  gossip, mempools, full nodes) for the hours around the fork.
* :mod:`repro.sim` — the fast per-block simulator for month-scale runs,
  with the pool landscapes that decide who wins each block.
* :mod:`repro.market` — exchange rates and the miner-arbitrage coupling.
* :mod:`repro.scenarios` — calibrated reconstructions of the DAO fork and
  the surrounding nine months.
* :mod:`repro.data` — export/query layer decoupling analysis from nodes.
* :mod:`repro.core` — the paper's contribution: the fork-analysis toolkit
  (partition detection, echo/replay detection, pool concentration, mining
  economics) and generators for every figure.
* :mod:`repro.baselines` — comparator algorithms for ablations.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

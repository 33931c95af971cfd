"""Performance kernels and their regression gate.

The fast paths live where the hot loops are — the batched block
kernel in :meth:`repro.sim.blockprod.BlockProducer.advance_batch` (one
Homestead loop; every other configuration mines through
``advance_one``), the tightened event loop in
:meth:`repro.net.simulator.Simulator.run_until`,
and the plain-transport fast path plus delivery-wave kernels in
:class:`repro.net.network.Network`.  This package holds what keeps them
honest:

:mod:`repro.perf.reference`
    The seed-state implementations, kept verbatim, as standalone
    classes and subclasses a run opts into by constructing them
    (:class:`ReferenceForkSimulation`, :class:`ReferencePartitionScenario`
    and their parts, the record-backed analysis database
    :class:`ReferenceChainDatabase`, and the record-building replay
    generator :class:`ReferenceReplayWorkload`).  Every benchmark times
    fast-vs-reference on the *same* workload and every differential
    test asserts the two arms produce bit-identical trajectories.

:mod:`repro.perf.bench`
    The benchmark harness behind ``python -m repro bench``: canonical
    ``BENCH_<name>.json`` regression reports with wall times, throughput,
    result digests, and a hard failure when the arms' digests diverge.

:mod:`repro.perf.soa`
    Struct-of-arrays accounting structs used by the hot paths (per-node
    telemetry counters in slot storage instead of per-node dicts).

Re-exports resolve lazily (PEP 562): the hot-path modules (``net``,
``sim``) import :mod:`repro.perf.soa` at class-definition time, and an
eager ``from .bench import ...`` here would close an import cycle back
through the scenario layer.
"""

from typing import TYPE_CHECKING

__all__ = [
    "BENCH_SCHEMA",
    "NodeStats",
    "ReferenceBlockProducer",
    "ReferenceChainDatabase",
    "ReferenceForkSimulation",
    "ReferenceNetwork",
    "ReferenceNode",
    "ReferencePartitionScenario",
    "ReferenceReplayWorkload",
    "ReferenceRoutingTable",
    "ReferenceSimulator",
    "add_bench_arguments",
    "bench_from_args",
    "main",
    "reference_database",
    "reference_sampler",
    "run_bench",
    "validate_report",
]

#: attribute name -> submodule that defines it.
_EXPORTS = {
    "BENCH_SCHEMA": "bench",
    "add_bench_arguments": "bench",
    "bench_from_args": "bench",
    "main": "bench",
    "run_bench": "bench",
    "validate_report": "bench",
    "NodeStats": "soa",
    "ReferenceBlockProducer": "reference",
    "ReferenceChainDatabase": "reference",
    "ReferenceForkSimulation": "reference",
    "ReferenceNetwork": "reference",
    "ReferenceNode": "reference",
    "ReferencePartitionScenario": "reference",
    "ReferenceReplayWorkload": "reference",
    "ReferenceRoutingTable": "reference",
    "ReferenceSimulator": "reference",
    "reference_database": "reference",
    "reference_sampler": "reference",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover - static-analysis imports only
    from .bench import (  # noqa: F401
        BENCH_SCHEMA,
        add_bench_arguments,
        bench_from_args,
        main,
        run_bench,
        validate_report,
    )
    from .reference import (  # noqa: F401
        ReferenceBlockProducer,
        ReferenceChainDatabase,
        ReferenceForkSimulation,
        ReferenceNetwork,
        ReferenceNode,
        ReferencePartitionScenario,
        ReferenceReplayWorkload,
        ReferenceRoutingTable,
        ReferenceSimulator,
        reference_database,
        reference_sampler,
    )
    from .soa import NodeStats  # noqa: F401

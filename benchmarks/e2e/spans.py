"""The timing shim for traced runs, and the arithmetic over its spans.

A traced child wraps the public ``repro`` functions in :data:`LAYER_SPANS`
from the outside; nothing under ``src/`` knows it is being timed.  Each
call becomes a span ``[name, parent, start, end]`` held in memory, where
``parent`` indexes the enclosing span (``None`` at the top).  The first
dotted parts of a span name are its layer (``sim``, ``analysis``,
``echoes``, ``harness.cache``, ``harness.pool``, ``harness.runall``,
``net``).

This module imports nothing from ``repro`` at load time: ``run.py``
uses :func:`summarize` without ever loading the program under test.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

#: ``(span name, module, attribute path)``.  A name listed twice (the
#: cache's two flavours) sums both implementations into one span.
LAYER_SPANS = (
    ("sim.ForkSimulation.run", "repro.sim.engine", "ForkSimulation.run"),
    ("sim.ForkSimCheckpoint.to_dict", "repro.sim.checkpoint",
     "ForkSimCheckpoint.to_dict"),
    ("sim.ForkSimCheckpoint.from_dict", "repro.sim.checkpoint",
     "ForkSimCheckpoint.from_dict"),
    *((f"analysis.figure_{n}", "repro.core.report", f"figure_{n}")
      for n in range(1, 6)),
    ("analysis.evaluate_all", "repro.core.observations", "evaluate_all"),
    ("analysis.trace_transactions_per_day", "repro.core.metrics",
     "trace_transactions_per_day"),
    ("echoes.ReplayWorkload.generate", "repro.scenarios.replay_attack",
     "ReplayWorkload.generate"),
    ("echoes.EchoDetector.observe_records", "repro.core.echoes",
     "EchoDetector.observe_records"),
    ("harness.cache.lookup", "repro.harness.cache", "ResultCache.lookup"),
    ("harness.cache.lookup", "repro.harness.cache", "NullCache.lookup"),
    ("harness.cache.store", "repro.harness.cache", "ResultCache.store"),
    ("harness.cache.store", "repro.harness.cache", "NullCache.store"),
    ("harness.pool.run", "repro.harness.pool", "WorkerPool.run"),
    ("harness.runall.run_all", "repro.harness.runall", "run_all"),
    ("net.PartitionScenario.run", "repro.scenarios.partition_event",
     "PartitionScenario.run"),
    ("net.Simulator.run_until", "repro.net.simulator", "Simulator.run_until"),
)

#: Distinct span names, in table order.
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYER_SPANS))

Observer = Callable[[tuple, Any], None]


class SpanRecorder:
    """Collects spans from the wrappers it hands out (one thread only)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, observe: Optional[Observer] = None):
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else None, clock(), None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self, observers: Mapping[str, Observer]) -> None:
        """Wrap every entry of :data:`LAYER_SPANS`.

        Methods are replaced on their class.  A module-level function is
        replaced under every name any loaded ``repro`` module binds it
        to, because callers import it with ``from ... import``.
        ``observers`` maps an attribute path to a callback that sees the
        call's positional arguments and its result.
        """
        for name, module_name, path in LAYER_SPANS:
            owner: Any = importlib.import_module(module_name)
            *classes, attribute = path.split(".")
            for part in classes:
                owner = getattr(owner, part)
            observe = observers.get(path)
            if classes:
                raw = owner.__dict__[attribute]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, observe))
                else:
                    wrapped = self.wrap(name, raw, observe)
                setattr(owner, attribute, wrapped)
                continue
            original = getattr(owner, attribute)
            wrapped = self.wrap(name, original, observe)
            for module_key, module in list(sys.modules.items()):
                if module is None or not (
                    module_key == "repro" or module_key.startswith("repro.")
                ):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def summarize(spans: Sequence[Sequence[Any]], work_s: float) -> Dict[str, Any]:
    """Per-name ``calls``/``total_s``/``self_s`` plus the run's coverage.

    Self time is a span's duration minus the durations of its direct
    children.  Coverage is the share of ``work_s`` (entry point called
    to entry point returned) that top-level spans account for.
    """
    child_time = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    table = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES
    }
    covered = 0.0
    for index, (name, parent, start, end) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[index]
        if parent is None:
            covered += end - start
    return {"spans": table, "coverage": covered / work_s}

"""repro.obs — deterministic observability for the simulator stack.

Three instruments, one handle:

* :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms.
  One registry per run, no globals, no wall clock: same seed ⇒
  byte-identical ``dumps()``/``digest()``.
* :class:`Tracer` — typed trace events on the virtual clock, with an
  always-cheap ring buffer and an optional JSONL sink for full export;
  ``digest()`` fingerprints the whole stream.
* :class:`SpanProfile` — scoped wall-time timers
  (``with obs.span("net.deliver"):``) for ranking hot paths; explicitly
  non-deterministic and kept out of the other two dumps.

:class:`Observability` bundles them so every instrumented layer takes a
single optional ``obs`` argument.  ``obs=None`` (the default everywhere)
is the *disabled* path: components cache ``None`` tracer/metrics
references and hot loops pay one attribute test — the overhead budget
(<5% on the fig1 workload, enforced by ``benchmarks/test_obs_overhead.py``)
depends on nothing heavier happening when observability is off.

The tracer is the only per-event hook in the event loop.  Integer
counters are published from tallies the engine keeps anyway: the
simulator adds its ``sim.events.*`` deltas when a run returns, and the
network flushes ``net.messages.*`` once per delivery wave.  A
metrics-only run therefore drives the same loop and heap pushes as an
unobserved one, plus one histogram observation per send.
"""

from __future__ import annotations

from typing import IO, Optional

from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .spans import SpanProfile, SpanTimer
from .tracer import DEFAULT_RING_CAPACITY, TRACE_EVENT_KINDS, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_RING_CAPACITY",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "SpanProfile",
    "SpanTimer",
    "TRACE_EVENT_KINDS",
    "Tracer",
]


class _NullSpan:
    """Zero-cost context manager for the profile-less path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Observability:
    """The bundle an instrumented run threads through its layers.

    Any instrument may be ``None``; components must guard each one
    independently (a metrics-only run carries no tracer, a trace export
    may skip metrics).  Construct via :meth:`enabled` for the everything-
    on configuration.
    """

    __slots__ = ("metrics", "tracer", "profile")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        profile: Optional[SpanProfile] = None,
    ) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.profile = profile

    @classmethod
    def enabled(
        cls,
        capacity: Optional[int] = DEFAULT_RING_CAPACITY,
        sink: Optional[IO[str]] = None,
    ) -> "Observability":
        """Metrics + tracer (ring of ``capacity``, optional JSONL sink)
        + span profile, all live."""
        return cls(
            metrics=MetricsRegistry(),
            tracer=Tracer(capacity=capacity, sink=sink),
            profile=SpanProfile(),
        )

    def span(self, label: str):
        """A scoped wall-time timer, or a free no-op without a profile."""
        if self.profile is None:
            return _NULL_SPAN
        return self.profile.span(label)

"""Deterministic metrics: counters, gauges, and fixed-bucket histograms.

One :class:`MetricsRegistry` per simulation run — created by whoever owns
the run (a ``Simulator``/``ForkSim`` caller, a harness job) and threaded
through explicitly.  There is deliberately **no** module-level registry:
global metric state is how two "independent" runs end up sharing
counters, which would break the property everything downstream leans on:

    same seed + same config  ⇒  byte-identical ``dumps()`` and ``digest()``

so nothing here may read the wall clock or any other ambient state.
(Wall-clock profiling lives in :mod:`repro.obs.spans`, outside the
deterministic dump.)  Values are plain Python ints/floats produced by
the simulation's own deterministic arithmetic; the canonical-JSON dump
therefore reproduces bit-for-bit in-process and across worker processes.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left as _bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS"]

#: Default histogram upper bounds: log-spaced seconds, good for latency
#: and inter-event delays (the +inf overflow bucket is implicit).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0, 300.0, 1800.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A value that can move both ways (queue depth, peer count)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Fixed upper-bound buckets plus sum/count (Prometheus-style).

    Buckets are frozen at construction so two runs of the same code
    always dump the same shape; the overflow (+inf) bucket is the last
    counts slot.
    """

    __slots__ = ("name", "buckets", "counts", "total", "count")

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be sorted ascending")
        self.name = name
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Count ``value`` in the first bucket whose bound is >= it.

        NaN is refused here: it fits no bucket and ``dumps()`` would
        refuse the sum it poisons.
        """
        if value != value:
            raise ValueError(f"histogram {self.name!r} cannot observe NaN")
        self.total += value
        self.count += 1
        self.counts[_bisect_left(self.buckets, value)] += 1

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """The per-run metric namespace.

    ``counter``/``gauge``/``histogram`` get-or-create by name; asking
    for an existing name with a different type is an error (a silent
    shadow would corrupt the dump).  ``dump()``/``dumps()``/``digest()``
    are canonical: sorted names, compact JSON, NaN rejected — the digest
    is the run's metric fingerprint.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create -----------------------------------------------------

    def _check_free(self, name: str, kind: Dict[str, object]) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not kind and name in family:
                raise ValueError(
                    f"metric {name!r} already registered with another type"
                )

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_free(name, self._counters)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_free(name, self._gauges)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_free(name, self._histograms)
            metric = self._histograms[name] = Histogram(name, buckets)
        elif tuple(float(b) for b in buckets) != metric.buckets:
            raise ValueError(
                f"histogram {name!r} re-registered with different buckets"
            )
        return metric

    def is_empty(self) -> bool:
        return not (self._counters or self._gauges or self._histograms)

    # -- canonical export --------------------------------------------------

    def dump(self) -> Dict[str, Dict[str, object]]:
        """A plain-dict snapshot with deterministic (sorted) ordering."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: {
                    "buckets": list(metric.buckets),
                    "counts": list(metric.counts),
                    "sum": metric.total,
                    "count": metric.count,
                }
                for name, metric in sorted(self._histograms.items())
            },
        }

    def dumps(self) -> str:
        """Canonical JSON: the byte-identical metric dump."""
        return json.dumps(
            self.dump(), sort_keys=True, separators=(",", ":"),
            allow_nan=False,
        )

    def digest(self) -> str:
        """SHA-256 of :meth:`dumps` — the run's metric fingerprint."""
        return hashlib.sha256(self.dumps().encode("utf-8")).hexdigest()

    def summary(self) -> Optional[Dict[str, object]]:
        """Compact manifest embedding: counters + digest (None if empty)."""
        if self.is_empty():
            return None
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "digest": self.digest(),
        }

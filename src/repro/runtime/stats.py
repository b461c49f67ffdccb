"""Serving metrics: per-request counters and latency aggregation.

:class:`ServingStats` is the metrics sink shared by the runtime layer — the
:class:`~repro.runtime.server.KernelServer` records every request's
resolution source (kernel table, plan cache tier, or on-demand compile) and
its wall-clock resolution latency.  Snapshots are plain dictionaries so they
can be logged, asserted on in tests, or exported to any metrics backend.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Mapping

from repro.analysis.locks import make_lock
from repro.obs.metrics import Histogram


def latency_snapshot(histogram: Histogram) -> Dict[str, object]:
    """The pinned microsecond view of one latency :class:`Histogram`.

    >>> histogram = Histogram()
    >>> histogram.observe(42.0)
    >>> latency_snapshot(histogram)["p50_us"]
    42.0
    """
    count = histogram.count
    return {
        "count": count,
        "mean_us": histogram.total / count if count else 0.0,
        "min_us": histogram.min if count else 0.0,
        "max_us": histogram.max,
        "p50_us": histogram.quantile(50),
        "p95_us": histogram.quantile(95),
        "buckets": {
            str(index): histogram.buckets[index]
            for index in sorted(histogram.buckets)
        },
    }


def _latency_from_snapshot(payload: Mapping[str, object]) -> Histogram:
    """Inverse of :func:`latency_snapshot`.

    Tolerates payloads written before the histogram fields existed (their
    percentiles degrade to the min/max clamp of an empty bucket set).
    """
    count = int(payload["count"])
    return Histogram().load(
        count=count,
        total=float(payload["mean_us"]) * count,
        min_value=float(payload["min_us"]),
        max_value=float(payload["max_us"]),
        buckets=dict(payload.get("buckets") or {}),
    )


class ServingStats:
    """Thread-safe request metrics for the kernel-serving frontend.

    Tracks total requests, per-source and per-workload counts, and a
    latency :class:`~repro.obs.metrics.Histogram` (microseconds) per
    resolution source.  The histograms' fixed log buckets make
    :meth:`merge` exact: merged p50/p95 equal the percentiles of the union.  A request is a *hit*
    when it was satisfied without running a fusion search (table or cache
    sources); every compile source — the on-demand exact ``"compiled"``
    search and its warm-started ``"compiled:transfer"`` variant — is a
    miss.

    Example
    -------
    >>> stats = ServingStats()
    >>> stats.record_request("G4", "compiled", 1500.0)
    >>> stats.record_request("G4", "compiled:transfer", 200.0)
    >>> stats.record_request("G4", "table", 40.0)
    >>> stats.hits, stats.misses, stats.hit_rate()
    (1, 2, 0.3333333333333333)
    >>> stats.to_dict()["by_source"]
    {'compiled': 1, 'compiled:transfer': 1, 'table': 1}
    """

    #: The resolution source recorded for on-demand exact compiles.
    COMPILED = "compiled"
    #: On-demand compiles resolved by a warm-started transfer search seeded
    #: from the nearest previously compiled shape (still a miss — a search
    #: ran — but a far cheaper one).
    TRANSFER = "compiled:transfer"

    @classmethod
    def is_compile_source(cls, source: str) -> bool:
        """Whether ``source`` denotes an on-demand compile (a miss).

        Compile-source variants share the ``"compiled"`` prefix with a
        ``:qualifier`` suffix, so aggregation layers can classify sources
        without enumerating every variant.

        >>> ServingStats.is_compile_source("compiled")
        True
        >>> ServingStats.is_compile_source("compiled:transfer")
        True
        >>> ServingStats.is_compile_source("table")
        False
        """
        return source == cls.COMPILED or source.startswith(cls.COMPILED + ":")

    def __init__(self) -> None:
        self._lock = make_lock("serving-stats")
        self.requests = 0
        self.by_source: Counter = Counter()
        self.by_workload: Counter = Counter()
        self.latency: Dict[str, Histogram] = {}
        self.overall_latency = Histogram()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_request(self, workload: str, source: str, latency_us: float) -> None:
        """Record one served request."""
        with self._lock:
            self.requests += 1
            self.by_source[source] += 1
            self.by_workload[workload] += 1
            self.latency.setdefault(source, Histogram()).observe(latency_us)
            self.overall_latency.observe(latency_us)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def misses(self) -> int:
        """Requests that fell through to an on-demand fusion search."""
        return sum(
            count
            for source, count in self.by_source.items()
            if self.is_compile_source(source)
        )

    @property
    def hits(self) -> int:
        """Requests satisfied without running the fusion search."""
        return self.requests - self.misses

    def hit_rate(self) -> float:
        """Fraction of requests served without a search (0.0 when idle)."""
        return self.hits / self.requests if self.requests else 0.0

    def merge(self, other: "ServingStats") -> "ServingStats":
        """Fold ``other``'s counters into this sink (returns self).

        This is how fleet-level aggregation works: each worker process keeps
        its own :class:`ServingStats` and the fleet merges the per-worker
        sinks into one view instead of doing ad-hoc dictionary math.  Counts
        add, per-source/per-workload counts union, and latency histograms
        combine exactly (count/total/min/max/buckets compose losslessly).  ``other``
        is read under its own lock, so merging a live sink is safe.

        Example
        -------
        >>> a, b = ServingStats(), ServingStats()
        >>> a.record_request("G4", "compiled", 900.0)
        >>> b.record_request("G4", "table", 30.0)
        >>> merged = a.merge(b)
        >>> merged.requests, merged.hit_rate()
        (2, 0.5)
        """
        if other is self:
            raise ValueError("cannot merge a ServingStats into itself")
        with other._lock:
            other_requests = other.requests
            other_by_source = Counter(other.by_source)
            other_by_workload = Counter(other.by_workload)
            other_latency = {
                source: Histogram().merge(histogram)
                for source, histogram in other.latency.items()
            }
            other_overall = Histogram().merge(other.overall_latency)
        with self._lock:
            self.requests += other_requests
            self.by_source.update(other_by_source)
            self.by_workload.update(other_by_workload)
            for source, histogram in other_latency.items():
                self.latency.setdefault(source, Histogram()).merge(histogram)
            self.overall_latency.merge(other_overall)
        return self

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ServingStats":
        """Rebuild a sink from its :meth:`to_dict` form.

        The round trip is exact — ``ServingStats.from_dict(s.to_dict())``
        serializes identically to ``s`` — which is what lets worker
        processes ship their stats across a process boundary as plain JSON
        and still :meth:`merge` them like live objects.

        Example
        -------
        >>> stats = ServingStats()
        >>> stats.record_request("G4", "table", 42.0)
        >>> ServingStats.from_dict(stats.to_dict()).to_dict() == stats.to_dict()
        True
        """
        stats = cls()
        stats.requests = int(payload["requests"])
        stats.by_source = Counter(
            {str(k): int(v) for k, v in dict(payload["by_source"]).items()}
        )
        stats.by_workload = Counter(
            {str(k): int(v) for k, v in dict(payload["by_workload"]).items()}
        )
        stats.latency = {
            str(source): _latency_from_snapshot(summary)
            for source, summary in dict(payload["latency_us"]).items()
        }
        stats.overall_latency = _latency_from_snapshot(payload["overall_latency_us"])
        return stats

    def to_dict(self) -> Dict[str, object]:
        """Every counter and latency aggregate, with a stable key order.

        Top-level keys appear in a fixed order and map-valued sections
        (``by_source``, ``by_workload``, ``latency_us``) are key-sorted, so
        two snapshots of equal state serialize to byte-identical JSON and
        CI artifacts diff cleanly across runs.

        Example
        -------
        >>> stats = ServingStats()
        >>> stats.record_request("G4", "table", 42.0)
        >>> payload = stats.to_dict()
        >>> payload["requests"], payload["hit_rate"]
        (1, 1.0)
        >>> list(payload["by_source"])
        ['table']
        """
        with self._lock:
            return {
                "requests": self.requests,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hit_rate(),
                "by_source": {
                    source: self.by_source[source]
                    for source in sorted(self.by_source)
                },
                "by_workload": {
                    workload: self.by_workload[workload]
                    for workload in sorted(self.by_workload)
                },
                "latency_us": {
                    source: latency_snapshot(self.latency[source])
                    for source in sorted(self.latency)
                },
                "overall_latency_us": latency_snapshot(self.overall_latency),
            }

    def snapshot(self) -> Dict[str, object]:
        """Alias for :meth:`to_dict` (the runtime layer's historical name)."""
        return self.to_dict()

    def reset(self) -> None:
        """Zero every counter."""
        with self._lock:
            self.requests = 0
            self.by_source.clear()
            self.by_workload.clear()
            self.latency.clear()
            self.overall_latency = Histogram()

"""Metrics primitives: percentiles, log-bucket histograms, and a registry.

Two design decisions make this module the stack's single source of truth
for latency math:

* **One percentile implementation.**  :func:`weighted_percentile` is the
  linear-interpolation estimator; :func:`percentile` (re-exported by
  :mod:`repro.bench.report`) is its unit-weight special case, and
  :func:`histogram_quantile` applies it to bucket counts.  The bench
  reports and the live histogram summaries therefore agree by
  construction.
* **Fixed log-spaced buckets.**  :func:`bucket_index` assigns every
  latency to one of :data:`BUCKETS_PER_DECADE` buckets per decade with
  process-independent boundaries, so histograms merge *exactly* — adding
  two workers' bucket counts yields the same histogram as observing their
  union, mirroring how ``ServingStats.merge`` composes count/total/min/max
  losslessly.

:class:`MetricsRegistry` aggregates :class:`Counter`/:class:`Gauge`/
:class:`Histogram` samples (optionally labelled), renders them in the
Prometheus text exposition format, and ingests the existing
``ServingStats``/``CacheStats``/``FleetStats`` snapshot payloads so one
scrape shows the whole fleet.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Log-spaced histogram resolution: bucket ``i`` spans up to
#: ``10 ** (i / BUCKETS_PER_DECADE)`` microseconds, giving five buckets per
#: decade (~58% upper/lower ratio) — coarse enough to stay sparse, fine
#: enough for p50/p95 estimates within one bucket width.
BUCKETS_PER_DECADE = 5


def bucket_index(value: float) -> int:
    """The fixed log-bucket index covering ``value``.

    Boundaries depend only on the constant :data:`BUCKETS_PER_DECADE`, so
    any two processes bucket identically and their histograms merge by
    adding counts.  Values at or below 1.0 (including 0) share bucket 0.

    Example
    -------
    >>> bucket_index(0.0), bucket_index(1.0), bucket_index(100.0)
    (0, 0, 10)
    >>> bucket_index(101.0)
    11
    """
    if value <= 1.0:
        return 0
    return max(0, math.ceil(math.log10(value) * BUCKETS_PER_DECADE))


def bucket_bound(index: int) -> float:
    """Upper bound (inclusive) of bucket ``index``.

    Example
    -------
    >>> bucket_bound(0), round(bucket_bound(10), 6)
    (1.0, 100.0)
    """
    return 10.0 ** (index / BUCKETS_PER_DECADE)


def weighted_percentile(
    values: Sequence[float], weights: Sequence[float], q: float
) -> float:
    """The ``q``-th percentile of a weighted sample (linear interpolation).

    Each ``values[i]`` counts ``weights[i]`` times; with unit weights this
    reduces exactly to the classic linear-interpolation estimator over the
    sorted sample (the rank ``(n - 1) * q / 100`` convention), which is why
    :func:`percentile` can delegate here without changing any report.

    Parameters
    ----------
    values:
        Sample values (any order).
    weights:
        Non-negative multiplicity of each value; must match ``values`` in
        length and carry positive total weight.
    q:
        Percentile in ``[0, 100]``.

    Example
    -------
    >>> weighted_percentile([10.0, 20.0, 30.0, 40.0], [1, 1, 1, 1], 50)
    25.0
    >>> weighted_percentile([10.0, 20.0], [3, 1], 50)
    10.0
    """
    if len(values) != len(weights):
        raise ValueError("values and weights must have the same length")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    pairs = sorted(
        (float(value), float(weight))
        for value, weight in zip(values, weights)
        if weight > 0
    )
    total = sum(weight for _, weight in pairs)
    if not pairs or total <= 0:
        raise ValueError("total weight must be positive")
    rank = (total - 1.0) * q / 100.0
    if rank <= 0:
        return pairs[0][0]
    cumulative = 0.0
    previous = pairs[0][0]
    for value, weight in pairs:
        low = cumulative
        high = cumulative + weight - 1.0
        if rank <= high:
            if rank >= low:
                return value
            # The rank falls in the gap between the previous value's last
            # occupied rank (low - 1) and this value's first (low).
            fraction = rank - (low - 1.0)
            return previous + (value - previous) * fraction
        previous = value
        cumulative += weight
    return pairs[-1][0]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    The unit-weight case of :func:`weighted_percentile`; kept
    behaviour-identical to the historical ``repro.bench.report.percentile``
    (which now re-exports this function), including returning 0.0 for an
    empty sample.

    Example
    -------
    >>> percentile([10.0, 20.0, 30.0, 40.0], 50)
    25.0
    >>> percentile([7.0], 99)
    7.0
    >>> percentile([], 50)
    0.0
    """
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    if not values:
        return 0.0
    return weighted_percentile(values, [1.0] * len(values), q)


def histogram_quantile(
    buckets: Mapping[int, int],
    q: float,
    min_value: Optional[float] = None,
    max_value: Optional[float] = None,
) -> float:
    """Estimate the ``q``-th percentile from log-bucket counts.

    Each bucket contributes its *upper bound* (:func:`bucket_bound`)
    weighted by its count; the estimate is clamped into
    ``[min_value, max_value]`` when the true extremes are known (streaming
    summaries track them exactly), so single-observation histograms report
    the observation itself.

    Example
    -------
    >>> buckets = {bucket_index(42.0): 1}
    >>> histogram_quantile(buckets, 50, min_value=42.0, max_value=42.0)
    42.0
    """
    if not buckets:
        return 0.0
    indices = sorted(buckets)
    estimate = weighted_percentile(
        [bucket_bound(index) for index in indices],
        [buckets[index] for index in indices],
        q,
    )
    if max_value is not None:
        estimate = min(estimate, max_value)
    if min_value is not None:
        estimate = max(estimate, min_value)
    return estimate


# --------------------------------------------------------------------- #
# Metric samples
# --------------------------------------------------------------------- #
class Counter:
    """A monotonically growing count (one labelled sample).

    ``inc`` accumulates live increments; ``set_total`` publishes an
    absolute total taken from an existing stats snapshot (the bridge the
    ``publish_*`` helpers use).

    Example
    -------
    ::

        registry = MetricsRegistry()
        served = registry.counter("repro_requests_total", "Requests served")
        served.inc()
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only grow; use a Gauge instead")
        self.value += amount

    def set_total(self, value: float) -> None:
        """Publish an absolute total from a stats snapshot."""
        self.value = float(value)


class Gauge:
    """A point-in-time value (one labelled sample)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge."""
        self.value = float(value)


class Histogram:
    """A log-bucket latency histogram (one labelled sample).

    Buckets are the fixed log-spaced grid of :func:`bucket_index`, so
    :meth:`merge` (plain count addition) is exact across processes; count,
    total, min and max are tracked alongside.  It is also the latency
    aggregate of :class:`~repro.runtime.stats.ServingStats`.

    Example
    -------
    >>> histogram = Histogram()
    >>> for value in (10.0, 20.0, 900.0):
    ...     histogram.observe(value)
    >>> histogram.count, histogram.quantile(100)
    (3, 900.0)
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Fold one observation into the histogram."""
        if value < 0:
            raise ValueError("histogram observations must be non-negative")
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram exactly (returns self)."""
        if other.count:
            self.count += other.count
            self.total += other.total
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
            for index, count in other.buckets.items():
                self.buckets[index] = self.buckets.get(index, 0) + count
        return self

    def quantile(self, q: float) -> float:
        """Bucket-estimated percentile, clamped to the observed extremes."""
        if not self.count:
            return 0.0
        return histogram_quantile(
            self.buckets, q, min_value=self.min, max_value=self.max
        )

    def load(
        self,
        count: int,
        total: float,
        min_value: float,
        max_value: float,
        buckets: Mapping[int, int],
    ) -> "Histogram":
        """Publish absolute state from a stats snapshot (returns self).

        Parameters
        ----------
        count:
            Observation count.
        total:
            Sum of observations.
        min_value:
            Smallest observation.
        max_value:
            Largest observation.
        buckets:
            Log-bucket counts keyed by :func:`bucket_index`.
        """
        self.count = int(count)
        self.total = float(total)
        self.min = float(min_value) if self.count else math.inf
        self.max = float(max_value)
        self.buckets = {int(index): int(n) for index, n in buckets.items()}
        return self

    def snapshot(self) -> Dict[str, object]:
        """Plain-dictionary view (pinned key order)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": self.quantile(50),
            "p95": self.quantile(95),
            "buckets": {
                str(index): self.buckets[index]
                for index in sorted(self.buckets)
            },
        }


_KIND_OF = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


class MetricsRegistry:
    """A named collection of labelled counter/gauge/histogram samples.

    Samples are created on first access and identified by metric name plus
    a sorted label set; re-accessing returns the same sample, so publishers
    can overwrite snapshot-derived values scrape after scrape.  Rendering
    is deterministic: metrics sort by name, samples by label tuple, and the
    JSON :meth:`snapshot` pins its key order — equal registry state always
    serializes identically.

    Example
    -------
    >>> registry = MetricsRegistry()
    >>> registry.counter("repro_requests_total", "Total requests").inc(3)
    >>> registry.gauge("repro_queue_depth", worker="0").set(2)
    >>> print(registry.prometheus_text().splitlines()[4])
    repro_requests_total 3
    """

    def __init__(self) -> None:
        # name -> (kind, help, {label tuple -> sample})
        self._metrics: Dict[str, Tuple[str, str, Dict[tuple, object]]] = {}

    # -- sample access --------------------------------------------------- #
    def _sample(self, factory: type, name: str, help_text: str, labels):
        kind = _KIND_OF[factory]
        entry = self._metrics.get(name)
        if entry is None:
            entry = (kind, help_text, {})
            self._metrics[name] = entry
        elif entry[0] != kind:
            raise ValueError(
                f"metric {name!r} is a {entry[0]}, not a {kind}"
            )
        key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        sample = entry[2].get(key)
        if sample is None:
            sample = factory()
            entry[2][key] = sample
        return sample

    def counter(self, name: str, help_text: str = "", **labels) -> Counter:
        """Get or create the :class:`Counter` sample ``name``/``labels``.

        Parameters
        ----------
        name:
            Prometheus-style metric name.
        help_text:
            One-line description (first registration wins).
        """
        return self._sample(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", **labels) -> Gauge:
        """Get or create the :class:`Gauge` sample ``name``/``labels``.

        Parameters
        ----------
        name:
            Prometheus-style metric name.
        help_text:
            One-line description (first registration wins).
        """
        return self._sample(Gauge, name, help_text, labels)

    def histogram(self, name: str, help_text: str = "", **labels) -> Histogram:
        """Get or create the :class:`Histogram` sample ``name``/``labels``.

        Parameters
        ----------
        name:
            Prometheus-style metric name.
        help_text:
            One-line description (first registration wins).
        """
        return self._sample(Histogram, name, help_text, labels)

    # -- snapshot publishers --------------------------------------------- #
    def publish_serving_stats(
        self,
        payload: Mapping[str, object],
        prefix: str = "repro_serving",
        **labels,
    ) -> None:
        """Publish a ``ServingStats.to_dict()`` payload into the registry.

        Request/hit/miss totals become counters, the hit rate a gauge,
        per-source request counts a labelled counter, and every latency
        summary that carries log-bucket counts becomes a mergeable
        histogram (summaries predating the bucket field publish count-only
        histograms).

        Parameters
        ----------
        payload:
            A :meth:`repro.runtime.stats.ServingStats.to_dict` snapshot.
        prefix:
            Metric-name prefix (`repro_serving` by default).
        """
        self.counter(f"{prefix}_requests_total", "Requests served", **labels)\
            .set_total(payload.get("requests", 0))
        self.counter(f"{prefix}_hits_total", "Search-free requests", **labels)\
            .set_total(payload.get("hits", 0))
        self.counter(f"{prefix}_misses_total", "On-demand compiles", **labels)\
            .set_total(payload.get("misses", 0))
        self.gauge(f"{prefix}_hit_rate", "Search-free fraction", **labels)\
            .set(payload.get("hit_rate", 0.0))
        by_source = payload.get("by_source") or {}
        if isinstance(by_source, Mapping):
            for source, count in by_source.items():
                self.counter(
                    f"{prefix}_requests_by_source_total",
                    "Requests by resolution source",
                    source=source,
                    **labels,
                ).set_total(count)
        latency = payload.get("latency_us") or {}
        if isinstance(latency, Mapping):
            for source, summary in latency.items():
                self._publish_latency(
                    f"{prefix}_latency_us", summary, source=source, **labels
                )
        overall = payload.get("overall_latency_us")
        if isinstance(overall, Mapping):
            self._publish_latency(
                f"{prefix}_overall_latency_us", overall, **labels
            )

    def _publish_latency(
        self, name: str, summary: Mapping[str, object], **labels
    ) -> None:
        buckets = summary.get("buckets") or {}
        count = int(summary.get("count", 0))
        mean = float(summary.get("mean_us", 0.0))
        self.histogram(name, "Latency histogram (log buckets)", **labels).load(
            count=count,
            total=mean * count,
            min_value=float(summary.get("min_us", 0.0)),
            max_value=float(summary.get("max_us", 0.0)),
            buckets={int(k): int(v) for k, v in dict(buckets).items()},
        )

    def publish_cache_stats(
        self,
        payload: Mapping[str, object],
        prefix: str = "repro_cache",
        **labels,
    ) -> None:
        """Publish a ``CacheStats.to_dict()`` payload into the registry.

        Every counter of the plan cache (tier hits, misses, stores,
        evictions, and the four disk-entry failure modes) becomes a
        Prometheus counter; the hit rate becomes a gauge.

        Parameters
        ----------
        payload:
            A :meth:`repro.runtime.cache.CacheStats.to_dict` snapshot.
        prefix:
            Metric-name prefix (`repro_cache` by default).
        """
        for key, value in payload.items():
            if key == "hit_rate":
                self.gauge(
                    f"{prefix}_hit_rate", "Plan-cache hit fraction", **labels
                ).set(value)
            else:
                self.counter(
                    f"{prefix}_{key}_total", f"Plan-cache {key}", **labels
                ).set_total(value)

    def publish_fleet_stats(
        self,
        payload: Mapping[str, object],
        prefix: str = "repro_fleet",
    ) -> None:
        """Publish a ``FleetStats.to_dict()`` payload into the registry.

        Router counters and worker liveness become counters/gauges, the
        fleet-wide merged serving aggregate publishes unlabelled, and each
        worker's own serving stats publish under a ``worker`` label — one
        scrape therefore shows the whole fleet at every granularity.

        Parameters
        ----------
        payload:
            A :meth:`repro.fleet.stats.FleetStats.to_dict` snapshot.
        prefix:
            Metric-name prefix (`repro_fleet` by default).
        """
        self.gauge(f"{prefix}_workers", "Configured workers").set(
            payload.get("workers", 0)
        )
        self.gauge(f"{prefix}_workers_alive", "Live worker processes").set(
            payload.get("alive", 0)
        )
        router = payload.get("router") or {}
        if isinstance(router, Mapping):
            for key, value in router.items():
                if isinstance(value, Mapping):
                    for worker, depth in value.items():
                        self.gauge(
                            f"{prefix}_router_{key}",
                            f"Router {key}",
                            worker=worker,
                        ).set(depth)
                else:
                    self.counter(
                        f"{prefix}_router_{key}_total", f"Router {key}"
                    ).set_total(value)
        serving = payload.get("serving")
        if isinstance(serving, Mapping):
            self.publish_serving_stats(serving, prefix=f"{prefix}_serving")
        per_worker = payload.get("per_worker") or {}
        if isinstance(per_worker, Mapping):
            for worker, worker_payload in per_worker.items():
                worker_serving = worker_payload.get("serving")
                if isinstance(worker_serving, Mapping):
                    self.publish_serving_stats(
                        worker_serving,
                        prefix=f"{prefix}_worker_serving",
                        worker=worker,
                    )
                worker_cache = worker_payload.get("cache")
                if isinstance(worker_cache, Mapping):
                    self.publish_cache_stats(
                        worker_cache,
                        prefix=f"{prefix}_worker_cache",
                        worker=worker,
                    )

    def publish_rewrite_provenance(
        self,
        payload: Mapping[str, object],
        prefix: str = "repro_rewrite",
        **labels,
    ) -> None:
        """Publish a ``RewriteProvenance.to_dict()`` payload into the registry.

        Rule firings become a per-rule labelled counter, and the pass count,
        operators-eliminated total and pruned-rule-scan total become plain
        counters — one scrape answers "is the rewrite layer actually doing
        anything, and which rules carry the load".

        Parameters
        ----------
        payload:
            A :meth:`repro.graphs.rewrite.RewriteProvenance.to_dict` snapshot.
        prefix:
            Metric-name prefix (`repro_rewrite` by default).
        """
        self.counter(
            f"{prefix}_passes_total", "Rewrite fixpoint passes", **labels
        ).set_total(payload.get("passes", 0))
        self.counter(
            f"{prefix}_ops_eliminated_total", "Operators eliminated", **labels
        ).set_total(payload.get("ops_eliminated", 0))
        self.counter(
            f"{prefix}_rules_pruned_total",
            "Rule scans skipped by anchor pre-pruning",
            **labels,
        ).set_total(payload.get("rules_pruned", 0))
        fired = payload.get("fired_counts") or {}
        if isinstance(fired, Mapping):
            for rule, count in fired.items():
                self.counter(
                    f"{prefix}_rule_fired_total",
                    "Rewrite-rule applications",
                    rule=rule,
                    **labels,
                ).set_total(count)

    # -- rendering ------------------------------------------------------- #
    @staticmethod
    def _label_text(key: tuple, extra: str = "") -> str:
        parts = [f'{name}="{value}"' for name, value in key]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    def prometheus_text(self) -> str:
        """Render every metric in the Prometheus text exposition format.

        Histograms render the standard cumulative ``_bucket``/``_sum``/
        ``_count`` series with ``le`` boundaries from the fixed log grid.
        Output is deterministically ordered (metric name, then label set).

        Example
        -------
        ::

            registry = MetricsRegistry()
            registry.publish_serving_stats(stats.to_dict())
            open("metrics.prom", "w").write(registry.prometheus_text())
        """
        lines: List[str] = []
        for name in sorted(self._metrics):
            kind, help_text, samples = self._metrics[name]
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for key in sorted(samples):
                sample = samples[key]
                if isinstance(sample, Histogram):
                    cumulative = 0
                    for index in sorted(sample.buckets):
                        cumulative += sample.buckets[index]
                        le = f'le="{bucket_bound(index):g}"'
                        lines.append(
                            f"{name}_bucket{self._label_text(key, le)} "
                            f"{cumulative}"
                        )
                    inf_label = 'le="+Inf"'
                    lines.append(
                        f"{name}_bucket{self._label_text(key, inf_label)} "
                        f"{sample.count}"
                    )
                    lines.append(
                        f"{name}_sum{self._label_text(key)} {sample.total:g}"
                    )
                    lines.append(
                        f"{name}_count{self._label_text(key)} {sample.count}"
                    )
                else:
                    lines.append(
                        f"{name}{self._label_text(key)} {sample.value:g}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, object]:
        """JSON-able registry state with a pinned key order.

        Top-level keys are the metric kinds; within each, metrics sort by
        name and samples by rendered label string, so equal registry state
        serializes byte-identically (the same contract as the stack's
        ``to_dict`` methods).
        """
        counters: Dict[str, object] = {}
        gauges: Dict[str, object] = {}
        histograms: Dict[str, object] = {}
        for name in sorted(self._metrics):
            kind, _, samples = self._metrics[name]
            sink = {
                "counter": counters,
                "gauge": gauges,
                "histogram": histograms,
            }[kind]
            for key in sorted(samples):
                sample = samples[key]
                label = f"{name}{self._label_text(key)}"
                if isinstance(sample, Histogram):
                    sink[label] = sample.snapshot()
                else:
                    sink[label] = sample.value
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

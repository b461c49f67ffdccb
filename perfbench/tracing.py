"""Span recorder and layer wrappers for the traced benchmark run.

The traced run patches the public functions of each layer with a wrapper
that records one span per call (layer, start, end, parent) and a few exact
counters read off the call's own arguments and result.  Nothing here runs
in an untraced run: :func:`install` is only called by the traced run, and
the returned restore function puts every original back.

Spans keep a per-thread stack.  A span opened on a pool thread with an
empty stack (``ModelServer._resolve_all`` fans chains out this way) is
parented to the innermost open span of the client thread: the benchmark
runs one closed-loop client, so that span is the serve that fanned out.
A layer's self time is its span's duration minus the union of its child
spans' intervals.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from percentiles import nearest_rank


class Span:
    __slots__ = ("sid", "layer", "parent", "root", "start", "end")

    def __init__(self, sid: int, layer: str, parent: Optional["Span"]) -> None:
        self.sid = sid
        self.layer = layer
        self.parent = parent
        self.root = parent.root if parent is not None else sid
        self.start = 0.0
        self.end = 0.0


class Recorder:
    """In-memory spans and exact counters of one traced phase."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: (time taken, value) samples, filtered to the measured window.
        self.samples: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self._client = threading.get_ident()
        self._client_stack: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> List[Span]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn: Callable, args: tuple, kwargs: dict):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._client_stack:
            parent = self._client_stack[-1]
        else:
            parent = None
        span = Span(next(self._ids), layer, parent)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)


# --------------------------------------------------------------------- #
# Counter hooks: (recorder, args, result, pre-call token) -> None
# --------------------------------------------------------------------- #
def _search_counts(rec, args, result, _):
    rec.counts["search.candidates_enumerated"] += result.candidates_enumerated
    rec.counts["search.candidates_analyzed"] += result.candidates_analyzed


def _disk_hits_before(args):
    return args[0].stats.disk_hits


def _disk_hits(rec, args, result, before):
    rec.counts["runtime.cache.disk_hits"] += args[0].stats.disk_hits - before


def _verify_rejected(rec, args, result, _):
    rec.counts["analysis.verify.rejected"] += bool(result)


def _rewrite_fired(rec, args, result, _):
    rec.counts["graphs.rewrite.fired"] += len(result.provenance.rules_fired)


def _serve_counts(rec, args, result, _):
    rec.counts["graphs.server.serves"] += 1
    rec.counts["graphs.server.fanout_serves"] += len(result.sources) > 1


def _table_hits(rec, args, result, _):
    rec.counts["runtime.server.table_hits"] += result.source == "table"


def _fleet_counts(rec, args, result, _):
    rec.counts["fleet.rejected"] += result.rejected
    rec.counts["fleet.retried"] += result.retries
    if result.ok:
        now = time.perf_counter()
        rec.samples["fleet.overhead_us"].append((now, result.latency_us - result.serve_us))
        rec.samples["fleet.worker_serve_us"].append((now, result.serve_us))


#: (layer, module, attribute path, pre-call hook, post-call hook).  Functions
#: imported by name are wrapped where the caller looks them up.
WRAPS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("search", "repro.search.engine", "SearchEngine.search", None, _search_counts),
    ("search.cost", "repro.search.cost_model", "CostModel.evaluate", None, None),
    ("dataflow", "repro.dataflow.analyzer", "DataflowAnalyzer.analyze", None, None),
    ("sim.profile", "repro.sim.engine", "PerformanceSimulator.profile", None, None),
    ("sim.profile", "repro.sim.engine", "PerformanceSimulator.simulate_plan", None, None),
    ("sim.profile", "repro.sim.profiler", "MemoryProfiler.profile_fused", None, None),
    ("sim.kernels", "repro.sim.engine", "PerformanceSimulator.simulate_kernels", None, None),
    ("codegen", "repro.api", "lower_plan", None, None),
    ("codegen", "repro.api", "emit_cuda", None, None),
    ("codegen", "repro.runtime.cache", "lower_plan", None, None),
    ("codegen", "repro.runtime.cache", "emit_cuda", None, None),
    ("cache.store", "repro.runtime.cache", "PlanCache.store_kernel", None, None),
    ("cache.get", "repro.runtime.cache", "PlanCache.get", _disk_hits_before, _disk_hits),
    ("cache.rehydrate", "repro.runtime.cache", "PlanCacheEntry.rehydrate", None, None),
    ("verify", "repro.analysis.verify", "PlanVerifier.verify_entry", None, _verify_rejected),
    ("ir", "repro.ir.workloads", "ModelConfig.layer_graph", None, None),
    ("ir", "repro.ir.workloads", "get_zoo_graph", None, None),
    ("rewrite", "repro.graphs.extract", "canonicalize", None, _rewrite_fired),
    ("extract", "repro.graphs.server", "extract_chains", None, None),
    ("plan", "repro.graphs.server", "assemble_plan", None, None),
    ("server", "repro.graphs.server", "ModelServer.serve", None, _serve_counts),
    ("kserver", "repro.runtime.server", "KernelServer.request", None, _table_hits),
    ("stats", "repro.runtime.stats", "ServingStats.record_request", None, None),
    ("fleet", "repro.fleet.router", "ServingFleet.request", None, _fleet_counts),
)


def _wrapper(rec: Recorder, layer: str, fn: Callable, pre, post) -> Callable:
    def traced(*args, **kwargs):
        token = pre(args) if pre is not None else None
        result = rec.call(layer, fn, args, kwargs)
        if post is not None:
            post(rec, args, result, token)
        return result

    traced.__wrapped__ = fn
    return traced


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every layer function; returns the function that unwraps them."""
    originals = []
    for layer, module_name, path, pre, post in WRAPS:
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for name in owner_path:
            owner = getattr(owner, name)
        fn = owner.__dict__[attr]
        originals.append((owner, attr, fn))
        setattr(owner, attr, _wrapper(rec, layer, fn, pre, post))

    def restore() -> None:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)

    return restore


# --------------------------------------------------------------------- #
# Per-layer summary
# --------------------------------------------------------------------- #
def _union(intervals: List[Tuple[float, float]]) -> float:
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            parent = span.parent
            children[parent.sid].append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return {
        span.sid: (span.end - span.start) - _union(children.get(span.sid, []))
        for span in spans
    }


#: Self-time metrics: (metric, layer, unit, call-count metric, per-request
#: p50 metric or None).
TIMINGS = (
    ("search.enumerate_prune_s", "search", "s", "search.calls", None),
    ("search.cost_s", "search.cost", "s", "search.cost.calls", None),
    ("dataflow.analyze_s", "dataflow", "s", "dataflow.analyze_calls", None),
    ("sim.profile_s", "sim.profile", "s", "sim.profile.calls", None),
    ("sim.simulate_kernels_us", "sim.kernels", "us", "sim.simulate_kernels.calls",
     "sim.simulate_kernels.p50_us"),
    ("codegen.lower_emit_us", "codegen", "us", "codegen.lower_emit.calls", None),
    ("runtime.cache.store_us", "cache.store", "us", "runtime.cache.store.calls", None),
    ("runtime.cache.get_us", "cache.get", "us", "runtime.cache.get.calls", None),
    ("runtime.cache.rehydrate_us", "cache.rehydrate", "us",
     "runtime.cache.rehydrate.calls", None),
    ("analysis.verify.entry_us", "verify", "us", "analysis.verify.calls", None),
    ("ir.graph_build_us", "ir", "us", "ir.graph_build.calls", "ir.graph_build.p50_us"),
    ("graphs.rewrite.canonicalize_us", "rewrite", "us", "graphs.rewrite.calls",
     "graphs.rewrite.canonicalize.p50_us"),
    ("graphs.extract_us", "extract", "us", "graphs.extract.calls",
     "graphs.extract.p50_us"),
    ("graphs.plan.assemble_us", "plan", "us", "graphs.plan.assemble.calls",
     "graphs.plan.assemble.p50_us"),
    ("graphs.server.serve_self_us", "server", "us", "graphs.server.serve.calls",
     "graphs.server.serve_self.p50_us"),
    ("runtime.server.request_us", "kserver", "us", "runtime.server.request.calls",
     "runtime.server.request.p50_us"),
    ("runtime.stats.record_us", "stats", "us", "runtime.stats.record.calls",
     "runtime.stats.record.p50_us"),
)

_SCALE = {"s": 1.0, "us": 1e6}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units: Dict[str, str] = {}
    for metric, _, unit, calls_metric, p50_metric in TIMINGS:
        units[metric] = unit
        units[calls_metric] = "count"
        if p50_metric is not None:
            units[p50_metric] = "us"
    units.update(
        {
            "search.candidates_enumerated": "count",
            "search.candidates_analyzed": "count",
            "search.analyzed_ratio": "ratio",
            "runtime.cache.disk_hits": "count",
            "analysis.verify.rejected": "count",
            "graphs.rewrite.fired": "count",
            "graphs.extract.memo_hit_ratio": "ratio",
            "graphs.server.fanout_serves": "count",
            "runtime.server.table_hit_ratio": "ratio",
            "fleet.overhead_us": "us",
            "fleet.overhead_p99_us": "us",
            "fleet.worker_serve_us": "us",
            "fleet.rejected": "count",
            "fleet.retried": "count",
            "unattributed_frac": "ratio",
            "trace_overhead_ratio": "ratio",
        }
    )
    return units


#: Counters that must repeat exactly between two traced runs on one seed.
EXACT_COUNTERS = (
    "search.candidates_enumerated",
    "search.candidates_analyzed",
    "dataflow.analyze_calls",
    "graphs.extract.calls",
    "graphs.rewrite.fired",
    "runtime.server.table_hit_ratio",
)


def summarize(rec: Recorder, window: Tuple[float, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced phase.

    Totals and counts cover the whole phase, set-up included, because the
    serving workloads search only while they warm up.  Per-request p50s and
    ``unattributed_frac`` cover only the measured ``window`` (start, end).
    """
    spans = rec.spans
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    per_root: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        totals[span.layer] += own[span.sid]
        calls[span.layer] += 1
        per_root[span.root][span.layer] += own[span.sid]
    roots = [
        span for span in spans
        if span.parent is None and span.layer in ("server", "fleet")
        and span.start >= window[0]
    ]

    out: Dict[str, float] = {}
    for metric, layer, unit, calls_metric, p50_metric in TIMINGS:
        out[metric] = totals[layer] * _SCALE[unit]
        out[calls_metric] = calls[layer]
        if p50_metric is not None:
            values = [per_root[root.sid][layer] * 1e6 for root in roots]
            out[p50_metric] = nearest_rank(values, 50) if values else 0.0

    counts = rec.counts
    enumerated = counts["search.candidates_enumerated"]
    serves = counts["graphs.server.serves"]
    kserves = calls["kserver"]
    start, end = window
    overhead, worker = (
        [value for taken, value in rec.samples[name] if start <= taken <= end]
        for name in ("fleet.overhead_us", "fleet.worker_serve_us")
    )
    out.update(
        {
            "search.candidates_enumerated": enumerated,
            "search.candidates_analyzed": counts["search.candidates_analyzed"],
            "search.analyzed_ratio": (
                counts["search.candidates_analyzed"] / enumerated if enumerated else 0.0
            ),
            "runtime.cache.disk_hits": counts["runtime.cache.disk_hits"],
            "analysis.verify.rejected": counts["analysis.verify.rejected"],
            "graphs.rewrite.fired": counts["graphs.rewrite.fired"],
            "graphs.extract.memo_hit_ratio": (
                1.0 - calls["extract"] / serves if serves else 0.0
            ),
            "graphs.server.fanout_serves": counts["graphs.server.fanout_serves"],
            "runtime.server.table_hit_ratio": (
                counts["runtime.server.table_hits"] / kserves if kserves else 0.0
            ),
            "fleet.overhead_us": nearest_rank(overhead, 50) if overhead else 0.0,
            "fleet.overhead_p99_us": nearest_rank(overhead, 99) if overhead else 0.0,
            "fleet.worker_serve_us": nearest_rank(worker, 50) if worker else 0.0,
            "fleet.rejected": counts["fleet.rejected"],
            "fleet.retried": counts["fleet.retried"],
        }
    )
    covered = _union(
        [
            (max(span.start, start), min(span.end, end))
            for span in spans
            if span.parent is None and span.end > start and span.start < end
        ]
    )
    out["unattributed_frac"] = 1.0 - covered / (end - start)
    return out

"""Multi-worker serving fleet: router, admission control, failover.

:class:`ServingFleet` runs N :mod:`~repro.fleet.worker` processes — each a
real serving stack over one shared on-disk plan-cache namespace — behind a
:class:`FleetRouter` that decides, per request, which worker serves it:

* **affinity first** — requests for the same ``(kind, target, M-bin)`` key
  rendezvous-hash to the same worker, so a shape compiles once and then
  keeps hitting the kernel table that already holds it;
* **queue-depth aware** — when the affinity worker's queue is more than
  ``affinity_slack`` deeper than the least-loaded worker's, the router
  overrides affinity and rebalances;
* **admission control** — when the aggregate queue depth reaches the
  configured watermark, new requests are *rejected* with a Retry-After
  hint instead of queuing without bound (:meth:`ServingFleet.request`
  returns ``status="rejected"``; :meth:`ServingFleet.serve` retries for
  callers that prefer blocking);
* **failover** — a health monitor restarts dead workers and re-dispatches
  their in-flight requests to surviving replicas (bounded by
  ``max_retries``), so a worker crash delays requests instead of losing
  them;
* **warm-plan broadcast** — after any worker cold-compiles, every replica
  adopts the plan from the shared cache, so one compile cliff warms the
  whole fleet.

Everything observable lands in :class:`~repro.fleet.stats.FleetStats`.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import shutil
import tempfile
import threading
import time
from concurrent.futures import Future, TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import multiprocessing

from repro.analysis.locks import make_lock
from repro.bench.traces import KIND_KERNEL, KIND_MODEL
from repro.fleet.config import FleetConfig
from repro.fleet.stats import FleetStats
from repro.fleet.worker import worker_main
from repro.ir.workloads import MODEL_ZOO, get_workload
from repro.obs.logging import get_logger, log_event
from repro.obs.trace import tracer

_logger = get_logger(__name__)

#: Statuses a :class:`FleetResponse` can carry.
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class FleetResponse:
    """One answered (or refused) fleet request.

    ``status`` is ``"ok"`` for a served request, ``"rejected"`` when
    admission control refused it (``retry_after_s`` then carries the
    backoff hint), and ``"error"`` when serving failed (``error`` carries
    the reason — an unfusable chain, an exhausted failover budget, or a
    timeout).  ``latency_us`` is end-to-end (queueing, failover and IPC
    included); ``serve_us`` is the worker-side serving time alone.
    """

    kind: str
    target: str
    m: int
    status: str
    worker: Optional[int] = None
    source: Optional[str] = None
    bin_m: int = 0
    latency_us: float = 0.0
    serve_us: float = 0.0
    retries: int = 0
    retry_after_s: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the request was served."""
        return self.status == STATUS_OK

    @property
    def rejected(self) -> bool:
        """Whether admission control refused the request."""
        return self.status == STATUS_REJECTED


class FleetRouter:
    """Deterministic dispatch policy: consistent-hash affinity, load-aware.

    The router is pure policy — it holds no queues and spawns nothing —
    so its decisions are unit-testable: given an affinity key and the
    current per-worker queue depths, :meth:`route` returns the worker id.

    Parameters
    ----------
    affinity_slack:
        How much deeper (in queued requests) the affinity-preferred
        worker may be than the least-loaded worker before the router
        abandons affinity and picks the least-loaded worker instead.
        ``0`` routes purely by load; a large value routes purely by hash.

    Example
    -------
    >>> router = FleetRouter(affinity_slack=2)
    >>> depths = {0: 0, 1: 0, 2: 0}
    >>> chosen = router.route("kernel:G4:128", depths)
    >>> chosen == router.route("kernel:G4:128", depths)  # deterministic
    True
    >>> busy = {w: (9 if w == chosen else 0) for w in depths}
    >>> router.route("kernel:G4:128", busy) != chosen    # rebalances
    True
    """

    def __init__(self, affinity_slack: int = 2) -> None:
        if affinity_slack < 0:
            raise ValueError("affinity_slack must be >= 0")
        self.affinity_slack = affinity_slack

    @staticmethod
    def affinity_key(kind: str, target: str, bin_m: int) -> str:
        """The affinity key one request hashes under."""
        return f"{kind}:{target}:{bin_m}"

    @staticmethod
    def preferred(key: str, workers: List[int]) -> int:
        """Rendezvous (highest-random-weight) choice for ``key``.

        Stable under membership change: removing one worker only remaps
        the keys that pointed at it, which is what keeps kernel-table
        affinity intact when a worker dies and rejoins.
        """
        if not workers:
            raise ValueError("no workers to route to")
        return max(
            workers,
            key=lambda worker: hashlib.sha256(
                f"{key}|{worker}".encode("utf-8")
            ).digest(),
        )

    def route(self, key: str, depths: Mapping[int, int]) -> int:
        """Pick the worker for ``key`` given current queue ``depths``."""
        workers = sorted(depths)
        preferred = self.preferred(key, workers)
        least_depth = min(depths.values())
        if depths[preferred] <= least_depth + self.affinity_slack:
            return preferred
        return min(workers, key=lambda worker: (depths[worker], worker))


@dataclass
class _Pending:
    """Router-side bookkeeping for one dispatched request."""

    req_id: int
    kind: str
    target: str
    m: int
    key: str
    future: "Future[Dict[str, object]]"
    worker: int = -1
    retries: int = 0
    #: Trace wire context (trace_id, parent span_id, sent timestamp) riding
    #: the task tuple to the worker; ``None`` when tracing is off.
    wire: Optional[Tuple[str, str, float]] = None


class _WorkerHandle:
    """One worker slot: the live process plus its private task queue."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.incarnation = -1
        self.process = None
        self.task_queue = None
        self.ready = False
        self.inflight: set = set()

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ServingFleet:
    """N serving workers behind a queue-aware router with failover.

    Parameters
    ----------
    config:
        A :class:`~repro.fleet.config.FleetConfig`; keyword overrides are
        applied on top (``ServingFleet(workers=4, watermark=32)``).

    Use it as a context manager (or call :meth:`start`/:meth:`close`):
    workers are real processes sharing the config's on-disk plan-cache
    namespace, so the fleet survives worker crashes with its compiled
    plans intact.

    Example
    -------
    ::

        from repro import FleetConfig, ServingFleet

        config = FleetConfig(workers=2, cache_dir="/tmp/fleet-ns")
        with ServingFleet(config) as fleet:
            response = fleet.serve("G4", m=100)          # routed by affinity
            print(response.worker, response.source)
            print(fleet.stats().to_dict()["router"]["routed"])
    """

    def __init__(
        self, config: Optional[FleetConfig] = None, **overrides: object
    ) -> None:
        self.config = (config or FleetConfig()).replace(**overrides)
        self.router = FleetRouter(affinity_slack=self.config.affinity_slack)
        self._owns_cache_dir = self.config.cache_dir is None
        self.cache_dir: Optional[str] = (
            None
            if self._owns_cache_dir
            else str(self.config.cache_dir)
        )
        self._ctx = multiprocessing.get_context(self.config.start_method)
        self._handles: List[_WorkerHandle] = []
        self._result_queue = None
        self._lock = make_lock("fleet-router")
        self._pending: Dict[int, _Pending] = {}
        self._req_ids = itertools.count()
        self._stats_replies: Dict[str, Dict[str, Dict[str, object]]] = {}
        self._stats_tokens = itertools.count()
        self._counters: Dict[str, int] = {
            "routed": 0,
            "rejected": 0,
            "retried": 0,
            "failovers": 0,
            "restarts": 0,
            "broadcasts": 0,
            "duplicates": 0,
        }
        self._started = False
        self._closing = False
        self._collector: Optional[threading.Thread] = None
        self._health: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, wait: bool = True, timeout: float = 120.0) -> "ServingFleet":
        """Spawn the workers and the router threads (idempotent).

        With ``wait=True`` (the default) the call returns once every
        worker has built its serving stack and reported ready — so the
        first request never races worker initialisation.
        """
        if self._started:
            return self
        self._started = True
        self._closing = False
        if self.cache_dir is None:
            self.cache_dir = tempfile.mkdtemp(prefix="repro-fleet-")
        self._result_queue = self._ctx.Queue()
        self._handles = [
            _WorkerHandle(worker_id) for worker_id in range(self.config.workers)
        ]
        for handle in self._handles:
            self._spawn(handle)
        self._collector = threading.Thread(
            target=self._collect_loop, name="fleet-collector", daemon=True
        )
        self._collector.start()
        self._health = threading.Thread(
            target=self._health_loop, name="fleet-health", daemon=True
        )
        self._health.start()
        if wait:
            self.wait_ready(timeout=timeout)
        return self

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until every worker reported ready (raises on timeout)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if all(handle.ready for handle in self._handles):
                    return
            time.sleep(0.01)
        raise TimeoutError(
            f"fleet workers not ready within {timeout:.0f}s"
        )

    def close(self) -> None:
        """Stop the workers and router threads (idempotent)."""
        if not self._started:
            return
        self._closing = True
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
            for handle in self._handles:
                handle.inflight.clear()
        for entry in pending:
            if not entry.future.done():
                entry.future.set_result(
                    {"source": None, "bin_m": 0, "latency_us": 0.0,
                     "error": "fleet closed"}
                )
        for handle in self._handles:
            if handle.task_queue is not None:
                try:
                    handle.task_queue.put(("stop",))
                except (OSError, ValueError):  # lint: allow[silent-except]
                    # Best-effort shutdown: the queue may already be closed
                    # by a worker that died; join/terminate below still runs.
                    pass
        for handle in self._handles:
            if handle.process is not None:
                handle.process.join(timeout=5.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=2.0)
        self._started = False
        for thread in (self._collector, self._health):
            if thread is not None:
                thread.join(timeout=2.0)
        self._collector = None
        self._health = None
        if self._owns_cache_dir and self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def __enter__(self) -> "ServingFleet":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def request(
        self,
        target: str,
        m: Optional[int] = None,
        *,
        kind: str = KIND_KERNEL,
        worker: Optional[int] = None,
    ) -> FleetResponse:
        """Serve one request, or refuse it under backpressure.

        ``target`` is a workload id (``kind="kernel"``) or a model-zoo
        name (``kind="model"``); ``m`` is the runtime M.  When the fleet's
        aggregate queue depth has reached the admission watermark the
        request is *not* queued: the response comes back with
        ``status="rejected"`` and a ``retry_after_s`` hint (use
        :meth:`serve` for a caller that prefers to block and retry).
        ``worker`` pins the request to one worker, bypassing both routing
        and admission — an operational/testing hook, not the normal path.
        """
        if m is None or m <= 0:
            raise ValueError("request(target, m) requires a positive m")
        if kind not in (KIND_KERNEL, KIND_MODEL):
            raise ValueError(f"kind must be 'kernel' or 'model', not {kind!r}")
        self._validate_target(kind, target)
        if not self._started:
            raise RuntimeError("fleet is not started; use it as a context manager")
        start = time.perf_counter()
        bin_m = self._bin_for(m)
        key = FleetRouter.affinity_key(kind, target, bin_m)
        future: "Future[Dict[str, object]]" = Future()
        with tracer().span("router.dispatch", key=key) as dspan:
            wire = tracer().wire_context()
            with self._lock:
                inflight = len(self._pending)
                if worker is None and inflight >= self.config.watermark:
                    self._counters["rejected"] += 1
                    excess = inflight - self.config.watermark
                    retry_after = self.config.retry_after_s * (
                        1.0 + excess / max(1, self.config.watermark)
                    )
                    dspan.set("rejected", True)
                    return FleetResponse(
                        kind=kind,
                        target=target,
                        m=m,
                        status=STATUS_REJECTED,
                        retry_after_s=retry_after,
                        latency_us=(time.perf_counter() - start) * 1e6,
                    )
                handle = self._pick_handle(key, worker)
                pending = _Pending(
                    req_id=next(self._req_ids),
                    kind=kind,
                    target=target,
                    m=m,
                    key=key,
                    future=future,
                    wire=wire,
                )
                self._counters["routed"] += 1
                self._dispatch(pending, handle)
            dspan.set("worker", pending.worker)
        try:
            payload = future.result(timeout=self.config.request_timeout_s)
        except FutureTimeoutError:
            with self._lock:
                entry = self._pending.pop(pending.req_id, None)
                if entry is not None:
                    for candidate in self._handles:
                        candidate.inflight.discard(pending.req_id)
            return FleetResponse(
                kind=kind,
                target=target,
                m=m,
                status=STATUS_ERROR,
                worker=pending.worker,
                retries=pending.retries,
                latency_us=(time.perf_counter() - start) * 1e6,
                error=(
                    f"timed out after {self.config.request_timeout_s:.0f}s"
                ),
            )
        latency_us = (time.perf_counter() - start) * 1e6
        error = payload.get("error")
        return FleetResponse(
            kind=kind,
            target=target,
            m=m,
            status=STATUS_ERROR if error else STATUS_OK,
            worker=payload.get("worker", pending.worker),
            source=payload.get("source"),
            bin_m=int(payload.get("bin_m", 0)),
            latency_us=latency_us,
            serve_us=float(payload.get("latency_us", 0.0)),
            retries=pending.retries,
            error=error,
        )

    def serve(
        self,
        target: str,
        m: Optional[int] = None,
        *,
        kind: str = KIND_KERNEL,
        max_wait_s: Optional[float] = None,
    ) -> FleetResponse:
        """Like :meth:`request`, but block-and-retry through backpressure.

        Rejected attempts honour the router's Retry-After hint and retry
        until ``max_wait_s`` (default: the config's request timeout) is
        exhausted; the last rejection is then returned as-is, so callers
        still see an explicit ``rejected`` status rather than an
        open-ended hang.
        """
        budget = (
            max_wait_s if max_wait_s is not None else self.config.request_timeout_s
        )
        deadline = time.monotonic() + budget
        while True:
            response = self.request(target, m, kind=kind)
            if not response.rejected:
                return response
            if time.monotonic() + response.retry_after_s >= deadline:
                return response
            time.sleep(response.retry_after_s)

    # ------------------------------------------------------------------ #
    # Introspection and chaos hooks
    # ------------------------------------------------------------------ #
    def queue_depths(self) -> Dict[int, int]:
        """Dispatched-but-unfinished request count per worker."""
        with self._lock:
            return {
                handle.worker_id: len(handle.inflight)
                for handle in self._handles
            }

    def alive_workers(self) -> List[int]:
        """Worker ids whose processes are currently alive."""
        with self._lock:
            return [h.worker_id for h in self._handles if h.alive()]

    def stats(self, timeout: float = 10.0) -> FleetStats:
        """Aggregate router and per-worker metrics into a snapshot.

        Workers answer on the ordinary result queue, so a worker stuck in
        a long compile delays its reply; after ``timeout`` the snapshot is
        returned with whichever workers answered (the router block is
        always complete).
        """
        token = f"stats-{next(self._stats_tokens)}"
        with self._lock:
            self._stats_replies[token] = {}
            targets = [h for h in self._handles if h.alive() and h.ready]
            for handle in targets:
                handle.task_queue.put(("stats", token))
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if len(self._stats_replies[token]) >= len(targets):
                    break
            time.sleep(0.01)
        with self._lock:
            per_worker = self._stats_replies.pop(token, {})
            router: Dict[str, object] = dict(self._counters)
            router["inflight"] = len(self._pending)
            router["queue_depth"] = {
                str(handle.worker_id): len(handle.inflight)
                for handle in self._handles
            }
            router["broadcast_warms"] = sum(
                int(payload.get("broadcast_warms", 0))
                for payload in per_worker.values()
            )
            alive = sum(1 for handle in self._handles if handle.alive())
        return FleetStats(
            workers=self.config.workers,
            alive=alive,
            router=router,
            per_worker=per_worker,
        )

    def kill_worker(self, worker_id: int) -> None:
        """Kill one worker process outright (chaos/testing hook).

        The health monitor notices, restarts the worker and fails its
        in-flight requests over to the survivors — exactly the crash path
        this method exists to exercise.
        """
        with self._lock:
            handle = self._handles[worker_id]
            process = handle.process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _bin_for(self, m: int) -> int:
        bins = self.config.m_bins
        for bin_m in bins:
            if m <= bin_m:
                return bin_m
        return bins[-1]

    @staticmethod
    def _validate_target(kind: str, target: str) -> None:
        if kind == KIND_KERNEL:
            get_workload(target)  # raises KeyError for unknown ids
        elif target not in MODEL_ZOO:
            raise KeyError(f"model {target!r} is not in the zoo")

    def _pick_handle(
        self, key: str, worker: Optional[int]
    ) -> _WorkerHandle:
        """Choose the worker for ``key`` (caller holds the lock)."""
        if worker is not None:
            return self._handles[worker]
        candidates = {
            handle.worker_id: len(handle.inflight)
            for handle in self._handles
            if handle.alive()
        }
        if not candidates:
            # Every worker is mid-restart; queue on the affinity choice.
            candidates = {
                handle.worker_id: len(handle.inflight)
                for handle in self._handles
            }
        return self._handles[self.router.route(key, candidates)]

    def _dispatch(self, pending: _Pending, handle: _WorkerHandle) -> None:
        """Send one request to one worker (caller holds the lock).

        The task tuple is ``("serve", req_id, kind, target, m)``, extended
        with the trace wire context as an optional sixth element when the
        request carries one (workers tolerate both arities).
        """
        pending.worker = handle.worker_id
        self._pending[pending.req_id] = pending
        handle.inflight.add(pending.req_id)
        task = ("serve", pending.req_id, pending.kind, pending.target, pending.m)
        if pending.wire is not None:
            task = task + (pending.wire,)
        handle.task_queue.put(task)

    def _spawn(self, handle: _WorkerHandle) -> None:
        """Start (or restart) one worker process (caller holds no/any lock)."""
        handle.incarnation += 1
        handle.ready = False
        handle.task_queue = self._ctx.Queue()
        handle.process = self._ctx.Process(
            target=worker_main,
            args=(
                handle.worker_id,
                handle.incarnation,
                self.config.to_dict(),
                self.cache_dir,
                handle.task_queue,
                self._result_queue,
            ),
            name=f"fleet-worker-{handle.worker_id}",
            daemon=True,
        )
        handle.process.start()
        log_event(
            _logger,
            "worker-start" if handle.incarnation == 0 else "worker-respawn",
            worker=handle.worker_id,
            incarnation=handle.incarnation,
            pid=handle.process.pid,
        )

    # ----------------------------- threads ---------------------------- #
    def _collect_loop(self) -> None:
        while not self._closing:
            try:
                message = self._result_queue.get(timeout=0.1)
            except Exception:  # noqa: BLE001 — queue.Empty or EOF on close
                continue
            op = message[0]
            if op == "result":
                self._on_result(message)
            elif op == "compiled":
                self._on_compiled(message)
            elif op == "ready":
                self._on_ready(message)
            elif op == "stats":
                self._on_stats(message)

    def _on_result(self, message) -> None:
        _, worker_id, _incarnation, req_id, payload = message
        payload = dict(payload)
        payload["worker"] = worker_id
        with self._lock:
            pending = self._pending.pop(req_id, None)
            for handle in self._handles:
                handle.inflight.discard(req_id)
            if pending is None:
                self._counters["duplicates"] += 1
                return
        if not pending.future.done():
            pending.future.set_result(payload)

    def _on_compiled(self, message) -> None:
        _, worker_id, _incarnation, kind, target, m = message
        if not self.config.broadcast:
            return
        with self._lock:
            self._counters["broadcasts"] += 1
            for handle in self._handles:
                if handle.worker_id == worker_id or not handle.alive():
                    continue
                handle.task_queue.put(("warm", kind, target, m))

    def _on_ready(self, message) -> None:
        _, worker_id, incarnation = message
        with self._lock:
            handle = self._handles[worker_id]
            if incarnation == handle.incarnation:
                handle.ready = True

    def _on_stats(self, message) -> None:
        _, worker_id, _incarnation, token, payload = message
        with self._lock:
            replies = self._stats_replies.get(token)
            if replies is not None:
                replies[str(worker_id)] = payload

    def _health_loop(self) -> None:
        while not self._closing:
            time.sleep(self.config.health_interval_s)
            if self._closing:
                return
            for handle in list(self._handles):
                if handle.process is not None and not handle.process.is_alive():
                    self._handle_death(handle)

    def _handle_death(self, handle: _WorkerHandle) -> None:
        """Restart a dead worker and fail its in-flight requests over."""
        with self._lock:
            if self._closing or handle.alive():
                return
            orphaned = [
                self._pending[req_id]
                for req_id in sorted(handle.inflight)
                if req_id in self._pending
            ]
            handle.inflight.clear()
            self._counters["restarts"] += 1
            if orphaned:
                self._counters["failovers"] += 1
            log_event(
                _logger,
                "worker-death",
                level=logging.WARNING,
                worker=handle.worker_id,
                incarnation=handle.incarnation,
                orphaned=len(orphaned),
            )
            self._spawn(handle)
            for pending in orphaned:
                pending.retries += 1
                if pending.retries > self.config.max_retries:
                    self._pending.pop(pending.req_id, None)
                    if not pending.future.done():
                        pending.future.set_result(
                            {
                                "source": None,
                                "bin_m": 0,
                                "latency_us": 0.0,
                                "error": (
                                    "failover budget exhausted after "
                                    f"{pending.retries - 1} retries"
                                ),
                            }
                        )
                    continue
                self._counters["retried"] += 1
                survivors = {
                    other.worker_id: len(other.inflight)
                    for other in self._handles
                    if other.alive() and other.worker_id != handle.worker_id
                }
                if survivors:
                    target = self._handles[
                        self.router.route(pending.key, survivors)
                    ]
                else:
                    target = handle  # single-worker fleet: queue on restart
                self._pending.pop(pending.req_id, None)
                self._dispatch(pending, target)

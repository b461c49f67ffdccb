"""Parallel sharded fusion search (Algorithm 2, fanned across processes).

:class:`ParallelSearchEngine` runs the serial
:class:`~repro.search.engine.SearchEngine` up to the pruned survivor list —
the factor-grid prune of :meth:`~repro.search.pruning.Pruner.prune_grid`
runs once, in the parent, and fixes the Table III counts.  It then splits
the survivor list into equal chunks and fans their analysis out to worker
processes.  Each worker analyzes and batch-scores its chunk with the same
:func:`~repro.search.engine.rank_survivors` the serial engine uses and
returns its local top-K; the parent merges them by ``(cost, enumeration
index)`` and profiles the global top-K once.  The merge key is the serial
engine's own tie-break, so the selected plan, the top-K order and every
counter are identical to the serial engine's.

Survivor counts are known before the first chunk is submitted and each
survivor costs about one analysis, so equal chunks balance the pool.
Below :data:`MIN_POOL_SURVIVORS` survivors, with one worker, or under an
analysis budget, the survivors are ranked inline exactly as in the serial
engine.
"""

from __future__ import annotations

import heapq
import json
import os
import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.dataflow.analyzer import DataflowAnalyzer
from repro.hardware.spec import HardwareSpec
from repro.ir.graph import GemmChainSpec
from repro.search.cost_model import CostModel
from repro.search.engine import (
    ProfilerFn,
    SearchEngine,
    SurvivorRanking,
    rank_survivors,
)
from repro.search.incremental import CandidateLowerBound, SubchainAnalysisCache
from repro.search.space import SearchSpace, SpaceComponents


@dataclass(frozen=True)
class SpaceConfig:
    """Picklable recipe for rebuilding a :class:`SearchSpace` in a worker."""

    max_tile: int
    powers_of_two_only: bool
    include_clusters: bool
    min_tile: int
    prevalidate_geometries: bool

    @classmethod
    def from_space(cls, space: SearchSpace) -> "SpaceConfig":
        """Capture the construction parameters of an existing space."""
        return cls(
            max_tile=space.max_tile,
            powers_of_two_only=space.powers_of_two_only,
            include_clusters=space.include_clusters,
            min_tile=space.min_tile,
            prevalidate_geometries=space.prevalidate_geometries,
        )

    def build(self, device: HardwareSpec) -> SearchSpace:
        """Instantiate the space against a device."""
        return SearchSpace(
            device,
            max_tile=self.max_tile,
            powers_of_two_only=self.powers_of_two_only,
            include_clusters=self.include_clusters,
            min_tile=self.min_tile,
            prevalidate_geometries=self.prevalidate_geometries,
        )


#: Fewer pruned survivors than this are ranked inline: a pool round trip
#: would cost more than it saves.
MIN_POOL_SURVIVORS = 512


@dataclass(frozen=True)
class ShardTask:
    """One chunk of the pruned survivors, self-contained and picklable.

    Workers rebuild candidates from enumeration indices via
    :meth:`~repro.search.space.SpaceComponents.candidate` instead of
    receiving pickled candidates.
    """

    device: HardwareSpec
    chain: GemmChainSpec
    space: SpaceConfig
    include_dsm: bool
    require_feasible: bool
    keep: int
    compute_efficiency: float
    #: Enumeration indices of the chunk's survivors, in enumeration order.
    indices: Tuple[int, ...]
    #: Memoize kind-independent analysis cores within the worker process.
    incremental: bool = True
    #: Skip analyses whose admissible lower bound exceeds the shard-local
    #: top-K threshold (plan-identical; only ``analyzed`` shrinks).
    lower_bound_prune: bool = False

    def context_key(self) -> str:
        """Identity of the per-process search context this task can reuse."""
        return json.dumps(
            [
                self.device.fingerprint(),
                self.chain.canonical_hash(),
                [
                    self.space.max_tile,
                    self.space.powers_of_two_only,
                    self.space.include_clusters,
                    self.space.min_tile,
                    self.space.prevalidate_geometries,
                ],
                self.include_dsm,
                self.compute_efficiency,
                self.incremental,
                self.lower_bound_prune,
            ],
            sort_keys=True,
            default=str,
        )


class _ShardContext:
    """Per-process state reused across the shards of one logical search.

    Workers are long-lived: the first shard of a search builds the component
    lists and analyzer; subsequent shards of the same search (same
    :meth:`ShardTask.context_key`) reuse them, so the subchain analysis
    cache compounds across chunks.
    """

    def __init__(self, task: ShardTask) -> None:
        self.chain = task.chain
        self.components = task.space.build(task.device).components(task.chain)
        self.analyzer = DataflowAnalyzer(
            task.device,
            include_dsm=task.include_dsm,
            analysis_cache=(
                SubchainAnalysisCache(
                    context=json.dumps(
                        task.device.fingerprint(), sort_keys=True, default=str
                    )
                )
                if task.incremental
                else None
            ),
        )
        self.cost_model = CostModel(
            task.device, compute_efficiency=task.compute_efficiency
        )
        self.bounds = CandidateLowerBound(task.device, self.cost_model)


#: Per-process context cache; at most one live search context per key.
_WORKER_CONTEXTS: Dict[str, _ShardContext] = {}


def _context_for(task: ShardTask) -> _ShardContext:
    """Fetch or build the per-process context for ``task``."""
    key = task.context_key()
    context = _WORKER_CONTEXTS.get(key)
    if context is not None and context.chain != task.chain:
        # The canonical hash ignores presentation fields like the chain
        # name; candidates must carry the exact chain object searched, so
        # any difference invalidates the cached context.
        context = None
    if context is None:
        # Keep a single context per worker: searches over different chains
        # should not accumulate unbounded analyzer state.
        _WORKER_CONTEXTS.clear()
        context = _ShardContext(task)
        _WORKER_CONTEXTS[key] = context
    return context


def _search_shard(task: ShardTask) -> SurvivorRanking:
    """Analyze and rank one chunk of survivors in a worker process.

    Module-level so :class:`~concurrent.futures.ProcessPoolExecutor` can
    pickle it.
    """
    context = _context_for(task)
    return rank_survivors(
        task.chain,
        context.components,
        task.indices,
        context.analyzer,
        context.cost_model,
        keep=task.keep,
        require_feasible=task.require_feasible,
        bounds=context.bounds if task.lower_bound_prune else None,
    )


class ParallelSearchEngine(SearchEngine):
    """Sharded, process-parallel drop-in for :class:`SearchEngine`.

    Exposes the same ``search(chain) -> SearchResult`` contract and — by
    construction — returns the identical best plan, top-K ordering, per-rule
    pruning statistics and candidate counts.  Wall-clock is the only thing
    sharding changes.

    Parameters
    ----------
    device:
        Target hardware, as for :class:`SearchEngine`.
    parallelism:
        Worker-process count; defaults to ``os.cpu_count()``.  With one
        worker the survivors are ranked inline, as in :class:`SearchEngine`.
    executor:
        Optional externally managed executor (shared across engines); when
        provided it is not shut down by :meth:`close` and ``parallelism``
        sets the number of survivor chunks.

    The remaining parameters mirror :class:`SearchEngine`.  One caveat: a
    custom ``cost_model`` is honoured for searches ranked inline (budgeted
    ones included), but shard workers always score with a stock
    :class:`CostModel` rebuilt from ``compute_efficiency`` — subclassed
    models do not transfer across the process boundary.

    Example
    -------
    ::

        from repro import FlashFuser, FuserConfig
        from repro.ir.workloads import get_chain_spec

        # The usual entry point: one FuserConfig knob fans cold searches
        # across 8 worker processes; the selected plan is bit-identical
        # to the serial engine's.
        with FlashFuser(FuserConfig(parallelism=8)) as compiler:
            kernel = compiler.compile_workload("G5")

        # Direct use, mirroring SearchEngine:
        from repro.hardware import h100_spec
        from repro.search import ParallelSearchEngine

        engine = ParallelSearchEngine(h100_spec(), parallelism=4)
        result = engine.search(get_chain_spec("G5"))
        engine.close()
    """

    def __init__(
        self,
        device: HardwareSpec,
        top_k: int = 11,
        include_dsm: bool = True,
        profiler: Optional[ProfilerFn] = None,
        space: Optional[SearchSpace] = None,
        cost_model: Optional[CostModel] = None,
        require_feasible: bool = True,
        max_candidates: Optional[int] = None,
        parallelism: Optional[int] = None,
        executor: Optional[Executor] = None,
        incremental: bool = True,
        lower_bound_prune: bool = False,
        transfer_bound: float = 2.0,
    ) -> None:
        super().__init__(
            device,
            top_k=top_k,
            include_dsm=include_dsm,
            profiler=profiler,
            space=space,
            cost_model=cost_model,
            require_feasible=require_feasible,
            max_candidates=max_candidates,
            incremental=incremental,
            lower_bound_prune=lower_bound_prune,
            transfer_bound=transfer_bound,
        )
        self.parallelism = max(
            1, parallelism if parallelism is not None else (os.cpu_count() or 1)
        )
        self._external_executor = executor
        self._owned_executor: Optional[ProcessPoolExecutor] = None
        # compile()/search() may be called concurrently from a thread pool
        # (BatchCompiler, KernelServer); guard the lazy pool creation.
        self._executor_lock = threading.Lock()

    def close(self) -> None:
        """Shut down the engine-owned worker pool (idempotent)."""
        with self._executor_lock:
            executor, self._owned_executor = self._owned_executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "ParallelSearchEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Sharded ranking
    # ------------------------------------------------------------------ #
    def _rank(
        self, chain: GemmChainSpec, components: SpaceComponents, survivors: np.ndarray
    ) -> SurvivorRanking:
        """Rank the survivors across the pool; the merge is order-free."""
        if (
            self.parallelism <= 1
            or self.max_candidates is not None
            or len(survivors) < MIN_POOL_SURVIVORS
        ):
            return super()._rank(chain, components, survivors)
        started = time.perf_counter()
        executor = self._ensure_executor()
        chunk = -(-len(survivors) // self.parallelism)
        futures = [
            executor.submit(_search_shard, self._task(chain, survivors[i : i + chunk]))
            for i in range(0, len(survivors), chunk)
        ]
        outcomes = [future.result() for future in futures]
        plans = heapq.nsmallest(
            self.top_k,
            (plan for outcome in outcomes for plan in outcome.plans),
            key=lambda plan: (plan[0], plan[1]),
        )
        return SurvivorRanking(
            analyzed=sum(outcome.analyzed for outcome in outcomes),
            skipped=sum(outcome.skipped for outcome in outcomes),
            plans=plans,
            # Shards analyze concurrently: their wall time is the analysis.
            analyze_s=time.perf_counter() - started,
        )

    def _task(self, chain: GemmChainSpec, indices: np.ndarray) -> ShardTask:
        return ShardTask(
            device=self.device,
            chain=chain,
            space=SpaceConfig.from_space(self.space),
            include_dsm=self.include_dsm,
            require_feasible=self.require_feasible,
            keep=self.top_k,
            compute_efficiency=self.cost_model.compute_efficiency,
            indices=tuple(indices.tolist()),
            incremental=self.incremental,
            lower_bound_prune=self.lower_bound_prune,
        )

    def _ensure_executor(self) -> Executor:
        if self._external_executor is not None:
            return self._external_executor
        with self._executor_lock:
            if self._owned_executor is None:
                self._owned_executor = ProcessPoolExecutor(max_workers=self.parallelism)
            return self._owned_executor

"""Fusion search algorithm (Algorithm 2).

The engine prunes the candidate space with Rules 1-5 on its factor grid
(:meth:`~repro.search.pruning.Pruner.prune_grid`), analyses the survivors
with the dataflow analyzer in enumeration order, scores them in bounded
batches with the minimax cost model while maintaining a top-K list, and
finally "profiles" the top-K candidates —
on real hardware this is an on-device measurement; in this reproduction it is
the cycle-accurate-ish performance simulator (or any callable the caller
provides) — to select the final execution plan.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataflow.analyzer import DataflowAnalyzer, DataflowResult
from repro.hardware.spec import HardwareSpec
from repro.obs import trace as obs_trace
from repro.obs.trace import tracer
from repro.search.cost_model import CostModel
from repro.search.pruning import Pruner, PruningStats
from repro.search.space import FusionCandidate, SearchSpace, SpaceComponents
from repro.ir.graph import GemmChainSpec

#: A profiler maps an analysed candidate to a measured/simulated time in us.
ProfilerFn = Callable[[DataflowResult], float]


@dataclass
class RankedPlan:
    """One analysed candidate together with its predicted and profiled cost."""

    candidate: FusionCandidate
    result: DataflowResult
    predicted_cost_us: float
    profiled_time_us: Optional[float] = None

    @property
    def best_known_time_us(self) -> float:
        """Profiled time when available, predicted cost otherwise."""
        return (
            self.profiled_time_us
            if self.profiled_time_us is not None
            else self.predicted_cost_us
        )


@dataclass
class SearchResult:
    """Outcome of one fusion search.

    ``mode`` records how the plan was found: ``"exact"`` for a full
    enumeration, ``"transfer"`` for a warm-started local search around a
    nearest-shape seed (see :mod:`repro.search.incremental`).
    ``candidates_skipped`` counts the neighborhood candidates a transfer
    search never analysed because their admissible lower bound already
    exceeded its top-K threshold (always 0 for an exact search).
    """

    chain: GemmChainSpec
    best: Optional[RankedPlan]
    top_k: List[RankedPlan]
    pruning_stats: PruningStats
    candidates_enumerated: int
    candidates_analyzed: int
    search_time_s: float
    mode: str = "exact"
    candidates_skipped: int = 0
    #: Per-phase wall-clock attribution in microseconds
    #: (``enumerate_prune``/``analyze``/``rank``/``profile`` for exact
    #: searches, ``transfer`` for warm-started ones).
    phase_times_us: Optional[Dict[str, float]] = None

    @property
    def succeeded(self) -> bool:
        """Whether any feasible fused plan was found."""
        return self.best is not None

    def best_result(self) -> DataflowResult:
        """The dataflow analysis of the selected plan."""
        if self.best is None:
            raise RuntimeError("search found no feasible fused plan")
        return self.best.result

    def summary(self) -> "SearchSummary":
        """Compact, serializable summary of this search."""
        return SearchSummary.from_result(self)


@dataclass
class SearchSummary:
    """Serializable digest of one fusion search.

    The plan cache persists this instead of the full :class:`SearchResult`
    (whose ranked candidates hold analyzer state that is expensive to store
    and never needed again).  It exposes the fields downstream consumers
    read — :attr:`succeeded`, :attr:`search_time_s`,
    :attr:`candidates_analyzed` — so a cache-served kernel walks and talks
    like a freshly compiled one.
    """

    workload: str
    succeeded: bool
    candidates_enumerated: int
    candidates_analyzed: int
    search_time_s: float
    predicted_cost_us: Optional[float] = None
    profiled_time_us: Optional[float] = None
    #: ``True`` when this summary was served by the plan cache rather than
    #: produced by a live search.
    from_cache: bool = False
    #: ``"exact"`` or ``"transfer"`` — how the plan was found.
    mode: str = "exact"
    #: Transfer-search candidates skipped by the admissible lower bound.
    candidates_skipped: int = 0
    #: Per-phase wall-clock attribution in microseconds (``None`` for
    #: summaries persisted before phase attribution existed).
    phase_times_us: Optional[Dict[str, float]] = None

    @classmethod
    def from_result(cls, result: SearchResult) -> "SearchSummary":
        """Digest a full search result."""
        best = result.best
        return cls(
            workload=result.chain.name,
            succeeded=result.succeeded,
            candidates_enumerated=result.candidates_enumerated,
            candidates_analyzed=result.candidates_analyzed,
            search_time_s=result.search_time_s,
            predicted_cost_us=best.predicted_cost_us if best else None,
            profiled_time_us=best.profiled_time_us if best else None,
            mode=result.mode,
            candidates_skipped=result.candidates_skipped,
            phase_times_us=(
                dict(result.phase_times_us)
                if result.phase_times_us is not None
                else None
            ),
        )

    def to_dict(self) -> dict:
        """Serialize to plain JSON-compatible data."""
        return {
            "workload": self.workload,
            "succeeded": self.succeeded,
            "candidates_enumerated": self.candidates_enumerated,
            "candidates_analyzed": self.candidates_analyzed,
            "search_time_s": self.search_time_s,
            "predicted_cost_us": self.predicted_cost_us,
            "profiled_time_us": self.profiled_time_us,
            "mode": self.mode,
            "candidates_skipped": self.candidates_skipped,
            "phase_times_us": self.phase_times_us,
        }

    @classmethod
    def from_dict(cls, payload: dict, from_cache: bool = False) -> "SearchSummary":
        """Rebuild a summary from :meth:`to_dict` output.

        Summaries persisted before the incremental-search fields existed
        load with the defaults (``mode="exact"``, no skips, no phase
        attribution).
        """
        raw_phases = payload.get("phase_times_us")
        return cls(
            workload=str(payload["workload"]),
            succeeded=bool(payload["succeeded"]),
            candidates_enumerated=int(payload["candidates_enumerated"]),
            candidates_analyzed=int(payload["candidates_analyzed"]),
            search_time_s=float(payload["search_time_s"]),
            predicted_cost_us=payload.get("predicted_cost_us"),
            profiled_time_us=payload.get("profiled_time_us"),
            from_cache=from_cache,
            mode=str(payload.get("mode", "exact")),
            candidates_skipped=int(payload.get("candidates_skipped", 0)),
            phase_times_us=(
                {str(k): float(v) for k, v in dict(raw_phases).items()}
                if raw_phases is not None
                else None
            ),
        )


class SearchEngine:
    """FlashFuser's fusion search engine.

    Parameters
    ----------
    device:
        Target hardware.
    top_k:
        Number of candidates kept for final profiling; the paper selects 11
        (Figure 12b).
    include_dsm:
        Whether DSM participates in spilling and cluster geometries are
        explored.  Disabling this reproduces SMEM-only prior work.
    profiler:
        Optional callable returning a measured/simulated time for a
        candidate; when omitted the cost model's prediction ranks the top-K.
    space:
        Candidate space (defaults to power-of-two tiles up to 256).
    require_feasible:
        Drop candidates whose persistent intermediate spills to global
        memory (the definition of a fusion failure).
    incremental:
        Memoize the kind-independent core of every candidate analysis in a
        :class:`~repro.search.incremental.SubchainAnalysisCache`, so a
        gated-FFN search reuses its standard-FFN prefix work.  Plan-neutral:
        the selected plans are bit-identical either way.
    transfer_bound:
        Acceptance bound of warm-started transfer searches (used when
        :meth:`search` is given a ``transfer_seed``): the transferred
        plan's predicted cost must stay within this factor of the chain's
        absolute lower bound, else the engine falls back to full
        enumeration.

    Example
    -------
    ::

        from repro.hardware import h100_spec
        from repro.ir.workloads import get_chain_spec
        from repro.search import SearchEngine

        engine = SearchEngine(h100_spec(), top_k=5)
        result = engine.search(get_chain_spec("G1"))
        print(result.succeeded, result.best.predicted_cost_us)
        print(result.summary())      # candidates, prune counts, wall clock

    Most callers should go through :class:`~repro.api.FlashFuser`, which
    memoizes engines per configuration and layers the plan cache on top.
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
        incremental: bool = True,
        transfer_bound: float = 2.0,
    ) -> None:
        # Local import: incremental.py returns SearchResult objects, so the
        # module-level dependency must point the other way.
        from repro.search.incremental import SubchainAnalysisCache

        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.device = device
        self.top_k = top_k
        self.include_dsm = include_dsm and device.has_dsm
        self.profiler = profiler
        self.space = space or SearchSpace(device, include_clusters=self.include_dsm)
        self.cost_model = cost_model or CostModel(device)
        self.incremental = incremental
        self.analysis_cache = SubchainAnalysisCache() if incremental else None
        self.analyzer = DataflowAnalyzer(
            device,
            include_dsm=self.include_dsm,
            analysis_cache=self.analysis_cache,
        )
        self.require_feasible = require_feasible
        self.max_candidates = max_candidates
        self.transfer_bound = transfer_bound

    # ------------------------------------------------------------------ #
    # Algorithm 2
    # ------------------------------------------------------------------ #
    def search(self, chain: GemmChainSpec, transfer_seed=None) -> SearchResult:
        """Find the best fused execution plan for ``chain``.

        With a ``transfer_seed`` (a
        :class:`~repro.search.incremental.TransferSeed` from a previously
        compiled nearby shape), a bounded local search around the seed
        runs first; its result is returned (``mode="transfer"``) when it
        passes the acceptance bound, otherwise the full enumeration runs
        as usual.
        """
        if transfer_seed is not None:
            with tracer().span("search.transfer", chain=chain.name) as tspan:
                transferred = self._transfer_search(chain, transfer_seed)
                tspan.set("accepted", transferred is not None)
            if transferred is not None:
                if transferred.phase_times_us is None:
                    transferred.phase_times_us = {
                        "transfer": transferred.search_time_s * 1e6
                    }
                return transferred
        start = time.perf_counter()
        pruner = Pruner(self.device, include_dsm=self.include_dsm)
        components = self.space.components(chain)
        survivors = pruner.prune_grid(chain, components)
        prune_s = time.perf_counter() - start
        ranking = self._rank(chain, components, survivors)

        # Rank by cost with enumeration order as the tie-break, so the top-K
        # ordering is fully deterministic wherever the survivors were scored.
        ranked = [
            (
                RankedPlan(candidate=candidate, result=result, predicted_cost_us=cost),
                index,
            )
            for cost, index, candidate, result in ranking.plans
        ]

        # Final profiling of the top-K candidates (on-device measurement in
        # the paper, simulator here).
        profile_s = 0.0
        if self.profiler is not None:
            profile_t0 = time.perf_counter()
            for plan, _ in ranked:
                plan.profiled_time_us = self.profiler(plan.result)
            ranked.sort(key=lambda pair: (pair[0].best_known_time_us, pair[1]))
            profile_s = time.perf_counter() - profile_t0
        top_k = [plan for plan, _ in ranked]

        elapsed = time.perf_counter() - start
        rank_s = max(0.0, elapsed - prune_s - ranking.analyze_s - profile_s)
        phase_times_us = {
            "enumerate_prune": prune_s * 1e6,
            "analyze": ranking.analyze_s * 1e6,
            "rank": rank_s * 1e6,
            "profile": profile_s * 1e6,
        }
        if obs_trace.enabled():
            end_us = obs_trace.now_us()
            tracer().emit(
                "search.exact",
                start_us=end_us - elapsed * 1e6,
                end_us=end_us,
                chain=chain.name,
                analyzed=ranking.analyzed,
            )
        return SearchResult(
            chain=chain,
            best=top_k[0] if top_k else None,
            top_k=top_k,
            pruning_stats=pruner.stats,
            candidates_enumerated=pruner.stats.initial,
            candidates_analyzed=ranking.analyzed,
            search_time_s=elapsed,
            phase_times_us=phase_times_us,
        )

    def _rank(
        self, chain: GemmChainSpec, components: SpaceComponents, survivors: np.ndarray
    ) -> SurvivorRanking:
        """Analyze and score the pruned survivors, keeping the top-K."""
        return rank_survivors(
            chain,
            components,
            survivors,
            self.analyzer,
            self.cost_model,
            keep=self.top_k,
            require_feasible=self.require_feasible,
            budget=self.max_candidates,
        )

    def _transfer_search(self, chain: GemmChainSpec, seed) -> Optional[SearchResult]:
        """Bounded local search around ``seed``; ``None`` means fall back."""
        from repro.search.incremental import TransferSearch

        transfer = TransferSearch(
            self.device,
            space=self.space,
            cost_model=self.cost_model,
            top_k=self.top_k,
            include_dsm=self.include_dsm,
            require_feasible=self.require_feasible,
            transfer_bound=self.transfer_bound,
            profiler=self.profiler,
            analyzer=self.analyzer,
        )
        return transfer.search(chain, seed)


#: Largest number of analysed survivors scored in one
#: :meth:`CostModel.evaluate_batch` call; bounds the analyses held at once.
SCORE_BATCH = 1024

#: ``(predicted_cost_us, enumeration_index, candidate, analysis)``.
ScoredPlan = Tuple[float, int, FusionCandidate, DataflowResult]


@dataclass
class SurvivorRanking:
    """What analysing and scoring a run of pruned survivors yields."""

    analyzed: int
    #: At most ``keep`` entries: the smallest ``(cost, index)`` pairs, sorted.
    plans: List[ScoredPlan]
    #: Wall-clock seconds spent in the dataflow analyzer.
    analyze_s: float


def rank_survivors(
    chain: GemmChainSpec,
    components: SpaceComponents,
    survivors: Sequence[int],
    analyzer: DataflowAnalyzer,
    cost_model: CostModel,
    keep: int,
    require_feasible: bool = True,
    budget: Optional[int] = None,
) -> SurvivorRanking:
    """Analyze survivors in enumeration order and keep the ``keep`` best.

    Feasible analyses are scored with :meth:`CostModel.evaluate_batch` in
    batches of at most :data:`SCORE_BATCH`.  The running top-K holds the
    ``keep`` lexicographically smallest ``(cost, index)`` pairs, so the
    result does not depend on batch boundaries.  An analysis whose
    :meth:`CostModel.memory_floor_us` already reaches the worst kept cost
    is not scored: it could at best tie that cost, and it loses the tie.
    ``budget`` caps the analyses.
    """
    # Max-heap by (cost, index): entries are (-cost, -index, analysis), so
    # the root is the worst kept plan.  A new arrival has the largest index
    # so far and loses cost ties, so it replaces the root only when strictly
    # cheaper.  Indices are unique: comparisons never reach the analysis.
    heap: List[Tuple[float, int, DataflowResult]] = []
    pending: List[Tuple[int, DataflowResult]] = []
    analyzed = 0
    analyze_s = 0.0

    def score_pending() -> None:
        costs = cost_model.evaluate_batch([result for _, result in pending])
        for cost, (index, result) in zip(costs.tolist(), pending):
            if len(heap) < keep:
                heapq.heappush(heap, (-cost, -index, result))
            elif -heap[0][0] > cost:
                heapq.heapreplace(heap, (-cost, -index, result))
        pending.clear()

    indices = np.asarray(survivors, dtype=np.intp)
    # decompose() is plain integer arithmetic, so it maps the whole array.
    parts = [part.tolist() for part in components.decompose(indices)]
    for index, schedule, geometry, tile, gated in zip(map(int, indices), *parts):
        if budget is not None and analyzed >= budget:
            break
        analyze_t0 = time.perf_counter()
        result = analyzer.analyze(
            chain,
            components.schedules[schedule],
            components.tiles[tile],
            components.geometries[geometry],
            gated_sequential=components.gated_modes[gated],
        )
        analyze_s += time.perf_counter() - analyze_t0
        analyzed += 1
        if require_feasible and not result.feasible:
            continue
        # The heap reflects the last scored batch; its worst cost only falls
        # over time, so a stale threshold never skips a plan that could enter.
        if len(heap) == keep and cost_model.memory_floor_us(result) >= -heap[0][0]:
            continue
        pending.append((index, result))
        if len(pending) >= SCORE_BATCH:
            score_pending()
    score_pending()

    plans = [
        (-neg_cost, -neg_index, components.candidate(chain, -neg_index), result)
        for neg_cost, neg_index, result in sorted(heap, reverse=True)
    ]
    return SurvivorRanking(analyzed, plans, analyze_s)

"""Pruning rules (Section IV-C2).

Five rules cut the search space before any candidate reaches the dataflow
analyzer.  Rule 1 (divisible tile sizes) is inherited from prior work
(MCFuser); Rules 2-5 are specific to the cluster-expanded space:

* **Rule 1 — divisible tile sizes**: block tiles are MMA-granular and the
  cluster tile divides the problem extents evenly.
* **Rule 2 — cluster size constraint**: the per-GEMM product of cluster
  dimensions respects the hardware maximum (16 blocks on H100); both GEMMs
  share one cluster shape by construction of
  :class:`~repro.dsm_comm.geometry.ClusterGeometry`.
* **Rule 3 — activation constraint**: the accumulation dimension of the
  first GEMM (k) must be fully reduced before the activation runs — k is
  the innermost temporal loop, or, if spatial, one cluster covers its whole
  extent (so the all_exchange finishes the reduction on chip).
* **Rule 4 — dependency constraint**: a spatial split of L across clusters
  would require every cluster to see the full intermediate C, which cannot
  be communicated between clusters; L may be spatial only if a single
  cluster tile spans the whole L extent.
* **Rule 5 — memory capacity limit**: the persistent intermediate must fit
  within the on-chip spill budget (registers + SMEM + DSM of the chosen
  cluster).

Each rule reads only a small factor of a search point, its *factor key*:

=====  ======================================================
rule   factor key
=====  ======================================================
1      (geometry, tile)
2      geometry
3      (schedule, block_k, cls_k)
4      (schedule, block_n, block_l, cls_l)
5      (schedule, cluster tile, blocks per cluster)
=====  ======================================================

Rule 5 reads the tile and geometry only through the cluster tile (block
tile times cluster size, per dimension) and the cluster's block count.  No
rule reads the gated mode.  :meth:`Pruner.prune_grid` therefore calls each
scalar rule method once per distinct factor key, broadcasts Rules 1-4 to
boolean (schedule, geometry, tile) masks, evaluates Rule 5 only for the
keys of points that survive them, and derives the Table III counts from
the cumulative mask sums.  Searches, :meth:`Pruner.passes` and
:meth:`Pruner.failed_rule` all run the same rule methods, so the search
and the plan verifier cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.dataflow.footprint import reused_tensor_footprint
from repro.dataflow.resource_map import default_budgets
from repro.hardware.spec import HardwareSpec
from repro.ir.graph import GemmChainSpec
from repro.search.space import FusionCandidate, SpaceComponents


class PruningRule(Enum):
    """The five rules of Section IV-C2, in application order."""

    DIVISIBLE_TILES = "rule1_divisible_tiles"
    CLUSTER_SIZE = "rule2_cluster_size"
    ACTIVATION = "rule3_activation"
    DEPENDENCY = "rule4_dependency"
    MEMORY_CAPACITY = "rule5_memory_capacity"


@dataclass
class PruningStats:
    """Counts of candidates surviving each rule (Table III)."""

    initial: int = 0
    surviving: Dict[PruningRule, int] = field(default_factory=dict)

    def record(self, rule: PruningRule, count: int) -> None:
        """Record the number of candidates alive after ``rule``."""
        self.surviving[rule] = count

    def reduction_rate(self, rule: PruningRule) -> float:
        """Fractional reduction achieved by ``rule`` relative to its input."""
        rules = list(PruningRule)
        index = rules.index(rule)
        before = self.initial if index == 0 else self.surviving[rules[index - 1]]
        after = self.surviving[rule]
        if before == 0:
            return 0.0
        return 1.0 - after / before

    @property
    def final(self) -> int:
        """Candidates alive after the full cascade."""
        if not self.surviving:
            return self.initial
        return self.surviving[list(PruningRule)[-1]]

    def total_reduction(self) -> float:
        """Overall reduction rate of the cascade."""
        if self.initial == 0:
            return 0.0
        return 1.0 - self.final / self.initial

    def as_rows(self) -> List[Tuple[str, int, float]]:
        """Rows of Table III: (step name, candidate count, reduction rate)."""
        rows: List[Tuple[str, int, float]] = [("Original Space", self.initial, 0.0)]
        for rule in PruningRule:
            if rule in self.surviving:
                rows.append(
                    (f"+ {rule.value}", self.surviving[rule], self.reduction_rate(rule))
                )
        return rows


class Pruner:
    """Apply the pruning cascade to candidates and keep per-rule statistics.

    Parameters
    ----------
    device:
        Hardware spec used for cluster limits and capacity budgets.
    include_dsm:
        Whether the DSM tier counts towards the Rule 5 capacity budget
        (``False`` reproduces the prior-work, SMEM-only space).
    """

    def __init__(self, device: HardwareSpec, include_dsm: bool = True) -> None:
        self.device = device
        self.include_dsm = include_dsm and device.has_dsm
        self.stats = PruningStats()
        # On-chip capacity per cluster size is a pure function of the
        # hardware; cache it because Rule 5 runs for every candidate.
        self._capacity_cache: Dict[Tuple[int, bool], float] = {}

    # ------------------------------------------------------------------ #
    # Individual rules
    # ------------------------------------------------------------------ #
    #: Maximum padding waste tolerated for extents that no MMA-granular tile
    #: divides exactly (e.g. the 196-row M of the C3/C4 conv chains).
    MAX_PADDING_WASTE = 0.125

    def rule1_divisible_tiles(self, candidate: FusionCandidate) -> bool:
        """Rule 1: MMA-granular block tiles that evenly divide the problem.

        Extents that are themselves multiples of the MMA granularity must be
        divided exactly; irregular extents are handled by padding, with the
        waste capped at :data:`MAX_PADDING_WASTE`.
        """
        limits = self.device.cluster_limits
        tile = candidate.tile
        if not tile.respects_mma(limits):
            return False
        if not tile.fits_problem(candidate.chain):
            return False
        mma = limits.mma_tile[0]
        sizes = candidate.chain.dimension_sizes()
        cluster = candidate.tile.cluster_tile(candidate.geometry)
        for dim, extent in sizes.items():
            if extent % cluster[dim] == 0:
                continue
            if extent % mma == 0:
                # A regular extent must be tiled exactly.
                return False
            padded = -(-extent // cluster[dim]) * cluster[dim]
            if (padded - extent) / padded > self.MAX_PADDING_WASTE:
                return False
        return True

    def rule2_cluster_size(self, candidate: FusionCandidate) -> bool:
        """Rule 2: the cluster shape respects the hardware block limit."""
        if not self.include_dsm:
            return candidate.geometry.blocks_per_cluster == 1
        return candidate.geometry.is_valid(self.device.cluster_limits)

    def rule3_activation(self, candidate: FusionCandidate) -> bool:
        """Rule 3: GEMM0's reduction finishes before the activation runs."""
        schedule = candidate.schedule
        chain = candidate.chain
        if schedule.is_temporal("k"):
            return schedule.innermost() == "k"
        # k is spatial: the intra-cluster all_exchange completes the
        # reduction only if one cluster tile spans the whole K extent.
        covered = candidate.tile.block_k * candidate.geometry.cls_k
        return covered >= chain.k

    def rule4_dependency(self, candidate: FusionCandidate) -> bool:
        """Rule 4: a spatial L split must not cross cluster boundaries.

        Blocks in different clusters cannot exchange the intermediate C, so a
        spatial L partition is only legal when one cluster tile spans the
        whole L extent.  Without DSM the same argument applies to a spatial
        split of the GEMM1 reduction dimension N: prior-work kernels have no
        cross-block reduction path, so N may be spatial only if a single
        block covers it.
        """
        schedule = candidate.schedule
        if schedule.is_spatial("l"):
            covered = candidate.tile.block_l * candidate.geometry.cls_l
            if covered < candidate.chain.l:
                return False
        if not self.include_dsm and schedule.is_spatial("n"):
            if candidate.tile.block_n < candidate.chain.n:
                return False
        return True

    def rule5_memory_capacity(self, candidate: FusionCandidate) -> bool:
        """Rule 5: the persistent intermediate fits the on-chip budget."""
        reused = reused_tensor_footprint(
            candidate.chain, candidate.schedule, candidate.tile, candidate.geometry
        )
        on_chip = self._on_chip_capacity(
            candidate.geometry.blocks_per_cluster if self.include_dsm else 1,
            self.include_dsm and candidate.geometry.uses_dsm,
        )
        return reused.footprint_bytes <= on_chip

    def _on_chip_capacity(self, cluster_blocks: int, include_dsm: bool) -> float:
        """Total on-chip spill budget for one cluster size (cached)."""
        key = (cluster_blocks, include_dsm)
        if key not in self._capacity_cache:
            hierarchy = self.device.memory_hierarchy_for_cluster(cluster_blocks)
            budgets = default_budgets(hierarchy, include_dsm=include_dsm)
            self._capacity_cache[key] = sum(
                budget.capacity_bytes
                for budget in budgets
                if budget.capacity_bytes != float("inf")
            )
        return self._capacity_cache[key]

    # ------------------------------------------------------------------ #
    # Cascade application
    # ------------------------------------------------------------------ #
    def rules(self) -> List[Tuple[PruningRule, Callable[[FusionCandidate], bool]]]:
        """The rules in application order."""
        return [
            (PruningRule.DIVISIBLE_TILES, self.rule1_divisible_tiles),
            (PruningRule.CLUSTER_SIZE, self.rule2_cluster_size),
            (PruningRule.ACTIVATION, self.rule3_activation),
            (PruningRule.DEPENDENCY, self.rule4_dependency),
            (PruningRule.MEMORY_CAPACITY, self.rule5_memory_capacity),
        ]

    def passes(self, candidate: FusionCandidate) -> bool:
        """Whether a candidate survives the full cascade."""
        return all(rule(candidate) for _, rule in self.rules())

    def failed_rule(self, candidate: FusionCandidate) -> Optional[PruningRule]:
        """The first rule a candidate fails, or ``None`` if it survives."""
        for rule_id, rule in self.rules():
            if not rule(candidate):
                return rule_id
        return None

    def prune(self, candidates: Iterable[FusionCandidate]) -> Iterator[FusionCandidate]:
        """Yield the survivors of an ad-hoc candidate list, recording Table III.

        Searches prune their whole space with :meth:`prune_grid`; this
        wrapper over :meth:`failed_rule` serves hand-built lists.
        """
        order = list(PruningRule)
        passed = [0] * len(order)
        initial = 0
        for candidate in candidates:
            initial += 1
            failed = self.failed_rule(candidate)
            for depth in range(len(order) if failed is None else order.index(failed)):
                passed[depth] += 1
            if failed is None:
                yield candidate
        self.stats = PruningStats(initial=initial, surviving=dict(zip(order, passed)))

    def prune_list(
        self, candidates: Iterable[FusionCandidate]
    ) -> List[FusionCandidate]:
        """Materialised version of :meth:`prune`."""
        return list(self.prune(candidates))

    def prune_grid(
        self, chain: GemmChainSpec, components: SpaceComponents
    ) -> np.ndarray:
        """Prune a whole search space at the factor level of each rule.

        Returns the enumeration indices (see
        :meth:`~repro.search.space.SpaceComponents.decompose`) of the
        surviving candidates, in enumeration order, and records the exact
        per-rule survivor counts of the object-wise cascade in
        :attr:`stats`.
        """
        schedules = components.schedules
        geometries = components.geometries
        tiles = components.tiles
        shape = (len(schedules), len(geometries), len(tiles))
        gated = len(components.gated_modes)
        if 0 in shape:
            self.stats = PruningStats(surviving=dict.fromkeys(PruningRule, 0))
            return np.zeros(0, dtype=np.intp)

        def probe(s: int, g: int, t: int) -> FusionCandidate:
            return FusionCandidate(
                chain=chain,
                schedule=schedules[s],
                tile=tiles[t],
                geometry=geometries[g],
            )

        def table(dims: Tuple[int, ...], verdict) -> np.ndarray:
            return np.fromiter(
                (verdict(*key) for key in np.ndindex(*dims)),
                dtype=bool,
                count=int(np.prod(dims)),
            ).reshape(dims)

        def per_schedule(rule, geometry_key, tile_key) -> np.ndarray:
            """A rule read once per (schedule, geometry key, tile key)."""
            g_code, g_first = _factor([geometry_key(g) for g in geometries])
            t_code, t_first = _factor([tile_key(t) for t in tiles])
            verdicts = table(
                (shape[0], len(g_first), len(t_first)),
                lambda s, g, t: rule(probe(s, g_first[g], t_first[t])),
            )
            return verdicts[:, g_code[:, None], t_code[None, :]]

        rule1 = table(
            shape[1:], lambda g, t: self.rule1_divisible_tiles(probe(0, g, t))
        )
        rule2 = table(shape[1:2], lambda g: self.rule2_cluster_size(probe(0, g, 0)))
        rule3 = per_schedule(
            self.rule3_activation, lambda g: g.cls_k, lambda t: t.block_k
        )
        rule4 = per_schedule(
            self.rule4_dependency, lambda g: g.cls_l, lambda t: (t.block_n, t.block_l)
        )

        # The cascade's cumulative mask; Rules 1-2 hold for every schedule.
        alive = rule1 & rule2[:, None]
        passed = [shape[0] * int(rule1.sum()), shape[0] * int(alive.sum())]
        alive = alive & rule3
        passed.append(int(alive.sum()))
        alive &= rule4
        passed.append(int(alive.sum()))
        # Flat C-order positions of the grid are enumeration order.
        points = np.flatnonzero(alive)
        # Rule 5: one verdict per (schedule, cluster tile, cluster blocks).
        pair, _ = _factor(
            [
                (*tile.cluster_tile(geometry).values(), geometry.blocks_per_cluster)
                for geometry in geometries
                for tile in tiles
            ]
        )
        s, g, t = np.unravel_index(points, shape)
        keys = s * len(pair) + pair.reshape(shape[1:])[g, t]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        rule5 = np.fromiter(
            (self.rule5_memory_capacity(probe(s[i], g[i], t[i])) for i in first),
            dtype=bool,
            count=len(first),
        )
        points = points[rule5[inverse]]

        passed.append(len(points))
        self.stats = PruningStats(
            initial=int(np.prod(shape)) * gated,
            surviving={
                rule: count * gated for rule, count in zip(PruningRule, passed)
            },
        )
        return (points[:, None] * gated + np.arange(gated)).ravel()


def _factor(keys: List[Hashable]) -> Tuple[np.ndarray, List[int]]:
    """Code each key by its distinct value; also the first position of each."""
    codes: Dict[Hashable, int] = {}
    firsts: List[int] = []
    inverse = np.empty(len(keys), dtype=np.intp)
    for position, key in enumerate(keys):
        if key not in codes:
            codes[key] = len(firsts)
            firsts.append(position)
        inverse[position] = codes[key]
    return inverse, firsts

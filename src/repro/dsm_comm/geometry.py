"""Cluster geometry: how a fused GEMM chain maps onto a thread-block cluster.

Following Section IV-A, a fused two-GEMM kernel is parameterised by

* ``cls_i`` — the number of parallel blocks a cluster devotes to loop
  dimension ``i`` (for i in m, n, k, l), and
* ``blk_i`` — the data granularity one block computes along dimension ``i``.

Two derived quantities fully determine the communication pattern:

* ``cls_shuffle = cls_l / cls_k`` — blocks per shuffle group, and
* ``cls_reduce = cls_n * cls_k / cls_l`` — shuffle groups that accumulate one
  output tile during the store phase.

Figure 7 walks through cluster sizes (2, 4, 2, 4) and (2, 4, 2, 8): the
latter has ``cls_reduce = 1`` (no scatter-reduce needed) at the price of a
larger shuffle group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from repro.hardware.cluster import ClusterLimits

#: ClusterGeometry field holding the cluster size of each loop dimension.
_CLUSTER_FIELDS = {"m": "cls_m", "n": "cls_n", "k": "cls_k", "l": "cls_l"}


@dataclass(frozen=True)
class ClusterGeometry:
    """Per-dimension cluster sizes of one fused kernel.

    Parameters
    ----------
    cls_m, cls_n, cls_k, cls_l:
        Number of parallel blocks along each loop dimension.  ``cls_l`` must
        be divisible by ``cls_k`` and ``cls_n * cls_k`` divisible by
        ``cls_l`` so the derived shuffle/reduce group sizes are integral.
    """

    cls_m: int
    cls_n: int
    cls_k: int
    cls_l: int

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.cls_l % self.cls_k != 0:
            raise ValueError(
                "cls_l must be divisible by cls_k so the shuffle group size "
                f"is integral (cls_l={self.cls_l}, cls_k={self.cls_k})"
            )
        if (self.cls_n * self.cls_k) % self.cls_l != 0:
            raise ValueError(
                "cls_n * cls_k must be divisible by cls_l so the reduce "
                f"group count is integral (cls_n={self.cls_n}, "
                f"cls_k={self.cls_k}, cls_l={self.cls_l})"
            )

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, int]:
        """Per-dimension sizes keyed by ``cls_m`` ... ``cls_l``."""
        return {
            "cls_m": self.cls_m,
            "cls_n": self.cls_n,
            "cls_k": self.cls_k,
            "cls_l": self.cls_l,
        }

    def as_tuple(self) -> Tuple[int, int, int, int]:
        """Sizes in (m, n, k, l) order."""
        return (self.cls_m, self.cls_n, self.cls_k, self.cls_l)

    def size_of(self, dim: str) -> int:
        """Cluster size along loop dimension ``dim`` (one of m/n/k/l)."""
        return getattr(self, _CLUSTER_FIELDS[dim])

    @property
    def blocks_per_cluster(self) -> int:
        """Number of thread blocks in the cluster.

        One block exists per (m, n, k) coordinate of GEMM0; those same blocks
        are re-purposed in the GEMM1/store phases, so the count is
        ``cls_m * cls_n * cls_k``.
        """
        return self.cls_m * self.cls_n * self.cls_k

    @property
    def cls_shuffle(self) -> int:
        """Blocks per shuffle group (``cls_l / cls_k``)."""
        return self.cls_l // self.cls_k

    @property
    def cls_reduce(self) -> int:
        """Shuffle groups reduced together in the store phase."""
        return (self.cls_n * self.cls_k) // self.cls_l

    @property
    def uses_dsm(self) -> bool:
        """Whether the geometry requires any inter-block communication."""
        return self.blocks_per_cluster > 1

    @property
    def needs_all_exchange(self) -> bool:
        """Whether GEMM0 partial sums must be combined (K is split)."""
        return self.cls_k > 1

    @property
    def needs_shuffle(self) -> bool:
        """Whether C slices must be exchanged before GEMM1."""
        return self.cls_shuffle > 1

    @property
    def needs_reduce_scatter(self) -> bool:
        """Whether partial E tiles must be reduced across shuffle groups."""
        return self.cls_reduce > 1

    # ------------------------------------------------------------------ #
    # Validation against hardware limits
    # ------------------------------------------------------------------ #
    def is_valid(self, limits: ClusterLimits) -> bool:
        """Whether the geometry respects the hardware cluster limits.

        Implements pruning Rule 2: the block count per cluster must not
        exceed the hardware maximum and every per-dimension size must come
        from the allowed set.
        """
        if not limits.cluster_product_ok(self.cls_m, self.cls_n, self.cls_k):
            return False
        return all(limits.dim_size_allowed(size) for size in self.as_tuple())

    # ------------------------------------------------------------------ #
    # Enumeration helper used by the search space construction
    # ------------------------------------------------------------------ #
    @classmethod
    def enumerate(
        cls, limits: ClusterLimits, validate: bool = False
    ) -> Iterator["ClusterGeometry"]:
        """Yield cluster geometries drawn from the allowed dimension sizes.

        With ``validate=False`` (the default) every combination of allowed
        per-dimension sizes that satisfies the divisibility requirements is
        yielded — this is the *initial* search space of Section IV-C whose
        size the pruning cascade of Table III then reduces.  With
        ``validate=True`` only geometries that pass :meth:`is_valid` are
        yielded.
        """
        sizes = limits.allowed_dim_sizes
        for cls_m in sizes:
            for cls_n in sizes:
                for cls_k in sizes:
                    for cls_l in sizes:
                        if cls_l % cls_k != 0:
                            continue
                        if (cls_n * cls_k) % cls_l != 0:
                            continue
                        geometry = cls(cls_m, cls_n, cls_k, cls_l)
                        if validate and not geometry.is_valid(limits):
                            continue
                        yield geometry

    @classmethod
    def single_block(cls) -> "ClusterGeometry":
        """The degenerate geometry of one block (no DSM communication)."""
        return cls(1, 1, 1, 1)

"""Tile configurations.

Tiling is defined at two hierarchical levels (Section IV-B2):

* the **block tile** (``tile.block``) — the data granularity one thread block
  computes along each dimension, and
* the **cluster tile** (``tile.cluster``) — the block tile multiplied by the
  per-dimension cluster size, i.e. the region one cluster covers.

Block tile sizes must be multiples of the MMA granularity (16); Rule 1
additionally requires them to divide the problem extents evenly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

from repro.dsm_comm.geometry import ClusterGeometry
from repro.hardware.cluster import ClusterLimits
from repro.ir.graph import GemmChainSpec

#: TileConfig field holding the block tile of each loop dimension.
_BLOCK_FIELDS = {"m": "block_m", "n": "block_n", "k": "block_k", "l": "block_l"}


@dataclass(frozen=True)
class TileConfig:
    """Block-level tile sizes for the four chain dimensions.

    Parameters
    ----------
    block:
        Mapping from dimension name (m/n/k/l) to the block tile extent.
    """

    block_m: int
    block_n: int
    block_k: int
    block_l: int

    def __post_init__(self) -> None:
        for dim in ("m", "n", "k", "l"):
            if self.block_of(dim) <= 0:
                raise ValueError(f"block tile along {dim} must be positive")

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def block_of(self, dim: str) -> int:
        """Block tile extent along ``dim``."""
        return getattr(self, _BLOCK_FIELDS[dim])

    def as_dict(self) -> Dict[str, int]:
        """Block tile extents keyed by dimension name."""
        return {dim: self.block_of(dim) for dim in ("m", "n", "k", "l")}

    def cluster_tile(self, geometry: ClusterGeometry) -> Dict[str, int]:
        """Cluster tile extents (block tile x per-dimension cluster size)."""
        return {
            "m": self.block_m * geometry.cls_m,
            "n": self.block_n * geometry.cls_n,
            "k": self.block_k * geometry.cls_k,
            "l": self.block_l * geometry.cls_l,
        }

    # ------------------------------------------------------------------ #
    # Validity
    # ------------------------------------------------------------------ #
    def respects_mma(self, limits: ClusterLimits) -> bool:
        """Whether every block tile is a multiple of the MMA granularity."""
        min_m, min_n, min_k = limits.mma_tile
        return (
            self.block_m % min_m == 0
            and self.block_n % min_n == 0
            and self.block_k % min_k == 0
            and self.block_l % min_n == 0
        )

    def divides_problem(
        self,
        chain: GemmChainSpec,
        geometry: ClusterGeometry,
        max_padding_waste: float = 0.0,
    ) -> bool:
        """Rule 1: the cluster tile evenly divides every problem extent.

        ``max_padding_waste`` relaxes the rule for irregular extents (for
        example the M = H*W*batch dimension of im2col-lowered convolutions):
        a cluster tile is accepted if padding the extent up to the next
        multiple wastes at most that fraction of the padded work.
        """
        cluster = self.cluster_tile(geometry)
        sizes = chain.dimension_sizes()
        for dim, tile in cluster.items():
            extent = sizes[dim]
            if extent % tile == 0:
                continue
            if max_padding_waste <= 0.0:
                return False
            padded = -(-extent // tile) * tile
            waste = (padded - extent) / padded
            if waste > max_padding_waste:
                return False
        return True

    def fits_problem(self, chain: GemmChainSpec) -> bool:
        """Whether no block tile exceeds its problem extent."""
        sizes = chain.dimension_sizes()
        return all(self.block_of(dim) <= sizes[dim] for dim in sizes)


def candidate_tile_sizes(
    extent: int,
    mma: int = 16,
    max_tile: int = 256,
    powers_of_two_only: bool = True,
) -> List[int]:
    """Candidate block tile extents for one dimension.

    Candidates are multiples of the MMA granularity that do not exceed
    ``max_tile`` or the problem extent, and (by default) are powers of two
    times the MMA size — the shapes CUTLASS tensor-core mainloops support.
    """
    if extent <= 0:
        raise ValueError("extent must be positive")
    candidates: List[int] = []
    tile = mma
    while tile <= min(max_tile, extent):
        candidates.append(tile)
        if powers_of_two_only:
            tile *= 2
        else:
            tile += mma
    if not candidates:
        candidates.append(min(mma, extent))
    return candidates


def enumerate_block_tiles(
    chain: GemmChainSpec,
    mma: int = 16,
    max_tile: int = 256,
    powers_of_two_only: bool = True,
) -> Iterator[TileConfig]:
    """Yield candidate block tile configurations for a chain."""
    sizes = chain.dimension_sizes()
    options = {
        dim: candidate_tile_sizes(
            sizes[dim], mma=mma, max_tile=max_tile, powers_of_two_only=powers_of_two_only
        )
        for dim in sizes
    }
    for block_m in options["m"]:
        for block_n in options["n"]:
            for block_k in options["k"]:
                for block_l in options["l"]:
                    yield TileConfig(block_m, block_n, block_k, block_l)


def count_unpruned_tiles(chain: GemmChainSpec, mma: int = 16) -> int:
    """Size of the raw tile-size space used for Table III's first row.

    The paper counts every multiple of the MMA granularity up to the problem
    extent per dimension, i.e. ``extent / 16`` choices per dimension.
    """
    sizes = chain.dimension_sizes()
    count = 1
    for extent in sizes.values():
        count *= max(1, extent // mma)
    return count

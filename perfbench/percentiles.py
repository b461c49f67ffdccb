"""Order statistics the benchmark reports, kept in the benchmark's own code.

Percentiles use the nearest-rank definition: the p-th percentile of n
samples is the ceil(p / 100 * n)-th smallest.
"""

from __future__ import annotations

import math
from typing import Sequence


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile of ``values`` (non-empty)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive ``values``."""
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))

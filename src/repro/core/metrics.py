"""Compatibility metrics.

Beyond the binary fully-compatible verdict, schedulers want to rank
placements: *how close* to compatible is a set of jobs? These metrics
quantify residual overlap and build the pairwise compatibility matrix the
placement algorithms consult.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..errors import CompatibilityError
from .circle import JobCircle
from .optimize import (
    annealing_search,
    exact_pair_feasible_rotations,
    solve,
    within_annealing_budget,
)
from .unified import UnifiedCircle, unified_perimeter


def min_overlap(
    circles: Sequence[JobCircle], seed: int = 0
) -> Tuple[int, Dict[str, int]]:
    """Best-effort minimum overlap and the rotations achieving it.

    Exact when the solver proves compatibility (overlap 0); otherwise an
    upper bound from annealing — good enough for ranking placements.
    When the solver's own last resort was that annealing run (same
    circles and seed) its outcome is returned as is. Three or more jobs
    past :data:`~repro.core.optimize.MAX_TILED_ARCS_FOR_ANNEALING` are
    not annealed: the solver's overlap (past the tiling budget,
    :meth:`UnifiedCircle.overlap_lower_bound`) is returned with its
    all-zero rotations.
    """
    outcome = solve(circles, seed=seed)
    if (
        outcome.found
        or outcome.method == "annealing"
        or not within_annealing_budget(circles, unified_perimeter(circles))
    ):
        return outcome.overlap, dict(outcome.rotations)
    refined = annealing_search(circles, seed=seed)
    if refined.overlap < outcome.overlap:
        return refined.overlap, dict(refined.rotations)
    return outcome.overlap, dict(outcome.rotations)


def compatibility_score(
    circles: Sequence[JobCircle], seed: int = 0
) -> float:
    """1 minus the fraction of communication time stuck in overlap.

    1.0 means fully compatible; 0.0 means all communication collides. The
    compatibility-aware scheduler maximizes this when no fully compatible
    placement exists.
    """
    if not circles:
        raise CompatibilityError("no circles given")
    total_comm = UnifiedCircle(circles).total_comm_ticks()
    if total_comm == 0:
        return 1.0
    overlap, _ = min_overlap(circles, seed=seed)
    return max(0.0, 1.0 - overlap / total_comm)


def pairwise_compatibility_matrix(
    circles: Sequence[JobCircle],
) -> np.ndarray:
    """Boolean matrix: ``[i, j]`` is True iff jobs i and j are pairwise
    compatible (exact gcd-reduced check; diagonal is True)."""
    n = len(circles)
    matrix = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            feasible = exact_pair_feasible_rotations(circles[i], circles[j])
            matrix[i, j] = matrix[j, i] = not feasible.is_empty
    return matrix

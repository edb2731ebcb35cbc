"""Compatibility metrics.

Beyond the binary fully-compatible verdict, schedulers want to rank
placements: *how close* to compatible is a set of jobs? These metrics
quantify residual overlap and build the pairwise compatibility matrix the
placement algorithms consult.
"""

from __future__ import annotations

import math
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
    """Minimum overlap and the rotations achieving it.

    Exact when the solver proves compatibility (overlap 0) and for any
    pair (:func:`_pair_min_overlap`). For three or more jobs the solver
    refuses, an upper bound from annealing — good enough for ranking
    placements — unless the solver's own last resort was that annealing
    run (same circles and seed), whose outcome is returned as is, or the
    jobs lie past :data:`~repro.core.optimize.MAX_TILED_ARCS_FOR_ANNEALING`:
    then the solver's overlap (past the tiling budget,
    :meth:`UnifiedCircle.overlap_lower_bound`) comes back with its
    all-zero rotations. A result that only ties the solver's keeps the
    solver's rotations.
    """
    outcome = solve(circles, seed=seed)
    if outcome.found or outcome.method == "annealing":
        return outcome.overlap, dict(outcome.rotations)
    if len(circles) == 2:
        overlap, rotations = _pair_min_overlap(circles)
    elif within_annealing_budget(circles, unified_perimeter(circles)):
        refined = annealing_search(circles, seed=seed)
        overlap, rotations = refined.overlap, refined.rotations
    else:
        return outcome.overlap, dict(outcome.rotations)
    if overlap < outcome.overlap:
        return overlap, dict(rotations)
    return outcome.overlap, dict(outcome.rotations)


def _pair_min_overlap(
    circles: Sequence[JobCircle],
) -> Tuple[int, Dict[str, int]]:
    """The exact minimum overlap of two jobs, the first held at 0.

    On the gcd circle ``g`` (:meth:`UnifiedCircle._pair_overlap`) the
    overlap is a sum over arc pairs of how much two folded short arcs
    meet, piecewise linear in the shift with a bend only where an
    endpoint of one meets an endpoint of the other. Those at most
    ``4 * |A| * |B|`` integer shifts therefore hold the minimum over
    all ``g``; the smallest shift reaching it wins.
    """
    unified = UnifiedCircle(circles)
    first, second = circles
    g = math.gcd(first.perimeter, second.perimeter)
    shifts = set()
    for start_a, end_a in first.comm.intervals:
        for start_b, end_b in second.comm.intervals:
            length_a = (end_a - start_a) % g
            length_b = (end_b - start_b) % g
            for offset in (0, length_a, -length_b, length_a - length_b):
                shifts.add((start_a - start_b + offset) % g)
    overlap, shift = min(
        (unified.overlap_ticks({second.job_id: shift}), shift)
        for shift in sorted(shifts)
    )
    return overlap, {first.job_id: 0, second.job_id: shift}


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

"""Rotation solvers — the paper's optimization formulation.

The paper searches for per-job rotation angles such that *no region of the
unified circle has more than one job communicating* (§3, footnote 1: the
circle is discretized into sectors with a coverage cap per sector). This
module implements that search exactly on the integer-tick circle, plus
approximate solvers for large instances:

* :func:`exact_pair_feasible_rotations` — for two jobs, the feasible set of
  *relative* rotations reduced modulo ``gcd(P1, P2)``: because both tiled
  patterns are periodic, collisions only depend on the relative shift
  modulo the gcd of the periods. This makes pairwise checks O(arcs²) even
  when the LCM is astronomically large (e.g. Table 1 group 3).
* :func:`feasible_against` — the **exact** set of rotations of one job
  that avoid every job fixed at a given rotation: the intersection of
  the pairwise sets, each tiled up to the job's own period. No step
  builds the LCM circle. Every search that fixes jobs one at a time
  uses it.
* :func:`backtracking_search` — depth-first search placing one job at a
  time, choosing rotations from the exact feasible set (boundary
  candidates by default, every feasible tick in ``complete`` mode).
* :func:`greedy_search` / :func:`annealing_search` /
  :func:`exhaustive_search` — heuristics and a brute-force grid for
  comparison and for instances too large for exact search.
* :func:`solve` — the facade with the escalation policy used by
  :class:`repro.core.compatibility.CompatibilityChecker`.

Every solver here works at coverage capacity 1, the paper's formulation:
a tick is overlap when two or more jobs communicate in it.
:func:`solve_fractional` is the §5 multi-tenancy analogue, where jobs
with fractional link demands may share a tick while their demands fit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CompatibilityError
from .arcs import ArcSet
from .circle import JobCircle
from .unified import UnifiedCircle

#: ``solve`` runs the exact DFS only on instances that tile at most this
#: many arcs onto the unified circle; larger ones go to annealing.
MAX_PLACED_INTERVALS = 20_000

#: In ``complete`` candidate mode, refuse to enumerate feasible sets larger
#: than this many ticks per level.
MAX_COMPLETE_CANDIDATES = 200_000

#: ``solve`` only escalates to the complete (proof-grade) DFS when the
#: unified perimeter is at most this many ticks.
COMPLETE_SEARCH_MAX_PERIMETER = 5_000

#: Above this many tiled arcs, three or more jobs are not scored exactly
#: (a pair always is) — the caller should profile at a coarser tick
#: granularity, which is precisely the paper's sector discretization.
MAX_TILED_ARCS_FOR_SEARCH = 250_000

#: Above this many tiled arcs, three or more jobs are not annealed: each
#: new state sweeps every arc, and here :func:`annealing_search`'s step
#: budget reaches its floor of 600 per restart (1,000,000 // 600).
MAX_TILED_ARCS_FOR_ANNEALING = 1_666


def _tiled_arc_estimate(circles: Sequence[JobCircle], perimeter: int) -> int:
    """Number of arcs all jobs produce when tiled on the unified circle."""
    return sum(
        len(circle.comm.intervals) * (perimeter // circle.perimeter)
        for circle in circles
    )


def within_tiling_budget(
    circles: Sequence[JobCircle], perimeter: int
) -> bool:
    """Whether ``circles`` on ``perimeter`` may be scored exactly: a
    pair always, more within :data:`MAX_TILED_ARCS_FOR_SEARCH` arcs."""
    return (
        len(circles) <= 2
        or _tiled_arc_estimate(circles, perimeter)
        <= MAX_TILED_ARCS_FOR_SEARCH
    )


def within_annealing_budget(
    circles: Sequence[JobCircle], perimeter: int
) -> bool:
    """Whether ``circles`` on ``perimeter`` may be annealed: a pair
    always, more within :data:`MAX_TILED_ARCS_FOR_ANNEALING` arcs."""
    return (
        len(circles) <= 2
        or _tiled_arc_estimate(circles, perimeter)
        <= MAX_TILED_ARCS_FOR_ANNEALING
    )


def _overlap_or_bound(
    unified: UnifiedCircle, rotations: Dict[str, int]
) -> int:
    """Overlap of ``rotations``, exact for a pair at any size and for
    three or more jobs within the tiling budget; past it,
    :meth:`UnifiedCircle.overlap_lower_bound`, which no rotation
    assignment can beat."""
    if within_tiling_budget(unified.circles, unified.perimeter):
        return unified.overlap_ticks(rotations)
    return unified.overlap_lower_bound()


@dataclass
class SolverOutcome:
    """Raw result of one solver invocation.

    Attributes:
        found: A zero-overlap rotation assignment was found.
        rotations: Per-job rotation in ticks (modulo each job's perimeter).
            Always populated with the best assignment seen.
        overlap: Overlap ticks of ``rotations`` (0 when ``found``).
        complete: The solver exhausted its search space, so a negative
            answer is a proof of infeasibility.
        method: Which solver produced this outcome.
        nodes: Search nodes / evaluations used (diagnostics).
    """

    found: bool
    rotations: Dict[str, int] = field(default_factory=dict)
    overlap: int = 0
    complete: bool = False
    method: str = ""
    nodes: int = 0


# ---------------------------------------------------------------------------
# Exact feasible-set computation
# ---------------------------------------------------------------------------

def exact_pair_feasible_rotations(
    first: JobCircle,
    second: JobCircle,
) -> ArcSet:
    """Feasible relative rotations of ``second`` against ``first``.

    Returned on a circle of perimeter ``g = gcd(P1, P2)``: both tiled
    patterns are periodic, so whether a relative shift collides depends
    only on the shift modulo ``g``. Any rotation ``d`` with ``d mod g``
    in the returned set is collision-free on the full unified circle.

    This is what makes pairwise compatibility checks cheap even when the
    two iteration times are nearly coprime and the LCM is enormous.
    """
    g = math.gcd(first.perimeter, second.perimeter)
    forbidden: List[Tuple[int, int]] = []
    for a1, a2 in first.comm.intervals:
        len_a = a2 - a1
        for b1, b2 in second.comm.intervals:
            len_b = b2 - b1
            start = (a1 - b1 - len_b + 1) % g
            forbidden.append((start, len_a + len_b - 1))
    return ArcSet(g, forbidden).complement()


def pair_compatible(first: JobCircle, second: JobCircle) -> Optional[int]:
    """A collision-free rotation for ``second`` (``first`` fixed), or None."""
    feasible = exact_pair_feasible_rotations(first, second)
    if feasible.is_empty:
        return None
    return feasible.intervals[0][0]


def feasible_against(
    circle: JobCircle,
    fixed: Iterable[Tuple[JobCircle, int]],
) -> ArcSet:
    """Exact rotations of ``circle`` that avoid every job in ``fixed``.

    ``fixed`` pairs each other job with the rotation it is held at. The
    result lives on the job's own perimeter ``P``: its covered points are
    the rotations at which the job collides with none of them. Each fixed
    job forbids, on the gcd circle of the two periods
    (:func:`exact_pair_feasible_rotations`), the shifts relative to its
    rotation that collide; that set, rotated by the job's rotation and
    tiled up to ``P``, is the same set as against the fixed job tiled onto
    the LCM circle, which is never built. A job collides with the fixed
    jobs exactly when it collides with one of them, so the result is the
    intersection of those sets, taken in job-id order.
    """
    period = circle.perimeter
    feasible = ArcSet(period, [(0, period)])
    for other, rotation in sorted(fixed, key=lambda pair: pair[0].job_id):
        if feasible.is_empty:
            break
        pair = exact_pair_feasible_rotations(other, circle)
        feasible = feasible.intersection(pair.rotate(rotation).tile(period))
    return feasible


# ---------------------------------------------------------------------------
# Depth-first search over exact feasible sets
# ---------------------------------------------------------------------------

def backtracking_search(
    circles: Sequence[JobCircle],
    max_nodes: int = 100_000,
    candidate_mode: str = "boundaries",
) -> SolverOutcome:
    """DFS placing jobs one at a time from exact feasible rotation sets.

    Tries every job order for up to 5 jobs, otherwise 6 deterministic
    rotations of the order by decreasing communication length. Each level
    takes its candidates from the rotations :func:`feasible_against`
    leaves the job against the jobs already placed.

    Args:
        circles: Jobs to place.
        max_nodes: Search-node budget across all orders.
        candidate_mode: ``"boundaries"`` tries the start of every feasible
            interval (fast, excellent in practice); ``"complete"`` tries
            every feasible tick, making a negative answer a proof.

    Returns:
        A :class:`SolverOutcome`; ``complete`` is set when the search space
        was exhausted under ``candidate_mode="complete"``.
    """
    if candidate_mode not in ("boundaries", "complete"):
        raise CompatibilityError(f"unknown candidate mode {candidate_mode!r}")
    unified = UnifiedCircle(circles)
    n = len(circles)
    if n == 0:
        raise CompatibilityError("no circles to place")

    ordered_indices: List[Tuple[int, ...]]
    if n <= 5:
        ordered_indices = list(itertools.permutations(range(n)))
    else:
        by_size = sorted(
            range(n), key=lambda i: -circles[i].comm.measure
        )
        ordered_indices = [
            tuple(by_size[k:] + by_size[:k]) for k in range(min(6, n))
        ]

    nodes = 0
    truncated = False

    def dfs(
        order: Tuple[int, ...],
        depth: int,
        rotations: Dict[str, int],
    ) -> Optional[Dict[str, int]]:
        nonlocal nodes, truncated
        if depth == len(order):
            return dict(rotations)
        if nodes >= max_nodes:
            truncated = True
            return None
        circle = circles[order[depth]]
        placed = [circles[index] for index in order[:depth]]
        feasible = feasible_against(
            circle, [(other, rotations[other.job_id]) for other in placed]
        )
        if feasible.is_empty:
            return None
        if candidate_mode == "boundaries":
            candidates = [start for start, _ in feasible.intervals]
        else:
            if feasible.measure > MAX_COMPLETE_CANDIDATES:
                truncated = True
                candidates = [start for start, _ in feasible.intervals]
            else:
                candidates = [
                    tick
                    for start, end in feasible.intervals
                    for tick in range(start, end)
                ]
        for delta in candidates:
            nodes += 1
            if nodes > max_nodes:
                truncated = True
                return None
            rotations[circle.job_id] = delta
            result = dfs(order, depth + 1, rotations)
            if result is not None:
                return result
            del rotations[circle.job_id]
        return None

    for order in ordered_indices:
        found = dfs(order, 0, {})
        if found is not None:
            full = {circle.job_id: found.get(circle.job_id, 0)
                    for circle in circles}
            return SolverOutcome(
                found=True,
                rotations=full,
                overlap=0,
                complete=True,
                method=f"backtracking-{candidate_mode}",
                nodes=nodes,
            )
        if truncated:
            break

    return SolverOutcome(
        found=False,
        rotations={circle.job_id: 0 for circle in circles},
        overlap=unified.overlap_ticks(),
        complete=(candidate_mode == "complete") and not truncated,
        method=f"backtracking-{candidate_mode}",
        nodes=nodes,
    )


# ---------------------------------------------------------------------------
# Heuristics
# ---------------------------------------------------------------------------

def greedy_search(circles: Sequence[JobCircle]) -> SolverOutcome:
    """Largest-job-first placement into exact feasible gaps.

    Places jobs in decreasing order of communication length; each job takes
    the first feasible rotation against everything placed so far, or — if
    none exists — the rotation minimizing the added overlap among gap
    boundaries. Fast and good, but a miss is not a proof.
    """
    unified = UnifiedCircle(circles)
    perimeter = unified.perimeter
    order = sorted(circles, key=lambda c: -c.comm.measure)
    placed = ArcSet(perimeter)
    rotations: Dict[str, int] = {}
    nodes = 0
    for index, circle in enumerate(order):
        if placed.is_empty:
            rotations[circle.job_id] = 0
            placed = circle.tiled_comm(perimeter)
            continue
        feasible = feasible_against(
            circle,
            [(other, rotations[other.job_id]) for other in order[:index]],
        )
        nodes += 1
        if not feasible.is_empty:
            delta = feasible.intervals[0][0]
        else:
            # Minimize added overlap over boundary-aligned candidates.
            candidates = {0}
            for gap_start, _ in placed.gaps():
                for b1, _ in circle.comm.intervals:
                    candidates.add((gap_start - b1) % circle.perimeter)
            best_delta, best_cost = 0, None
            for candidate in sorted(candidates):
                cost = placed.overlap_length(
                    circle.rotate(candidate).tiled_comm(perimeter)
                )
                nodes += 1
                if best_cost is None or cost < best_cost:
                    best_delta, best_cost = candidate, cost
            delta = best_delta
        rotations[circle.job_id] = delta
        placed = placed.union(circle.rotate(delta).tiled_comm(perimeter))
    overlap = unified.overlap_ticks(rotations)
    return SolverOutcome(
        found=overlap == 0,
        rotations={c.job_id: rotations.get(c.job_id, 0) for c in circles},
        overlap=overlap,
        complete=False,
        method="greedy",
        nodes=nodes,
    )


def _anneal(
    circles: Sequence[JobCircle],
    cost: Callable[[Dict[str, int]], int],
    perimeter: int,
    iterations: int,
    restarts: int,
    seed: int,
    method: str,
) -> SolverOutcome:
    """Simulated annealing over integer rotations, minimizing ``cost``.

    The one annealing loop: :func:`annealing_search`,
    :func:`solve_fractional` and the cluster solver's fallback after a
    DFS miss (``ClusterCompatibilityProblem.solve_component``) each run
    it with their own cost.

    Each restart draws a random start and walks ``iterations`` steps,
    rotating one job per step by a fine or a coarse shift and accepting
    by the Metropolis rule under a linearly cooling temperature. Stops at
    the first zero-cost assignment.
    """
    rng = np.random.default_rng(seed)
    job_ids = [circle.job_id for circle in circles]
    periods = {circle.job_id: circle.perimeter for circle in circles}
    best_rotations = {job_id: 0 for job_id in job_ids}
    best_cost = cost(best_rotations)
    nodes = 1
    temperature_scale = max(perimeter // 10, 1)
    for _restart in range(restarts):
        if best_cost == 0:
            break
        current = {
            job_id: int(rng.integers(periods[job_id]))
            for job_id in job_ids
        }
        current_cost = cost(current)
        for step in range(iterations):
            nodes += 1
            temperature = temperature_scale * (1.0 - step / iterations) + 1e-9
            job_id = job_ids[int(rng.integers(len(job_ids)))]
            period = periods[job_id]
            # Mix fine and coarse moves so the walk can both slide into a
            # gap and jump across the circle.
            if rng.random() < 0.5:
                shift = int(rng.integers(1, max(period // 20, 2)))
            else:
                shift = int(rng.integers(period))
            candidate = dict(current)
            candidate[job_id] = (current[job_id] + shift) % period
            candidate_cost = cost(candidate)
            accept = candidate_cost <= current_cost or (
                rng.random()
                < np.exp((current_cost - candidate_cost) / temperature)
            )
            if accept:
                current, current_cost = candidate, candidate_cost
                if current_cost < best_cost:
                    best_rotations, best_cost = dict(current), current_cost
                    if best_cost == 0:
                        break
    return SolverOutcome(
        found=best_cost == 0,
        rotations=best_rotations,
        overlap=best_cost,
        complete=False,
        method=method,
        nodes=nodes,
    )


def annealing_search(
    circles: Sequence[JobCircle],
    iterations: Optional[int] = None,
    restarts: int = 4,
    seed: int = 0,
) -> SolverOutcome:
    """Simulated annealing over integer rotations.

    Minimizes :meth:`UnifiedCircle.overlap_ticks`, the ticks covered by
    two or more jobs, on instances too large for exact search.
    ``iterations`` defaults to a budget scaled inversely with the tiled
    arc count: 4,000 steps per restart up to 250 arcs, 600 from about
    1,700 arcs. Only a new relative state pays a score: a pair's is
    closed-form on its gcd circle, but three or more jobs sweep their
    tiled arcs, so ``solve`` anneals them only within
    :data:`MAX_TILED_ARCS_FOR_ANNEALING`.
    """
    unified = UnifiedCircle(circles)
    if iterations is None:
        total_arcs = _tiled_arc_estimate(circles, unified.perimeter)
        iterations = max(600, min(4000, 1_000_000 // max(total_arcs, 1)))
    return _anneal(
        circles,
        unified.overlap_ticks,
        unified.perimeter,
        iterations,
        restarts,
        seed,
        method="annealing",
    )


def exhaustive_search(
    circles: Sequence[JobCircle],
    steps_per_job: int = 36,
    max_evaluations: int = 2_000_000,
) -> SolverOutcome:
    """Brute-force grid over rotations (the paper's sector discretization).

    Each job's rotation is sampled at ``steps_per_job`` evenly spaced
    angles — exactly the discretized formulation the paper describes. Used
    for cross-checking the exact solvers and for the sector-count ablation;
    exponential in the number of jobs.
    """
    if steps_per_job < 1:
        raise CompatibilityError("steps_per_job must be >= 1")
    unified = UnifiedCircle(circles)
    grids: List[List[int]] = []
    total = 1
    for circle in circles:
        step = max(circle.perimeter // steps_per_job, 1)
        grid = list(range(0, circle.perimeter, step))
        grids.append(grid)
        total *= len(grid)
    if total > max_evaluations:
        raise CompatibilityError(
            f"grid of {total} evaluations exceeds budget {max_evaluations}; "
            f"reduce steps_per_job or use annealing_search"
        )
    job_ids = [circle.job_id for circle in circles]
    best_rotations = {job_id: 0 for job_id in job_ids}
    best_cost: Optional[int] = None
    nodes = 0
    for combo in itertools.product(*grids):
        nodes += 1
        rotations = dict(zip(job_ids, combo))
        cost = unified.overlap_ticks(rotations)
        if best_cost is None or cost < best_cost:
            best_cost, best_rotations = cost, rotations
            if best_cost == 0:
                break
    return SolverOutcome(
        found=best_cost == 0,
        rotations=best_rotations,
        overlap=int(best_cost or 0),
        complete=best_cost == 0,
        method=f"exhaustive-{steps_per_job}",
        nodes=nodes,
    )


def solve_fractional(
    circles: Sequence[JobCircle],
    capacity: float = 1.0,
    iterations: int = 5000,
    restarts: int = 4,
    seed: int = 0,
) -> SolverOutcome:
    """Rotation search under fractional link demands (§5).

    Each circle carries a ``demand`` in (0, 1]; jobs may overlap as long
    as the sum of demands stays within ``capacity`` at every point. A job
    demanding the full link reduces to the classic formulation. Solved by
    annealing on the demand-weighted overlap (the exact DFS machinery
    does not apply because constraints are no longer pairwise-disjoint).
    """
    if capacity <= 0:
        raise CompatibilityError(f"capacity must be > 0, got {capacity}")
    unified = UnifiedCircle(circles)
    return _anneal(
        circles,
        lambda rotations: unified.fractional_overlap_ticks(
            rotations, capacity
        ),
        unified.perimeter,
        iterations,
        restarts,
        seed,
        method="fractional-annealing",
    )


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------

def solve(circles: Sequence[JobCircle], seed: int = 0) -> SolverOutcome:
    """Decide compatibility and find rotations.

    Escalates: utilization bound -> exact pairwise checks -> exact pair
    rotation (two jobs) -> boundary DFS -> complete DFS (when affordable)
    -> annealing. The outcome's ``complete`` flag records whether a
    negative answer is proven. ``seed`` drives the annealing fallback.

    Each invocation runs under a ``solve_rotations`` telemetry span and
    reports its outcome (method, nodes, verdict) to the ambient session.
    """
    from ..telemetry.session import current
    from ..telemetry.trace import KIND_SOLVE

    telemetry = current()
    with telemetry.span("solve_rotations"):
        outcome = _solve(circles, seed)
    if telemetry.enabled:
        telemetry.counter("solve.calls").inc()
        telemetry.counter("solve.nodes").inc(outcome.nodes)
        telemetry.event(
            KIND_SOLVE,
            t=0.0,
            method=outcome.method,
            found=outcome.found,
            complete=outcome.complete,
            overlap=outcome.overlap,
            nodes=outcome.nodes,
            jobs=len(circles),
        )
    return outcome


def _solve(circles: Sequence[JobCircle], seed: int) -> SolverOutcome:
    if not circles:
        raise CompatibilityError("no circles given")

    unified = UnifiedCircle(circles)
    if len(circles) == 1:
        return SolverOutcome(
            found=True,
            rotations={circles[0].job_id: 0},
            overlap=0,
            complete=True,
            method="trivial",
        )

    zero_rotations = {circle.job_id: 0 for circle in circles}

    # Necessary condition: total communication must fit in the period.
    if unified.total_comm_ticks() > unified.perimeter:
        return SolverOutcome(
            found=False,
            rotations=zero_rotations,
            overlap=_overlap_or_bound(unified, zero_rotations),
            complete=True,
            method="utilization-bound",
        )

    # Exact pairwise screens (cheap even for huge LCMs).
    for first, second in itertools.combinations(circles, 2):
        if exact_pair_feasible_rotations(first, second).is_empty:
            return SolverOutcome(
                found=False,
                rotations=zero_rotations,
                overlap=_overlap_or_bound(unified, zero_rotations),
                complete=True,
                method=f"pairwise({first.job_id},{second.job_id})",
            )
    if len(circles) == 2:
        first, second = circles
        delta = pair_compatible(first, second)
        # Pairwise screen above guarantees delta exists here.
        return SolverOutcome(
            found=True,
            rotations={first.job_id: 0, second.job_id: int(delta)},
            overlap=0,
            complete=True,
            method="exact-pair",
        )
    tiled_arc_estimate = _tiled_arc_estimate(circles, unified.perimeter)
    if tiled_arc_estimate <= MAX_PLACED_INTERVALS:
        outcome = backtracking_search(circles)
        if outcome.found:
            return outcome
        # A complete enumeration proves infeasibility but touches every
        # feasible tick; only affordable on small unified circles.
        if unified.perimeter <= COMPLETE_SEARCH_MAX_PERIMETER:
            complete = backtracking_search(
                circles, candidate_mode="complete", max_nodes=500_000
            )
            if complete.found or complete.complete:
                return complete

    if not within_annealing_budget(circles, unified.perimeter):
        # Sweeping the tiled arcs on every step would dominate; tell the
        # caller to coarsen the profiling granularity (the paper's sector
        # discretization) rather than silently burning minutes.
        return SolverOutcome(
            found=False,
            rotations=zero_rotations,
            overlap=_overlap_or_bound(unified, zero_rotations),
            complete=False,
            method="instance-too-large",
        )
    return annealing_search(circles, seed=seed)

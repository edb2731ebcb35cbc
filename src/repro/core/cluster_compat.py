"""Cluster-level compatibility (§5).

In a real cluster a job traverses several links and meets *different*
jobs on each. The paper's §5 sketch: expand the unified circle to the LCM
of the iteration times of every job that shares at least one link with
another, and find a **single rotation per job** such that on *every*
link, the jobs sharing it never communicate simultaneously.

This is strictly harder than the single-link problem: the constraint
graph is per-link, but a job has one phase — it cannot rotate differently
for different links. :class:`ClusterCompatibilityProblem` solves it with
the same exact feasible-set rule as the single-link solvers
(:func:`repro.core.optimize.feasible_against`), intersecting each job's
feasible rotations against *only the jobs it actually shares links with*
— jobs in different parts of the fabric do not constrain each other, and
independent connected components are solved independently.

No step tiles past :func:`repro.core.optimize.solve`'s budget: the DFS
works from pairwise gcd-reduced feasible sets, and a link past the
budget is audited pair by pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import CompatibilityError
from .circle import JobCircle
from .optimize import (
    _anneal,
    exact_pair_feasible_rotations,
    feasible_against,
    within_annealing_budget,
    within_tiling_budget,
)
from .unified import UnifiedCircle, unified_perimeter


@dataclass
class ClusterCompatibilityResult:
    """Outcome of a cluster-wide rotation search.

    Attributes:
        compatible: A rotation per job exists such that no link ever
            carries two communicating jobs at once.
        rotations: The certificate (or best effort), ticks per job.
        overlap_ticks: Residual per-link overlap summed over links; a
            lower bound when some violated link is past the tiling
            budget (see :meth:`ClusterCompatibilityProblem.audit_links`).
        violated_links: Links that still see simultaneous communication
            under ``rotations``.
        components: Jobs grouped by constraint-graph connected component.
        method: How the verdict was reached.
    """

    compatible: bool
    rotations: Dict[str, int]
    overlap_ticks: int
    violated_links: List[str]
    components: List[List[str]]
    method: str


class ClusterCompatibilityProblem:
    """Jobs, links, and the job->links mapping of one cluster snapshot."""

    def __init__(self, circles: Sequence[JobCircle]) -> None:
        ids = [circle.job_id for circle in circles]
        if len(set(ids)) != len(ids):
            raise CompatibilityError(f"duplicate job ids: {ids}")
        self._circles: Dict[str, JobCircle] = {
            circle.job_id: circle for circle in circles
        }
        self._links_of: Dict[str, Set[str]] = {
            job_id: set() for job_id in self._circles
        }
        self._jobs_on: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def assign(self, job_id: str, links: Sequence[str]) -> None:
        """Declare which links a job's traffic traverses."""
        if job_id not in self._circles:
            raise CompatibilityError(f"unknown job {job_id!r}")
        for link in links:
            self._links_of[job_id].add(link)
            self._jobs_on.setdefault(link, set()).add(job_id)

    @classmethod
    def from_assignments(
        cls,
        circles: Sequence[JobCircle],
        links_by_job: Mapping[str, Sequence[str]],
    ) -> "ClusterCompatibilityProblem":
        """Build a problem from a ``{job: [link names]}`` mapping."""
        problem = cls(circles)
        for job_id, links in links_by_job.items():
            problem.assign(job_id, links)
        return problem

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    def neighbours(self, job_id: str) -> Set[str]:
        """Jobs sharing at least one link with ``job_id``."""
        result: Set[str] = set()
        for link in self._links_of[job_id]:
            result |= self._jobs_on[link]
        result.discard(job_id)
        return result

    def components(self) -> List[List[str]]:
        """Connected components of the shares-a-link graph."""
        remaining = set(self._circles)
        components: List[List[str]] = []
        while remaining:
            seed = min(remaining)  # deterministic order
            stack = [seed]
            component: Set[str] = set()
            while stack:
                job_id = stack.pop()
                if job_id in component:
                    continue
                component.add(job_id)
                stack.extend(self.neighbours(job_id) - component)
            components.append(sorted(component))
            remaining -= component
        return components

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def solve(self, seed: int = 0, max_nodes: int = 200_000) -> (
        ClusterCompatibilityResult
    ):
        """Find one rotation per job satisfying every link constraint.

        Components are independent, so each is solved on its own unified
        circle: a DFS places one job at a time, intersecting its exact
        feasible-rotation sets against each already-placed *neighbour*
        (non-neighbours impose no constraint even within a component).
        Falls back to annealing on the component when the DFS misses.
        """
        rotations: Dict[str, int] = {}
        methods: List[str] = []
        compatible = True
        for component in self.components():
            outcome = self.solve_component(component, seed, max_nodes)
            if outcome is None:
                compatible = False
                methods.append("unsat")
                for job_id in component:
                    rotations.setdefault(job_id, 0)
            else:
                component_rotations, method = outcome
                rotations.update(component_rotations)
                methods.append(method)
        overlap, violated = self._audit(rotations)
        return ClusterCompatibilityResult(
            compatible=compatible and overlap == 0,
            rotations=rotations,
            overlap_ticks=overlap,
            violated_links=violated,
            components=self.components(),
            method="+".join(sorted(set(methods))),
        )

    # ------------------------------------------------------------------
    # Component-level API (reused by the incremental engine)
    # ------------------------------------------------------------------

    def solve_component(
        self,
        component: Sequence[str],
        seed: int = 0,
        max_nodes: int = 200_000,
    ) -> Optional[Tuple[Dict[str, int], str]]:
        """Solve one connected component: ``(rotations, method)`` or None.

        ``component`` must list the member job ids (sorted order is the
        canonical form produced by :meth:`components`). A ``None`` return
        means no zero-overlap rotation assignment was found (the DFS and
        the annealing fallback both missed; past the annealing bound the
        fallback is not tried). The fallback is
        :func:`repro.core.optimize._anneal` with one restart, scoring
        rotations by the overlap summed over the component's links
        (:meth:`audit_links`).
        """
        circles = [self._circles[job_id] for job_id in component]
        if len(circles) == 1:
            return {component[0]: 0}, "trivial"

        # Pairwise screens between actual neighbours only.
        for first_id, second_id in itertools.combinations(component, 2):
            if second_id not in self.neighbours(first_id):
                continue
            feasible = exact_pair_feasible_rotations(
                self._circles[first_id], self._circles[second_id]
            )
            if feasible.is_empty:
                return None

        # Order jobs most-constrained first (degree, then comm length).
        order = sorted(
            component,
            key=lambda j: (
                -len(self.neighbours(j)),
                -self._circles[j].comm.measure,
            ),
        )
        nodes = 0

        def dfs(depth: int,
                partial: Dict[str, int]) -> Optional[Dict[str, int]]:
            nonlocal nodes
            if depth == len(order):
                return dict(partial)
            if nodes > max_nodes:
                return None
            job_id = order[depth]
            feasible = feasible_against(
                self._circles[job_id],
                [
                    (self._circles[neighbour], partial[neighbour])
                    for neighbour in sorted(self.neighbours(job_id))
                    if neighbour in partial
                ],
            )
            for delta in [start for start, _ in feasible.intervals]:
                nodes += 1
                partial[job_id] = delta
                result = dfs(depth + 1, partial)
                if result is not None:
                    return result
                del partial[job_id]
            return None

        found = dfs(0, {})
        if found is not None:
            return found, "dfs"
        perimeter = unified_perimeter(circles)
        if not within_annealing_budget(circles, perimeter):
            return None
        # Fall back to annealing with the *link-aware* cost.
        links = {
            link for job_id in component for link in self._links_of[job_id]
        }
        outcome = _anneal(
            circles,
            lambda rotations: self.audit_links(links, rotations)[0],
            perimeter,
            iterations=3000,
            restarts=1,
            seed=seed,
            method="annealing",
        )
        if outcome.found:
            return outcome.rotations, outcome.method
        return None

    def _audit(
        self, rotations: Mapping[str, int]
    ) -> Tuple[int, List[str]]:
        return self.audit_links(set(self._jobs_on), rotations)

    def audit_links(
        self, links: Set[str], rotations: Mapping[str, int]
    ) -> Tuple[int, List[str]]:
        """Overlap ticks and violated links for fixed ``rotations``.

        Audits each link's unified circle independently (a link with
        fewer than two sharers can never overlap). Returns
        ``(total_overlap, violated_link_names)`` with the violated list
        in sorted link order.

        A pair, or a link within the tiling budget, is measured exactly.
        Past it, the link is violated exactly when some pair of its jobs
        collides at their relative rotation modulo the gcd of their
        periods (at capacity 1 a link overlaps if and only if a pair
        does). Its overlap is then
        :meth:`UnifiedCircle.overlap_lower_bound`, so the total is a
        lower bound.
        """
        total = 0
        violated: List[str] = []
        for link in sorted(links):
            jobs = sorted(self._jobs_on.get(link, ()))
            if len(jobs) < 2:
                continue
            circles = [self._circles[job_id] for job_id in jobs]
            unified = UnifiedCircle(circles)
            link_rotations = {
                job_id: rotations.get(job_id, 0) for job_id in jobs
            }
            if within_tiling_budget(circles, unified.perimeter):
                overlap = unified.overlap_ticks(link_rotations)
                clash = overlap > 0
            else:
                overlap = unified.overlap_lower_bound()
                clash = any(
                    not exact_pair_feasible_rotations(a, b).contains(
                        link_rotations[b.job_id] - link_rotations[a.job_id]
                    )
                    for a, b in itertools.combinations(circles, 2)
                )
            if clash:
                violated.append(link)
            total += overlap
        return total, violated

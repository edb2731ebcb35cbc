"""Incremental cluster compatibility for online scheduling.

The batch solver (:class:`repro.core.cluster_compat.
ClusterCompatibilityProblem`) re-derives everything from one cluster
snapshot. An online scheduler sees a *stream* of arrivals and departures,
and each event only touches the connected components of the shares-a-link
graph that the arriving or departing job is part of — every other
component's rotation solution is still valid. MLTCP (PAPERS.md) adds a
second constraint: jobs that are already training should keep their phase,
because re-sliding costs iterations.

:class:`IncrementalCompatibilityEngine` exploits both:

* **Per-component solution cache.** Component solutions are keyed by the
  component's *content* (job ids, circle geometry, link assignments), so
  an arrival or departure invalidates nothing explicitly — untouched
  components hash to the same key and hit the cache, while the touched
  component's key changes and is re-solved on demand.
* **Fixed-rotation screen.** When every component an arrival touches is
  compatible under its live rotations, the newcomer's feasible set is the
  intersection of its exact pairwise feasible sets against each
  link-sharing neighbour *at that neighbour's live rotation*
  (:func:`repro.core.optimize.feasible_against`, which works on the
  ``gcd`` circles, so the cost never depends on the LCM). A non-empty
  set admits the job with a certificate and **without re-solving or
  re-phasing anything**.

:meth:`solve` assembles the canonical per-component solutions and is
metamorphically equivalent to building a fresh
``ClusterCompatibilityProblem`` from the same snapshot and calling
``solve()`` — the property ``tests/test_incremental.py`` drives with
randomized arrival/departure sequences.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import CompatibilityError
from .arcs import ArcSet
from .circle import JobCircle
from .cluster_compat import (
    ClusterCompatibilityProblem,
    ClusterCompatibilityResult,
)
from .compatibility import CompatibilityChecker
from .optimize import feasible_against

if TYPE_CHECKING:  # annotation-only; `core` must not load `workloads`
    from ..workloads.job import JobSpec

#: Canonical component solutions kept in the LRU cache by default.
DEFAULT_CACHE_ENTRIES = 4096


@dataclass(frozen=True)
class AdmissionVerdict:
    """Outcome of admitting one job.

    Attributes:
        job_id: The candidate job.
        compatible: Whether the job joins without creating overlap on any
            link (under the engine's live rotations for ``screen``, under
            the canonical component solution otherwise).
        method: ``"screen"`` (admitted against fixed live rotations),
            or the component solver's method (``dfs``/``annealing``/
            ``trivial``/``unsat``) when a full component solve ran.
        rotation: The candidate's rotation in ticks (the certificate when
            compatible, best effort otherwise).
        overlap_ticks: Residual overlap of the touched component.
        violated_links: Links of the touched component still seeing
            simultaneous communication.
        component: Sorted ids of the component the job joins (including
            the job itself).
    """

    job_id: str
    compatible: bool
    method: str
    rotation: int
    overlap_ticks: int
    violated_links: Tuple[str, ...]
    component: Tuple[str, ...]


@dataclass(frozen=True)
class ComponentSolution:
    """Canonical solution of one connected component (cache value)."""

    members: Tuple[str, ...]
    rotations: Mapping[str, int]
    found: bool
    method: str
    overlap_ticks: int
    violated_links: Tuple[str, ...]


class IncrementalCompatibilityEngine:
    """Live cluster compatibility state under arrivals and departures."""

    def __init__(
        self,
        checker: Optional[CompatibilityChecker] = None,
        seed: int = 0,
        max_nodes: int = 200_000,
        max_cache_entries: int = DEFAULT_CACHE_ENTRIES,
    ) -> None:
        """Create an empty engine.

        Args:
            checker: Builds circles from job specs (:meth:`circle`); its
                profiling bandwidth and tick granularity apply.
            seed: Seed forwarded to every component solve (annealing
                fallback), mirroring ``ClusterCompatibilityProblem.solve``.
            max_nodes: DFS node budget per component solve.
            max_cache_entries: LRU bound on cached component solutions.
        """
        checker = checker if checker is not None else CompatibilityChecker()
        if max_cache_entries < 1:
            raise CompatibilityError("max_cache_entries must be >= 1")
        self.checker = checker
        self._seed = seed
        self._max_nodes = max_nodes
        self._max_cache_entries = max_cache_entries
        self._circles: Dict[str, JobCircle] = {}
        self._links_of: Dict[str, Tuple[str, ...]] = {}
        self._jobs_on: Dict[str, Set[str]] = {}
        self._rotations: Dict[str, int] = {}
        self._members: Dict[int, Tuple[str, ...]] = {}
        self._cid_of: Dict[str, int] = {}
        self._live_ok: Dict[int, bool] = {}
        self._next_cid = 0
        self._cache: "OrderedDict[Tuple, ComponentSolution]" = OrderedDict()
        self._stats: Dict[str, int] = {
            "adds": 0,
            "removes": 0,
            "screen_admits": 0,
            "component_solves": 0,
            "component_cache_hits": 0,
            "rephases": 0,
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def circle(self, spec: JobSpec) -> JobCircle:
        """Quantize a job spec onto its circle via the checker."""
        return self.checker.circle(spec)

    @property
    def jobs(self) -> List[str]:
        """Tracked job ids, sorted."""
        return sorted(self._circles)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._circles

    def __len__(self) -> int:
        return len(self._circles)

    def links_of(self, job_id: str) -> Tuple[str, ...]:
        """Links assigned to a tracked job."""
        self._require(job_id)
        return self._links_of[job_id]

    def rotation_of(self, job_id: str) -> int:
        """The job's live rotation in ticks."""
        self._require(job_id)
        return self._rotations[job_id]

    @property
    def live_rotations(self) -> Dict[str, int]:
        """Copy of every job's live rotation."""
        return dict(self._rotations)

    @property
    def cluster_compatible(self) -> bool:
        """Whether every live component is compatible."""
        return all(
            self._live_ok[cid] for cid in sorted(self._live_ok)
        )

    def components(self) -> List[List[str]]:
        """Live connected components, ordered by smallest member id."""
        return [
            list(members)
            for members in sorted(self._members.values())
        ]

    def stats(self) -> Dict[str, int]:
        """Deterministic solver-reuse counters."""
        return dict(self._stats)

    # ------------------------------------------------------------------
    # Admission / departure
    # ------------------------------------------------------------------

    def add(
        self, circle: JobCircle, links: Sequence[str]
    ) -> AdmissionVerdict:
        """Admit a job (compatible or not) and update live state."""
        link_names, neighbours, touched = self._locate(circle, links)
        verdict, solution = self._evaluate(
            circle, link_names, neighbours, touched
        )
        job_id = circle.job_id
        self._circles[job_id] = circle
        self._links_of[job_id] = link_names
        for link in link_names:
            self._jobs_on.setdefault(link, set()).add(job_id)
        members = verdict.component
        for cid in touched:
            del self._members[cid]
            del self._live_ok[cid]
        cid = self._next_cid
        self._next_cid += 1
        self._members[cid] = members
        for member in members:
            self._cid_of[member] = cid
        self._live_ok[cid] = verdict.compatible
        if solution is not None and solution.found:
            # Canonical solve re-phases the whole merged component.
            rephased = 0
            for member in members:
                target = solution.rotations.get(member, 0)
                if self._rotations.get(member) != target:
                    rephased += 1
                self._rotations[member] = target
            self._rotations[job_id] = solution.rotations.get(job_id, 0)
            self._bump("rephases", max(rephased - 1, 0))
        else:
            # Screen admission (or best-effort on an unsat component):
            # running jobs keep their phase.
            self._rotations[job_id] = verdict.rotation
        self._bump("adds")
        return verdict

    def remove(self, job_id: str) -> None:
        """Forget a departed job; split and re-verdict its component."""
        self._require(job_id)
        del self._circles[job_id]
        links = self._links_of.pop(job_id)
        del self._rotations[job_id]
        for link in links:
            sharers = self._jobs_on[link]
            sharers.discard(job_id)
            if not sharers:
                del self._jobs_on[link]
        cid = self._cid_of.pop(job_id)
        parent = [m for m in self._members.pop(cid) if m != job_id]
        parent_ok = self._live_ok.pop(cid)
        for members in self._split(parent):
            new_cid = self._next_cid
            self._next_cid += 1
            self._members[new_cid] = members
            for member in members:
                self._cid_of[member] = new_cid
            if parent_ok:
                # A restriction of a valid certificate stays valid.
                self._live_ok[new_cid] = True
                continue
            # The departure may have cleared the congestion: re-solve the
            # fragment canonically and re-phase if it became compatible.
            solution = self._solution_for(members)
            self._live_ok[new_cid] = solution.found
            if solution.found:
                rephased = 0
                for member in members:
                    target = solution.rotations.get(member, 0)
                    if self._rotations.get(member) != target:
                        rephased += 1
                    self._rotations[member] = target
                self._bump("rephases", rephased)
        self._bump("removes")

    # ------------------------------------------------------------------
    # Canonical solve (metamorphically equal to the batch solver)
    # ------------------------------------------------------------------

    def solve(self) -> ClusterCompatibilityResult:
        """Assemble the canonical cluster-wide result.

        Equivalent — verdict, rotations, overlap, violated links,
        components, and method string — to building a fresh
        :class:`ClusterCompatibilityProblem` from the current snapshot and
        calling ``solve(seed)``; untouched components are served from the
        cache instead of re-solved.
        """
        rotations: Dict[str, int] = {}
        methods: List[str] = []
        total_overlap = 0
        violated: List[str] = []
        components: List[List[str]] = []
        compatible = True
        for members in sorted(self._members.values()):
            solution = self._solution_for(members)
            if not solution.found:
                compatible = False
            rotations.update(solution.rotations)
            methods.append(solution.method)
            total_overlap += solution.overlap_ticks
            violated.extend(solution.violated_links)
            components.append(list(members))
        return ClusterCompatibilityResult(
            compatible=compatible and total_overlap == 0,
            rotations=rotations,
            overlap_ticks=total_overlap,
            violated_links=sorted(violated),
            components=components,
            method="+".join(sorted(set(methods))),
        )

    def problem(self) -> ClusterCompatibilityProblem:
        """A fresh from-scratch problem for the current snapshot."""
        circles = [self._circles[j] for j in sorted(self._circles)]
        links_by_job = {
            j: list(self._links_of[j]) for j in sorted(self._links_of)
        }
        return ClusterCompatibilityProblem.from_assignments(
            circles, links_by_job
        )

    def live_audit(self) -> Tuple[int, List[str]]:
        """Overlap and violated links under the *live* rotations."""
        return self.problem().audit_links(
            set(self._jobs_on), self._rotations
        )

    # ------------------------------------------------------------------
    # Placement support
    # ------------------------------------------------------------------

    def candidate_score(
        self, circle: JobCircle, links: Sequence[str]
    ) -> Tuple[bool, float]:
        """Score a placement candidate against the live state.

        Returns ``(clean, forbidden_fraction)``: *clean* when every
        touched component is live-compatible and the candidate has a
        collision-free rotation against the fixed live rotations;
        ``forbidden_fraction`` is the share of the candidate's own circle
        excluded by its neighbours (0.0 when clean — ranking among clean
        candidates stays order-stable, matching the checker-based path).
        """
        link_names, neighbours, touched = self._locate(
            circle, links, allow_tracked=True
        )
        touched_ok = all(self._live_ok[cid] for cid in touched)
        feasible = self._screen(circle, neighbours)
        clean = touched_ok and not feasible.is_empty
        if clean:
            return True, 0.0
        fraction = 1.0 - feasible.measure / circle.perimeter
        return False, fraction

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _require(self, job_id: str) -> None:
        if job_id not in self._circles:
            raise CompatibilityError(f"unknown job {job_id!r}")

    def _bump(self, key: str, amount: int = 1) -> None:
        if amount == 0:
            return
        self._stats[key] += amount
        from ..telemetry import session as _telemetry_session

        telemetry = _telemetry_session.current()
        if telemetry.enabled:
            telemetry.counter(f"incremental.{key}").inc(amount)

    def _locate(
        self,
        circle: JobCircle,
        links: Sequence[str],
        allow_tracked: bool = False,
    ) -> Tuple[Tuple[str, ...], List[str], List[int]]:
        """Normalized links, sorted neighbours, touched component ids."""
        if not allow_tracked and circle.job_id in self._circles:
            raise CompatibilityError(
                f"job {circle.job_id!r} already tracked"
            )
        link_names = tuple(sorted(set(links)))
        neighbour_set: Set[str] = set()
        for link in link_names:
            neighbour_set |= self._jobs_on.get(link, set())
        neighbour_set.discard(circle.job_id)
        neighbours = sorted(neighbour_set)
        touched = sorted({self._cid_of[j] for j in neighbours})
        return link_names, neighbours, touched

    def _evaluate(
        self,
        circle: JobCircle,
        link_names: Tuple[str, ...],
        neighbours: List[str],
        touched: List[int],
    ) -> Tuple[AdmissionVerdict, Optional[ComponentSolution]]:
        """Verdict for one candidate, screening before solving."""
        job_id = circle.job_id
        member_set = set(
            itertools.chain.from_iterable(
                self._members[cid] for cid in touched
            )
        )
        member_set.add(job_id)
        members = tuple(sorted(member_set))
        touched_ok = all(self._live_ok[cid] for cid in touched)
        feasible = self._screen(circle, neighbours)
        if touched_ok and not feasible.is_empty:
            self._bump("screen_admits")
            return (
                AdmissionVerdict(
                    job_id=job_id,
                    compatible=True,
                    method="screen",
                    rotation=feasible.intervals[0][0],
                    overlap_ticks=0,
                    violated_links=(),
                    component=members,
                ),
                None,
            )
        solution = self._solution_for(
            members,
            extra_circles={job_id: circle},
            extra_links={job_id: link_names},
        )
        if solution.found:
            rotation = solution.rotations.get(job_id, 0)
        elif not feasible.is_empty:
            # Best effort on an unsat component: at least avoid the
            # neighbours pointwise so the live overlap does not grow.
            rotation = feasible.intervals[0][0]
        else:
            rotation = solution.rotations.get(job_id, 0)
        return (
            AdmissionVerdict(
                job_id=job_id,
                compatible=solution.found,
                method=solution.method,
                rotation=rotation,
                overlap_ticks=solution.overlap_ticks,
                violated_links=solution.violated_links,
                component=members,
            ),
            solution,
        )

    def _screen(
        self, circle: JobCircle, neighbours: Sequence[str]
    ) -> ArcSet:
        """Exact feasible rotations against the neighbours' live
        rotations (:func:`feasible_against`)."""
        return feasible_against(
            circle,
            [
                (self._circles[neighbour], self._rotations.get(neighbour, 0))
                for neighbour in neighbours
            ],
        )

    def _split(self, members: Sequence[str]) -> List[Tuple[str, ...]]:
        """Connected components among ``members`` (current link state)."""
        remaining = set(members)
        pieces: List[Tuple[str, ...]] = []
        while remaining:
            seed_job = min(remaining)
            stack = [seed_job]
            component: Set[str] = set()
            while stack:
                job_id = stack.pop()
                if job_id in component:
                    continue
                component.add(job_id)
                for link in self._links_of[job_id]:
                    stack.extend(
                        sorted(self._jobs_on.get(link, set()) - component)
                    )
            pieces.append(tuple(sorted(component)))
            remaining -= component
        return pieces

    def _component_key(
        self,
        members: Tuple[str, ...],
        extra_circles: Mapping[str, JobCircle],
        extra_links: Mapping[str, Tuple[str, ...]],
    ) -> Tuple:
        parts = []
        for job_id in members:
            circle = extra_circles.get(job_id, self._circles.get(job_id))
            links = extra_links.get(job_id, self._links_of.get(job_id))
            assert circle is not None and links is not None
            parts.append(
                (
                    job_id,
                    circle.perimeter,
                    circle.comm.intervals,
                    circle.demand,
                    links,
                )
            )
        return tuple(parts)

    def _solution_for(
        self,
        members: Tuple[str, ...],
        extra_circles: Optional[Mapping[str, JobCircle]] = None,
        extra_links: Optional[Mapping[str, Tuple[str, ...]]] = None,
    ) -> ComponentSolution:
        """Canonical component solution, via the content-keyed cache."""
        extra_circles = extra_circles or {}
        extra_links = extra_links or {}
        key = self._component_key(members, extra_circles, extra_links)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self._bump("component_cache_hits")
            return cached
        circles = [
            extra_circles.get(j, self._circles.get(j)) for j in members
        ]
        links_by_job = {
            j: list(extra_links.get(j, self._links_of.get(j, ())))
            for j in members
        }
        subproblem = ClusterCompatibilityProblem.from_assignments(
            circles, links_by_job
        )
        outcome = subproblem.solve_component(
            list(members), self._seed, self._max_nodes
        )
        if outcome is None:
            rotations: Dict[str, int] = {j: 0 for j in members}
            found = False
            method = "unsat"
        else:
            rotations, method = outcome
            found = True
        links = {
            link for j in members for link in links_by_job[j]
        }
        overlap, violated = subproblem.audit_links(links, rotations)
        solution = ComponentSolution(
            members=members,
            rotations=rotations,
            found=found,
            method=method,
            overlap_ticks=overlap,
            violated_links=tuple(violated),
        )
        self._cache[key] = solution
        if len(self._cache) > self._max_cache_entries:
            self._cache.popitem(last=False)
        self._bump("component_solves")
        return solution

"""Placement policies.

Three policies span the design space the paper discusses:

* :class:`RandomPlacement` — scatter workers anywhere there are free GPUs
  (the pathological baseline).
* :class:`ConsolidatedPlacement` — pack workers into as few racks as
  possible (today's locality-first approach, à la Themis/Gandiva): it
  minimizes the *probability* of sharing a link but ignores *who* is
  shared with when spilling across racks is unavoidable.
* :class:`CompatibilityAwarePlacement` — the paper's proposal: when a job
  must cross racks, prefer uplinks where the set of jobs it would share
  with remains fully compatible; otherwise maximize the compatibility
  score (minimize unavoidable overlap).

All three decide from the cluster's free-GPU counts: a request for more
workers than the cluster has free GPUs is refused before any host list
is built, and a feasible one ranks racks by their counts and builds only
the slot lists it returns or scores (docs/PERF.md, "Online service").
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.compatibility import CompatibilityChecker
from ..errors import PlacementError
from ..sim.rng import RandomStreams
from ..workloads.job import JobSpec
from .cluster import ClusterState


def _check_fits(cluster: ClusterState, spec: JobSpec, n_workers: int) -> None:
    """Refuse a request no placement can satisfy.

    Once the cluster's free total covers the request, every policy finds
    hosts (a greedy spread over the racks always fits), so this is the
    only refusal, and it needs no host list.
    """
    if n_workers < 1:
        raise PlacementError(
            f"{spec.job_id}: needs at least one worker, got {n_workers}"
        )
    free = cluster.total_free_gpus()
    if n_workers > free:
        raise PlacementError(
            f"{spec.job_id}: {n_workers} workers > {free} free GPUs"
        )


def _smallest_fitting_rack(
    free_by_rack: Dict[str, int], n_workers: int
) -> Optional[str]:
    """The rack with the fewest free GPUs that still holds the job, the
    earlier rack on a tie; None when no single rack does."""
    return min(
        (rack for rack, free in free_by_rack.items() if free >= n_workers),
        key=free_by_rack.__getitem__,
        default=None,
    )


def _fullest_first(free_by_rack: Dict[str, int]) -> List[str]:
    """Racks by descending free GPUs, rack order on ties."""
    return sorted(free_by_rack, key=lambda rack: -free_by_rack[rack])


def _greedy_spread(
    cluster: ClusterState,
    racks: Sequence[str],
    free_by_rack: Dict[str, int],
    n_workers: int,
) -> List[str]:
    """Fill ``racks`` in order until the job fits."""
    hosts: List[str] = []
    for rack in racks:
        take = min(n_workers - len(hosts), free_by_rack[rack])
        hosts += cluster.rack_slots(rack, take)
        if len(hosts) == n_workers:
            break
    return hosts


class PlacementPolicy(abc.ABC):
    """Chooses hosts (one GPU each) for a job's workers."""

    name: str = "policy"

    @abc.abstractmethod
    def place(
        self, cluster: ClusterState, spec: JobSpec, n_workers: int
    ) -> List[str]:
        """Return ``n_workers`` hosts (repeats allowed, rack-ordered).

        Raises:
            PlacementError: when the job cannot be placed.
        """


class RandomPlacement(PlacementPolicy):
    """Uniformly random free GPU slots."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = RandomStreams(seed).get("random-placement")

    def place(
        self, cluster: ClusterState, spec: JobSpec, n_workers: int
    ) -> List[str]:
        _check_fits(cluster, spec, n_workers)
        slots = [
            host
            for rack, free in cluster.free_gpus_by_rack().items()
            for host in cluster.rack_slots(rack, free)
        ]
        picked = list(
            self._rng.choice(len(slots), size=n_workers, replace=False)
        )
        hosts = [slots[i] for i in picked]
        # Rack-order the hosts so the aggregate flow is well-defined.
        rack_of = {
            h: cluster.topology.rack_of(h) or "" for h in sorted(set(hosts))
        }
        hosts.sort(key=lambda h: (rack_of[h], h))
        return hosts


class ConsolidatedPlacement(PlacementPolicy):
    """Fewest racks first (locality-only, Themis-style)."""

    name = "consolidated"

    def place(
        self, cluster: ClusterState, spec: JobSpec, n_workers: int
    ) -> List[str]:
        _check_fits(cluster, spec, n_workers)
        free_by_rack = cluster.free_gpus_by_rack()
        # A single rack that fits wins outright.
        rack = _smallest_fitting_rack(free_by_rack, n_workers)
        if rack is not None:
            return cluster.rack_slots(rack, n_workers)
        # Otherwise greedily take the fullest racks.
        return _greedy_spread(
            cluster, _fullest_first(free_by_rack), free_by_rack, n_workers
        )


class CompatibilityAwarePlacement(PlacementPolicy):
    """Locality first; compatibility decides among cross-rack spills.

    Candidate placements are generated rack-locally when possible (no
    shared links, trivially safe); otherwise every pair of racks that
    jointly fits the job is scored: a candidate is *clean* if, on every
    uplink the new job would traverse, the set of sharing jobs (existing
    plus new) remains fully compatible. Clean candidates win; otherwise
    the candidate with the highest residual compatibility (lowest overlap
    fraction) is chosen.
    """

    name = "compatibility-aware"

    def __init__(
        self,
        checker: Optional[CompatibilityChecker] = None,
        max_candidates: int = 16,
        cluster_level: bool = False,
        engine=None,
    ) -> None:
        """Create the policy.

        Args:
            checker: Compatibility checker (profiling bandwidth etc.).
            max_candidates: Cross-rack candidate placements to score.
            cluster_level: When True, a candidate is *clean* only if one
                rotation per job satisfies **every** link simultaneously
                (the §5 cluster-level criterion via
                :class:`repro.core.cluster_compat.
                ClusterCompatibilityProblem`); the default checks each
                link independently, which is necessary but not
                sufficient when jobs span several contended links.
            engine: Optional :class:`repro.core.incremental.
                IncrementalCompatibilityEngine` tracking the live
                cluster. When set, candidates are scored against the
                engine's cached feasible sets (cluster-level by
                construction, no per-candidate solver calls);
                :class:`repro.scheduler.service.ClusterService` injects
                its own engine here automatically.
        """
        if max_candidates < 1:
            raise PlacementError("max_candidates must be >= 1")
        self.checker = checker if checker is not None else CompatibilityChecker()
        self.max_candidates = max_candidates
        self.cluster_level = cluster_level
        self.engine = engine

    def place(
        self, cluster: ClusterState, spec: JobSpec, n_workers: int
    ) -> List[str]:
        _check_fits(cluster, spec, n_workers)
        free_by_rack = cluster.free_gpus_by_rack()
        # Rack-local placement shares no uplinks: always safe.
        rack = _smallest_fitting_rack(free_by_rack, n_workers)
        if rack is not None:
            return cluster.rack_slots(rack, n_workers)

        candidates = self._cross_rack_candidates(
            cluster, free_by_rack, n_workers
        )
        best_hosts: Optional[List[str]] = None
        best_key: Optional[Tuple[int, float]] = None
        for hosts in candidates:
            compatible, overlap = self._score(cluster, spec, hosts)
            key = (0 if compatible else 1, overlap)
            if best_key is None or key < best_key:
                best_key, best_hosts = key, hosts
                if key == (0, 0.0):
                    break
        assert best_hosts is not None
        return best_hosts

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _cross_rack_candidates(
        self,
        cluster: ClusterState,
        free_by_rack: Dict[str, int],
        n_workers: int,
    ) -> List[List[str]]:
        """Rack pairs (then greedy multi-rack) that fit the job."""
        racks = _fullest_first(free_by_rack)
        candidates: List[List[str]] = []
        for i, first in enumerate(racks):
            take_first = min(n_workers, free_by_rack[first])
            for second in racks[i + 1:]:
                # Racks come fullest first: once a pair falls short, so
                # does every later pair of this row.
                if free_by_rack[first] + free_by_rack[second] < n_workers:
                    break
                candidates.append(
                    cluster.rack_slots(first, take_first)
                    + cluster.rack_slots(second, n_workers - take_first)
                )
                if len(candidates) >= self.max_candidates:
                    return candidates
        if not candidates:
            # Fall back to a greedy spread over many racks.
            candidates.append(
                _greedy_spread(cluster, racks, free_by_rack, n_workers)
            )
        return candidates

    def _score(
        self,
        cluster: ClusterState,
        spec: JobSpec,
        hosts: Sequence[str],
    ) -> Tuple[bool, float]:
        """(all-links-compatible, worst overlap fraction) for a candidate."""
        links = cluster.router.route(
            hosts[0], hosts[-1], flow_label=spec.job_id
        )
        if self.engine is not None:
            return self.engine.candidate_score(
                self.engine.circle(spec),
                [link.name for link in links],
            )
        sharing = cluster.jobs_sharing_links_with(links)
        worst_overlap = 0.0
        all_compatible = True
        for link_jobs in sharing.values():
            specs = [job.spec for job in link_jobs if job.uses_network]
            if not specs:
                continue
            result = self.checker.check(specs + [spec])
            if not result.compatible:
                all_compatible = False
                worst_overlap = max(worst_overlap, result.overlap_fraction)
        if all_compatible and self.cluster_level:
            all_compatible = self._cluster_level_clean(cluster, spec, links)
        return all_compatible, worst_overlap

    def _cluster_level_clean(
        self,
        cluster: ClusterState,
        spec: JobSpec,
        links,
    ) -> bool:
        """§5 check: one rotation per job must satisfy every link."""
        from ..core.cluster_compat import ClusterCompatibilityProblem

        network_jobs = [job for job in cluster.jobs if job.uses_network]
        circles = [self.checker.circle(job.spec) for job in network_jobs]
        circles.append(self.checker.circle(spec))
        links_by_job = {
            job.job_id: [link.name for link in job.links]
            for job in network_jobs
        }
        links_by_job[spec.job_id] = [link.name for link in links]
        problem = ClusterCompatibilityProblem.from_assignments(
            circles, links_by_job
        )
        return problem.solve().compatible

"""Cluster state for placement decisions.

Tracks GPU occupancy per host and, crucially for this paper, which jobs'
traffic crosses which links. A placed job's network footprint is modelled
as one aggregate flow from its first worker to its last worker (hosts are
kept in rack order): for rack-local jobs the path never leaves the ToR;
for cross-rack jobs it crosses ToR uplinks, which is where compatibility
matters. This aggregate-flow approximation is documented in DESIGN.md —
the paper's abstraction likewise treats a job's communication phase as one
on-off demand on each link it uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import PlacementError
from ..net.routing import Router
from ..net.topology import Link, Topology
from ..telemetry import session as _telemetry_session
from ..telemetry.trace import KIND_PLACEMENT
from ..workloads.job import JobSpec


@dataclass
class PlacedJob:
    """A job bound to hosts, with its aggregate network route."""

    spec: JobSpec
    hosts: List[str]
    links: List[Link] = field(default_factory=list)

    @property
    def job_id(self) -> str:
        """The job's identifier."""
        return self.spec.job_id

    @property
    def uses_network(self) -> bool:
        """Whether the job spans more than one host."""
        return len(self.links) > 0

    @property
    def endpoints(self) -> Tuple[str, str]:
        """Source and destination hosts of the aggregate flow."""
        return self.hosts[0], self.hosts[-1]


class ClusterState:
    """GPU occupancy plus the job->link sharing map."""

    def __init__(
        self,
        topology: Topology,
        gpus_per_host: int = 4,
        router: Optional[Router] = None,
    ) -> None:
        if gpus_per_host < 1:
            raise PlacementError("gpus_per_host must be >= 1")
        self.topology = topology
        self.gpus_per_host = gpus_per_host
        self.router = router if router is not None else Router(topology)
        self._free: Dict[str, int] = {
            host.name: gpus_per_host for host in topology.hosts()
        }
        self._jobs: Dict[str, PlacedJob] = {}
        # The rack grouping is static (the topology doesn't change under
        # a live cluster) but queried on every placement decision.
        self._racks: Dict[str, List[str]] = {}
        self._rack_of: Dict[str, str] = {}
        for host in topology.hosts():
            rack = topology.rack_of(host.name) or "_norack"
            self._racks.setdefault(rack, []).append(host.name)
            self._rack_of[host.name] = rack
        # The free-capacity index: free GPUs per rack and in total, kept
        # in step with ``_free`` by ``place`` and ``remove`` so that a
        # placement decision starts from counts, not from host lists.
        self._rack_free: Dict[str, int] = {
            rack: gpus_per_host * len(hosts)
            for rack, hosts in self._racks.items()
        }
        self._total_free = gpus_per_host * len(self._free)

    # ------------------------------------------------------------------
    # Capacity queries
    # ------------------------------------------------------------------

    def free_gpus(self, host: str) -> int:
        """Free GPU slots on ``host``."""
        try:
            return self._free[host]
        except KeyError:
            raise PlacementError(f"unknown host {host!r}") from None

    def total_free_gpus(self) -> int:
        """Free GPU slots across the cluster."""
        return self._total_free

    def free_gpus_by_rack(self) -> Dict[str, int]:
        """Free GPU slots per rack, in rack order, full racks left out."""
        return {rack: free for rack, free in self._rack_free.items() if free}

    def rack_slots(self, rack: str, count: int) -> List[str]:
        """The first ``count`` free GPU slots of ``rack``.

        A rack's slots are its hosts in insertion order, each repeated by
        its free GPU count; a prefix takes hosts greedily in that order.
        """
        slots: List[str] = []
        for host in self._racks[rack]:
            if len(slots) >= count:
                break
            slots += [host] * min(self._free[host], count - len(slots))
        return slots

    def hosts_by_rack(self) -> Dict[str, List[str]]:
        """Hosts grouped by their ToR (rack), insertion-ordered."""
        return {rack: list(hosts) for rack, hosts in self._racks.items()}

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------

    def place(self, spec: JobSpec, hosts: Sequence[str]) -> PlacedJob:
        """Bind one GPU per listed host (a host may repeat for several).

        Hosts must be given in rack order; the aggregate flow runs from
        the first to the last host when they differ.
        """
        if spec.job_id in self._jobs:
            raise PlacementError(f"job {spec.job_id!r} already placed")
        if not hosts:
            raise PlacementError("need at least one host")
        demand: Dict[str, int] = {}
        for host in hosts:
            demand[host] = demand.get(host, 0) + 1
        for host, count in demand.items():
            if self.free_gpus(host) < count:
                raise PlacementError(
                    f"host {host} lacks {count} free GPUs for {spec.job_id}"
                )
        for host, count in demand.items():
            self._free[host] -= count
            self._rack_free[self._rack_of[host]] -= count
        self._total_free -= len(hosts)
        first, last = hosts[0], hosts[-1]
        links: List[Link] = []
        if first != last:
            links = self.router.route(first, last, flow_label=spec.job_id)
        job = PlacedJob(spec=spec, hosts=list(hosts), links=links)
        self._jobs[spec.job_id] = job
        telemetry = _telemetry_session.current()
        if telemetry.enabled:
            telemetry.counter("scheduler.placements").inc()
            telemetry.event(
                KIND_PLACEMENT,
                t=0.0,
                job=spec.job_id,
                hosts=list(hosts),
                links=[link.name for link in links],
                cross_rack=bool(links),
            )
        return job

    def remove(self, job_id: str) -> None:
        """Release a job's GPUs and links."""
        job = self._jobs.pop(job_id, None)
        if job is None:
            raise PlacementError(f"job {job_id!r} not placed")
        for host in job.hosts:
            self._free[host] += 1
            self._rack_free[self._rack_of[host]] += 1
        self._total_free += len(job.hosts)

    # ------------------------------------------------------------------
    # Sharing queries
    # ------------------------------------------------------------------

    @property
    def jobs(self) -> List[PlacedJob]:
        """All placed jobs, insertion-ordered."""
        return list(self._jobs.values())

    def job(self, job_id: str) -> PlacedJob:
        """Look up a placed job."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise PlacementError(f"job {job_id!r} not placed") from None

    def link_sharing(self) -> Dict[str, Set[str]]:
        """Map link name -> ids of jobs whose aggregate flow crosses it."""
        sharing: Dict[str, Set[str]] = {}
        for job in self._jobs.values():
            for link in job.links:
                sharing.setdefault(link.name, set()).add(job.job_id)
        return sharing

    def jobs_sharing_links_with(
        self, links: Sequence[Link]
    ) -> Dict[str, List[PlacedJob]]:
        """Placed jobs crossing each of the given links (by link name)."""
        wanted = {link.name for link in links}
        result: Dict[str, List[PlacedJob]] = {
            name: [] for name in sorted(wanted)
        }
        for job in self._jobs.values():
            for link in job.links:
                if link.name in wanted:
                    result[link.name].append(job)
        return result

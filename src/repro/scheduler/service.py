"""The online cluster service (ROADMAP item 3).

A long-lived, heap-driven scheduler: jobs *arrive* (are placed, queued,
or rejected), *depart* (free their GPUs and links), and queued jobs
*retry* deterministically after every departure. Placement feasibility is
GPU capacity (the policy's concern); compatibility is tracked live by an
:class:`repro.core.incremental.IncrementalCompatibilityEngine`, so each
admission is audited *cluster-wide* — one rotation per job across all its
links — rather than link-by-link, and untouched connected components are
never re-solved.

Event ordering at equal timestamps is departures → retries → arrivals
(capacity frees before anyone tries to use it), with a submission
sequence number as the final tie-break — the whole run is a pure
function of the arrival schedule, the policy, and the seed.

Every decision produces an :class:`AdmissionRecord`; the aggregate
:class:`ServiceStats` carries the admission rate, compatibility rate and
a slowdown proxy (1 + the fraction of the job's own circle colliding
with its neighbours' live phases). Placement latency is wall-clock and
therefore lives only in the span log (one ``service.place`` span per
attempt), never in result data or metrics — runs stay byte-deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.compatibility import CompatibilityChecker
from ..core.incremental import IncrementalCompatibilityEngine
from ..errors import PlacementError, SimulationError
from ..telemetry import session as _telemetry_session
from ..workloads.traces import JobArrival
from .cluster import ClusterState
from .placement import CompatibilityAwarePlacement, PlacementPolicy

#: Event kinds, in same-timestamp processing order.
EVENT_DEPARTURE = "departure"
EVENT_RETRY = "retry"
EVENT_ARRIVAL = "arrival"

_PRIORITY = {EVENT_DEPARTURE: 0, EVENT_RETRY: 1, EVENT_ARRIVAL: 2}

#: Seconds per simulated day (for sustained-throughput reporting).
SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class AdmissionRecord:
    """One admission decision, fully deterministic.

    Attributes:
        time: Simulated decision time, seconds.
        job_id: The job concerned.
        outcome: ``"admitted"``, ``"queued"`` or ``"rejected"``.
        attempt: 0 on first placement, ``n`` after ``n`` queue retries.
        hosts: Hosts bound on admission (empty otherwise).
        links: Link names of the aggregate flow (empty for rack-local).
        compatible: Cluster-wide verdict for the job's component (None
            when not admitted).
        method: How the verdict was reached (``screen``/``dfs``/
            ``annealing``/``unsat``/``local``...).
        slowdown_proxy: 1.0 for compatible admissions; 1 + the colliding
            fraction of the job's circle otherwise.
        violated: Links of the job's component still seeing simultaneous
            communication after this admission.
        queue_depth: Queue length *after* this decision.
        concurrent: Running jobs *after* this decision.
    """

    time: float
    job_id: str
    outcome: str
    attempt: int = 0
    hosts: Tuple[str, ...] = ()
    links: Tuple[str, ...] = ()
    compatible: Optional[bool] = None
    method: str = ""
    slowdown_proxy: float = 1.0
    violated: Tuple[str, ...] = ()
    queue_depth: int = 0
    concurrent: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form for run results."""
        return {
            "time": self.time,
            "job_id": self.job_id,
            "outcome": self.outcome,
            "attempt": self.attempt,
            "hosts": list(self.hosts),
            "links": list(self.links),
            "compatible": self.compatible,
            "method": self.method,
            "slowdown_proxy": self.slowdown_proxy,
            "violated": list(self.violated),
            "queue_depth": self.queue_depth,
            "concurrent": self.concurrent,
        }


@dataclass
class ServiceStats:
    """Aggregate outcome of one service run.

    ``submitted`` counts arrival events processed; ``queued`` counts
    enqueue decisions (a job later admitted from the queue contributes to
    both ``queued`` and ``admitted``).
    """

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    queued: int = 0
    retry_admissions: int = 0
    departures: int = 0
    compatible_admissions: int = 0
    incompatible_admissions: int = 0
    peak_concurrent: int = 0
    peak_queue_depth: int = 0
    horizon: float = 0.0
    records: List[AdmissionRecord] = field(default_factory=list)

    @property
    def admission_rate(self) -> float:
        """Fraction of submitted jobs eventually admitted."""
        if self.submitted == 0:
            return 1.0
        return self.admitted / self.submitted

    @property
    def compatibility_rate(self) -> float:
        """Fraction of admissions that kept their component compatible."""
        if self.admitted == 0:
            return 1.0
        return self.compatible_admissions / self.admitted

    @property
    def mean_slowdown_proxy(self) -> float:
        """Mean slowdown proxy over admitted jobs (NaN when none)."""
        proxies = [
            record.slowdown_proxy
            for record in self.records
            if record.outcome == "admitted"
        ]
        if not proxies:
            return float("nan")
        return sum(proxies) / len(proxies)

    @property
    def admitted_per_day(self) -> float:
        """Admissions normalized to one simulated day."""
        if self.horizon <= 0:
            return 0.0
        return self.admitted * SECONDS_PER_DAY / self.horizon


class ClusterService:
    """Event-driven online scheduler over one cluster."""

    def __init__(
        self,
        cluster: ClusterState,
        policy: PlacementPolicy,
        checker: Optional[CompatibilityChecker] = None,
        engine: Optional[IncrementalCompatibilityEngine] = None,
        queue_limit: int = 16,
        seed: int = 0,
    ) -> None:
        """Create the service.

        Args:
            cluster: GPU/link state; must be exclusively driven by this
                service once the first event is processed.
            policy: Placement policy. A
                :class:`CompatibilityAwarePlacement` without an engine is
                wired to this service's engine so candidate scoring uses
                cached feasible sets instead of per-link solver calls.
            checker: Circle profiler shared with the engine. Without
                ``checker`` and ``engine``, a
                :class:`CompatibilityAwarePlacement` lends its own, so
                candidates are scored, and admissions audited, on
                circles profiled at the policy's bandwidth.
            engine: Incremental compatibility engine (constructed from
                ``checker``/``seed`` when omitted).
            queue_limit: Bounded admission queue; 0 rejects immediately.
            seed: Engine seed (component solves).
        """
        if queue_limit < 0:
            raise SimulationError("queue_limit must be >= 0")
        self.cluster = cluster
        self.policy = policy
        if engine is None:
            if checker is None and isinstance(
                policy, CompatibilityAwarePlacement
            ):
                checker = policy.checker
            engine = IncrementalCompatibilityEngine(
                checker=checker, seed=seed
            )
        elif checker is not None and engine.checker is not checker:
            raise SimulationError(
                "pass either a checker or an engine, not both"
            )
        self.engine = engine
        if (
            isinstance(policy, CompatibilityAwarePlacement)
            and policy.engine is None
        ):
            policy.engine = engine
        self.queue_limit = queue_limit
        self.stats = ServiceStats()
        self._heap: List[Tuple[float, int, int, str, Any]] = []
        self._seq = 0
        self._queue: List[Tuple[JobArrival, int]] = []
        self._active: Dict[str, float] = {}
        self._retry_time: Optional[float] = None
        self._now = 0.0
        # The latest time the service has run to: the last event
        # processed or the last ``until``, whichever is later.
        self._clock = 0.0

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------

    def submit(self, arrival: JobArrival) -> None:
        """Schedule one arrival event.

        The arrival may not lie behind the time the service has already
        run to (an arrival at exactly that time is accepted).
        """
        if arrival.time < 0:
            raise SimulationError("arrival time must be >= 0")
        if arrival.lifetime <= 0:
            raise SimulationError("arrival lifetime must be > 0")
        if arrival.n_workers < 1:
            raise SimulationError("arrival n_workers must be >= 1")
        if arrival.time < self._clock:
            raise SimulationError(
                f"arrival {arrival.spec.job_id!r} at {arrival.time} s is "
                f"behind the service clock ({self._clock} s)"
            )
        self._push(arrival.time, EVENT_ARRIVAL, arrival)

    def submit_all(self, arrivals: Sequence[JobArrival]) -> None:
        """Schedule a whole arrival stream."""
        for arrival in arrivals:
            self.submit(arrival)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> ServiceStats:
        """Drain the event heap (optionally up to ``until`` seconds)."""
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            time, _, _, kind, payload = heapq.heappop(self._heap)
            self._now = time
            if kind == EVENT_ARRIVAL:
                self._handle_arrival(time, payload, attempt=0)
            elif kind == EVENT_DEPARTURE:
                self._handle_departure(time, payload)
            else:
                self._handle_retry(time)
        self._clock = max(
            self._clock, self._now if until is None else until
        )
        self.stats.horizon = until if until is not None else self._now
        return self.stats

    @property
    def concurrent(self) -> int:
        """Jobs currently running."""
        return len(self._active)

    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting in the admission queue."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _push(self, time: float, kind: str, payload: Any) -> None:
        heapq.heappush(
            self._heap, (time, _PRIORITY[kind], self._seq, kind, payload)
        )
        self._seq += 1

    def _try_place(self, arrival: JobArrival) -> Optional[List[str]]:
        """One placement attempt, timed as a ``service.place`` span.

        A job that needs more GPUs than are free is refused here,
        without a span or a policy call: each worker takes one GPU, and
        every policy refuses exactly then, drawing nothing.
        """
        if arrival.n_workers > self.cluster.total_free_gpus():
            return None
        with _telemetry_session.current().span("service.place"):
            try:
                hosts = self.policy.place(
                    self.cluster, arrival.spec, arrival.n_workers
                )
            except PlacementError:
                hosts = None
        return hosts

    def _handle_arrival(
        self, time: float, arrival: JobArrival, attempt: int
    ) -> None:
        self.stats.submitted += 1
        hosts = self._try_place(arrival)
        if hosts is not None:
            self._admit(time, arrival, hosts, attempt)
            return
        if len(self._queue) < self.queue_limit:
            self._queue.append((arrival, attempt))
            self.stats.queued += 1
            self.stats.peak_queue_depth = max(
                self.stats.peak_queue_depth, len(self._queue)
            )
            self._record(time, arrival.spec.job_id, "queued", attempt)
        else:
            self.stats.rejected += 1
            self._record(time, arrival.spec.job_id, "rejected", attempt)

    def _admit(
        self,
        time: float,
        arrival: JobArrival,
        hosts: Sequence[str],
        attempt: int,
    ) -> None:
        spec = arrival.spec
        placed = self.cluster.place(spec, hosts)
        link_names: Tuple[str, ...] = ()
        violated: Tuple[str, ...] = ()
        if placed.uses_network:
            circle = self.engine.circle(spec)
            link_names = tuple(link.name for link in placed.links)
            clean, fraction = self.engine.candidate_score(
                circle, link_names
            )
            verdict = self.engine.add(circle, link_names)
            compatible = verdict.compatible
            method = verdict.method
            violated = verdict.violated_links
            proxy = 1.0 if compatible else 1.0 + fraction
        else:
            compatible, method, proxy = True, "local", 1.0
        self._active[spec.job_id] = time + arrival.lifetime
        self._push(time + arrival.lifetime, EVENT_DEPARTURE, spec.job_id)
        self.stats.admitted += 1
        if attempt > 0:
            self.stats.retry_admissions += 1
        if compatible:
            self.stats.compatible_admissions += 1
        else:
            self.stats.incompatible_admissions += 1
        self.stats.peak_concurrent = max(
            self.stats.peak_concurrent, len(self._active)
        )
        self._record(
            time,
            spec.job_id,
            "admitted",
            attempt,
            hosts=tuple(hosts),
            links=link_names,
            compatible=compatible,
            method=method,
            slowdown_proxy=proxy,
            violated=violated,
        )

    def _handle_departure(self, time: float, job_id: str) -> None:
        if job_id not in self._active:
            raise SimulationError(f"departure for unknown job {job_id!r}")
        del self._active[job_id]
        job = self.cluster.job(job_id)
        if job.uses_network and job_id in self.engine:
            self.engine.remove(job_id)
        self.cluster.remove(job_id)
        self.stats.departures += 1
        if self._queue and self._retry_time != time:
            self._retry_time = time
            self._push(time, EVENT_RETRY, None)

    def _handle_retry(self, time: float) -> None:
        self._retry_time = None
        pending = list(self._queue)
        self._queue.clear()
        for arrival, attempt in pending:
            hosts = self._try_place(arrival)
            if hosts is None:
                self._queue.append((arrival, attempt + 1))
            else:
                self._admit(time, arrival, hosts, attempt + 1)

    def _record(
        self,
        time: float,
        job_id: str,
        outcome: str,
        attempt: int,
        hosts: Tuple[str, ...] = (),
        links: Tuple[str, ...] = (),
        compatible: Optional[bool] = None,
        method: str = "",
        slowdown_proxy: float = 1.0,
        violated: Tuple[str, ...] = (),
    ) -> None:
        self.stats.records.append(
            AdmissionRecord(
                time=time,
                job_id=job_id,
                outcome=outcome,
                attempt=attempt,
                hosts=hosts,
                links=links,
                compatible=compatible,
                method=method,
                slowdown_proxy=slowdown_proxy,
                violated=violated,
                queue_depth=len(self._queue),
                concurrent=len(self._active),
            )
        )


# ---------------------------------------------------------------------------
# Runner integration (the ``service`` backend's worker-side entry point)
# ---------------------------------------------------------------------------

#: The spec options :func:`run_service_spec` reads; the ``service``
#: backend refuses any other.
SERVICE_OPTIONS = frozenset({
    "n_arrivals", "mean_interarrival_s", "mean_lifetime_s",
    "lifetime_model", "placement", "n_racks", "hosts_per_rack",
    "gpus_per_host", "queue_limit",
})


def run_service_spec(spec) -> "Any":
    """Execute one ``service`` :class:`repro.runner.spec.RunSpec`.

    Options (all plain data, so specs hash and cache), exactly
    :data:`SERVICE_OPTIONS`:

    * ``n_arrivals`` / ``mean_interarrival_s`` / ``mean_lifetime_s`` /
      ``lifetime_model`` — the Poisson arrival process
      (:func:`repro.workloads.traces.poisson_arrivals`).
    * ``placement`` — ``"random"`` / ``"consolidated"`` /
      ``"compatibility-aware"``.
    * ``n_racks`` / ``hosts_per_rack`` — the leaf-spine fabric built
      when ``spec.topology`` is None; any other fabric (a fat tree, say)
      comes in as ``spec.topology``.
    * ``gpus_per_host`` — GPUs per host in the built cluster.
    * ``queue_limit`` — admission queue bound.

    The compatibility-aware policy scores candidates with the service's
    incremental engine, which is cluster-level by construction.
    """
    from ..net.topology import Topology
    from ..runner.spec import (  # simlint: disable=ARCH001 - lazy import; the online service reuses RunResult for its report format by design
        RunResult,
        safe_content_hash,
    )
    from ..units import gbps
    from ..workloads.traces import poisson_arrivals
    from .placement import ConsolidatedPlacement, RandomPlacement

    options = spec.options_dict()
    capacity = spec.capacity or gbps(42)
    topology = spec.topology
    if topology is None:
        topology = Topology.leaf_spine(
            n_racks=int(options.get("n_racks", 8)),
            hosts_per_rack=int(options.get("hosts_per_rack", 2)),
            host_capacity=capacity,
        )
    cluster = ClusterState(
        topology, gpus_per_host=int(options.get("gpus_per_host", 4))
    )
    checker = CompatibilityChecker(capacity=capacity)
    placement = str(options.get("placement", "consolidated"))
    policy: PlacementPolicy
    if placement == "random":
        policy = RandomPlacement(seed=spec.seed)
    elif placement == "consolidated":
        policy = ConsolidatedPlacement()
    elif placement == "compatibility-aware":
        policy = CompatibilityAwarePlacement(checker=checker)
    else:
        raise SimulationError(f"unknown placement policy {placement!r}")

    arrivals = poisson_arrivals(
        count=int(options.get("n_arrivals", 50)),
        seed=spec.seed,
        mean_interarrival_s=float(options.get("mean_interarrival_s", 60.0)),
        mean_lifetime_s=float(options.get("mean_lifetime_s", 600.0)),
        lifetime_model=str(options.get("lifetime_model", "exponential")),
        capacity=capacity,
    )

    service = ClusterService(
        cluster,
        policy,
        checker=checker,
        queue_limit=int(options.get("queue_limit", 16)),
        seed=spec.seed,
    )
    service.submit_all(arrivals)
    stats = service.run(until=spec.until)
    return RunResult(
        spec_hash=safe_content_hash(spec),
        backend="service",
        label=spec.label,
        data={
            "submitted": stats.submitted,
            "admitted": stats.admitted,
            "rejected": stats.rejected,
            "queued": stats.queued,
            "retry_admissions": stats.retry_admissions,
            "departures": stats.departures,
            "compatible_admissions": stats.compatible_admissions,
            "incompatible_admissions": stats.incompatible_admissions,
            "peak_concurrent": stats.peak_concurrent,
            "peak_queue_depth": stats.peak_queue_depth,
            "horizon": stats.horizon,
            "admission_rate": stats.admission_rate,
            "compatibility_rate": stats.compatibility_rate,
            "mean_slowdown_proxy": stats.mean_slowdown_proxy,
            "engine": service.engine.stats(),
            "records": [record.to_dict() for record in stats.records],
        },
    )

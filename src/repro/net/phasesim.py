"""Phase-level event simulation of ML training jobs on a network.

Jobs alternate compute phases (no traffic) and communication phases
(``comm_bytes`` injected along the job's route). Whenever the set of
communicating jobs changes — or, for progress-dependent policies, on a
periodic tick — the simulator asks the share policy for weights/priorities
and the fluid allocator for rates. Between such events rates are constant,
so phase completions are computed *exactly*; there is no time-stepping
error. This is the engine behind Table 1, Figure 1d and Figure 2.

The on-off state machine itself lives in
:class:`repro.core.lifecycle.JobLifecycle`, shared with the fluid
tiers; this module drives it from scheduled events and adds the
network: one routed flow per job, the share policy, and the fluid rate
allocator.

The sliding effect the paper describes needs no special code: with a
weighted (unfair) policy, the favoured job's communication phase ends
earlier, its next compute phase starts earlier, and after a few iterations
the jobs' phases interleave — exactly the Figure 2b dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..core.lifecycle import Gate, JobLifecycle, JobState
from ..core.timeline import IterationSample, JobTimeline
from ..errors import ConfigError, SimulationError, WorkloadError
from ..faults.events import InjectionSchedule, RateChange
from ..sim.engine import Simulator
from ..sim.rng import RandomStreams
from ..sim.trace import StepFunction
from ..telemetry import session as _telemetry_session
from ..telemetry.trace import (
    KIND_COMM,
    KIND_FAULT,
    KIND_ITERATION,
    KIND_PHASE,
    KIND_RATE,
)
from .flows import Flow
from .fluid import FluidAllocator
from .routing import Router
from .topology import Link, Topology

if TYPE_CHECKING:  # imported lazily to avoid a package import cycle
    from ..cc.base import SharePolicy
    from ..workloads.job import JobSpec

#: Residual bytes below which a communication phase counts as finished.
_BYTES_EPSILON = 1.0

__all__ = [
    "Gate",
    "IterationSample",
    "JobRun",
    "JobState",
    "JobTimeline",
    "PhaseLevelSimulator",
    "SimulationResult",
]


class JobRun:
    """Runtime state of one job inside the simulator.

    Thin shell around the shared :class:`JobLifecycle`: it adds what is
    network-specific — the routed flow and the rate trace — and
    delegates every lifecycle question to the state machine.
    """

    def __init__(
        self,
        spec: JobSpec,
        flow: Optional[Flow],
        n_iterations: int,
        start_offset: float,
        gate: Optional[Gate],
        rng: np.random.Generator,
    ) -> None:
        self.spec = spec
        #: Plain attribute (not a delegating property): it is read in
        #: the simulator's per-event telemetry paths.
        self.job_id = spec.job_id
        #: The job's one routed flow, first worker to last; plain
        #: attribute for the same hot-path reason as ``job_id``.
        #: ``None`` for the flowless result containers
        #: ``io.job_run_from_dict`` builds.
        self.flow = flow
        self.lifecycle = JobLifecycle.for_spec(
            spec,
            n_iterations=n_iterations,
            start_offset=start_offset,
            gate=gate,
            rng=rng,
        )
        self.rate_trace = StepFunction(0.0, name=f"rate:{spec.job_id}")
        #: The simulator's link-load slot of each link of the flow, in
        #: path order, repeats included: the job's rate adds to each.
        self.load_slots: List[int] = []
        self._finish_event = None

    @property
    def timeline(self) -> JobTimeline:
        """The job's canonical iteration record."""
        return self.lifecycle.timeline

    @property
    def records(self) -> List[IterationSample]:
        """Completed iterations (the timeline's samples)."""
        return self.lifecycle.timeline.samples

    @property
    def state(self) -> JobState:
        """Current lifecycle state."""
        return self.lifecycle.state

    @state.setter
    def state(self, value: JobState) -> None:
        self.lifecycle.state = value

    @property
    def done(self) -> bool:
        """Whether all requested iterations completed."""
        return self.lifecycle.done

    @property
    def iterations_done(self) -> int:
        """Completed iterations."""
        return self.lifecycle.iterations_done

    @property
    def n_iterations(self) -> int:
        """Requested iteration count."""
        return self.lifecycle.n_iterations

    @property
    def start_offset(self) -> float:
        """Simulation time of the first compute phase."""
        return self.lifecycle.start_offset


@dataclass
class SimulationResult:
    """Everything a phase-level run produced.

    Attributes:
        jobs: Completed job runs keyed by job id.
        link_loads: Piecewise-constant total load on every traversed link.
        duration: Simulation time at which the run ended.
    """

    jobs: Dict[str, JobRun] = field(default_factory=dict)
    link_loads: Dict[str, StepFunction] = field(default_factory=dict)
    duration: float = 0.0

    def timeline(self, job_id: str) -> JobTimeline:
        """One job's canonical timeline."""
        return self.jobs[job_id].timeline

    def timelines(self) -> Dict[str, JobTimeline]:
        """Every job's timeline, keyed by job id."""
        return {job_id: run.timeline for job_id, run in self.jobs.items()}

    def iteration_times(self, job_id: str) -> np.ndarray:
        """Iteration durations for one job, seconds."""
        return self.timeline(job_id).iteration_times()

    def mean_iteration_time(self, job_id: str, skip: int = 0) -> float:
        """Mean iteration time, optionally skipping warm-up iterations."""
        return self.timeline(job_id).mean_iteration_time(skip)

    def median_iteration_time(self, job_id: str, skip: int = 0) -> float:
        """Median iteration time, optionally skipping warm-up iterations."""
        return self.timeline(job_id).median_iteration_time(skip)


class PhaseLevelSimulator:
    """Runs training jobs over a topology under a share policy."""

    def __init__(
        self,
        topology: Topology,
        policy: "SharePolicy",
        router: Optional[Router] = None,
        seed: int = 0,
        telemetry: Optional["_telemetry_session.Telemetry"] = None,
    ) -> None:
        self.topology = topology
        self.policy = policy
        self.router = router if router is not None else Router(topology)
        self.allocator = FluidAllocator()
        self._streams = RandomStreams(seed)
        self.telemetry = _telemetry_session.resolve(telemetry)
        self._sim = Simulator(telemetry=self.telemetry)
        self._realloc_counter = self.telemetry.counter(
            "phasesim.reallocations"
        )
        self._iteration_counter = self.telemetry.counter(
            "phasesim.iterations"
        )
        self._jobs: List[JobRun] = []
        self._active: List[JobRun] = []
        self._rates: Dict[JobRun, float] = {}
        self._last_progress_update = 0.0
        #: One load slot per link name, in first-registered order: the
        #: link's load series and the last load written to it.
        self._load_slot: Dict[str, int] = {}
        self._load_series: List[StepFunction] = []
        self._load_written: List[float] = []
        #: Pre-fault capacity of every link a fault schedule touches.
        self._base_capacities: Dict[Link, float] = {}
        self._tick_event = None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def add_job(
        self,
        spec: JobSpec,
        src: str,
        dst: str,
        n_iterations: int,
        start_offset: float = 0.0,
        gate: Optional[Gate] = None,
    ) -> JobRun:
        """Register a job whose traffic is one flow ``src -> dst``.

        Args:
            spec: The job's phase profile.
            src: Sending host.
            dst: Receiving host.
            n_iterations: Iterations to run before the job stops.
            start_offset: Simulation time of the first compute phase.
            gate: Optional flow-scheduling gate (§4, direction iii).

        Raises:
            ConfigError: If the route crosses no link (``src == dst``).
        """
        if n_iterations < 1:
            raise WorkloadError("n_iterations must be >= 1")
        if start_offset < 0:
            raise ConfigError("start_offset must be >= 0")
        if any(run.job_id == spec.job_id for run in self._jobs):
            raise ConfigError(f"duplicate job id {spec.job_id!r}")
        links = self.router.route(src, dst, flow_label=f"{spec.job_id}:0")
        if not links:
            raise ConfigError(
                f"job {spec.job_id!r}: route {src} -> {dst} crosses no link"
            )
        run = JobRun(
            spec=spec,
            flow=Flow(
                flow_id=f"flow:{spec.job_id}:0",
                src=src,
                dst=dst,
                links=links,
                job_id=spec.job_id,
            ),
            n_iterations=n_iterations,
            start_offset=start_offset,
            gate=gate,
            rng=self._streams.get(f"job:{spec.job_id}"),
        )
        self._jobs.append(run)
        for link in links:
            slot = self._load_slot.get(link.name)
            if slot is None:
                slot = self._load_slot[link.name] = len(self._load_series)
                self._load_series.append(
                    StepFunction(0.0, name=f"load:{link.name}")
                )
                self._load_written.append(0.0)
            run.load_slots.append(slot)
        return run

    def install_faults(
        self, schedule: Optional[InjectionSchedule]
    ) -> None:
        """Arm an injection schedule on the simulator clock.

        Call after every :meth:`add_job`, before :meth:`run`. Each
        event becomes two boundary callbacks that set the named link's
        capacity and trigger a reallocation: a rate change scales it,
        and a failure or a PFC storm zeroes it (this tier has no PFC
        model, so a storm degrades to a transient failure). :meth:`run`
        puts every faulted link's base capacity back when it returns,
        even when ``until`` ends the run inside a fault window. Link
        names must exist in the topology
        (:class:`~repro.errors.TopologyError` otherwise, before any
        event is armed).
        """
        if schedule is None or schedule.is_empty:
            return
        links = {
            name: self.topology.link_by_name(name)
            for name in schedule.link_names()
        }
        for event in schedule.events:
            link = links[event.link]
            base = self._base_capacities.setdefault(link, link.capacity)
            faulted = (
                base * event.factor
                if isinstance(event, RateChange)
                else 0.0
            )
            # priority=-1: capacity flips before any same-time job
            # event sees the link, mirroring the fluid tiers where
            # the window starts at the tick boundary.
            self._sim.schedule_at(
                event.start, self._apply_link_fault,
                link, faulted, event.kind, "start", priority=-1,
            )
            self._sim.schedule_at(
                event.end, self._apply_link_fault,
                link, base, event.kind, "end", priority=-1,
            )

    def _apply_link_fault(
        self, link, capacity: float, kind: str, edge: str
    ) -> None:
        link.capacity = capacity
        if self.telemetry.enabled:
            self.telemetry.event(
                KIND_FAULT,
                t=self._sim.now,
                fault=kind,
                target=link.name,
                edge=edge,
                capacity=capacity,
            )
        self._reallocate()

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Execute the simulation and collect results.

        Runs until every job finishes its iterations or the clock reaches
        ``until``.
        """
        if not self._jobs:
            raise SimulationError("add at least one job before run()")
        self.policy.prepare([run.flow for run in self._jobs])
        for run in self._jobs:
            self._sim.schedule_at(run.start_offset, self._begin_iteration, run)
        try:
            end_time = self._sim.run(until=until)
        finally:
            for link, capacity in self._base_capacities.items():
                link.capacity = capacity
            # Events left queued past the horizon, and the tick and
            # finish handles, hold bound methods of this simulator: a
            # cycle only the cyclic GC would free. The simulator is
            # single-use (this method schedules every job's first
            # iteration), so drop them.
            self._sim.drop_pending()
            self._tick_event = None
            for run in self._jobs:
                run._finish_event = None
        return SimulationResult(
            jobs={run.job_id: run for run in self._jobs},
            link_loads={
                name: self._load_series[slot]
                for name, slot in self._load_slot.items()
            },
            duration=end_time,
        )

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------

    def _begin_iteration(self, run: JobRun) -> None:
        lifecycle = run.lifecycle
        compute_time = lifecycle.begin_iteration(self._sim.now)
        if self.telemetry.enabled:
            self.telemetry.event(
                KIND_PHASE,
                t=self._sim.now,
                job=run.job_id,
                state=JobState.COMPUTE.value,
                iteration=len(lifecycle.timeline),
            )
        self._sim.schedule(compute_time, self._finish_compute, run)

    def _finish_compute(self, run: JobRun) -> None:
        now = self._sim.now
        lifecycle = run.lifecycle
        if lifecycle.gate is None:  # ungated fast path
            self._begin_comm(run)
            return
        allowed = lifecycle.release_time(now)
        if allowed > now:
            lifecycle.enter_waiting()
            if self.telemetry.enabled:
                self.telemetry.event(
                    KIND_PHASE,
                    t=now,
                    job=run.job_id,
                    state=JobState.WAITING.value,
                    until=allowed,
                )
            self._sim.schedule_at(allowed, self._begin_comm, run)
            return
        self._begin_comm(run)

    def _begin_comm(self, run: JobRun) -> None:
        run.lifecycle.begin_comm(self._sim.now)
        if self.telemetry.enabled:
            self.telemetry.event(
                KIND_PHASE,
                t=self._sim.now,
                job=run.job_id,
                state=JobState.COMM.value,
            )
        run.flow.progress = 0.0
        self.policy.on_phase_start(run.flow)
        self._active.append(run)
        self._reallocate()

    def _finish_comm(self, run: JobRun) -> None:
        now = self._sim.now
        run._finish_event = None
        self._advance_progress(now)
        lifecycle = run.lifecycle
        # Guard against spurious events racing a reallocation.
        if lifecycle.comm_budget - lifecycle.comm_sent > _BYTES_EPSILON:
            self._reallocate()
            return
        self.policy.on_phase_end(run.flow)
        self._active.remove(run)
        self._rates.pop(run, None)
        run.rate_trace.set(now, 0.0)
        if self.telemetry.enabled:
            self.telemetry.event(
                KIND_COMM,
                t=now,
                job=run.job_id,
                flow=run.flow.flow_id,
                bytes=lifecycle.comm_budget,
            )
        sample = lifecycle.close_iteration(now)
        if self.telemetry.enabled:
            self._iteration_counter.inc()
            self.telemetry.event(
                KIND_ITERATION,
                t=now,
                job=run.job_id,
                index=sample.index,
                duration=sample.duration,
                comm_duration=sample.comm_duration,
            )
        if lifecycle.state is not JobState.DONE:
            self._begin_iteration(run)
        self._reallocate()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _advance_progress(self, now: float) -> None:
        """Credit bytes sent since the last rate change to each flow."""
        dt = now - self._last_progress_update
        if dt > 0:
            rates = self._rates
            for run in self._active:
                # Inlined lifecycle.credit(): this runs once per active
                # job per rate change — the simulator's hottest loop.
                run.lifecycle.comm_sent += rates.get(run, 0.0) * dt
        self._last_progress_update = now

    def _reallocate(self) -> None:
        now = self._sim.now
        self._advance_progress(now)

        policy = self.policy
        flows: List[Flow] = []
        for run in self._active:
            lifecycle = run.lifecycle
            flow = run.flow
            flow.progress = min(
                lifecycle.comm_sent / lifecycle.comm_budget, 1.0
            )
            weight = policy.weight_of(flow)
            if not 0.0 < weight < math.inf:  # also refuses NaN
                raise ConfigError(
                    f"policy {policy.name!r} gave job {run.job_id!r} "
                    f"weight {weight!r}; share weights must be finite "
                    f"and > 0"
                )
            flow.weight = weight
            flow.priority = policy.priority_of(flow)
            flows.append(flow)

        # Rates come back in the order of ``flows``, which is
        # ``self._active``'s.
        rates = self.allocator.allocate(flows).flow_rates

        # Update rates and reschedule each active job's completion.
        self._realloc_counter.inc()
        for run, rate in zip(self._active, rates):
            if self.telemetry.enabled and rate != self._rates.get(run):
                self.telemetry.event(
                    KIND_RATE,
                    t=now,
                    job=run.job_id,
                    flow=run.flow.flow_id,
                    rate=rate,
                )
            self._rates[run] = rate
            run.rate_trace.set(now, rate)
            if run._finish_event is not None:
                self._sim.cancel(run._finish_event)
                run._finish_event = None
            lifecycle = run.lifecycle
            remaining = lifecycle.comm_budget - lifecycle.comm_sent
            if remaining <= _BYTES_EPSILON:
                run._finish_event = self._sim.schedule(
                    0.0, self._finish_comm, run
                )
            elif rate > 0:
                run._finish_event = self._sim.schedule(
                    remaining / rate, self._finish_comm, run
                )
            # rate == 0 (starved by a higher priority class): no event; the
            # next state change will reallocate and reschedule.

        self._record_link_loads(now)
        self._manage_tick()

    def _record_link_loads(self, now: float) -> None:
        """Write each link's total load where it changed.

        Loads add up in active-job order, then path order, as the rates
        cross each link. A load equal to the last one written would be a
        no-op ``set`` (it skips an unchanged value, and at the same
        instant overwrites with an equal one), so it is not written.
        """
        loads = [0.0] * len(self._load_series)
        for run in self._active:
            rate = self._rates.get(run, 0.0)
            for slot in run.load_slots:
                loads[slot] += rate
        written = self._load_written
        for slot, load in enumerate(loads):
            if load != written[slot]:
                written[slot] = load
                self._load_series[slot].set(now, load)

    def _manage_tick(self) -> None:
        """Keep a periodic reallocation tick alive for adaptive policies."""
        interval = self.policy.reallocation_interval
        if interval is None:
            return
        if self._tick_event is not None:
            self._sim.cancel(self._tick_event)
            self._tick_event = None
        # Only re-arm while some active job is actually moving: with
        # every rate at zero (e.g. a failed link) progress cannot change,
        # so a tick would reschedule itself forever and an unbounded run
        # would never drain its event queue. Whatever external event revives a
        # flow (fault boundary, phase change) reallocates and re-arms.
        if self._active and any(
            self._rates.get(run, 0.0) > 0.0 for run in self._active
        ):
            self._tick_event = self._sim.schedule(
                interval, self._tick, priority=1
            )

    def _tick(self) -> None:
        self._tick_event = None
        if self._active:
            self._reallocate()

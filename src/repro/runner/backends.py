"""The backend registry: one ``execute(spec) -> RunResult`` protocol.

Built-in backends adapt the library's three simulators:

* ``phase``  — :class:`repro.net.phasesim.PhaseLevelSimulator`, the exact
  event-driven phase model behind Table 1 / Figures 1d and 2.
* ``fluid``  — :class:`repro.cc.dcqcn.DcqcnFluidSimulator`, the
  microsecond-scale DCQCN state machine (Figures 1b/1c, cross-fidelity).
* ``engine`` — a deliberately small on-off model driven directly by
  :class:`repro.sim.engine.Simulator`: one shared bottleneck, weighted
  proportional sharing, no routing. The cheapest fidelity tier, useful
  for sanity-checking the phase backend and for very large sweeps.
* ``cluster`` — :class:`repro.scheduler.simulation.ClusterSimulation`
  over a declarative list of placements (the scheduler experiments).
* ``service`` — :class:`repro.scheduler.service.ClusterService` over a
  declarative arrival process (the online scheduling experiments).

Experiment modules may :func:`register` additional backends (e.g. the
population-sweep point evaluator). A spec's ``backend_module`` names the
module to import before lookup, so worker processes that never imported
the experiment module still resolve its backend.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Mapping, Optional, Protocol, Tuple

from ..errors import ConfigError, SimulationError
from ..faults.events import RateChange
from ..faults.runtime import build_warp, emit_fault_events
from ..net.phasesim import (
    JobRun,
    PhaseLevelSimulator,
    SimulationResult,
)
from ..net.routing import Router
from ..net.topology import BOTTLENECK, Topology
from ..sim.engine import Simulator
from ..sim.rng import RandomStreams
from ..sim.trace import StepFunction
from ..units import gbps
from ..workloads.profiles import EFFECTIVE_BOTTLENECK
from .spec import (
    FluidScenarioResult,
    RunResult,
    RunSpec,
    safe_content_hash,
)

def _reject_fabric_faults(spec: RunSpec, backend: str, remedy: str) -> None:
    """Refuse fault schedules that address links a single-bottleneck run
    does not have, naming the offending links and the multi-link path.

    Only called on specs *without* a topology — with one, the schedule
    flows through to the fabric engines, which validate every link name
    against the topology themselves.
    """
    if spec.faults is None:
        return
    bad = [
        name for name in spec.faults.link_names()
        if name != BOTTLENECK
    ]
    if bad:
        raise ConfigError(
            f"{backend} backend without a topology models a single "
            f"bottleneck named {BOTTLENECK!r}, but the fault "
            f"schedule targets link(s) {bad}; set RunSpec.topology "
            f"(e.g. Topology.fat_tree) and {remedy} to run multi-link "
            "fault schedules"
        )


class Backend(Protocol):
    """What the registry stores: a named spec executor."""

    name: str

    def execute(self, spec: RunSpec) -> RunResult:
        """Run one spec to completion and return its result."""
        ...


_REGISTRY: Dict[str, Backend] = {}


def register(name: str, backend: Backend, replace: bool = False) -> None:
    """Add a backend to the registry.

    Module-level registrations should pass ``replace=True`` so repeated
    imports (parent process, pool workers) stay idempotent.
    """
    if not name:
        raise ConfigError("backend name must be non-empty")
    if name in _REGISTRY and not replace:
        raise ConfigError(f"backend {name!r} is already registered")
    _REGISTRY[name] = backend


def backend_names() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def get_backend(name: str) -> Backend:
    """Look up a backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown backend {name!r} (registered: {backend_names()})"
        ) from None


def resolve_backend(spec: RunSpec) -> Backend:
    """The backend executing ``spec``, importing its module if needed."""
    if spec.backend not in _REGISTRY and spec.backend_module:
        importlib.import_module(spec.backend_module)
    return get_backend(spec.backend)


def execute(spec: RunSpec) -> RunResult:
    """Resolve and run one spec (no pool, no cache)."""
    return resolve_backend(spec).execute(spec)


def dumbbell_topology(n_jobs: int, capacity: float) -> Topology:
    """The default phase-backend topology: one host pair per job,
    all pairs sharing the bottleneck :data:`repro.net.topology.BOTTLENECK`."""
    if n_jobs < 1:
        raise ConfigError("need at least one job")
    return Topology.dumbbell(
        hosts_per_side=n_jobs,
        host_capacity=capacity,
        bottleneck_capacity=capacity,
        bottleneck_name=BOTTLENECK,
    )


def _detach_events(result: SimulationResult) -> SimulationResult:
    """Drop scheduler-event references so the result pickles cleanly."""
    for run in result.jobs.values():
        run._finish_event = None
    return result


# ---------------------------------------------------------------------------
# phase
# ---------------------------------------------------------------------------

class PhaseBackend:
    """Adapter for the exact phase-level simulator."""

    name = "phase"

    def execute(self, spec: RunSpec) -> RunResult:
        if not spec.jobs:
            raise ConfigError("phase backend needs job specs")
        if spec.policy is None:
            raise ConfigError("phase backend needs a share policy")
        if spec.n_iterations < 1:
            raise ConfigError("phase backend needs n_iterations >= 1")
        capacity = spec.capacity or EFFECTIVE_BOTTLENECK
        topology = spec.topology or dumbbell_topology(
            len(spec.jobs), capacity
        )
        sim = PhaseLevelSimulator(topology, spec.policy, seed=spec.seed)
        offsets = spec.start_offsets_dict()
        gates = spec.gates_dict()
        for index, job in enumerate(spec.jobs):
            sim.add_job(
                job,
                src=f"ha{index}",
                dst=f"hb{index}",
                n_iterations=spec.n_iterations,
                start_offset=offsets.get(job.job_id, 0.0),
                gate=gates.get(job.job_id),
            )
        sim.install_faults(spec.faults)
        result = _detach_events(sim.run(until=spec.until))
        return RunResult(
            spec_hash=safe_content_hash(spec),
            backend=self.name,
            label=spec.label,
            phase=result,
        )


# ---------------------------------------------------------------------------
# fluid
# ---------------------------------------------------------------------------

def build_fluid_scenario_sim(
    spec: RunSpec,
    scenario,
    params,
    streams: RandomStreams,
    capacity: float,
):
    """Construct the simulator and on-off jobs for one scenario of a
    fluid spec.

    Shared by :class:`FluidBackend` and the batched grid tier
    (:mod:`repro.runner.grid`) so both paths build byte-identical
    simulations: same constructor arguments, same stream lookups in the
    same order, same sender/job wiring. Returns ``(sim, jobs)`` where
    ``jobs`` maps sender names to their :class:`OnOffDcqcnJob`.
    """
    from ..cc.dcqcn import DcqcnFluidSimulator, OnOffDcqcnJob

    options = spec.options_dict()
    sim_kwargs = {"capacity": capacity}
    if spec.topology is not None:
        sim_kwargs["topology"] = spec.topology
    if "dt" in options:
        sim_kwargs["dt"] = options["dt"]
    if "sample_interval" in options:
        sim_kwargs["sample_interval"] = options["sample_interval"]
    if "engine" in options:
        sim_kwargs["engine"] = options["engine"]
    if "pfc_pause_threshold" in options:
        sim_kwargs["pfc_pause_threshold"] = options[
            "pfc_pause_threshold"
        ]
    if spec.faults is not None:
        sim_kwargs["faults"] = spec.faults
    sim = DcqcnFluidSimulator(**sim_kwargs)
    jobs: Dict[str, OnOffDcqcnJob] = {}
    for sender in scenario.senders:
        rng = streams.get(sender.stream or f"dcqcn:{sender.name}")
        sender_params = params.with_timer(sender.timer)
        if sender.compute_time is None:
            sim.add_sender(
                sender.name,
                sender_params,
                rng,
                data_bytes=sender.data_bytes,
                route=sender.route,
            )
        else:
            if sender.comm_bytes is None:
                raise ConfigError(
                    f"on-off sender {sender.name!r} needs comm_bytes"
                )
            job = OnOffDcqcnJob(
                sender.name,
                sender_params,
                rng,
                compute_time=sender.compute_time,
                comm_bytes=sender.comm_bytes,
                start_offset=sender.start_offset,
            )
            jobs[sender.name] = job
            sim.add_source(job, route=sender.route)
    return sim, jobs


class FluidBackend:
    """Adapter for the fine-grained DCQCN fluid simulator.

    Scenarios run sequentially over one shared
    :class:`~repro.sim.rng.RandomStreams` — a sender whose stream name
    repeats across scenarios continues the same generator, reproducing
    the exact randomness consumption of the original fair-then-unfair
    experiment protocol.

    Without a topology the spec describes the classic single-bottleneck
    run. With ``spec.topology`` set, every sender must carry a
    ``route`` (link names) and the simulator switches to the multi-link
    fabric engines in :mod:`repro.cc.link_engine`; fault schedules may
    then target any fabric link.
    """

    name = "fluid"

    def execute(self, spec: RunSpec) -> RunResult:
        from ..cc.dcqcn import DcqcnParams

        if not spec.scenarios:
            raise ConfigError("fluid backend needs at least one scenario")
        if spec.duration <= 0:
            raise ConfigError("fluid backend needs a positive duration")
        if spec.topology is None:
            _reject_fabric_faults(
                spec, self.name,
                "give each sender a route (SenderSpec.route)",
            )
        capacity = spec.capacity or gbps(50)
        params = DcqcnParams(line_rate=capacity)
        streams = RandomStreams(spec.seed)
        scenarios: Dict[str, FluidScenarioResult] = {}
        for scenario in spec.scenarios:
            sim, jobs = build_fluid_scenario_sim(
                spec, scenario, params, streams, capacity
            )
            trace = sim.run(spec.duration)
            scenarios[scenario.name] = FluidScenarioResult(
                trace=trace,
                timelines={
                    name: job.timeline for name, job in jobs.items()
                },
            )
        return RunResult(
            spec_hash=safe_content_hash(spec),
            backend=self.name,
            label=spec.label,
            fluid=scenarios,
        )


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

class _EngineJob:
    """Book-keeping for one job inside the engine backend."""

    __slots__ = ("run", "active", "weight")

    def __init__(self, run: JobRun, weight: float) -> None:
        self.run = run
        self.active = False
        self.weight = weight


class EngineBackend:
    """Low-fidelity on-off model over one bottleneck or a routed fabric.

    Jobs alternate compute and communication. Without a topology,
    communicating jobs split a single shared bottleneck proportionally
    to their policy weight (plain :class:`~repro.cc.fair.FairSharing`
    or :class:`~repro.cc.weighted.StaticWeighted`) — on a dumbbell this
    is exactly the phase backend's allocation, at a fraction of the
    cost. With ``spec.topology`` set, jobs become ECMP-routed flows
    allocated by the weighted max-min
    :class:`~repro.net.fluid.FluidAllocator`, so each job's rate is set
    by its most constrained hop and faults may target any fabric link.
    """

    name = "engine"

    def _weight(self, spec: RunSpec, job_id: str) -> float:
        policy = spec.policy
        if policy is None or policy.name == "fair":
            return 1.0
        weight_for_job = getattr(policy, "weight_for_job", None)
        if weight_for_job is None:
            raise ConfigError(
                "engine backend supports fair or static-weighted "
                f"policies, not {policy.name!r}"
            )
        return float(weight_for_job(job_id))

    def _build_jobs(
        self,
        spec: RunSpec,
        streams: RandomStreams,
        routes: Mapping[str, Tuple[str, ...]],
    ) -> List[_EngineJob]:
        """Job book-keeping shared by both tiers; ``routes`` maps each
        job to the link names its fault warp watches."""
        offsets = spec.start_offsets_dict()
        jobs: List[_EngineJob] = []
        for job_spec in spec.jobs:
            run = JobRun(
                spec=job_spec,
                flows=[],
                n_iterations=spec.n_iterations,
                start_offset=offsets.get(job_spec.job_id, 0.0),
                gate=None,
                rng=streams.get(f"job:{job_spec.job_id}"),
            )
            warp = build_warp(
                spec.faults, job_spec.job_id, routes[job_spec.job_id]
            )
            if warp is not None:
                run.lifecycle.warp = warp
            jobs.append(
                _EngineJob(run, self._weight(spec, job_spec.job_id))
            )
        return jobs

    def execute(self, spec: RunSpec) -> RunResult:
        if not spec.jobs:
            raise ConfigError("engine backend needs job specs")
        if spec.n_iterations < 1:
            raise ConfigError("engine backend needs n_iterations >= 1")
        if spec.topology is not None:
            return self._execute_fabric(spec)
        _reject_fabric_faults(
            spec, self.name,
            "options['placements'] = ((job_id, src_host, dst_host), ...)",
        )
        capacity = spec.capacity or EFFECTIVE_BOTTLENECK
        # Mutable holder: fault boundary events rebind the bottleneck's
        # effective capacity mid-run (closures below read cap[0]).
        cap = [capacity]
        streams = RandomStreams(spec.seed)
        sim = Simulator()
        load = StepFunction(0.0, name=f"load:{BOTTLENECK}")
        jobs = self._build_jobs(
            spec,
            streams,
            {job.job_id: (BOTTLENECK,) for job in spec.jobs},
        )

        active: List[_EngineJob] = []
        rates: Dict[int, float] = {}
        finish_events: Dict[int, object] = {}
        last_update = [0.0]

        def advance_progress() -> None:
            dt = sim.now - last_update[0]
            if dt > 0:
                for job in active:
                    job.run.lifecycle.credit(rates.get(id(job), 0.0) * dt)
            last_update[0] = sim.now

        def reallocate() -> None:
            advance_progress()
            total_weight = sum(job.weight for job in active)
            total_rate = 0.0
            for job in active:
                rate = (
                    cap[0] * job.weight / total_weight
                    if total_weight > 0
                    else 0.0
                )
                rates[id(job)] = rate
                job.run.rate_trace.set(sim.now, rate)
                total_rate += rate
                event = finish_events.pop(id(job), None)
                if event is not None:
                    sim.cancel(event)
                if rate > 0:
                    remaining = job.run.lifecycle.remaining_bytes
                    finish_events[id(job)] = sim.schedule(
                        max(remaining, 0.0) / rate, finish_comm, job
                    )
            load.set(sim.now, total_rate)

        def begin_iteration(job: _EngineJob) -> None:
            compute_time = job.run.lifecycle.begin_iteration(sim.now)
            sim.schedule(compute_time, begin_comm, job)

        def begin_comm(job: _EngineJob) -> None:
            job.run.lifecycle.begin_comm(sim.now)
            job.active = True
            active.append(job)
            reallocate()

        def finish_comm(job: _EngineJob) -> None:
            finish_events.pop(id(job), None)
            advance_progress()
            run = job.run
            active.remove(job)
            job.active = False
            rates.pop(id(job), None)
            run.rate_trace.set(sim.now, 0.0)
            if run.lifecycle.has_more_segments:
                # Layer-wise allreduce: next sub-phase's compute gap.
                compute_time = run.lifecycle.advance_segment(sim.now)
                sim.schedule(compute_time, begin_comm, job)
            else:
                run.lifecycle.close_iteration(sim.now)
                if not run.done:
                    begin_iteration(job)
            reallocate()

        def apply_fault(value: float) -> None:
            cap[0] = value
            reallocate()

        if spec.faults is not None:
            from ..telemetry import session as _telemetry_session

            emit_fault_events(
                _telemetry_session.resolve(None), spec.faults
            )
            for event in spec.faults.capacity_events(BOTTLENECK):
                if isinstance(event, RateChange):
                    faulted = capacity * event.factor
                else:
                    # LinkFailure / PfcStorm both degrade to a dead span
                    # in this tier (no PFC model to storm).
                    faulted = 0.0
                # priority=-1: the capacity flips before any same-time
                # job event, mirroring the phase and fluid tiers.
                sim.schedule_at(
                    event.start, apply_fault, faulted, priority=-1
                )
                sim.schedule_at(
                    event.end, apply_fault, capacity, priority=-1
                )

        for job in jobs:
            sim.schedule_at(job.run.start_offset, begin_iteration, job)
        end_time = sim.run(until=spec.until)

        result = SimulationResult(
            jobs={job.run.job_id: job.run for job in jobs},
            link_loads={BOTTLENECK: load},
            duration=end_time,
        )
        return RunResult(
            spec_hash=safe_content_hash(spec),
            backend=self.name,
            label=spec.label,
            phase=result,
        )

    def _execute_fabric(self, spec: RunSpec) -> RunResult:
        """Multi-link tier: ECMP-routed flows over ``spec.topology``.

        ``options["placements"]`` binds each job to its
        ``(src_host, dst_host)`` endpoints; the route is resolved once
        by deterministic ECMP (salted with the spec seed) and every
        membership change re-runs the weighted max-min allocator over
        the communicating flows. Fault capacity events rescale the
        affected links for the duration of their window — link
        capacities are restored afterwards even if the run raises.
        """
        from ..net.flows import Flow
        from ..net.fluid import FluidAllocator
        from ..net.routing import EcmpRouter

        options = spec.options_dict()
        placements = options.get("placements")
        if not placements:
            raise ConfigError(
                "engine backend with a topology needs "
                "options['placements'] = "
                "((job_id, src_host, dst_host), ...)"
            )
        endpoints = {
            str(job_id): (str(src), str(dst))
            for job_id, src, dst in placements
        }
        missing = sorted(
            job.job_id for job in spec.jobs
            if job.job_id not in endpoints
        )
        if missing:
            raise ConfigError(
                f"placements are missing job(s) {missing}"
            )
        router = EcmpRouter(spec.topology, salt=spec.seed)
        routes = {}
        for job_spec in spec.jobs:
            src, dst = endpoints[job_spec.job_id]
            routes[job_spec.job_id] = tuple(
                router.route(src, dst, job_spec.job_id)
            )
        fabric_links = {}
        for job_spec in spec.jobs:
            for link in routes[job_spec.job_id]:
                fabric_links.setdefault(link.name, link)

        streams = RandomStreams(spec.seed)
        sim = Simulator()
        loads = {
            name: StepFunction(0.0, name=f"load:{name}")
            for name in fabric_links
        }
        jobs = self._build_jobs(
            spec,
            streams,
            {
                job_id: tuple(link.name for link in links)
                for job_id, links in routes.items()
            },
        )
        allocator = FluidAllocator()

        active: List[_EngineJob] = []
        rates: Dict[int, float] = {}
        finish_events: Dict[int, object] = {}
        last_update = [0.0]

        def advance_progress() -> None:
            dt = sim.now - last_update[0]
            if dt > 0:
                for job in active:
                    job.run.lifecycle.credit(
                        rates.get(id(job), 0.0) * dt
                    )
            last_update[0] = sim.now

        def reallocate() -> None:
            advance_progress()
            flows = [
                Flow(
                    flow_id=job.run.job_id,
                    src=endpoints[job.run.job_id][0],
                    dst=endpoints[job.run.job_id][1],
                    links=list(routes[job.run.job_id]),
                    weight=job.weight,
                    job_id=job.run.job_id,
                )
                for job in active
            ]
            allocation = allocator.allocate(flows)
            for job, flow in zip(active, flows):
                rate = allocation.rate_of(flow)
                rates[id(job)] = rate
                job.run.rate_trace.set(sim.now, rate)
                event = finish_events.pop(id(job), None)
                if event is not None:
                    sim.cancel(event)
                if rate > 0:
                    remaining = job.run.lifecycle.remaining_bytes
                    finish_events[id(job)] = sim.schedule(
                        max(remaining, 0.0) / rate, finish_comm, job
                    )
            for name, link in fabric_links.items():
                loads[name].set(
                    sim.now, allocation.link_loads.get(link, 0.0)
                )

        def begin_iteration(job: _EngineJob) -> None:
            compute_time = job.run.lifecycle.begin_iteration(sim.now)
            sim.schedule(compute_time, begin_comm, job)

        def begin_comm(job: _EngineJob) -> None:
            job.run.lifecycle.begin_comm(sim.now)
            job.active = True
            active.append(job)
            reallocate()

        def finish_comm(job: _EngineJob) -> None:
            finish_events.pop(id(job), None)
            advance_progress()
            run = job.run
            active.remove(job)
            job.active = False
            rates.pop(id(job), None)
            run.rate_trace.set(sim.now, 0.0)
            if run.lifecycle.has_more_segments:
                compute_time = run.lifecycle.advance_segment(sim.now)
                sim.schedule(compute_time, begin_comm, job)
            else:
                run.lifecycle.close_iteration(sim.now)
                if not run.done:
                    begin_iteration(job)
            reallocate()

        def apply_fault(link, value: float) -> None:
            link.capacity = value
            reallocate()

        base_caps: Dict[str, float] = {}
        if spec.faults is not None:
            from ..telemetry import session as _telemetry_session

            emit_fault_events(
                _telemetry_session.resolve(None), spec.faults
            )
            for name in spec.faults.link_names():
                # Unknown names raise TopologyError up front, before
                # any event fires.
                spec.topology.link_by_name(name)
            for event in spec.faults.capacity_events():
                link = spec.topology.link_by_name(event.link)
                base_caps.setdefault(link.name, link.capacity)
                if isinstance(event, RateChange):
                    faulted = base_caps[link.name] * event.factor
                else:
                    # LinkFailure / PfcStorm both degrade to a dead
                    # span in this tier (no PFC model to storm).
                    faulted = 0.0
                sim.schedule_at(
                    event.start, apply_fault, link, faulted, priority=-1
                )
                sim.schedule_at(
                    event.end, apply_fault, link,
                    base_caps[link.name], priority=-1,
                )

        for job in jobs:
            sim.schedule_at(job.run.start_offset, begin_iteration, job)
        try:
            end_time = sim.run(until=spec.until)
        finally:
            for name, capacity in base_caps.items():
                spec.topology.link_by_name(name).capacity = capacity

        result = SimulationResult(
            jobs={job.run.job_id: job.run for job in jobs},
            link_loads=loads,
            duration=end_time,
        )
        return RunResult(
            spec_hash=safe_content_hash(spec),
            backend=self.name,
            label=spec.label,
            phase=result,
        )


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------

class ClusterBackend:
    """Adapter for the scheduler's cluster simulation.

    The spec is fully declarative: ``topology`` carries the fabric,
    ``options["placements"]`` the already-decided ``(JobSpec, hosts)``
    bindings (placement *decisions* stay in the driver — they are
    scheduling logic, not simulation). Results come back as plain data
    so they cache cleanly.
    """

    name = "cluster"

    def execute(self, spec: RunSpec) -> RunResult:
        from .. import io
        from ..scheduler.cluster import ClusterState
        from ..scheduler.simulation import ClusterSimulation

        if spec.topology is None:
            raise ConfigError("cluster backend needs an explicit topology")
        if spec.policy is None:
            raise ConfigError("cluster backend needs a share policy")
        options = spec.options_dict()
        placements = options.get("placements")
        if not placements:
            raise ConfigError("cluster backend needs placements")
        cluster = ClusterState(
            spec.topology,
            gpus_per_host=int(options.get("gpus_per_host", 4)),
            router=Router(spec.topology),
        )
        for job_spec, hosts in placements:
            cluster.place(job_spec, list(hosts))
        simulation = ClusterSimulation(
            cluster,
            reference_capacity=spec.capacity or gbps(42),
            seed=spec.seed,
            flow_model=options.get("flow_model", "aggregate"),
        )
        report = simulation.run(
            spec.policy,
            n_iterations=spec.n_iterations,
            warmup_iterations=int(options.get("warmup_iterations", 10)),
            until=spec.until,
            stagger=float(options.get("stagger", 0.005)),
            gates=spec.gates_dict() or None,
            faults=spec.faults,
        )
        return RunResult(
            spec_hash=safe_content_hash(spec),
            backend=self.name,
            label=spec.label,
            data={
                "policy_name": report.policy_name,
                "iteration_ms": dict(report.iteration_ms),
                "solo_ms": dict(report.solo_ms),
                "slowdown": dict(report.slowdown),
                "timelines": {
                    job_id: io.timeline_to_dict(timeline)
                    for job_id, timeline in report.timelines.items()
                },
            },
        )


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------

class ServiceBackend:
    """Adapter for the online cluster service.

    The spec describes an arrival process (Poisson knobs or explicit
    trace rows riding ``options``), a placement policy by name and a
    topology recipe; :func:`repro.scheduler.service.run_service_spec`
    builds the cluster, streams the arrivals through a
    :class:`~repro.scheduler.service.ClusterService` and returns plain
    counts/rates/records — wall-clock placement latency goes only to
    telemetry, never into the (cacheable) result data.
    """

    name = "service"

    def execute(self, spec: RunSpec) -> RunResult:
        from ..scheduler.service import run_service_spec

        return run_service_spec(spec)


register(PhaseBackend.name, PhaseBackend(), replace=True)
register(FluidBackend.name, FluidBackend(), replace=True)
register(EngineBackend.name, EngineBackend(), replace=True)
register(ClusterBackend.name, ClusterBackend(), replace=True)
register(ServiceBackend.name, ServiceBackend(), replace=True)

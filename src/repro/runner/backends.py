"""The backend registry: one ``execute(spec) -> RunResult`` protocol.

Built-in backends adapt the library's simulators:

* ``phase``  — :class:`repro.net.phasesim.PhaseLevelSimulator`, the exact
  event-driven phase model behind Table 1 / Figures 1d and 2.
* ``fluid``  — :class:`repro.cc.dcqcn.DcqcnFluidSimulator`, the
  microsecond-scale DCQCN state machine (Figures 1b/1c, cross-fidelity).
* ``cluster`` — :class:`repro.scheduler.simulation.ClusterSimulation`
  over a declarative list of placements (the scheduler experiments).
* ``service`` — :class:`repro.scheduler.service.ClusterService` over a
  declarative arrival process (the online scheduling experiments).

Each built-in backend refuses a spec carrying an option it does not
read (:func:`_read_options`).

Experiment modules may :func:`register` additional backends (e.g. the
population-sweep point evaluator). A spec's ``backend_module`` names the
module to import before lookup, so worker processes that never imported
the experiment module still resolve its backend.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, FrozenSet, List, Protocol

from ..errors import ConfigError, SimulationError
from ..net.phasesim import PhaseLevelSimulator, SimulationResult
from ..net.routing import Router
from ..net.topology import BOTTLENECK, Topology
from ..sim.rng import RandomStreams
from ..units import gbps
from ..workloads.profiles import EFFECTIVE_BOTTLENECK
from .spec import RunResult, RunSpec, safe_content_hash

#: The spec options the fluid backend reads, each passed to
#: :class:`~repro.cc.dcqcn.DcqcnFluidSimulator` under the same name; a
#: fluid spec carrying any other option is refused.
FLUID_OPTIONS = frozenset({"dt", "sample_interval", "pfc_pause_threshold"})

#: The spec options the cluster backend reads.
CLUSTER_OPTIONS = frozenset({
    "placements", "gpus_per_host", "warmup_iterations",
})

#: The spec options the service backend reads.
SERVICE_OPTIONS = frozenset({
    "n_arrivals", "mean_interarrival_s", "mean_lifetime_s",
    "lifetime_model", "placement", "n_racks", "hosts_per_rack",
    "gpus_per_host", "queue_limit",
})


def _read_options(spec: RunSpec, accepted: FrozenSet[str]) -> Dict[str, Any]:
    """``spec``'s options as a dict, refusing any its backend does not
    read: an unread option would only split the cache."""
    options = spec.options_dict()
    unknown = sorted(set(options) - accepted)
    if unknown:
        raise ConfigError(
            f"{spec.backend} backend does not read option(s) {unknown}; "
            f"accepted: {sorted(accepted)}"
        )
    return options


def _reject_fabric_faults(spec: RunSpec) -> None:
    """Refuse fault schedules that address links a single-bottleneck
    fluid run does not have, naming the offending links and the
    multi-link path.

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
            "fluid backend without a topology models a single "
            f"bottleneck named {BOTTLENECK!r}, but the fault "
            f"schedule targets link(s) {bad}; set RunSpec.topology "
            "(e.g. Topology.fat_tree) and give each sender a route "
            "(SenderSpec.route) to run multi-link fault schedules"
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
        _read_options(spec, frozenset())
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
    """Construct the simulator, senders and on-off jobs for one
    scenario of a fluid spec.

    Shared by :class:`FluidBackend` and the batched grid tier
    (:mod:`repro.runner.grid`) so both paths build byte-identical
    simulations: same constructor arguments, same stream lookups in the
    same order, same sender/job wiring. Raises :class:`ConfigError` when
    the spec carries an option outside :data:`FLUID_OPTIONS`.
    """
    from ..cc.dcqcn import DcqcnFluidSimulator, OnOffDcqcnJob

    options = _read_options(spec, FLUID_OPTIONS)
    sim_kwargs = {"capacity": capacity, **options}
    if spec.topology is not None:
        sim_kwargs["topology"] = spec.topology
    if spec.faults is not None:
        sim_kwargs["faults"] = spec.faults
    sim = DcqcnFluidSimulator(**sim_kwargs)
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
            sim.add_source(job, route=sender.route)
    return sim


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
            _reject_fabric_faults(spec)
        capacity = spec.capacity or gbps(50)
        params = DcqcnParams(line_rate=capacity)
        streams = RandomStreams(spec.seed)
        scenarios = {
            scenario.name: build_fluid_scenario_sim(
                spec, scenario, params, streams, capacity
            ).run(spec.duration)
            for scenario in spec.scenarios
        }
        return RunResult(
            spec_hash=safe_content_hash(spec),
            backend=self.name,
            label=spec.label,
            fluid=scenarios,
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
        options = _read_options(spec, CLUSTER_OPTIONS)
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
        )
        report = simulation.run(
            spec.policy,
            n_iterations=spec.n_iterations,
            warmup_iterations=int(options.get("warmup_iterations", 10)),
            until=spec.until,
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

    The spec describes a Poisson arrival process, a placement policy by
    name and a topology recipe, all in ``options`` (plain data, so specs
    hash and cache), exactly :data:`SERVICE_OPTIONS`:

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

    :meth:`execute` builds the cluster, streams the arrivals through a
    :class:`~repro.scheduler.service.ClusterService` and returns plain
    counts/rates/records. The compatibility-aware policy scores
    candidates with the service's incremental engine, which is
    cluster-level by construction. Wall-clock placement latency goes
    only to the span log (``service.place`` spans, which
    :func:`~repro.runner.run_many` grafts under
    ``runner.worker/<label>/``), never into the cacheable result data
    or the cached telemetry.
    """

    name = "service"

    def execute(self, spec: RunSpec) -> RunResult:
        from ..core.compatibility import CompatibilityChecker
        from ..scheduler.cluster import ClusterState
        from ..scheduler.placement import (
            CompatibilityAwarePlacement,
            ConsolidatedPlacement,
            PlacementPolicy,
            RandomPlacement,
        )
        from ..scheduler.service import ClusterService
        from ..workloads.traces import poisson_arrivals

        options = _read_options(spec, SERVICE_OPTIONS)
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
            mean_interarrival_s=float(
                options.get("mean_interarrival_s", 60.0)
            ),
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
            backend=self.name,
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


register(PhaseBackend.name, PhaseBackend(), replace=True)
register(FluidBackend.name, FluidBackend(), replace=True)
register(ClusterBackend.name, ClusterBackend(), replace=True)
register(ServiceBackend.name, ServiceBackend(), replace=True)

"""Links of the fixed-step fluid tiers, and DCQCN's scalar oracle.

Every :class:`repro.cc.dcqcn.DcqcnFluidSimulator` and
:class:`repro.cc.aimd.AimdFluidSimulator` run is a fabric: a
:class:`LinkFabric` of named links, each running its own fluid queue,
plus one route (a tuple of links) per sender. A sender reacts to its
**most congested hop** — under DCQCN the maximum marking probability
along its route, under AIMD a drop on any route link — and stops while
any route link is failed or storming (or, under DCQCN, PFC-paused).

The single-bottleneck dumbbell is the 1-link case: one link, named
after the link its fault schedule addresses (or
:data:`repro.net.topology.BOTTLENECK` when the schedule names none),
whose queue is the simulator's ``queue``, crossed by every sender. A
``topology=`` simulator instead interns the links its senders' routes
name (resolved through a :class:`~repro.net.topology.Topology`).
:func:`check_route`, :func:`install_fault_warps` and
:func:`build_fabric` do this route plumbing for both tiers.

:func:`run_scalar_fabric` is DCQCN's dt-by-dt reference loop over live
sender objects, with the same contract as
:meth:`repro.cc.dcqcn.DcqcnFluidSimulator.run`. It defines the
semantics and is the test oracle the
:class:`repro.cc.sender_bank.SenderBank` is pinned against bit for bit
(series, per-link queue series, timelines, RNG stream positions and
telemetry; see ``tests/test_fattree_equivalence.py``).
:func:`prepare_run` is the one preparation every DCQCN loop shares.

Fault schedules may target any named link:
:func:`repro.faults.runtime.link_capacity_windows` merges the per-link
windows, and per-job warps see exactly the links on the job's route.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from ..core.lifecycle import OnOffSource
from ..errors import ConfigError, SimulationError
from ..faults.runtime import (
    MODE_FREEZE,
    MODE_NORMAL,
    MODE_STORM,
    build_warp,
    emit_fault_events,
    link_capacity_windows,
)
from ..sim.trace import TimeSeries
from ..switches.queues import FluidQueue


class LinkFabric:
    """Per-link queues, PFC state and fault modes for one simulator."""

    def __init__(
        self, names: Sequence[str], queues: Sequence[FluidQueue]
    ) -> None:
        if not names:
            raise ConfigError("fabric needs at least one routed link")
        self.names: List[str] = list(names)
        self.index: Dict[str, int] = {
            name: link for link, name in enumerate(self.names)
        }
        self.queues: List[FluidQueue] = list(queues)
        self.base_caps: List[float] = [queue.capacity for queue in queues]
        n = len(self.names)
        self.paused: List[bool] = [False] * n
        #: Per-fault-window mode of each link.
        self.modes: List[str] = [MODE_NORMAL] * n

    @classmethod
    def from_topology(
        cls,
        topology,
        routes: Sequence[Tuple[str, ...]],
        extra_links: Sequence[str] = (),
        max_occupancy: float = math.inf,
    ) -> "LinkFabric":
        """The links ``routes`` (plus ``extra_links``) name, in first-use
        order — a fat tree has ``5k^3/4`` directed links but a handful
        of jobs cross far fewer."""
        names: Dict[str, None] = {}
        for route in routes:
            names.update(dict.fromkeys(route))
        names.update(dict.fromkeys(extra_links))
        return cls(list(names), [
            FluidQueue(
                topology.link_by_name(name).capacity,
                max_occupancy=max_occupancy,
            )
            for name in names
        ])

    def resolve(
        self, routes: Sequence[Tuple[str, ...]]
    ) -> List[Tuple[int, ...]]:
        """Routes of link names as tuples of link indices."""
        return [tuple(self.index[name] for name in route) for route in routes]

    def base_capacities(self) -> Dict[str, float]:
        """Link name -> base capacity, for the fault-window segmentation."""
        return dict(zip(self.names, self.base_caps))

    def apply_window(self, modes: Dict[str, Tuple[str, float]]) -> None:
        """Point every link at one fault window's mode and capacity."""
        for index, name in enumerate(self.names):
            mode, capacity = modes.get(
                name, (MODE_NORMAL, self.base_caps[index])
            )
            self.modes[index] = mode
            if mode != MODE_FREEZE:
                self.queues[index].capacity = capacity

    def restore(self) -> None:
        """Reset every link to its base capacity and normal mode."""
        for index, capacity in enumerate(self.base_caps):
            self.modes[index] = MODE_NORMAL
            self.queues[index].capacity = capacity


class _SampleBuffer:
    """Sample rows ``(time, per-sender rates, per-link occupancies)``.

    The loops append rows and the :class:`TimeSeries` objects materialize
    once at the end. The samples live only in the result: its
    ``rate_series`` is the one copy, so no trace record repeats them. The
    headline ``queue_series`` is the cross-link elementwise maximum — the
    most congested hop at each sample, mirroring what the senders react
    to. Per-link series are emitted only when ``per_link`` is set
    (topology runs; a dumbbell result carries none).
    """

    def __init__(self, link_names: Sequence[str], per_link: bool) -> None:
        self.link_names = list(link_names)
        self.per_link = per_link
        self.rows: List[tuple] = []

    def flush(self, result, names) -> None:
        """Materialize the buffered rows into ``result``."""
        times = [row[0] for row in self.rows]
        for column, name in enumerate(names):
            result.rate_series[name] = TimeSeries.from_arrays(
                name, times, [row[1][column] for row in self.rows]
            )
        if self.per_link:
            for column, link_name in enumerate(self.link_names):
                result.link_queue_series[link_name] = TimeSeries.from_arrays(
                    f"queue:{link_name}", times,
                    [row[2][column] for row in self.rows],
                )
        result.queue_series = TimeSeries.from_arrays(
            "queue", times, [max(row[2]) for row in self.rows]
        )


def check_route(sim, name: str, route: Sequence[str]) -> Tuple[str, ...]:
    """The validated route of source ``name`` on ``sim``.

    A dumbbell source takes no route and crosses the one link; on a
    ``topology=`` simulator the route must name distinct topology links.
    """
    route = tuple(route)
    if sim.topology is None:
        if route:
            raise ConfigError(
                f"sender {name!r} carries a route but the simulator has "
                f"no topology; pass topology= to {type(sim).__name__} "
                "to enable multi-link routes"
            )
        return (sim.fabric.names[0],)
    if not route:
        raise ConfigError(
            f"sender {name!r} needs a route (tuple of link names) on a "
            "topology-backed simulator"
        )
    if len(set(route)) != len(route):
        raise ConfigError(
            f"sender {name!r} route visits a link twice: {route}"
        )
    for link_name in route:
        sim.topology.link_by_name(link_name)  # raises if unknown
    return route


def install_fault_warps(sim, sources: Sequence[object]) -> None:
    """Attach per-job warps (stragglers, skew, latency spikes) once;
    each on-off source sees exactly the links its route traverses."""
    if sim.faults is None or sim._fault_warps_installed:
        return
    sim._fault_warps_installed = True
    for source, links in zip(sources, sim.routes):
        if isinstance(source, OnOffSource):
            warp = build_warp(sim.faults, source.name, links)
            if warp is not None:
                source.install_warp(warp)


def build_fabric(sim, max_occupancy: float = math.inf) -> LinkFabric:
    """Resolve a topology simulator's routes into a fabric whose queues
    hold at most ``max_occupancy`` bytes (drop-tail beyond)."""
    extra = () if sim.faults is None else tuple(sim.faults.link_names())
    return LinkFabric.from_topology(
        sim.topology, sim.routes, extra_links=extra,
        max_occupancy=max_occupancy,
    )


def prepare_run(sim) -> None:
    """Ready a DCQCN simulator for a run, before either loop starts.

    Checks that it has senders, attaches the per-job fault warps
    (once), records the schedule's fault windows in the telemetry
    trace and resolves a topology simulator's fabric.
    :meth:`~repro.cc.dcqcn.DcqcnFluidSimulator.run`,
    :func:`run_scalar_fabric` and
    :meth:`~repro.cc.grid_bank.GridBank.run` all call it.
    """
    if not sim.senders:
        raise SimulationError("add at least one sender before run()")
    install_fault_warps(sim, sim.senders)
    emit_fault_events(sim.telemetry, sim.faults)
    if sim.fabric is None:
        sim.fabric = build_fabric(sim)


def run_scalar_fabric(sim, duration: float):
    """Run DCQCN simulator ``sim`` through the scalar oracle.

    Same contract as
    :meth:`~repro.cc.dcqcn.DcqcnFluidSimulator.run`, which returns the
    identical result through the sender bank.
    """
    prepare_run(sim)
    return scalar_loop(sim, duration)


def scalar_loop(sim, duration: float):
    """The dt-by-dt reference loop over a prepared simulator; defines
    the semantics.

    Per tick, in order: (1) per-link PFC hysteresis on normal-mode
    links; (2) per-link marking probability; (3) senders in insertion
    order — a sender whose route crosses any blocked link (paused,
    failed or storming) is skipped entirely, otherwise it steps under
    the maximum marking probability along its route and its bytes land
    on every route link; (4) per-link queue update — failed links hold,
    paused/storming links accrue pause time and drain, normal links
    integrate their arrivals.
    """
    from .dcqcn import DcqcnResult

    fabric = sim.fabric
    dt = sim.dt
    steps = int(round(duration / dt))
    samples_every = max(1, int(round(sim.sample_interval / dt)))
    samples = _SampleBuffer(fabric.names, sim.topology is not None)
    result = DcqcnResult(duration=duration)
    marker = sim.marker
    queues = fabric.queues
    modes = fabric.modes
    routes = fabric.resolve(sim.routes)
    paused = fabric.paused
    n_links = len(queues)
    has_pfc = sim.pfc_pause_threshold is not None
    pause_threshold = sim.pfc_pause_threshold
    resume_threshold = sim.pfc_resume_threshold
    blocked = [False] * n_links
    p_link = [0.0] * n_links
    arrivals = [0.0] * n_links
    for window in link_capacity_windows(
        sim.faults, steps, dt, fabric.base_capacities()
    ):
        fabric.apply_window(window.modes)
        for step_index in range(window.start, window.end):
            now = step_index * dt
            for link in range(n_links):
                if modes[link] == MODE_NORMAL:
                    occupancy = queues[link].occupancy
                    if has_pfc:
                        if not paused[link] and occupancy >= pause_threshold:
                            paused[link] = True
                        elif paused[link] and occupancy <= resume_threshold:
                            paused[link] = False
                    blocked[link] = paused[link]
                    p_link[link] = marker.marking_probability(occupancy)
                else:
                    blocked[link] = True
                arrivals[link] = 0.0
            for slot, sender in enumerate(sim.senders):
                route = routes[slot]
                skip = False
                for link in route:
                    if blocked[link]:
                        skip = True
                        break
                if skip:
                    continue
                p_mark = 0.0
                for link in route:
                    if p_link[link] > p_mark:
                        p_mark = p_link[link]
                sent = sender.step(now, dt, p_mark)
                for link in route:
                    arrivals[link] += sent
            for link in range(n_links):
                mode = modes[link]
                if mode == MODE_FREEZE:
                    continue
                if mode == MODE_STORM or paused[link]:
                    sim.pfc_pause_seconds += dt
                queues[link].step(
                    arrivals[link] / dt if dt > 0 else 0.0, dt
                )
            if (step_index + 1) % samples_every == 0:
                # Samples land on the sample_interval grid: the state
                # after tick k covers simulated time (k+1) * dt.
                samples.rows.append((
                    (step_index + 1) * dt,
                    [0.0 if s.done else s.rate for s in sim.senders],
                    [queue.occupancy for queue in queues],
                ))
    fabric.restore()
    samples.flush(result, [s.name for s in sim.senders])
    if sim.telemetry.enabled:
        sim.telemetry.counter("cc.steps").inc(steps)
        cnp_counter = sim.telemetry.counter("cc.cnps")
        for sender in sim.senders:
            cnp_counter.inc(getattr(sender, "cnps_received", 0))
    result.timelines = {
        sender.name: sender.timeline
        for sender in sim.senders
        if isinstance(sender, OnOffSource)
    }
    return result

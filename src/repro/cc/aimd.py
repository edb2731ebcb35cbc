"""A TCP-like AIMD fluid baseline.

The paper's related work observes that RDMA congestion control (DCQCN, IRN,
RoCC) and classic TCP all *strive for fairness*. This module provides a
loss-driven additive-increase/multiplicative-decrease fluid model as an
independent fairness baseline: senders grow linearly and halve when the
shared buffer overflows, which shows the fair-sharing pathology
(Figure 2a) is not specific to DCQCN. Like DCQCN it runs over a
:class:`repro.cc.link_engine.LinkFabric`, of which the dumbbell is the
1-link case, in one per-tick loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core.lifecycle import JobLifecycle, OnOffSource
from ..core.timeline import JobTimeline
from ..errors import ConfigError, SimulationError
from ..faults.events import InjectionSchedule
from ..faults.runtime import (
    MODE_FREEZE,
    MODE_NORMAL,
    link_capacity_windows,
    single_link,
)
from ..net.topology import BOTTLENECK
from ..sim.trace import TimeSeries
from ..switches.queues import FluidQueue
from ..units import gbps, kib, mbps
from .link_engine import (
    LinkFabric,
    build_fabric,
    check_route,
    install_fault_warps,
)

if TYPE_CHECKING:
    from ..net.topology import Topology


@dataclass(frozen=True)
class AimdParams:
    """AIMD sender parameters.

    Attributes:
        line_rate: Sender rate cap, bytes/s.
        increase_rate: Additive ramp in bytes/s per second.
        decrease_factor: Multiplicative cut on loss (0.5 = halve).
        min_rate: Rate floor, bytes/s.
    """

    line_rate: float = gbps(50)
    increase_rate: float = gbps(1) / 0.01  # reach 1 Gbps in 10 ms
    decrease_factor: float = 0.5
    min_rate: float = mbps(50)

    def __post_init__(self) -> None:
        if not 0 < self.decrease_factor < 1:
            raise ConfigError("decrease_factor must be in (0, 1)")
        if self.line_rate <= 0 or self.increase_rate <= 0:
            raise ConfigError("line_rate and increase_rate must be > 0")
        if self.min_rate <= 0 or self.min_rate > self.line_rate:
            raise ConfigError("min_rate must be in (0, line_rate]")


class _AimdSender:
    """One AIMD rate: grows linearly while loss-free, cuts on loss."""

    def __init__(self, name: str, params: AimdParams) -> None:
        self.name = name
        self.params = params
        self.rate = params.min_rate

    def grow(self, dt: float) -> None:
        self.rate = min(
            self.rate + self.params.increase_rate * dt, self.params.line_rate
        )

    def cut(self) -> None:
        self.rate = max(
            self.rate * self.params.decrease_factor, self.params.min_rate
        )


class _AimdBurstSender(_AimdSender):
    """One communication burst's AIMD rate state.

    Fluid-sender protocol for :class:`repro.core.lifecycle.OnOffSource`:
    rate changes come from the simulator's loss feedback (grow/cut), not
    from the per-step marking probability, which AIMD ignores.
    """

    def __init__(
        self, name: str, params: AimdParams, data_bytes: float
    ) -> None:
        super().__init__(name, params)
        self.remaining = data_bytes

    @property
    def done(self) -> bool:
        return self.remaining <= 0

    def step(self, now: float, dt: float, marking_probability: float) -> float:
        if self.done:
            return 0.0
        sent = min(self.rate * dt, self.remaining)
        self.remaining -= sent
        return sent


class OnOffAimdJob(OnOffSource):
    """A training job's on-off traffic under AIMD congestion control.

    Same shared lifecycle clockwork as the DCQCN tier
    (:class:`repro.cc.dcqcn.OnOffDcqcnJob`); each communication burst
    starts a fresh AIMD ramp from the rate floor.
    """

    def __init__(
        self,
        name: str,
        params: AimdParams,
        compute_time: float,
        comm_bytes: float,
        start_offset: float = 0.0,
        warp=None,
    ) -> None:
        self.params = params
        self.compute_time = compute_time
        self.comm_bytes = comm_bytes
        lifecycle = JobLifecycle(
            job_id=name,
            compute_time=compute_time,
            comm_bytes=comm_bytes,
            start_offset=start_offset,
            warp=warp,
        )
        super().__init__(name, lifecycle, self._make_sender)

    def _make_sender(self, data_bytes: float) -> _AimdBurstSender:
        return _AimdBurstSender(self.name, self.params, data_bytes)

    def grow(self, dt: float) -> None:
        """Forward loss-free feedback to the active burst, if any."""
        if self._sender is not None:
            self._sender.grow(dt)

    def cut(self) -> None:
        """Forward loss feedback to the active burst, if any."""
        if self._sender is not None:
            self._sender.cut()


@dataclass
class AimdResult:
    """Sampled rates from an AIMD run.

    Attributes:
        rate_series: Per-sender sending-rate samples (bytes/s).
        duration: Simulated seconds.
        timelines: Canonical iteration timelines of every on-off job
            (plain long-lived senders have none).
    """

    rate_series: Dict[str, TimeSeries] = field(default_factory=dict)
    duration: float = 0.0
    timelines: Dict[str, JobTimeline] = field(default_factory=dict)

    def mean_rate(self, name: str, start: float = 0.0) -> float:
        """Time-average rate of sender ``name`` from ``start`` onward."""
        series = self.rate_series[name]
        mask = series.times >= start
        if not mask.any():
            raise SimulationError(f"no samples for {name} after {start}")
        return float(series.values[mask].mean())

    def timeline(self, name: str) -> JobTimeline:
        """One on-off job's canonical timeline."""
        if name not in self.timelines:
            raise SimulationError(f"no timeline recorded for {name!r}")
        return self.timelines[name]

    def mean_iteration_time(self, name: str, skip: int = 0) -> float:
        """Mean iteration time of one on-off job, seconds."""
        return self.timeline(name).mean_iteration_time(skip)

    def median_iteration_time(self, name: str, skip: int = 0) -> float:
        """Median iteration time of one on-off job, seconds."""
        return self.timeline(name).median_iteration_time(skip)


class AimdFluidSimulator:
    """Fixed-step AIMD senders over drop-tail links.

    Without ``topology`` the simulator is a **dumbbell**: one bottleneck
    link of ``capacity`` shared by every source, whose queue is
    ``self.queue``. The link takes the name of the link the fault
    schedule addresses, or :data:`repro.net.topology.BOTTLENECK`.

    Passing ``topology`` makes it a **multi-link fabric**: every sender
    and job must then carry a ``route`` (a tuple of link names). Either
    way each link runs its own drop-tail queue at ``buffer_bytes``, and
    a source backs off when *any* link on its route drops — the loss
    analog of reacting to the most congested hop. The dumbbell is the
    1-link fabric (see :mod:`repro.cc.link_engine`), so every run goes
    through the one per-tick loop in :meth:`run`.
    """

    def __init__(
        self,
        capacity: float = gbps(50),
        buffer_bytes: float = kib(512),
        dt: float = 10e-6,
        sample_interval: float = 250e-6,
        faults: Optional[InjectionSchedule] = None,
        topology: Optional["Topology"] = None,
    ) -> None:
        if dt <= 0 or sample_interval < dt:
            raise ConfigError("need dt > 0 and sample_interval >= dt")
        self.capacity = capacity
        self.buffer_bytes = buffer_bytes
        self.queue = FluidQueue(capacity, max_occupancy=buffer_bytes)
        self.dt = dt
        self.sample_interval = sample_interval
        self.faults = faults
        self._fault_warps_installed = False
        self.topology = topology
        self.fabric: Optional[LinkFabric] = None
        if topology is None:
            # Rejects multi-link schedules up front.
            link = single_link(faults) or BOTTLENECK
            self.fabric = LinkFabric([link], [self.queue])
        self._senders: List[_AimdSender] = []
        self._jobs: List[OnOffAimdJob] = []
        self._sender_routes: List[Tuple[str, ...]] = []
        self._job_routes: List[Tuple[str, ...]] = []

    @property
    def routes(self) -> List[Tuple[str, ...]]:
        """Every source's route: plain senders first, then jobs."""
        return self._sender_routes + self._job_routes

    def add_sender(
        self,
        name: str,
        params: Optional[AimdParams] = None,
        route: Sequence[str] = (),
    ) -> None:
        """Register a long-lived AIMD sender."""
        self._sender_routes.append(check_route(self, name, route))
        self._senders.append(_AimdSender(name, params or AimdParams()))

    def add_job(
        self,
        name: str,
        compute_time: float,
        comm_bytes: float,
        params: Optional[AimdParams] = None,
        start_offset: float = 0.0,
        route: Sequence[str] = (),
    ) -> OnOffAimdJob:
        """Register an on-off training job under AIMD control."""
        self._job_routes.append(check_route(self, name, route))
        job = OnOffAimdJob(
            name, params or AimdParams(), compute_time, comm_bytes,
            start_offset=start_offset,
        )
        self._jobs.append(job)
        return job

    def run(self, duration: float) -> AimdResult:
        """Simulate ``duration`` seconds; plain senders always backlogged.

        Per tick: blocked links (failed, storming) silence every source
        routed across them — no arrivals, no grow/cut, rates held, jobs'
        activation clockwork deferred. A storming link's queue drains at
        its base capacity; a failed link's holds. Unblocked sources
        inject on every route link; a source then cuts when any of its
        route links dropped bytes this tick and grows otherwise. On the
        dumbbell that is synchronized loss: every source cuts together,
        the worst case for fairness churn.
        """
        if not self._senders and not self._jobs:
            raise SimulationError("add at least one sender before run()")
        sources = self._senders + self._jobs
        install_fault_warps(self, sources)
        if self.fabric is None:
            self.fabric = build_fabric(self, max_occupancy=self.buffer_bytes)
        fabric = self.fabric
        dt = self.dt
        steps = int(round(duration / dt))
        samples_every = max(1, int(round(self.sample_interval / dt)))
        index_routes = fabric.resolve(self.routes)
        n_senders = len(self._senders)
        queues = fabric.queues
        modes = fabric.modes
        n_links = len(queues)
        rows_t: List[float] = []
        rows_v: List[List[float]] = []
        blocked = [False] * n_links
        arrivals = [0.0] * n_links
        dropped_before = [0.0] * n_links
        for window in link_capacity_windows(
            self.faults, steps, dt, fabric.base_capacities()
        ):
            fabric.apply_window(window.modes)
            for step_index in range(window.start, window.end):
                now = step_index * dt
                for link in range(n_links):
                    blocked[link] = modes[link] != MODE_NORMAL
                    arrivals[link] = 0.0
                    dropped_before[link] = queues[link].dropped_bytes
                stepped: List[object] = []
                for column, source in enumerate(sources):
                    route = index_routes[column]
                    skip = False
                    for link in route:
                        if blocked[link]:
                            skip = True
                            break
                    if skip:
                        continue
                    if column < n_senders:
                        rate = source.rate
                    else:
                        rate = source.step(now, dt, 0.0) / dt
                    stepped.append((source, route))
                    for link in route:
                        arrivals[link] += rate
                for link in range(n_links):
                    if modes[link] == MODE_FREEZE:
                        continue
                    # Storming links see zero arrivals (every source
                    # crossing them was skipped) and simply drain.
                    queues[link].step(arrivals[link], dt)
                lossy = [
                    queues[link].dropped_bytes > dropped_before[link]
                    for link in range(n_links)
                ]
                for source, route in stepped:
                    hit = False
                    for link in route:
                        if lossy[link]:
                            hit = True
                            break
                    if hit:
                        source.cut()
                    else:
                        source.grow(dt)
                if (step_index + 1) % samples_every == 0:
                    # Samples land on the sample_interval grid: the
                    # state after tick k covers time (k+1) * dt.
                    rows_t.append((step_index + 1) * dt)
                    rows_v.append([source.rate for source in sources])
        fabric.restore()
        result = AimdResult(duration=duration)
        for column, source in enumerate(sources):
            result.rate_series[source.name] = TimeSeries.from_arrays(
                source.name, rows_t, [row[column] for row in rows_v]
            )
        result.timelines = {job.name: job.timeline for job in self._jobs}
        return result

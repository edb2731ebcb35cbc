"""A TCP-like AIMD fluid baseline.

The paper's related work observes that RDMA congestion control (DCQCN, IRN,
RoCC) and classic TCP all *strive for fairness*. This module provides a
loss-driven additive-increase/multiplicative-decrease fluid model as an
independent fairness baseline: senders grow linearly and halve when the
shared buffer overflows. Used in ablation benchmarks to show the
fair-sharing pathology (Figure 2a) is not specific to DCQCN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.lifecycle import JobLifecycle, OnOffSource
from ..core.timeline import JobTimeline
from ..errors import ConfigError, SimulationError
from ..faults.events import InjectionSchedule  # simlint: disable=ARCH001 - CC tiers execute fault warps inline for bit-equivalence; shared types pending a layer move
from ..faults.runtime import (  # simlint: disable=ARCH001 - same inversion as above
    MODE_FREEZE,
    MODE_NORMAL,
    build_warp,
    capacity_windows,
    link_capacity_windows,
    single_link,
)
from ..sim.trace import TimeSeries
from ..switches.queues import FluidQueue
from ..units import gbps, kib, mbps
from .sender_bank import activation_tick, clamp_drain, fold_traj, sample_ticks

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


class _AimdSender:
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


class _AimdBurstSender:
    """One communication burst's AIMD rate state.

    Fluid-sender protocol for :class:`repro.core.lifecycle.OnOffSource`:
    rate changes come from the simulator's loss feedback (grow/cut), not
    from the per-step marking probability, which AIMD ignores.
    """

    def __init__(self, params: AimdParams, data_bytes: float) -> None:
        self.params = params
        self.rate = params.min_rate
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

    def grow(self, dt: float) -> None:
        self.rate = min(
            self.rate + self.params.increase_rate * dt, self.params.line_rate
        )

    def cut(self) -> None:
        self.rate = max(
            self.rate * self.params.decrease_factor, self.params.min_rate
        )


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
            segments=((compute_time, comm_bytes),),
            start_offset=start_offset,
            warp=warp,
        )
        super().__init__(name, lifecycle, self._make_sender)

    def _make_sender(self, data_bytes: float) -> _AimdBurstSender:
        return _AimdBurstSender(self.params, data_bytes)

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
    """Fixed-step AIMD senders sharing one drop-tail bottleneck.

    Passing ``topology`` switches to **multi-link fabric mode**: every
    sender and job must then carry a ``route`` (a tuple of link names),
    each link runs its own drop-tail queue at ``buffer_bytes``, and a
    source backs off when *any* link on its route drops — the loss
    analog of reacting to the most congested hop. AIMD has no span
    fast-forward on a fabric: both engines run the same per-tick
    reference loop (the model is loss-driven and deterministic, so
    scalar/vector equivalence is structural).
    """

    def __init__(
        self,
        capacity: float = gbps(50),
        buffer_bytes: float = kib(512),
        dt: float = 10e-6,
        sample_interval: float = 250e-6,
        engine: str = "vector",
        faults: Optional[InjectionSchedule] = None,
        topology: Optional["Topology"] = None,
    ) -> None:
        if dt <= 0 or sample_interval < dt:
            raise ConfigError("need dt > 0 and sample_interval >= dt")
        if engine not in ("scalar", "vector"):
            raise ConfigError(
                f"engine must be 'scalar' or 'vector', got {engine!r}"
            )
        self.engine = engine
        self.capacity = capacity
        self.buffer_bytes = buffer_bytes
        self.queue = FluidQueue(capacity, max_occupancy=buffer_bytes)
        self.dt = dt
        self.sample_interval = sample_interval
        self.faults = faults
        self._fault_warps_installed = False
        self.topology = topology
        self.fabric = None
        if topology is None:
            single_link(faults)  # reject multi-link schedules up front
        self._senders: List[_AimdSender] = []
        self._jobs: List[OnOffAimdJob] = []
        self._sender_routes: List[Tuple[str, ...]] = []
        self._job_routes: List[Tuple[str, ...]] = []
        self._chunk = 256

    def add_sender(
        self,
        name: str,
        params: Optional[AimdParams] = None,
        route: Sequence[str] = (),
    ) -> None:
        """Register a long-lived AIMD sender."""
        self._sender_routes.append(self._check_route(name, route))
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
        self._job_routes.append(self._check_route(name, route))
        job = OnOffAimdJob(
            name, params or AimdParams(), compute_time, comm_bytes,
            start_offset=start_offset,
        )
        self._jobs.append(job)
        return job

    def _check_route(
        self, name: str, route: Sequence[str]
    ) -> Tuple[str, ...]:
        route = tuple(route)
        if self.topology is None:
            if route:
                raise ConfigError(
                    f"sender {name!r} carries a route but the simulator "
                    "has no topology; pass topology= to "
                    "AimdFluidSimulator to enable multi-link routes"
                )
        else:
            if not route:
                raise ConfigError(
                    f"sender {name!r} needs a route (tuple of link "
                    "names) on a topology-backed simulator"
                )
            if len(set(route)) != len(route):
                raise ConfigError(
                    f"sender {name!r} route visits a link twice: {route}"
                )
            for link_name in route:
                self.topology.link_by_name(link_name)  # raises if unknown
        return route

    def run(self, duration: float) -> AimdResult:
        """Simulate ``duration`` seconds; plain senders always backlogged.

        With ``engine="vector"`` (the default) loss-free stretches are
        advanced in one exact batch: AIMD has no randomness, so every
        rate ramp, byte countdown and queue fold between events (burst
        activation, burst completion, a drop) is a deterministic
        sequential fold that ``np.cumsum`` reproduces bit-for-bit. The
        dt-by-dt reference loop stays behind ``engine="scalar"``; both
        produce identical traces and timelines.
        """
        if not self._senders and not self._jobs:
            raise SimulationError("add at least one sender before run()")
        self._install_fault_warps()
        if self.topology is not None:
            return self._run_fabric(duration)
        sources = self._senders + self._jobs
        steps = int(round(duration / self.dt))
        samples_every = max(1, int(round(self.sample_interval / self.dt)))
        rows_t: List[float] = []
        rows_v: List[List[float]] = []
        base_capacity = self.queue.capacity
        for window in capacity_windows(
            self.faults, steps, self.dt, base_capacity
        ):
            if window.mode == MODE_NORMAL:
                self._set_capacity(window.capacity)
                self._run_span(
                    window.start, window.end, samples_every,
                    rows_t, rows_v, sources,
                )
            elif window.mode == MODE_FREEZE:
                self._span_freeze(
                    window.start, window.end, samples_every,
                    rows_t, rows_v, sources,
                )
            else:
                self._set_capacity(window.capacity)
                self._span_storm(
                    window.start, window.end, samples_every,
                    rows_t, rows_v, sources,
                )
        self._set_capacity(base_capacity)
        result = AimdResult(duration=duration)
        for column, source in enumerate(sources):
            result.rate_series[source.name] = TimeSeries.from_arrays(
                source.name, rows_t, [row[column] for row in rows_v]
            )
        result.timelines = {job.name: job.timeline for job in self._jobs}
        return result

    def _install_fault_warps(self) -> None:
        """Attach per-job warps (stragglers, skew, latency spikes) once."""
        if self.faults is None or self._fault_warps_installed:
            return
        self._fault_warps_installed = True
        if self.topology is None:
            link = single_link(self.faults)
            default_links = (link,) if link is not None else ()
            routes = [default_links] * len(self._jobs)
        else:
            routes = self._job_routes
        for job, links in zip(self._jobs, routes):
            warp = build_warp(self.faults, job.name, links)
            if warp is not None:
                job.install_warp(warp)

    def _run_fabric(self, duration: float) -> AimdResult:
        """The multi-link per-tick loop (both engines; see class docs).

        Per tick: blocked links (failed, storming) silence every source
        routed across them — no arrivals, no grow/cut, rates held, jobs'
        activation clockwork deferred exactly like a skipped scalar
        ``step``. Unblocked sources inject on every route link; a source
        then cuts when any of its route links dropped bytes this tick
        and grows otherwise.
        """
        from .link_engine import LinkFabric

        dt = self.dt
        steps = int(round(duration / dt))
        samples_every = max(1, int(round(self.sample_interval / dt)))
        sources = self._senders + self._jobs
        routes = self._sender_routes + self._job_routes
        if self.fabric is None:
            extra = (
                () if self.faults is None
                else tuple(self.faults.link_names())
            )
            self.fabric = LinkFabric.from_topology(
                self.topology, routes, extra_links=extra,
                max_occupancy=self.buffer_bytes,
            )
        fabric = self.fabric
        index_routes = fabric.resolve(routes)
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

    def _set_capacity(self, capacity: float) -> None:
        """Point both capacity views at the window's effective value."""
        self.capacity = capacity
        self.queue.capacity = capacity

    def _run_span(
        self,
        start: int,
        end: int,
        samples_every: int,
        rows_t: List[float],
        rows_v: List[List[float]],
        sources: List[object],
    ) -> None:
        """The regular engine loop over ticks ``[start, end)``."""
        if self.engine == "vector":
            i = start
            while i < end:
                advanced = self._try_span(
                    i, end, samples_every, rows_t, rows_v, sources
                )
                if advanced:
                    i += advanced
                    continue
                self._step_once(i, sources)
                i += 1
                if i % samples_every == 0:
                    rows_t.append(i * self.dt)
                    rows_v.append([source.rate for source in sources])
        else:
            for step_index in range(start, end):
                self._step_once(step_index, sources)
                if (step_index + 1) % samples_every == 0:
                    # Samples land on the sample_interval grid: the
                    # state after tick k covers time (k+1) * dt.
                    rows_t.append((step_index + 1) * self.dt)
                    rows_v.append([source.rate for source in sources])

    def _span_freeze(
        self,
        start: int,
        end: int,
        samples_every: int,
        rows_t: List[float],
        rows_v: List[List[float]],
        sources: List[object],
    ) -> None:
        """Failed-link ticks: all state holds; only sample rows appear.

        A frozen span has no dynamics by definition, so both engines
        share this closed form.
        """
        wanted = sample_ticks(start, end, samples_every)
        if not len(wanted):
            return
        row = [source.rate for source in sources]
        for g in wanted:
            rows_t.append((g + 1) * self.dt)
            rows_v.append(list(row))

    def _span_storm(
        self,
        start: int,
        end: int,
        samples_every: int,
        rows_t: List[float],
        rows_v: List[List[float]],
        sources: List[object],
    ) -> None:
        """Pause-storm ticks: senders frozen while the queue drains.

        AIMD has no PFC model, so a storm degrades to a pause: no
        arrivals, no loss feedback, rates held.
        """
        if end <= start:
            return
        if self.engine == "vector":
            span = end - start
            delta = (0.0 - self.queue.capacity) * self.dt
            traj = clamp_drain(fold_traj(self.queue.occupancy, delta, span))
            self.queue.occupancy = float(traj[span])
            row = [source.rate for source in sources]
            for g in sample_ticks(start, end, samples_every):
                rows_t.append((g + 1) * self.dt)
                rows_v.append(list(row))
        else:
            for step_index in range(start, end):
                self.queue.step(0.0, self.dt)
                if (step_index + 1) % samples_every == 0:
                    rows_t.append((step_index + 1) * self.dt)
                    rows_v.append([source.rate for source in sources])

    def _step_once(self, step_index: int, sources: List[object]) -> None:
        """One exact reference tick shared by both engines."""
        now = step_index * self.dt
        arrival = sum(s.rate for s in self._senders)
        for job in self._jobs:
            arrival += job.step(now, self.dt, 0.0) / self.dt
        dropped_before = self.queue.dropped_bytes
        self.queue.step(arrival, self.dt)
        if self.queue.dropped_bytes > dropped_before:
            # Loss is congestion feedback: every sender backs off
            # (synchronized loss — the worst case for fairness churn).
            for source in sources:
                source.cut()
        else:
            for source in sources:
                source.grow(self.dt)

    def _try_span(
        self,
        i: int,
        steps: int,
        samples_every: int,
        rows_t: List[float],
        rows_v: List[List[float]],
        sources: List[object],
    ) -> int:
        """Advance as many loss-free ticks as possible in one batch.

        Returns the number of ticks committed (0 = fall back to one
        scalar tick). Within the committed stretch every sender only
        grows, so the rate trajectories are sequential folds clamped at
        the line rate; arrivals are therefore nondecreasing, which
        bounds the queue to a single clamp-at-empty episode and makes
        the first overflow tick of the unclamped fold the first real
        drop. The span ends strictly before the earliest burst
        activation, burst completion or drop, which the per-tick
        reference path then replays exactly.
        """
        dt = self.dt
        queue = self.queue
        H = min(steps - i, self._chunk)
        for job in self._jobs:
            if job._sender is None and not job.lifecycle.done:
                gap = activation_tick(job._deadline, dt, lo=i) - i
                if gap < H:
                    H = gap
        if H < 8:
            return 0
        # Exact rate trajectories: trajs[k][m] is source k's rate at the
        # start of tick i+m (idle/done jobs carry None and send 0).
        trajs: List[Optional[np.ndarray]] = []
        job_folds: List[Optional[tuple]] = []
        arrival = np.zeros(H)
        e = H
        for sender in self._senders:
            params = sender.params
            if sender.rate > params.line_rate:
                return 0
            traj = np.minimum(
                fold_traj(sender.rate, params.increase_rate * dt, H),
                params.line_rate,
            )
            arrival += traj[:H]
            trajs.append(traj)
        for job in self._jobs:
            burst = job._sender
            if burst is None:
                trajs.append(None)
                job_folds.append(None)
                continue
            params = burst.params
            if burst.rate > params.line_rate:
                return 0
            traj = np.minimum(
                fold_traj(burst.rate, params.increase_rate * dt, H),
                params.line_rate,
            )
            sends = traj[:H] * dt
            rems = np.cumsum(np.concatenate(([burst.remaining], -sends)))
            # The burst completes at the first tick whose remaining
            # budget no longer exceeds a full rate*dt quantum.
            fin = np.nonzero(rems[:H] <= sends)[0]
            if fin.size and fin[0] < e:
                e = int(fin[0])
            arrival += sends / dt
            trajs.append(traj)
            job_folds.append((sends, rems))
        if e == 0:
            return 0
        delta = (arrival - queue.capacity) * dt
        occs = np.cumsum(np.concatenate(([queue.occupancy], delta)))
        below = np.nonzero(occs[1:] < 0.0)[0]
        if below.size:
            # Single clamp episode: pinned at empty until the (nondecreasing)
            # net inflow turns positive, then the fold restarts from 0.0.
            j = int(below[0])
            pos = np.nonzero(delta[j:] > 0.0)[0]
            k = j + int(pos[0]) if pos.size else H
            occs[j + 1 : k + 1] = 0.0
            if k < H:
                occs[k + 1 :] = np.cumsum(delta[k:])
        over = np.nonzero(occs[1:] > queue.max_occupancy)[0]
        if over.size and over[0] < e:
            e = int(over[0])
        if e == 0:
            return 0
        # Commit: write back final states and emit the sample rows the
        # scalar loop would have produced inside the stretch.
        column = 0
        for sender in self._senders:
            sender.rate = float(trajs[column][e])
            column += 1
        for job, folds in zip(self._jobs, job_folds):
            if folds is not None:
                sends, rems = folds
                burst = job._sender
                burst.rate = float(trajs[column][e])
                burst.remaining = float(rems[e])
                lifecycle = job.lifecycle
                lifecycle.comm_sent = float(
                    np.cumsum(
                        np.concatenate(([lifecycle.comm_sent], sends[:e]))
                    )[-1]
                )
            column += 1
        queue.occupancy = float(occs[e])
        for g in sample_ticks(i, i + e, samples_every):
            rows_t.append((g + 1) * dt)
            rows_v.append([
                0.0 if traj is None else float(traj[g - i + 1])
                for traj in trajs
            ])
        self._chunk = (
            min(self._chunk * 2, 8192) if e == H else max(16, 2 * e)
        )
        return e

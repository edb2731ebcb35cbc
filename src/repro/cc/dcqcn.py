"""Fine-grained DCQCN fluid model.

Implements the DCQCN sender state machine (Zhu et al., SIGCOMM '15) over a
fluid bottleneck queue with RED/ECN marking:

* **decrease** — the receiver returns at most one CNP per 50 µs window when
  it sees marked traffic; on CNP the sender updates
  ``alpha = (1-g)*alpha + g``, remembers ``R_T = R_C`` and cuts
  ``R_C *= 1 - alpha/2``.
* **increase** — two counters drive increase events: a *byte counter*
  (every ``B`` bytes) and a *timer* (every ``T`` seconds — **the paper's
  unfairness knob**). The first ``F`` events of both counters perform fast
  recovery (``R_C <- (R_T + R_C)/2``); once one counter passes ``F`` the
  sender adds ``R_AI`` to ``R_T`` (additive increase); once both pass ``F``
  it adds ``R_HAI`` (hyper increase).
* **alpha decay** — without CNPs for 55 µs, ``alpha *= 1 - g`` periodically.

A smaller ``T`` means more frequent increase events, so the sender recovers
from each cut faster and holds a larger share of the bottleneck in steady
state. The paper exploits exactly this: setting ``T`` to 100 µs on one
job's servers versus the default 125 µs yields a ~30 vs 15 Gbps split on
the shared link (Figure 1c). :func:`calibrate_timer_weights` measures the
steady-state share each timer value achieves, which the phase-level
simulator uses as static weights.

:class:`DcqcnFluidSimulator` runs these senders over links: a dumbbell
is the 1-link fabric, a ``topology=`` run the links its routes name.
:meth:`DcqcnFluidSimulator.run` runs them on the
:class:`repro.cc.sender_bank.SenderBank`; the scalar reference
:func:`repro.cc.link_engine.run_scalar_fabric` is the test oracle the
bank is pinned against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.lifecycle import JobLifecycle, OnOffSource
from ..core.timeline import JobTimeline
from ..errors import ConfigError, SimulationError
from ..faults.events import InjectionSchedule
from ..faults.runtime import single_link
from ..net.topology import BOTTLENECK
from ..sim.trace import TimeSeries
from ..switches.ecn import RedEcnMarker
from ..switches.queues import FluidQueue
from ..telemetry import session as _telemetry_session
from ..units import gbps, mbps
from .link_engine import LinkFabric, check_route, prepare_run, scalar_loop

if TYPE_CHECKING:
    from ..net.topology import Topology

#: Default rate-increase timer in the paper's testbed.
DEFAULT_TIMER = 125e-6
#: The more aggressive timer used for J1 in the paper's Figure 1c.
AGGRESSIVE_TIMER = 100e-6
#: Default fixed step of :class:`DcqcnFluidSimulator`, seconds.
DEFAULT_DT = 5e-6


@dataclass(frozen=True)
class DcqcnParams:
    """DCQCN sender parameters (defaults scaled to a 50 Gbps NIC).

    Attributes:
        line_rate: NIC line rate, bytes/s.
        timer: Rate-increase timer period ``T`` in seconds — the knob the
            paper skews to create unfairness.
        byte_counter: Bytes between byte-counter increase events (``B``).
        rai: Additive-increase step, bytes/s.
        rhai: Hyper-increase step, bytes/s.
        g: EWMA gain for alpha.
        fast_recovery_rounds: ``F``; increase events in fast recovery.
        cnp_interval: Minimum spacing between CNPs (receiver side).
        alpha_timer: Period of alpha decay when no CNPs arrive.
        min_rate: Floor on the sending rate, bytes/s.
        mtu: Packet size used to convert fluid to packet counts for marking.
    """

    line_rate: float = gbps(50)
    timer: float = DEFAULT_TIMER
    byte_counter: float = 10e6
    rai: float = mbps(400)
    rhai: float = mbps(4000)
    g: float = 1.0 / 256.0
    fast_recovery_rounds: int = 5
    cnp_interval: float = 50e-6
    alpha_timer: float = 55e-6
    min_rate: float = mbps(100)
    mtu: float = 4096.0

    def __post_init__(self) -> None:
        if self.line_rate <= 0 or self.timer <= 0 or self.byte_counter <= 0:
            raise ConfigError("line_rate, timer and byte_counter must be > 0")
        if not 0 < self.g < 1:
            raise ConfigError(f"g must be in (0, 1), got {self.g}")
        if self.min_rate <= 0 or self.min_rate > self.line_rate:
            raise ConfigError("min_rate must be in (0, line_rate]")

    def with_timer(self, timer: float) -> "DcqcnParams":
        """A copy of these parameters with a different increase timer."""
        return replace(self, timer=timer)


class DcqcnSender:
    """One DCQCN-controlled flow's rate state machine."""

    def __init__(
        self,
        name: str,
        params: DcqcnParams,
        rng: np.random.Generator,
        data_bytes: Optional[float] = None,
    ) -> None:
        self.name = name
        self.params = params
        self._rng = rng
        #: Remaining bytes to send; ``None`` means a long-lived flow.
        self.remaining = data_bytes
        self.rate = params.line_rate  # DCQCN starts at line rate.
        self.target_rate = params.line_rate
        self.alpha = 1.0
        self.bytes_sent = 0.0
        self.cnps_received = 0
        self._byte_accum = 0.0
        self._timer_accum = 0.0
        self._byte_stage = 0
        self._timer_stage = 0
        self._next_cnp_time = 0.0
        self._next_alpha_decay = params.alpha_timer

    @property
    def done(self) -> bool:
        """Whether a finite flow has sent all its data."""
        return self.remaining is not None and self.remaining <= 0

    def step(self, now: float, dt: float, marking_probability: float) -> float:
        """Advance the sender by ``dt``; returns bytes injected this step."""
        if self.done:
            return 0.0
        sent = self.rate * dt
        if self.remaining is not None:
            sent = min(sent, self.remaining)
            self.remaining -= sent
        self.bytes_sent += sent

        self._maybe_receive_cnp(now, dt, sent, marking_probability)
        self._run_increase_counters(sent, dt)
        self._decay_alpha(now)
        self.rate = min(max(self.rate, self.params.min_rate), self.params.line_rate)
        self.target_rate = min(self.target_rate, self.params.line_rate)
        return sent

    # ------------------------------------------------------------------
    # State machine pieces
    # ------------------------------------------------------------------

    def _maybe_receive_cnp(
        self, now: float, dt: float, sent: float, marking_probability: float
    ) -> None:
        if marking_probability <= 0 or now < self._next_cnp_time:
            return
        packets = sent / self.params.mtu
        if packets <= 0:
            return
        p_any_marked = 1.0 - (1.0 - marking_probability) ** packets
        if self._rng.random() >= p_any_marked:
            return
        # CNP delivered: cut rate, refresh alpha, reset increase state.
        p = self.params
        self.cnps_received += 1
        self.alpha = (1.0 - p.g) * self.alpha + p.g
        self.target_rate = self.rate
        self.rate = max(self.rate * (1.0 - self.alpha / 2.0), p.min_rate)
        self._byte_accum = 0.0
        self._timer_accum = 0.0
        self._byte_stage = 0
        self._timer_stage = 0
        self._next_cnp_time = now + p.cnp_interval
        self._next_alpha_decay = now + p.alpha_timer

    def _run_increase_counters(self, sent: float, dt: float) -> None:
        p = self.params
        self._byte_accum += sent
        while self._byte_accum >= p.byte_counter:
            self._byte_accum -= p.byte_counter
            self._byte_stage += 1
            self._increase_event()
        self._timer_accum += dt
        while self._timer_accum >= p.timer:
            self._timer_accum -= p.timer
            self._timer_stage += 1
            self._increase_event()

    def _increase_event(self) -> None:
        p = self.params
        in_fast_recovery = (
            self._byte_stage < p.fast_recovery_rounds
            and self._timer_stage < p.fast_recovery_rounds
        )
        past_both = (
            self._byte_stage >= p.fast_recovery_rounds
            and self._timer_stage >= p.fast_recovery_rounds
        )
        if in_fast_recovery:
            pass  # R_T unchanged; R_C closes half the gap below.
        elif past_both:
            self.target_rate += p.rhai
        else:
            self.target_rate += p.rai
        self.target_rate = min(self.target_rate, p.line_rate)
        self.rate = (self.target_rate + self.rate) / 2.0

    def _decay_alpha(self, now: float) -> None:
        while now >= self._next_alpha_decay:
            self.alpha *= 1.0 - self.params.g
            self._next_alpha_decay += self.params.alpha_timer


class OnOffDcqcnJob(OnOffSource):
    """A training job's on-off traffic driven by the DCQCN state machine.

    Alternates compute phases (no traffic) with communication phases that
    inject ``comm_bytes`` under a fresh DCQCN sender (RDMA flows start at
    line rate). The on-off clockwork is the shared
    :class:`repro.core.lifecycle.JobLifecycle`; this class only supplies
    the DCQCN sender per burst. Plugs into :class:`DcqcnFluidSimulator`
    alongside plain senders, enabling a *cross-fidelity* check: the
    sliding effect the phase-level simulator predicts must also emerge
    from the microsecond-scale rate dynamics.
    """

    def __init__(
        self,
        name: str,
        params: DcqcnParams,
        rng: np.random.Generator,
        compute_time: float,
        comm_bytes: float,
        start_offset: float = 0.0,
    ) -> None:
        self.params = params
        self._rng = rng
        self.compute_time = compute_time
        self.comm_bytes = comm_bytes
        lifecycle = JobLifecycle(
            job_id=name,
            compute_time=compute_time,
            comm_bytes=comm_bytes,
            start_offset=start_offset,
        )
        super().__init__(name, lifecycle, self._make_sender)

    def _make_sender(self, data_bytes: float) -> DcqcnSender:
        # Communication phase begins: fresh DCQCN state at line rate.
        return DcqcnSender(
            self.name, self.params, self._rng, data_bytes=data_bytes
        )


@dataclass
class DcqcnResult:
    """Output of a fine-grained DCQCN run, and of one fluid-backend
    scenario (:attr:`repro.runner.RunResult.fluid`).

    Attributes:
        rate_series: Per-sender sending-rate samples (bytes/s).
        queue_series: Bottleneck queue occupancy samples (bytes). On a
            multi-link fabric this is the elementwise maximum across
            links — the most congested hop at each sample.
        duration: Simulated seconds.
        timelines: Canonical iteration timelines of every on-off job
            (plain long-lived senders have none).
        link_queue_series: Per-link occupancy samples, keyed by link
            name (empty on single-bottleneck runs).
    """

    rate_series: Dict[str, TimeSeries] = field(default_factory=dict)
    queue_series: TimeSeries = field(default_factory=lambda: TimeSeries("queue"))
    duration: float = 0.0
    timelines: Dict[str, JobTimeline] = field(default_factory=dict)
    link_queue_series: Dict[str, TimeSeries] = field(default_factory=dict)

    def timeline(self, name: str) -> JobTimeline:
        """One on-off job's canonical timeline."""
        if name not in self.timelines:
            raise SimulationError(f"no timeline recorded for {name!r}")
        return self.timelines[name]

    def iteration_times(self, name: str, skip: int = 0) -> np.ndarray:
        """Durations of ``name``'s completed iterations, seconds.

        Unknown names yield an empty array (a plain long-lived sender
        completes no iterations).
        """
        timeline = self.timelines.get(name)
        if timeline is None:
            return np.asarray([], dtype=float)
        return timeline.iteration_times(skip)

    def iterations(self, name: str) -> int:
        """Completed iterations of ``name``."""
        timeline = self.timelines.get(name)
        return 0 if timeline is None else len(timeline)

    def mean_iteration_time(self, name: str, skip: int = 0) -> float:
        """Mean iteration time of one on-off job, seconds."""
        return self.timeline(name).mean_iteration_time(skip)

    def median_iteration_time(self, name: str, skip: int = 0) -> float:
        """Median iteration time of one on-off job, seconds."""
        return self.timeline(name).median_iteration_time(skip)

    def mean_rate(self, name: str, start: float = 0.0, end: Optional[float] = None) -> float:
        """Time-average sending rate of ``name`` over ``[start, end]``."""
        series = self.rate_series[name]
        times = series.times
        values = series.values
        if end is None:
            end = self.duration
        mask = (times >= start) & (times <= end)
        if not mask.any():
            raise SimulationError(f"no samples for {name} in [{start}, {end}]")
        return float(values[mask].mean())


class DcqcnFluidSimulator:
    """Fixed-step fluid simulation of DCQCN senders over links.

    Without ``topology`` the simulator is a **dumbbell**: one bottleneck
    link of ``capacity`` shared by every sender, whose queue is
    ``self.queue``. The link takes the name of the link the fault
    schedule addresses, or :data:`repro.net.topology.BOTTLENECK`.

    Passing ``topology`` makes it a **multi-link fabric**: every sender
    must then carry a ``route`` — a tuple of link names resolved against
    the topology (e.g. from :meth:`repro.net.topology.Topology.fat_tree`)
    — and fault schedules may target any named link. Either way each
    link runs its own queue, marker and PFC state, and a sender reacts
    to the most congested hop on its route: the dumbbell is simply the
    1-link fabric (see :mod:`repro.cc.link_engine`).

    Optionally models **PFC** (priority flow control), RDMA's lossless
    backstop: when a link's queue exceeds ``pfc_pause_threshold`` the
    switch pauses every sender routed across it; transmission resumes
    once it drains below ``pfc_resume_threshold``. DCQCN's whole purpose
    is to keep the queue short enough that PFC rarely fires; the
    ``pfc_pause_seconds`` counter measures how well it succeeds.
    """

    def __init__(
        self,
        capacity: float = gbps(50),
        marker: Optional[RedEcnMarker] = None,
        dt: float = DEFAULT_DT,
        sample_interval: float = 250e-6,
        pfc_pause_threshold: Optional[float] = None,
        pfc_resume_threshold: Optional[float] = None,
        telemetry: Optional["_telemetry_session.Telemetry"] = None,
        faults: Optional[InjectionSchedule] = None,
        topology: Optional["Topology"] = None,
    ) -> None:
        if dt <= 0 or sample_interval < dt:
            raise ConfigError("need dt > 0 and sample_interval >= dt")
        self.faults = faults
        self.topology = topology
        self.routes: List[Tuple[str, ...]] = []
        self.telemetry = _telemetry_session.resolve(telemetry)
        self.capacity = capacity
        self.marker = marker if marker is not None else RedEcnMarker()
        self.dt = dt
        self.sample_interval = sample_interval
        self.queue = FluidQueue(capacity)
        self.fabric: Optional[LinkFabric] = None
        if topology is None:
            # Rejects multi-link schedules up front.
            link = single_link(faults) or BOTTLENECK
            self.fabric = LinkFabric([link], [self.queue])
        self.senders: List[DcqcnSender] = []
        if pfc_pause_threshold is not None:
            if pfc_pause_threshold <= 0:
                raise ConfigError("pfc_pause_threshold must be > 0")
            if pfc_resume_threshold is None:
                pfc_resume_threshold = pfc_pause_threshold / 2
            if not 0 < pfc_resume_threshold < pfc_pause_threshold:
                raise ConfigError(
                    "need 0 < pfc_resume_threshold < pfc_pause_threshold"
                )
        self.pfc_pause_threshold = pfc_pause_threshold
        self.pfc_resume_threshold = pfc_resume_threshold
        self.pfc_pause_seconds = 0.0

    def add_sender(
        self,
        name: str,
        params: DcqcnParams,
        rng: np.random.Generator,
        data_bytes: Optional[float] = None,
        route: Sequence[str] = (),
    ) -> DcqcnSender:
        """Register a sender whose traffic crosses the bottleneck.

        With a topology ``route`` names the links the sender's traffic
        traverses, in order, resolved against the simulator's topology.
        """
        sender = DcqcnSender(name, params, rng, data_bytes)
        self._register(sender, route)
        return sender

    def add_source(self, source, route: Sequence[str] = ()) -> None:
        """Register any traffic source implementing the sender protocol
        (``name``, ``rate``, ``done``, ``step(now, dt, p)``) — e.g. an
        :class:`OnOffDcqcnJob`. With a topology ``route`` names the links
        the source's traffic traverses."""
        self._register(source, route)

    def _register(self, source, route: Sequence[str]) -> None:
        self.routes.append(check_route(self, source.name, route))
        self.senders.append(source)

    def run(self, duration: float) -> DcqcnResult:
        """Simulate ``duration`` seconds and return sampled traces.

        The run goes through the :class:`repro.cc.sender_bank.SenderBank`
        — batched sender updates, deterministic span advancement and
        idle fast-forward — whose traces are bit-identical to the scalar
        oracle :func:`repro.cc.link_engine.run_scalar_fabric`. When the
        bank cannot represent the run (a source type other than
        :class:`DcqcnSender` and :class:`OnOffDcqcnJob`, or a marker
        other than a plain :class:`~repro.switches.ecn.RedEcnMarker`),
        the scalar loop runs instead.
        """
        from .sender_bank import SenderBank

        prepare_run(self)
        bank = SenderBank.build(self)
        if bank is None:
            return scalar_loop(self, duration)
        return bank.run(duration)


def calibrate_timer_weights(
    timers: Sequence[float],
    capacity: float = gbps(50),
    duration: float = 0.25,
    warmup: float = 0.05,
    seed: int = 0,
    params: Optional[DcqcnParams] = None,
) -> Dict[float, float]:
    """Measure the share weight each increase-timer value earns.

    Runs one long-lived sender per timer value against the others on a
    single bottleneck and reports each sender's steady-state share,
    normalized so the *largest* timer (least aggressive sender) has
    weight 1. The phase-level simulator feeds these into
    :class:`repro.cc.weighted.StaticWeighted` so that coarse runs inherit
    the unfairness a real ``T`` skew would produce.
    """
    if len(timers) < 2:
        raise ConfigError("calibration needs at least two timer values")
    base = params if params is not None else DcqcnParams(line_rate=capacity)
    sim = DcqcnFluidSimulator(capacity=capacity)
    rng_root = np.random.default_rng(seed)
    names = []
    for index, timer in enumerate(timers):
        name = f"t{index}"
        names.append(name)
        child = np.random.default_rng(rng_root.integers(2**63))
        sim.add_sender(name, base.with_timer(timer), child)
    result = sim.run(duration)
    means = {
        name: result.mean_rate(name, start=warmup) for name in names
    }
    reference = means[names[int(np.argmax(timers))]]
    if reference <= 0:
        raise SimulationError("calibration reference sender starved")
    return {
        timer: means[name] / reference for timer, name in zip(timers, names)
    }

"""The shared job-lifecycle state machine behind every fidelity tier.

The paper's central object is a training job's periodic on-off cycle:
compute (no traffic), an optional gated wait, then a communication burst,
repeated once per iteration (§2, Fig. 1–2). This module implements that
cycle exactly once. :class:`JobLifecycle` owns the state transitions

    IDLE → COMPUTE → (WAITING, when gated) → COMM → iteration close
         → COMPUTE …

and writes every completed iteration into one canonical
:class:`~repro.core.timeline.JobTimeline`. The drivers differ only in
*when* they advance the machine:

* The event-driven tier (:class:`repro.net.phasesim.PhaseLevelSimulator`,
  behind the runner's ``phase`` and ``cluster`` backends) calls the
  transition methods from scheduled events; methods return the next
  phase's duration or byte budget so the caller can schedule the
  follow-up event.
* Fixed-step fluid tiers (:class:`repro.cc.dcqcn.DcqcnFluidSimulator`,
  :class:`repro.cc.aimd.AimdFluidSimulator`) wrap the machine in
  :class:`OnOffSource`, which polls it every ``dt`` and spawns a fresh
  congestion-control sender per communication burst.

New congestion-control mechanisms or fidelity tiers therefore plug in at
a single point: drive a :class:`JobLifecycle` (or hand
:class:`OnOffSource` a sender factory) and the timeline schema, gate
semantics and warm-up ``skip`` behaviour come along for free.

Injected faults (:mod:`repro.faults`) act on links, never on this
machine: a job feels a failure or a capacity dip only through the rate
its burst gets, so a compute phase always lasts ``compute_time`` times
the iteration's jitter factor.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Optional

import numpy as np

from ..errors import ConfigError, SimulationError, WorkloadError
from .timeline import IterationSample, JobTimeline

#: A gate delays the start of a communication phase: called with
#: ``(job_id, now)`` it returns the earliest permitted start time (>= now).
Gate = Callable[[str, float], float]

#: Slack tolerated when a gate releases marginally in the past (float
#: noise from period arithmetic), seconds.
_GATE_SLACK = 1e-12


class JobState(enum.Enum):
    """Lifecycle of a job within one iteration."""

    IDLE = "idle"
    COMPUTE = "compute"
    WAITING = "waiting"  # compute done, gated before communication
    COMM = "comm"
    DONE = "done"


class JobLifecycle:
    """One job's on-off state machine writing one canonical timeline.

    Args:
        job_id: The job's identifier (also the timeline's).
        compute_time: Compute-phase duration of an iteration, seconds.
        comm_bytes: Bytes of an iteration's communication burst.
        n_iterations: Iterations to run before the job stops; ``None``
            runs for as long as the driver keeps stepping (the fluid
            tiers' long-lived jobs).
        start_offset: Simulation time of the first compute phase.
        gate: Optional flow-scheduling admission gate (§4, direction iii).
        rng: Random generator for compute jitter (required when
            ``compute_jitter > 0``).
        compute_jitter: Std-dev of per-iteration compute noise as a
            fraction of ``compute_time``.
    """

    def __init__(
        self,
        job_id: str,
        compute_time: float,
        comm_bytes: float,
        n_iterations: Optional[int] = None,
        start_offset: float = 0.0,
        gate: Optional[Gate] = None,
        rng: Optional[np.random.Generator] = None,
        compute_jitter: float = 0.0,
    ) -> None:
        if not (
            math.isfinite(compute_time)
            and compute_time >= 0
            and math.isfinite(comm_bytes)
            and comm_bytes > 0
        ):
            raise ConfigError(
                f"{job_id}: need finite compute_time >= 0 and comm_bytes > 0"
            )
        if n_iterations is not None and n_iterations < 1:
            raise WorkloadError("n_iterations must be >= 1")
        if start_offset < 0:
            raise ConfigError("start_offset must be >= 0")
        if compute_jitter > 0 and rng is None:
            raise ConfigError(
                f"{job_id}: compute_jitter needs a random generator"
            )
        self.job_id = job_id
        self.compute_time = compute_time
        self.n_iterations = n_iterations
        self.start_offset = start_offset
        self.gate = gate
        self.compute_jitter = compute_jitter
        self.state = JobState.IDLE
        self.timeline = JobTimeline(job_id)
        self.iteration_start = 0.0
        self.comm_start = 0.0
        self.comm_sent = 0.0
        self.compute_factor = 1.0
        #: Byte budget of every burst — a plain attribute because the
        #: event-driven tiers read it in their innermost reallocation
        #: loops.
        self.comm_budget = comm_bytes
        self._rng = rng

    @classmethod
    def for_spec(
        cls,
        spec,
        n_iterations: Optional[int] = None,
        start_offset: float = 0.0,
        gate: Optional[Gate] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "JobLifecycle":
        """Build the machine from a :class:`repro.workloads.job.JobSpec`."""
        return cls(
            job_id=spec.job_id,
            compute_time=spec.compute_time,
            comm_bytes=spec.comm_bytes,
            n_iterations=n_iterations,
            start_offset=start_offset,
            gate=gate,
            rng=rng,
            compute_jitter=spec.compute_jitter,
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether all requested iterations completed."""
        return self.state is JobState.DONE

    @property
    def iterations_done(self) -> int:
        """Completed iterations (the timeline's length)."""
        return len(self.timeline)

    @property
    def remaining_bytes(self) -> float:
        """Bytes of the current burst not yet credited as sent."""
        return self.comm_budget - self.comm_sent

    def sample_compute_factor(self) -> float:
        """Per-iteration multiplicative compute jitter (1.0 when none)."""
        if self.compute_jitter <= 0:
            return 1.0
        noise = self._rng.normal(0.0, self.compute_jitter)
        return max(1.0 + noise, 0.0)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def begin_iteration(self, now: float) -> float:
        """Enter COMPUTE for a fresh iteration; returns its compute time."""
        if self.done:
            raise SimulationError(
                f"job {self.job_id} already completed its iterations"
            )
        self.state = JobState.COMPUTE
        self.iteration_start = now
        self.compute_factor = self.sample_compute_factor()
        return self.compute_time * self.compute_factor

    def release_time(self, now: float) -> float:
        """The gate's earliest permitted communication start.

        Returns ``now`` for ungated jobs. Raises when the gate answers
        with a NaN or infinite time, or a time in the past — gates may
        only delay, and always release.
        """
        if self.gate is None:
            return now
        allowed = self.gate(self.job_id, now)
        if not math.isfinite(allowed):
            raise SimulationError(
                f"gate for {self.job_id} returned {allowed!r}; a release "
                f"time must be finite"
            )
        if allowed < now - _GATE_SLACK:
            raise SimulationError(
                f"gate for {self.job_id} returned a past time"
            )
        return allowed

    def enter_waiting(self) -> None:
        """Compute finished but the gate holds the burst back."""
        self.state = JobState.WAITING

    def begin_comm(self, now: float) -> float:
        """Enter COMM; returns the burst's byte budget."""
        self.state = JobState.COMM
        self.comm_start = now
        self.comm_sent = 0.0
        return self.comm_budget

    def credit(self, sent_bytes: float) -> None:
        """Credit bytes transferred toward the current burst."""
        self.comm_sent += sent_bytes

    def close_iteration(self, now: float) -> IterationSample:
        """Record the finished iteration; DONE when the budget is spent."""
        timeline = self.timeline
        sample = IterationSample(
            index=len(timeline),
            start=self.iteration_start,
            comm_start=self.comm_start,
            end=now,
        )
        timeline.record(sample)
        if (
            self.n_iterations is not None
            and len(timeline) >= self.n_iterations
        ):
            self.state = JobState.DONE
        else:
            self.state = JobState.IDLE
        return sample


class OnOffSource:
    """Adapts :class:`JobLifecycle` to fixed-step fluid simulators.

    The fluid tiers poll traffic sources every ``dt``. This adapter owns
    the lifecycle's clockwork — compute deadlines, per-burst sender
    creation, iteration close — and delegates the actual rate dynamics
    to a congestion-control sender built by ``sender_factory`` at the
    start of every communication burst (RDMA flows start fresh at line
    rate, which is exactly how the paper's testbed behaves).

    ``sender_factory(data_bytes)`` must return an object with the fluid
    sender protocol: ``rate``, ``done`` and
    ``step(now, dt, marking_probability) -> bytes``.
    """

    def __init__(
        self,
        name: str,
        lifecycle: JobLifecycle,
        sender_factory: Callable[[float], object],
    ) -> None:
        self.name = name
        self.lifecycle = lifecycle
        self._sender_factory = sender_factory
        self._sender: Optional[object] = None
        self._deadline = lifecycle.start_offset + lifecycle.begin_iteration(
            lifecycle.start_offset
        )

    @property
    def timeline(self) -> JobTimeline:
        """The job's canonical iteration record."""
        return self.lifecycle.timeline

    @property
    def done(self) -> bool:
        """Whether a bounded job finished (unbounded jobs never do)."""
        return self.lifecycle.done

    @property
    def rate(self) -> float:
        """Instantaneous sending rate (0 while computing)."""
        if self._sender is None or self._sender.done:
            return 0.0
        return self._sender.rate

    def iteration_times(self, skip: int = 0) -> np.ndarray:
        """Durations of completed iterations, seconds."""
        return self.timeline.iteration_times(skip)

    def step(self, now: float, dt: float, marking_probability: float) -> float:
        """Advance one step; returns bytes injected."""
        lifecycle = self.lifecycle
        if lifecycle.done:
            return 0.0
        if self._sender is None:
            if now + dt < self._deadline:
                return 0.0
            # Communication burst begins: fresh CC state per phase.
            budget = lifecycle.begin_comm(now)
            self._sender = self._sender_factory(budget)
        sent = self._sender.step(now, dt, marking_probability)
        lifecycle.credit(sent)
        if self._sender.done:
            end = now + dt
            self._sender = None
            lifecycle.close_iteration(end)
            if not lifecycle.done:
                self._deadline = end + lifecycle.begin_iteration(end)
        return sent

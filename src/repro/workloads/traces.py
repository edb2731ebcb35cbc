"""On-off network demand traces and online arrival processes.

Figure 3a of the paper shows a job's time-series network demand — the
periodic on-off square wave that the geometric abstraction rolls around a
circle. :func:`demand_trace` produces that signal for a
:class:`~repro.workloads.job.JobSpec` running solo, as a
:class:`~repro.sim.trace.StepFunction` of demanded rate.

The online cluster service (ROADMAP item 3) additionally needs *arrival
processes*: streams of :class:`JobArrival` events feeding
:class:`repro.scheduler.service.ClusterService`.
:func:`poisson_arrivals` draws Poisson arrivals with exponential, Pareto
(heavy-tailed, the empirical cluster-trace shape) or fixed lifetimes.
Iteration times are drawn from a small grid of whole-millisecond periods
so unified-circle LCMs stay exact and affordable — the same
profiling-granularity argument as
:class:`~repro.workloads.generator.WorkloadGenerator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import WorkloadError
from ..sim.rng import RandomStreams
from ..sim.trace import StepFunction
from ..units import gbps, milliseconds
from .job import JobSpec

#: Whole-millisecond iteration periods with a small joint LCM (7.2 s),
#: keeping exact unified-circle arithmetic cheap at thousands of jobs.
DEFAULT_PERIOD_GRID_MS: Tuple[int, ...] = (240, 300, 360, 400, 480, 600)


def demand_trace(
    spec: JobSpec,
    capacity: float,
    n_iterations: int,
    start_time: float = 0.0,
) -> StepFunction:
    """Network demand of ``spec`` running solo at ``capacity``.

    The trace is 0 during compute phases and ``capacity`` during
    communication phases, for ``n_iterations`` back-to-back iterations
    beginning at ``start_time``.
    """
    if n_iterations < 1:
        raise WorkloadError(f"n_iterations must be >= 1, got {n_iterations}")
    if capacity <= 0:
        raise WorkloadError(f"capacity must be > 0, got {capacity}")
    comm_time = spec.solo_comm_time(capacity)
    trace = StepFunction(initial=0.0, name=f"{spec.job_id}-demand")
    cursor = start_time
    for _ in range(n_iterations):
        comm_start = cursor + spec.compute_time
        trace.set(comm_start, capacity)
        trace.set(comm_start + comm_time, 0.0)
        cursor = comm_start + comm_time
    return trace


# ---------------------------------------------------------------------------
# Online arrival processes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JobArrival:
    """One job arriving at ``time`` and departing at ``time + lifetime``."""

    time: float
    spec: JobSpec
    n_workers: int
    lifetime: float


def poisson_arrivals(
    count: int,
    seed: int = 0,
    mean_interarrival_s: float = 60.0,
    mean_lifetime_s: float = 600.0,
    lifetime_model: str = "exponential",
    pareto_shape: float = 2.5,
    capacity: float = gbps(42),
    period_grid_ms: Sequence[int] = DEFAULT_PERIOD_GRID_MS,
    comm_fraction_range: Tuple[float, float] = (0.1, 0.45),
    worker_choices: Sequence[int] = (2, 4, 8),
    prefix: str = "dyn",
) -> List[JobArrival]:
    """Draw a Poisson arrival stream with randomized job shapes.

    Args:
        count: Number of arrivals.
        seed: Seeds three independent :class:`RandomStreams` substreams
            (arrival gaps, job shapes, lifetimes), so each marginal is
            stable under parameter changes to the others.
        mean_interarrival_s: Mean gap of the exponential arrival process.
        mean_lifetime_s: Mean job lifetime in seconds.
        lifetime_model: ``"exponential"``, ``"pareto"`` (heavy-tailed
            Lomax with the given shape — production traces show a few
            huge jobs dominating GPU-hours) or ``"fixed"``.
        pareto_shape: Lomax shape ``> 1`` (smaller = heavier tail).
        capacity: Profiling bandwidth converting comm time to bytes.
        period_grid_ms: Whole-ms iteration periods to draw from.
        comm_fraction_range: Uniform range of per-job comm fraction.
        worker_choices: Worker counts to draw from.
        prefix: Job ids become ``{prefix}-0``, ``{prefix}-1``, ...

    Returns:
        Arrivals in non-decreasing time order.
    """
    if count < 0:
        raise WorkloadError(f"count must be >= 0, got {count}")
    if mean_interarrival_s <= 0 or mean_lifetime_s <= 0:
        raise WorkloadError("mean interarrival and lifetime must be > 0")
    if lifetime_model not in ("exponential", "pareto", "fixed"):
        raise WorkloadError(f"unknown lifetime model {lifetime_model!r}")
    if lifetime_model == "pareto" and pareto_shape <= 1.0:
        raise WorkloadError("pareto_shape must be > 1 for a finite mean")
    if not period_grid_ms:
        raise WorkloadError("period_grid_ms must be non-empty")
    frac_low, frac_high = comm_fraction_range
    if not 0 < frac_low < frac_high < 1:
        raise WorkloadError(
            "comm_fraction_range must satisfy 0 < low < high < 1"
        )
    streams = RandomStreams(seed)
    gap_rng = streams.get("arrival-gaps")
    shape_rng = streams.get("arrival-shapes")
    life_rng = streams.get("arrival-lifetimes")
    periods = sorted(int(p) for p in period_grid_ms)
    workers = sorted(int(w) for w in worker_choices)
    arrivals: List[JobArrival] = []
    clock = 0.0
    for index in range(count):
        clock += float(gap_rng.exponential(mean_interarrival_s))
        period_ms = periods[int(shape_rng.integers(len(periods)))]
        fraction = float(shape_rng.uniform(frac_low, frac_high))
        # Whole-ms comm phases keep circles exactly on the period grid.
        comm_ms = min(max(round(period_ms * fraction), 1), period_ms - 1)
        n_workers = workers[int(shape_rng.integers(len(workers)))]
        if lifetime_model == "exponential":
            lifetime = float(life_rng.exponential(mean_lifetime_s))
        elif lifetime_model == "pareto":
            scale = mean_lifetime_s * (pareto_shape - 1.0)
            lifetime = float(life_rng.pareto(pareto_shape)) * scale
        else:
            lifetime = mean_lifetime_s
        spec = JobSpec(
            job_id=f"{prefix}-{index}",
            compute_time=milliseconds(period_ms - comm_ms),
            comm_bytes=milliseconds(comm_ms) * capacity,
            n_workers=n_workers,
        )
        arrivals.append(
            JobArrival(
                time=clock,
                spec=spec,
                n_workers=n_workers,
                lifetime=max(lifetime, 1e-6),
            )
        )
    return arrivals

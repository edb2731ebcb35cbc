"""Perf guard: the fault-injection runtime must be free when unused.

An empty :class:`~repro.faults.InjectionSchedule` collapses to a single
NORMAL capacity window and must take the exact clean-run code path, so
attaching one to a DCQCN run (the sender bank) may cost at most
:data:`MAX_OVERHEAD` wall-clock overhead versus ``faults=None`` — and
must stay bit-identical to it. A faulted run is timed alongside for the
artifact record (window boundaries truncate the span fast-forward, so
some slowdown there is expected and not guarded).
"""

import time

import numpy as np

from conftest import print_report

from repro.cc.dcqcn import (
    DEFAULT_TIMER,
    DcqcnFluidSimulator,
    DcqcnParams,
    OnOffDcqcnJob,
)
from repro.faults import InjectionSchedule, LinkFailure, RateChange
from repro.units import gbps

#: Max wall-clock ratio (empty schedule / no schedule) on the sender
#: bank. The empty schedule is the same code path; the margin only
#: absorbs timer noise.
MAX_OVERHEAD = 1.10

_DURATION = 1.2

#: Mid-run perturbations for the informational faulted timing.
_FAULTED = InjectionSchedule(events=(
    RateChange("L1", 0.2, 0.4, 0.5),
    LinkFailure("L1", 0.7, 0.8),
))


def _run(faults):
    sim = DcqcnFluidSimulator(capacity=gbps(50), dt=10e-6, faults=faults)
    params = DcqcnParams(line_rate=gbps(50))
    jobs = []
    for index in range(2):
        job = OnOffDcqcnJob(
            f"J{index + 1}",
            params.with_timer(DEFAULT_TIMER * 2),
            np.random.default_rng(10 + index),
            compute_time=0.1,
            comm_bytes=0.11 * gbps(42),
            start_offset=index * 0.004,
        )
        sim.add_source(job)
        jobs.append(job)
    start = time.perf_counter()
    result = sim.run(_DURATION)
    elapsed = time.perf_counter() - start
    return result, jobs, elapsed


def _best_of(faults, repeats=3):
    best = None
    for _ in range(repeats):
        result, jobs, elapsed = _run(faults)
        if best is None or elapsed < best[2]:
            best = (result, jobs, elapsed)
    return best


def test_faults(benchmark):
    """Empty schedule: bit-identical to faults=None, <= 10% overhead."""
    result_clean, jobs_clean, clean_time = _best_of(None)
    result_empty, jobs_empty, empty_time = _best_of(InjectionSchedule())
    benchmark.pedantic(
        lambda: _run(InjectionSchedule()), iterations=1, rounds=1
    )
    _, _, faulted_time = _best_of(_FAULTED)

    # Identity check: the empty schedule is the clean code path.
    for name in result_clean.rate_series:
        assert np.array_equal(
            result_clean.rate_series[name].values,
            result_empty.rate_series[name].values,
        ), name
    assert np.array_equal(
        result_clean.queue_series.values,
        result_empty.queue_series.values,
    )
    for job_c, job_e in zip(jobs_clean, jobs_empty):
        assert repr(job_c.timeline.__dict__) == repr(job_e.timeline.__dict__)

    overhead = empty_time / clean_time
    benchmark.extra_info["clean_seconds"] = clean_time
    benchmark.extra_info["empty_schedule_seconds"] = empty_time
    benchmark.extra_info["faulted_seconds"] = faulted_time
    benchmark.extra_info["empty_overhead"] = overhead
    benchmark.extra_info["max_overhead"] = MAX_OVERHEAD

    print_report(
        "Fault runtime overhead (DCQCN sender bank, "
        f"{_DURATION:g}s simulated)",
        "\n".join([
            f"faults=None            : {clean_time * 1e3:8.1f} ms",
            f"empty InjectionSchedule: {empty_time * 1e3:8.1f} ms "
            f"({overhead:.3f}x, guard <= {MAX_OVERHEAD:g}x)",
            f"faulted (dip + failure): {faulted_time * 1e3:8.1f} ms "
            "(informational)",
        ]),
    )
    assert overhead <= MAX_OVERHEAD, (
        f"empty-schedule overhead {overhead:.3f}x exceeds "
        f"{MAX_OVERHEAD:g}x"
    )

"""Perf guard: DCQCN sender bank vs the scalar oracle.

Runs the paper's two-job on-off workload (Figure 1's shape) through
``DcqcnFluidSimulator.run`` (the sender bank, "vector") and through the
scalar oracle ``run_scalar_fabric`` ("scalar"), asserts the traces and
timelines are identical, and guards the speedup the bank (span
advancement + idle fast-forward, see docs/PERF.md) must deliver. CI
runs this as its perf smoke leg and fails on any divergence.

A second bench records both loops' seconds at the bank sizes at the
ends of the range — two long-lived senders and 32 — without a floor,
so the history shows where the bank's lead comes from.
"""

import time

import numpy as np

from conftest import print_report, run_dcqcn

from repro.cc.dcqcn import (
    AGGRESSIVE_TIMER,
    DEFAULT_TIMER,
    DcqcnFluidSimulator,
    DcqcnParams,
    OnOffDcqcnJob,
)
from repro.units import gbps

#: Wall-clock factor the sender bank must beat the scalar oracle by on
#: the two-job on-off workload (measured ~4.5x; margin absorbs CI noise).
MIN_SPEEDUP = 3.0

_DURATION = 1.2


def _run(engine: str):
    sim = DcqcnFluidSimulator(capacity=gbps(50), dt=10e-6)
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
    result = run_dcqcn(sim, engine, _DURATION)
    elapsed = time.perf_counter() - start
    return result, jobs, elapsed


def test_sender_bank_speedup(benchmark):
    """The bank is bit-identical to the oracle and >= MIN_SPEEDUP faster."""
    scalar_time = min(_run("scalar")[2] for _ in range(2))
    result_s, jobs_s, _ = _run("scalar")

    result_v, jobs_v, first = _run("vector")
    vector_time = min(first, _run("vector")[2])
    benchmark.pedantic(
        lambda: _run("vector"), iterations=1, rounds=1
    )

    # Divergence check: every sampled series and every timeline must be
    # byte-identical across the two loops — this is what CI fails on.
    for name in result_s.rate_series:
        assert np.array_equal(
            result_s.rate_series[name].times,
            result_v.rate_series[name].times,
        ), name
        assert np.array_equal(
            result_s.rate_series[name].values,
            result_v.rate_series[name].values,
        ), name
    assert np.array_equal(
        result_s.queue_series.values, result_v.queue_series.values
    )
    for job_s, job_v in zip(jobs_s, jobs_v):
        assert repr(job_s.timeline.__dict__) == repr(job_v.timeline.__dict__)

    speedup = scalar_time / vector_time
    benchmark.extra_info["scalar_seconds"] = scalar_time
    benchmark.extra_info["vector_seconds"] = vector_time
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["engines_identical"] = True
    print_report(
        "DCQCN sender bank — vector vs scalar",
        f"scalar: {scalar_time:.3f}s\n"
        f"vector: {vector_time:.3f}s\n"
        f"speedup: {speedup:.2f}x (floor {MIN_SPEEDUP}x)",
    )
    assert speedup >= MIN_SPEEDUP


#: Bank sizes recorded by :func:`test_sender_bank_sizes`: name ->
#: (long-lived senders, simulated seconds).
_SIZES = {"long2": (2, 0.3), "long32": (32, 0.05)}


def _run_long(engine: str, n_senders: int, duration: float):
    sim = DcqcnFluidSimulator(capacity=gbps(50), dt=10e-6)
    params = DcqcnParams(line_rate=gbps(50))
    for index in range(n_senders):
        timer = AGGRESSIVE_TIMER if index % 2 == 0 else DEFAULT_TIMER
        sim.add_sender(
            f"s{index:02d}",
            params.with_timer(timer),
            np.random.default_rng(100 + index),
        )
    start = time.perf_counter()
    result = run_dcqcn(sim, engine, duration)
    return result, time.perf_counter() - start


def test_sender_bank_sizes(benchmark):
    """Both loops' seconds for a 2-sender and a 32-sender bank."""
    lines = []
    for name, (n_senders, duration) in _SIZES.items():
        result_s, scalar_time = _run_long("scalar", n_senders, duration)
        result_v, vector_time = _run_long("vector", n_senders, duration)
        vector_time = min(
            vector_time, _run_long("vector", n_senders, duration)[1]
        )
        for series in result_s.rate_series:
            assert np.array_equal(
                result_s.rate_series[series].values,
                result_v.rate_series[series].values,
            ), series
        benchmark.extra_info[f"{name}_scalar_seconds"] = scalar_time
        benchmark.extra_info[f"{name}_vector_seconds"] = vector_time
        lines.append(
            f"{name}: scalar {scalar_time:.3f}s, vector {vector_time:.3f}s "
            f"({scalar_time / vector_time:.2f}x)"
        )
    benchmark.pedantic(
        lambda: _run_long("vector", *_SIZES["long2"]), iterations=1, rounds=1
    )
    print_report("DCQCN sender bank — bank sizes", "\n".join(lines))

"""Perf guard: multi-link fabric sender bank vs the scalar oracle.

Runs the fat-tree rotation workload (three DCQCN jobs on converging
six-hop routes, see :mod:`repro.experiments.fattree`) through
``DcqcnFluidSimulator.run`` (the sender bank, "vector") and through
the scalar oracle ``run_scalar_fabric`` ("scalar"), asserts every rate
series, per-link queue series and iteration timeline is identical, and
guards the speedup the ``SenderBank`` must deliver over the dt-by-dt
scalar fabric loop. CI runs this as the fat-tree smoke leg and fails on
any divergence.
"""

import time

import numpy as np

from conftest import print_report, run_dcqcn

from repro.cc.dcqcn import (
    DEFAULT_TIMER,
    DcqcnFluidSimulator,
    DcqcnParams,
    OnOffDcqcnJob,
)
from repro.experiments.fattree import FAT_TREE_K, ROTATION_ROUTES
from repro.net.topology import Topology
from repro.units import gbps

#: Wall-clock factor the sender bank must beat the scalar fabric loop
#: by on the three-job rotation workload (measured ~2.1x; margin
#: absorbs CI noise).
MIN_SPEEDUP = 1.4

_DURATION = 0.6
_CAPACITY = gbps(50)


def _run(engine: str):
    sim = DcqcnFluidSimulator(
        capacity=_CAPACITY,
        dt=10e-6,
        topology=Topology.fat_tree(FAT_TREE_K, host_capacity=_CAPACITY),
    )
    params = DcqcnParams(line_rate=_CAPACITY)
    jobs = []
    for index, name in enumerate(sorted(ROTATION_ROUTES)):
        job = OnOffDcqcnJob(
            name,
            params.with_timer(DEFAULT_TIMER * 2),
            np.random.default_rng(20 + index),
            compute_time=0.0016,
            comm_bytes=0.0007 * _CAPACITY,
            start_offset=index * 0.0004,
        )
        sim.add_source(job, route=ROTATION_ROUTES[name])
        jobs.append(job)
    start = time.perf_counter()
    result = run_dcqcn(sim, engine, _DURATION)
    elapsed = time.perf_counter() - start
    return result, jobs, elapsed


def test_fattree_fabric_speedup(benchmark):
    """The fabric bank is bit-identical to the oracle and faster."""
    scalar_time = min(_run("scalar")[2] for _ in range(2))
    result_s, jobs_s, _ = _run("scalar")

    result_v, jobs_v, first = _run("vector")
    vector_time = min(first, _run("vector")[2])
    benchmark.pedantic(
        lambda: _run("vector"), iterations=1, rounds=1
    )

    # Divergence check: every sampled series — per sender and per fabric
    # link — and every timeline must be byte-identical across loops.
    for name in result_s.rate_series:
        assert np.array_equal(
            result_s.rate_series[name].times,
            result_v.rate_series[name].times,
        ), name
        assert np.array_equal(
            result_s.rate_series[name].values,
            result_v.rate_series[name].values,
        ), name
    assert set(result_s.link_queue_series) == set(
        result_v.link_queue_series
    )
    for name in result_s.link_queue_series:
        assert np.array_equal(
            result_s.link_queue_series[name].values,
            result_v.link_queue_series[name].values,
        ), name
    for job_s, job_v in zip(jobs_s, jobs_v):
        assert repr(job_s.timeline.__dict__) == repr(job_v.timeline.__dict__)

    speedup = scalar_time / vector_time
    benchmark.extra_info["scalar_seconds"] = scalar_time
    benchmark.extra_info["vector_seconds"] = vector_time
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["engines_identical"] = True
    benchmark.extra_info["fabric_links"] = len(result_s.link_queue_series)
    print_report(
        "fat-tree fabric — vector vs scalar",
        f"scalar: {scalar_time:.3f}s\n"
        f"vector: {vector_time:.3f}s\n"
        f"speedup: {speedup:.2f}x (floor {MIN_SPEEDUP}x)\n"
        f"fabric links with queue series: "
        f"{len(result_s.link_queue_series)}",
    )
    assert speedup >= MIN_SPEEDUP

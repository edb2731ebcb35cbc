"""Bank/oracle bit-equivalence of the fluid tiers *under* injection.

:meth:`DcqcnFluidSimulator.run` (the sender bank) is bit-identical to
the scalar oracle :func:`repro.cc.link_engine.run_scalar_fabric` on
clean runs. Fault windows add three cases — normal windows at a scaled
capacity, failed-link (freeze) windows and storm windows, plus the span
fast-forward truncating at every window boundary — and each must
preserve the guarantee: same sampled series, same timelines, and the
same number of random draws (so downstream randomness is unshifted).
"""

import numpy as np
import pytest

from conftest import run_dcqcn

from repro.cc.aimd import AimdFluidSimulator
from repro.cc.dcqcn import (
    AGGRESSIVE_TIMER,
    DEFAULT_TIMER,
    DcqcnFluidSimulator,
    DcqcnParams,
    OnOffDcqcnJob,
)
from repro.faults import (
    ClockSkew,
    InjectionSchedule,
    LatencySpike,
    LinkFailure,
    PfcStorm,
    RateChange,
    Straggler,
)
from repro.units import gbps, mbps

#: Mid-run perturbations exercising every window mode, with boundaries
#: deliberately off the sample grid so span truncation is stressed.
SCHEDULES = {
    "rate-spike": InjectionSchedule(events=(
        RateChange("L1", 0.0052, 0.0095, 0.35),
        RateChange("L1", 0.0214, 0.0289, 1.6),
    )),
    "link-failure": InjectionSchedule(events=(
        LinkFailure("L1", 0.0111, 0.0183),
    )),
    "pfc-storm": InjectionSchedule(events=(
        PfcStorm("L1", 0.0077, 0.0121),
    )),
    "job-warps": InjectionSchedule(events=(
        Straggler("J1", 0.0, 0.02, 1.7),
        ClockSkew("J2", 0.01, 0.03, 0.0004),
        LatencySpike("L1", 0.02, 0.04, 0.0003),
    )),
    "everything": InjectionSchedule(events=(
        RateChange("L1", 0.004, 0.008, 0.5),
        PfcStorm("L1", 0.012, 0.015),
        LinkFailure("L1", 0.02, 0.024),
        Straggler("J2", 0.0, 0.05, 1.3),
    ), horizon=0.06),
}


def _series_equal(left, right):
    assert set(left.rate_series) == set(right.rate_series)
    for name, series in left.rate_series.items():
        other = right.rate_series[name]
        assert np.array_equal(series.times, other.times), name
        assert np.array_equal(series.values, other.values), name
    # The DCQCN tier also samples the bottleneck queue; AIMD does not.
    if hasattr(left, "queue_series"):
        assert np.array_equal(
            left.queue_series.times, right.queue_series.times
        )
        assert np.array_equal(
            left.queue_series.values, right.queue_series.values
        )


def _dcqcn(faults):
    sim = DcqcnFluidSimulator(capacity=gbps(50), dt=10e-6, faults=faults)
    params = DcqcnParams(line_rate=gbps(50))
    jobs, rngs = [], []
    for index, timer in enumerate(
        (AGGRESSIVE_TIMER, DEFAULT_TIMER, DEFAULT_TIMER)
    ):
        rng = np.random.default_rng(40 + index)
        job = OnOffDcqcnJob(
            f"J{index + 1}",
            params.with_timer(timer),
            rng,
            compute_time=0.0011,
            comm_bytes=0.0013 * gbps(50),
            start_offset=index * 0.0003,
        )
        sim.add_source(job)
        jobs.append(job)
        rngs.append(rng)
    return sim, jobs, rngs


def _aimd(faults):
    sim = AimdFluidSimulator(
        capacity=mbps(400), dt=1e-3, sample_interval=5e-3, faults=faults,
    )
    for index in range(3):
        # The AIMD tier is jitter-free: no RNG to track.
        sim.add_job(
            f"J{index + 1}",
            compute_time=0.11,
            comm_bytes=0.13 * mbps(400),
            start_offset=index * 0.03,
        )
    return sim


class TestDcqcnFaultEquivalence:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_bit_identical_under_faults(self, name):
        faults = SCHEDULES[name]
        sim_s, jobs_s, rngs_s = _dcqcn(faults)
        sim_v, jobs_v, rngs_v = _dcqcn(faults)
        result_s = run_dcqcn(sim_s, "scalar", 0.05)
        result_v = run_dcqcn(sim_v, "vector", 0.05)
        _series_equal(result_s, result_v)
        for job_s, job_v in zip(jobs_s, jobs_v):
            assert (
                repr(job_s.timeline.__dict__)
                == repr(job_v.timeline.__dict__)
            )
        # Same number of random draws: the generators must sit at the
        # same stream position after the run.
        for rng_s, rng_v in zip(rngs_s, rngs_v):
            assert (
                rng_s.bit_generator.state == rng_v.bit_generator.state
            )

    def test_pfc_pause_counter_matches(self):
        faults = SCHEDULES["pfc-storm"]
        sim_s, _, _ = _dcqcn(faults)
        sim_v, _, _ = _dcqcn(faults)
        run_dcqcn(sim_s, "scalar", 0.05)
        run_dcqcn(sim_v, "vector", 0.05)
        # The storm forcibly accrues pause time in both engines.
        assert sim_s.pfc_pause_seconds > 0.0
        assert sim_s.pfc_pause_seconds == sim_v.pfc_pause_seconds

    def test_capacity_restored_after_run(self):
        faults = SCHEDULES["everything"]
        for engine in ("scalar", "vector"):
            sim, _, _ = _dcqcn(faults)
            base = sim.capacity
            run_dcqcn(sim, engine, 0.05)
            assert sim.capacity == base
            assert sim.queue.capacity == base


class TestAimdFaultEquivalence:
    """AIMD's one tick loop reproduces, bit for bit, the output its
    former scalar and span engines agreed on under each schedule. The
    three link schedules close before the first burst starts (0.11 s),
    so they pin the clean run; ``TestAimdDumbbellIsOneLinkFabric`` in
    ``test_fattree_equivalence.py`` covers windows that hit traffic."""

    PINS = {
        "rate-spike": "b51412e34f3c930c85e40e520f2cf1e1"
        "f8fd8307f84c023647bd5e214deec689",
        "link-failure": "b51412e34f3c930c85e40e520f2cf1e1"
        "f8fd8307f84c023647bd5e214deec689",
        "pfc-storm": "b51412e34f3c930c85e40e520f2cf1e1"
        "f8fd8307f84c023647bd5e214deec689",
        "job-warps": "ea9b837580750a8213a086b74f0ca711"
        "17cb8a34581f0058ae1e83c1eb05fec6",
    }

    @pytest.mark.parametrize(
        "name", ["rate-spike", "link-failure", "pfc-storm", "job-warps"]
    )
    def test_bit_identical_under_faults(self, name, result_digest):
        result = _aimd(SCHEDULES[name]).run(4.0)
        assert result_digest(result) == self.PINS[name]


class TestFaultedVsCleanDiffer:
    """Sanity: the perturbations actually change the dynamics."""

    def test_dcqcn_faulted_run_differs_from_clean(self):
        sim_clean, jobs_clean, _ = _dcqcn(None)
        sim_fault, jobs_fault, _ = _dcqcn(SCHEDULES["everything"])
        clean = sim_clean.run(0.05)
        faulted = sim_fault.run(0.05)
        assert not np.array_equal(
            clean.queue_series.values, faulted.queue_series.values
        )

"""The on-off DCQCN cross-fidelity source: one compute phase and one
DCQCN burst per iteration on the fluid simulator."""

import numpy as np
import pytest

from repro.cc.dcqcn import DcqcnFluidSimulator, DcqcnParams, OnOffDcqcnJob
from repro.errors import ConfigError
from repro.units import gbps


class TestOnOffDcqcnJob:
    def _run_pair(self, timer1, timer2, duration=1.2):
        sim = DcqcnFluidSimulator(capacity=gbps(50), dt=10e-6)
        params = DcqcnParams(line_rate=gbps(50))
        jobs = {}
        for index, (name, timer) in enumerate(
            (("J1", timer1), ("J2", timer2))
        ):
            job = OnOffDcqcnJob(
                name, params.with_timer(timer),
                np.random.default_rng(10 + index),
                compute_time=0.1,
                comm_bytes=0.11 * gbps(42),
                start_offset=index * 0.004,
            )
            jobs[name] = job
            sim.add_source(job)
        sim.run(duration)
        return jobs

    def test_iterations_complete(self):
        jobs = self._run_pair(125e-6, 125e-6)
        for job in jobs.values():
            assert len(job.timeline) >= 3

    def test_iteration_time_bounded_below_by_solo(self):
        jobs = self._run_pair(125e-6, 125e-6)
        # Solo time at the 50 Gbps line rate is compute + bytes/line.
        solo = 0.1 + (0.11 * gbps(42)) / gbps(50)
        for job in jobs.values():
            assert (job.iteration_times() >= solo * 0.999).all()

    def test_rate_zero_while_computing(self):
        params = DcqcnParams()
        job = OnOffDcqcnJob(
            "j", params, np.random.default_rng(0),
            compute_time=1.0, comm_bytes=1e6,
        )
        job.step(0.0, 1e-5, 0.0)
        assert job.rate == 0.0

    def test_comm_starts_after_compute(self):
        jobs = self._run_pair(125e-6, 125e-6, duration=0.5)
        job = jobs["J1"]
        assert job.timeline.samples[0].comm_start == pytest.approx(0.1, abs=1e-3)

    def test_bad_args_rejected(self):
        with pytest.raises(ConfigError):
            OnOffDcqcnJob(
                "j", DcqcnParams(), np.random.default_rng(0),
                compute_time=-1.0, comm_bytes=1e6,
            )
        with pytest.raises(ConfigError):
            OnOffDcqcnJob(
                "j", DcqcnParams(), np.random.default_rng(0),
                compute_time=0.1, comm_bytes=0.0,
            )

    def test_timer_skew_speeds_both_jobs(self):
        fair = self._run_pair(125e-6, 125e-6, duration=2.0)
        unfair = self._run_pair(100e-6, 125e-6, duration=2.0)
        for name in ("J1", "J2"):
            fair_mean = fair[name].iteration_times()[2:].mean()
            unfair_mean = unfair[name].iteration_times()[2:].mean()
            assert unfair_mean < fair_mean * 1.02, name

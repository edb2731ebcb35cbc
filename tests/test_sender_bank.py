"""Vector/scalar engine equivalence for the fixed-step CC simulators.

The vectorized :class:`repro.cc.sender_bank.SenderBank` is required to
be *bit-identical* to the dt-by-dt scalar reference — same sampled
series, same random draws, same timelines — which is a stronger
guarantee than the shared ``repro.floats`` tolerances the rest of the
suite uses. These tests pin that, plus the sample-grid alignment, the
engine-selection plumbing and the AIMD tier's exact output.
"""

import numpy as np
import pytest

from repro.cc.aimd import AimdFluidSimulator, AimdParams
from repro.cc.dcqcn import (
    AGGRESSIVE_TIMER,
    DEFAULT_TIMER,
    DcqcnFluidSimulator,
    DcqcnParams,
    OnOffDcqcnJob,
)
from repro.cc.sender_bank import SenderBank
from repro.errors import ConfigError
from repro.units import gbps, kib, mbps


def _assert_identical(result_scalar, result_vector):
    """Every sampled series matches bit-for-bit across engines."""
    assert set(result_scalar.rate_series) == set(result_vector.rate_series)
    for name, series in result_scalar.rate_series.items():
        other = result_vector.rate_series[name]
        assert np.array_equal(series.times, other.times), name
        assert np.array_equal(series.values, other.values), name


def _onoff_sim(engine, timers, seed0=10, duration_bytes=0.05 * gbps(42)):
    sim = DcqcnFluidSimulator(capacity=gbps(50), dt=10e-6, engine=engine)
    params = DcqcnParams(line_rate=gbps(50))
    jobs = []
    for index, timer in enumerate(timers):
        job = OnOffDcqcnJob(
            f"J{index + 1}",
            params.with_timer(timer),
            np.random.default_rng(seed0 + index),
            compute_time=0.04,
            comm_bytes=duration_bytes,
            start_offset=index * 0.004,
        )
        sim.add_source(job)
        jobs.append(job)
    return sim, jobs


class TestDcqcnEquivalence:
    @pytest.mark.parametrize(
        "timers",
        [
            (DEFAULT_TIMER * 2, DEFAULT_TIMER * 2),  # fair on-off
            (AGGRESSIVE_TIMER, DEFAULT_TIMER),  # unfair on-off
        ],
        ids=["fair", "unfair"],
    )
    def test_onoff_bit_identical(self, timers):
        sim_s, jobs_s = _onoff_sim("scalar", timers)
        sim_v, jobs_v = _onoff_sim("vector", timers)
        result_s = sim_s.run(0.5)
        result_v = sim_v.run(0.5)
        _assert_identical(result_s, result_v)
        assert np.array_equal(
            result_s.queue_series.values, result_v.queue_series.values
        )
        # Timelines must be byte-identical, not merely close.
        for job_s, job_v in zip(jobs_s, jobs_v):
            assert len(job_s.timeline) > 0
            assert (
                repr(job_s.timeline.__dict__)
                == repr(job_v.timeline.__dict__)
            )

    def test_long_lived_senders_bit_identical(self):
        results = {}
        for engine in ("scalar", "vector"):
            sim = DcqcnFluidSimulator(capacity=gbps(50), engine=engine)
            params = DcqcnParams()
            sim.add_sender(
                "fast",
                params.with_timer(AGGRESSIVE_TIMER),
                np.random.default_rng(1),
            )
            sim.add_sender(
                "slow",
                params.with_timer(DEFAULT_TIMER),
                np.random.default_rng(2),
            )
            results[engine] = sim.run(0.08)
        _assert_identical(results["scalar"], results["vector"])
        assert np.array_equal(
            results["scalar"].queue_series.values,
            results["vector"].queue_series.values,
        )

    def test_finite_sender_completion(self):
        results = {}
        for engine in ("scalar", "vector"):
            sim = DcqcnFluidSimulator(capacity=gbps(50), engine=engine)
            sim.add_sender(
                "bulk",
                DcqcnParams(),
                np.random.default_rng(3),
                data_bytes=2e6,
            )
            sim.add_sender(
                "bg", DcqcnParams(), np.random.default_rng(4)
            )
            results[engine] = sim.run(0.02)
        _assert_identical(results["scalar"], results["vector"])

    def test_pfc_pause_bit_identical(self):
        results = {}
        for engine in ("scalar", "vector"):
            sim = DcqcnFluidSimulator(
                capacity=gbps(50),
                engine=engine,
                pfc_pause_threshold=kib(150),
                pfc_resume_threshold=kib(100),
            )
            for index in range(3):
                sim.add_sender(
                    f"s{index}",
                    DcqcnParams(),
                    np.random.default_rng(20 + index),
                )
            results[engine] = sim.run(0.05)
        _assert_identical(results["scalar"], results["vector"])
        assert np.array_equal(
            results["scalar"].queue_series.values,
            results["vector"].queue_series.values,
        )

    def test_many_senders_batched_path(self):
        # A large bank (40 senders on one link) checked against the
        # scalar oracle.
        results = {}
        for engine in ("scalar", "vector"):
            sim = DcqcnFluidSimulator(capacity=gbps(50), engine=engine)
            for index in range(40):
                sim.add_sender(
                    f"s{index:02d}",
                    DcqcnParams(),
                    np.random.default_rng(100 + index),
                )
            results[engine] = sim.run(0.01)
        _assert_identical(results["scalar"], results["vector"])

    def test_custom_source_falls_back_to_scalar(self):
        class ConstantSource:
            name = "const"
            rate = mbps(200)
            done = False

            def step(self, now, dt, marking_probability):
                return self.rate * dt

        sim = DcqcnFluidSimulator(capacity=gbps(50), engine="vector")
        sim.add_source(ConstantSource())
        assert SenderBank.build(sim) is None
        result = sim.run(0.002)  # runs via the scalar reference loop
        assert result.mean_rate("const") == pytest.approx(mbps(200))


class TestSampleGrid:
    def test_samples_land_on_sample_interval_grid(self):
        # Regression: samples used to land one dt *after* each grid
        # point ((k*samples_every + 1) * dt). They must sit exactly on
        # multiples of sample_interval, in both engines.
        for engine in ("scalar", "vector"):
            sim = DcqcnFluidSimulator(
                capacity=gbps(50),
                dt=5e-6,
                sample_interval=250e-6,
                engine=engine,
            )
            sim.add_sender("a", DcqcnParams(), np.random.default_rng(0))
            result = sim.run(0.01)
            times = result.rate_series["a"].times
            expected = np.arange(1, len(times) + 1) * 250e-6
            assert len(times) == 40
            assert np.allclose(times, expected, rtol=0.0, atol=1e-12)

    def test_aimd_samples_land_on_grid(self):
        sim = AimdFluidSimulator(dt=10e-6, sample_interval=500e-6)
        sim.add_sender("a", AimdParams())
        result = sim.run(0.01)
        times = result.rate_series["a"].times
        expected = np.arange(1, len(times) + 1) * 500e-6
        assert len(times) == 20
        assert np.allclose(times, expected, rtol=0.0, atol=1e-12)


class TestEngineSelection:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ConfigError):
            DcqcnFluidSimulator(engine="simd")

    def test_default_engine_is_vector(self):
        assert DcqcnFluidSimulator().engine == "vector"


class TestAimdEquivalence:
    """AIMD's one tick loop reproduces, bit for bit, the output its
    former scalar and span engines agreed on, as a sha256 digest."""

    PIN = "cafeab062f7645d8dfa6f9c372bad5ebd90f35201b55bfa78537067e67f5675a"

    def _build(self):
        sim = AimdFluidSimulator(capacity=gbps(50))
        sim.add_sender("a", AimdParams())
        sim.add_sender("b", AimdParams(increase_rate=gbps(2) / 0.01))
        sim.add_job(
            "J1", compute_time=0.01, comm_bytes=0.01 * gbps(30)
        )
        sim.add_job(
            "J2",
            compute_time=0.012,
            comm_bytes=0.008 * gbps(25),
            start_offset=0.003,
        )
        return sim

    def test_bit_identical(self, result_digest):
        result = self._build().run(0.4)
        for name in result.timelines:
            assert len(result.timelines[name]) > 0
        assert result_digest(result) == self.PIN

"""Shared job-lifecycle core: state machine, timeline, skip semantics.

The refactor's contract is that every fidelity tier drives the *same*
``JobLifecycle``/``JobTimeline`` pair, so the schema and the warm-up
``skip`` behaviour are defined exactly once. These tests pin the core in
isolation and then assert the cross-tier invariant the experiments rely
on: asking for a mean/median with ``skip`` >= completed iterations
raises :class:`SimulationError` on every tier's timeline.
"""

import math

import numpy as np
import pytest

from repro.cc.aimd import AimdFluidSimulator, AimdParams
from repro.cc.fair import FairSharing
from repro.core.lifecycle import JobLifecycle, JobState, OnOffSource
from repro.core.timeline import IterationSample, JobTimeline
from repro.errors import ConfigError, SimulationError, WorkloadError
from repro.faults import InjectionSchedule, LinkFailure
from repro.net.routing import Router
from repro.net.topology import Topology
from repro.runner import RunSpec, ScenarioSpec, SenderSpec, execute
from repro.scheduler.cluster import ClusterState
from repro.scheduler.simulation import ClusterSimulation
from repro.units import gbps, ms
from repro.workloads.job import JobSpec


def sample(index, start, comm_start, end):
    return IterationSample(
        index=index, start=start, comm_start=comm_start, end=end
    )


class TestIterationSample:
    def test_durations(self):
        s = sample(0, 1.0, 1.4, 2.0)
        assert s.duration == pytest.approx(1.0)
        assert s.compute_duration == pytest.approx(0.4)
        assert s.comm_duration == pytest.approx(0.6)

    def test_row_round_trip(self):
        s = sample(3, 0.5, 0.75, 1.25)
        assert IterationSample.from_row(s.to_row()) == s


class TestJobTimeline:
    def timeline(self, n=3, period=1.0):
        t = JobTimeline("J")
        for i in range(n):
            t.record(
                sample(i, i * period, i * period + 0.4, (i + 1) * period)
            )
        return t

    def test_record_enforces_contiguous_indexes(self):
        t = JobTimeline("J")
        with pytest.raises(SimulationError):
            t.record(sample(1, 0.0, 0.4, 1.0))

    def test_views(self):
        t = self.timeline(3)
        assert len(t) == 3
        assert t.iterations == 3
        assert [s.index for s in t] == [0, 1, 2]
        np.testing.assert_allclose(t.iteration_starts, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(t.iteration_ends, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(t.iteration_times(), [1.0, 1.0, 1.0])
        np.testing.assert_allclose(t.comm_times(), [0.6, 0.6, 0.6])
        np.testing.assert_allclose(t.compute_times(), [0.4, 0.4, 0.4])

    def test_skip_drops_warmup(self):
        t = self.timeline(4)
        assert t.iteration_times(skip=2).size == 2
        assert t.mean_iteration_time(skip=3) == pytest.approx(1.0)

    def test_negative_skip_rejected(self):
        with pytest.raises(SimulationError):
            self.timeline().iteration_times(skip=-1)

    def test_skip_consuming_all_iterations_raises(self):
        t = self.timeline(3)
        for skip in (3, 10):
            with pytest.raises(SimulationError, match="after skip"):
                t.mean_iteration_time(skip=skip)
            with pytest.raises(SimulationError, match="after skip"):
                t.median_iteration_time(skip=skip)

    def test_rows_round_trip(self):
        t = self.timeline(3)
        clone = JobTimeline.from_rows(t.job_id, t.to_rows())
        assert clone.samples == t.samples
        assert clone.job_id == "J"


class TestJobLifecycle:
    def test_rejects_empty_segments(self):
        with pytest.raises(ConfigError):
            JobLifecycle("J", segments=())

    def test_rejects_bad_segment(self):
        with pytest.raises(ConfigError):
            JobLifecycle("J", segments=((-0.1, 100.0),))
        with pytest.raises(ConfigError):
            JobLifecycle("J", segments=((0.1, 0.0),))

    def test_rejects_bad_iteration_budget(self):
        with pytest.raises(WorkloadError):
            JobLifecycle("J", segments=((0.1, 100.0),), n_iterations=0)

    def test_rejects_negative_offset(self):
        with pytest.raises(ConfigError):
            JobLifecycle(
                "J", segments=((0.1, 100.0),), start_offset=-1.0
            )

    def test_jitter_requires_rng(self):
        with pytest.raises(ConfigError):
            JobLifecycle(
                "J", segments=((0.1, 100.0),), compute_jitter=0.1
            )

    def test_single_segment_walk(self):
        lc = JobLifecycle("J", segments=((0.1, 100.0),), n_iterations=2)
        assert lc.begin_iteration(0.0) == pytest.approx(0.1)
        assert lc.state is JobState.COMPUTE
        assert lc.begin_comm(0.1) == pytest.approx(100.0)
        assert lc.state is JobState.COMM
        lc.credit(60.0)
        assert lc.remaining_bytes == pytest.approx(40.0)
        lc.credit(40.0)
        done_sample = lc.close_iteration(0.3)
        assert done_sample.index == 0
        assert done_sample.comm_start == pytest.approx(0.1)
        assert not lc.done
        lc.begin_iteration(0.3)
        lc.begin_comm(0.4)
        lc.credit(100.0)
        lc.close_iteration(0.6)
        assert lc.done
        assert lc.iterations_done == 2
        with pytest.raises(SimulationError):
            lc.begin_iteration(0.6)

    def test_multi_segment_walk(self):
        lc = JobLifecycle(
            "J", segments=((0.1, 50.0), (0.05, 30.0)), n_iterations=1
        )
        lc.begin_iteration(0.0)
        assert lc.n_segments == 2
        assert lc.begin_comm(0.1) == pytest.approx(50.0)
        assert lc.has_more_segments
        assert lc.advance_segment(0.2) == pytest.approx(0.05)
        assert not lc.has_more_segments
        assert lc.begin_comm(0.25) == pytest.approx(30.0)
        done_sample = lc.close_iteration(0.3)
        # comm_start pins the iteration's *first* burst.
        assert done_sample.comm_start == pytest.approx(0.1)
        assert lc.done

    def test_gate_may_only_delay(self):
        lc = JobLifecycle(
            "J",
            segments=((0.1, 100.0),),
            gate=lambda job_id, now: now - 1.0,
        )
        lc.begin_iteration(0.0)
        with pytest.raises(SimulationError, match="past time"):
            lc.release_time(0.1)

    def test_gate_release_and_waiting(self):
        lc = JobLifecycle(
            "J",
            segments=((0.1, 100.0),),
            gate=lambda job_id, now: now + 0.5,
        )
        lc.begin_iteration(0.0)
        assert lc.release_time(0.1) == pytest.approx(0.6)
        lc.enter_waiting()
        assert lc.state is JobState.WAITING

    def test_ungated_release_is_now(self):
        lc = JobLifecycle("J", segments=((0.1, 100.0),))
        lc.begin_iteration(0.0)
        assert lc.release_time(0.25) == pytest.approx(0.25)

    def test_zero_jitter_never_touches_rng(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        lc = JobLifecycle(
            "J", segments=((0.1, 100.0),), rng=rng, compute_jitter=0.0
        )
        assert lc.sample_compute_factor() == 1.0
        assert rng.bit_generator.state == before

    def test_jitter_draws_from_rng(self):
        factors = {
            JobLifecycle(
                "J",
                segments=((0.1, 100.0),),
                rng=np.random.default_rng(seed),
                compute_jitter=0.2,
            ).sample_compute_factor()
            for seed in range(4)
        }
        assert len(factors) == 4
        assert all(f >= 0.0 for f in factors)

    def test_for_spec_uses_effective_segments(self):
        spec = JobSpec("J", compute_time=0.1, comm_bytes=100.0)
        lc = JobLifecycle.for_spec(spec, n_iterations=3)
        assert lc.n_segments == len(spec.effective_segments())
        assert lc.segment_comm_bytes() == pytest.approx(
            spec.effective_segments()[0][1]
        )


class _ConstantRateSender:
    """Minimal fluid-sender protocol: drain at a fixed rate."""

    def __init__(self, rate, data_bytes):
        self.rate = rate
        self.remaining = data_bytes

    @property
    def done(self):
        return self.remaining <= 0

    def step(self, now, dt, marking_probability):
        sent = min(self.rate * dt, self.remaining)
        self.remaining -= sent
        return sent


class TestOnOffSource:
    def source(self, n_iterations=2, rate=1000.0):
        lifecycle = JobLifecycle(
            "J", segments=((0.01, 10.0),), n_iterations=n_iterations
        )
        return OnOffSource(
            "J", lifecycle, lambda b: _ConstantRateSender(rate, b)
        )

    def test_silent_while_computing(self):
        source = self.source()
        assert source.step(0.0, 0.001, 0.0) == 0.0
        assert source.rate == 0.0

    def test_completes_iteration_budget(self):
        source = self.source(n_iterations=2)
        now, dt = 0.0, 0.001
        for _ in range(200):
            if source.done:
                break
            source.step(now, dt, 0.0)
            now += dt
        assert source.done
        assert len(source.timeline) == 2
        assert source.iteration_times().size == 2
        # Post-completion steps are inert.
        assert source.step(now, dt, 0.0) == 0.0

    def test_timeline_shape(self):
        source = self.source(n_iterations=1)
        now, dt = 0.0, 0.001
        while not source.done:
            source.step(now, dt, 0.0)
            now += dt
        [s] = source.timeline.samples
        assert s.start == pytest.approx(0.0)
        assert 0.0 < s.comm_start < s.end


CAP = gbps(42)


def phase_run(n_iterations=3):
    spec = RunSpec(
        backend="phase",
        seed=0,
        jobs=(JobSpec("J1", ms(10), ms(5) * CAP),),
        policy=FairSharing(),
        n_iterations=n_iterations,
        capacity=CAP,
    )
    return execute(spec)


def fluid_run():
    spec = RunSpec(
        backend="fluid",
        seed=0,
        capacity=gbps(50),
        duration=0.03,
        options=(("dt", 20e-6),),
        scenarios=(
            ScenarioSpec(
                "only",
                (
                    SenderSpec(
                        "J1",
                        125e-6,
                        compute_time=0.002,
                        comm_bytes=gbps(50) * 0.001,
                    ),
                ),
            ),
        ),
    )
    return execute(spec)


def aimd_run():
    sim = AimdFluidSimulator(capacity=gbps(50), dt=20e-6)
    sim.add_job(
        "J1", compute_time=0.002, comm_bytes=gbps(50) * 0.001,
        # High rate floor: bursts drain quickly even without ramp-up,
        # so the short run completes several iterations.
        params=AimdParams(line_rate=gbps(50), min_rate=gbps(10)),
    )
    return sim.run(0.05)


def cluster_run():
    topology = Topology.leaf_spine(
        n_racks=2, hosts_per_rack=1, n_spines=1,
        host_capacity=CAP, uplink_capacity=CAP,
    )
    spec = RunSpec(
        backend="cluster",
        seed=0,
        policy=FairSharing(),
        topology=topology,
        n_iterations=5,
        capacity=CAP,
        options=(
            (
                "placements",
                (
                    (
                        JobSpec("J1", ms(10), ms(5) * CAP, n_workers=2),
                        ("h0_0", "h1_0"),
                    ),
                ),
            ),
            ("warmup_iterations", 1),
        ),
    )
    return execute(spec)


class TestSkipSemanticsAcrossTiers:
    """skip >= completed iterations raises SimulationError on every tier."""

    def check(self, timeline):
        n = len(timeline)
        assert n > 0
        assert timeline.mean_iteration_time(skip=n - 1) > 0
        with pytest.raises(SimulationError, match="after skip"):
            timeline.mean_iteration_time(skip=n)
        with pytest.raises(SimulationError, match="after skip"):
            timeline.median_iteration_time(skip=n)

    def test_phase_backend(self):
        self.check(phase_run().timelines()["J1"])

    def test_fluid_backend(self):
        self.check(fluid_run().timelines()["J1"])

    def test_aimd_simulator(self):
        result = aimd_run()
        self.check(result.timeline("J1"))
        with pytest.raises(SimulationError, match="after skip"):
            result.mean_iteration_time(
                "J1", skip=len(result.timeline("J1"))
            )

    def test_cluster_backend(self):
        self.check(cluster_run().timelines()["J1"])


class TestAimdOnOffJobs:
    def test_jobs_record_timelines(self):
        result = aimd_run()
        timeline = result.timeline("J1")
        assert len(timeline) >= 2
        assert (timeline.iteration_times() > 0.002).all()

    def test_unknown_timeline_rejected(self):
        result = aimd_run()
        with pytest.raises(SimulationError, match="no timeline"):
            result.timeline("nope")

    def test_jobs_share_with_plain_senders(self):
        sim = AimdFluidSimulator(capacity=gbps(50), dt=20e-6)
        sim.add_sender("bg")
        sim.add_job("J1", compute_time=0.002, comm_bytes=gbps(50) * 0.001)
        result = sim.run(0.05)
        assert "J1" in result.timelines
        assert "bg" not in result.timelines
        assert result.mean_rate("bg") > 0

    def test_timelines_match_pin(self, result_digest):
        # The lifecycle clockwork reproduces, bit for bit, the series and
        # timeline AIMD's former scalar and span engines agreed on.
        sim = AimdFluidSimulator(capacity=gbps(50), dt=20e-6)
        sim.add_sender("bg")
        sim.add_job("J1", compute_time=0.002, comm_bytes=gbps(50) * 0.001)
        result = sim.run(0.1)
        assert len(result.timeline("J1")) >= 2
        assert result_digest(result) == (
            "c7a25d58f1e3ea4bbae68f1a1a367b96"
            "67b78c3883270de47a3e5826776605ab"
        )

    def test_cluster_simulation_reports_timelines(self):
        topology = Topology.leaf_spine(
            n_racks=2, hosts_per_rack=1, n_spines=1,
            host_capacity=CAP, uplink_capacity=CAP,
        )
        cluster = ClusterState(
            topology, gpus_per_host=4, router=Router(topology)
        )
        cluster.place(
            JobSpec("J1", ms(10), ms(5) * CAP, n_workers=2),
            ["h0_0", "h1_0"],
        )
        report = ClusterSimulation(
            cluster, reference_capacity=CAP
        ).run(FairSharing(), n_iterations=5, warmup_iterations=1)
        assert isinstance(report.timelines["J1"], JobTimeline)
        assert len(report.timelines["J1"]) == 5


#: A link failure spanning far past any horizon used below: every job
#: behind it completes zero iterations.
STARVE = InjectionSchedule(events=(LinkFailure("L1", 0.0, 100.0),))


class TestStarvedJobsAcrossTiers:
    """A job starved for the whole run must not crash or hang.

    The contract across every tier: the timeline comes back as a
    well-formed *empty* :class:`JobTimeline` and asking for a mean
    raises the canonical "no iterations after skip" error — the same
    one the warmup-skip path raises — rather than a crash, a division
    by zero, or an unbounded simulation loop.
    """

    def check_empty(self, timeline):
        assert isinstance(timeline, JobTimeline)
        assert len(timeline) == 0
        assert timeline.iterations == 0
        assert list(timeline) == []
        with pytest.raises(SimulationError, match="after skip"):
            timeline.mean_iteration_time(skip=0)

    def test_phase_backend(self):
        spec = RunSpec(
            backend="phase",
            seed=0,
            jobs=(JobSpec("J1", ms(10), ms(5) * CAP),),
            policy=FairSharing(),
            n_iterations=3,
            capacity=CAP,
            until=0.5,
            faults=STARVE,
        )
        self.check_empty(execute(spec).timelines()["J1"])

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_fluid_backend(self, engine):
        spec = RunSpec(
            backend="fluid",
            seed=0,
            capacity=gbps(50),
            duration=0.03,
            options=(("dt", 20e-6), ("engine", engine)),
            scenarios=(
                ScenarioSpec(
                    "only",
                    (
                        SenderSpec(
                            "J1",
                            125e-6,
                            compute_time=0.002,
                            comm_bytes=gbps(50) * 0.001,
                        ),
                    ),
                ),
            ),
            faults=STARVE,
        )
        self.check_empty(execute(spec).timelines()["J1"])

    # "scalar": the job is the dead link's only source; "vector": it
    # shares the link with backlogged plain senders, which must hold
    # their rates while the link is blocked.
    @pytest.mark.parametrize("n_senders", [0, 2], ids=["scalar", "vector"])
    def test_aimd_simulator(self, n_senders):
        sim = AimdFluidSimulator(capacity=gbps(50), dt=20e-6, faults=STARVE)
        params = AimdParams(line_rate=gbps(50), min_rate=gbps(10))
        for index in range(n_senders):
            sim.add_sender(f"bg{index}", params=params)
        sim.add_job(
            "J1", compute_time=0.002, comm_bytes=gbps(50) * 0.001,
            params=params,
        )
        result = sim.run(0.05)
        self.check_empty(result.timeline("J1"))
        with pytest.raises(SimulationError, match="after skip"):
            result.mean_iteration_time("J1", skip=0)
        for index in range(n_senders):
            rates = result.rate_series[f"bg{index}"].values
            assert len(rates) > 0
            assert np.all(rates == params.min_rate)

    def test_cluster_backend_reports_nan(self):
        topology = Topology.leaf_spine(
            n_racks=2, hosts_per_rack=1, n_spines=1,
            host_capacity=CAP, uplink_capacity=CAP,
        )
        cluster = ClusterState(topology)
        cluster.place(
            JobSpec("J1", ms(10), ms(5) * CAP, n_workers=2),
            ("h0_0", "h1_0"),
        )
        faults = InjectionSchedule(
            events=(LinkFailure("h0_0->tor0", 0.0, 100.0),)
        )
        report = ClusterSimulation(cluster, reference_capacity=CAP).run(
            FairSharing(), n_iterations=3, warmup_iterations=1,
            until=0.5, faults=faults,
        )
        self.check_empty(report.timelines["J1"])
        # The report degrades to nan instead of crashing.
        assert math.isnan(report.iteration_ms["J1"])
        assert math.isnan(report.slowdown["J1"])

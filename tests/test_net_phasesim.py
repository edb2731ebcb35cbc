"""Phase-level simulator tests: solo runs, sharing, sliding, gates."""

import gc
import weakref

import numpy as np
import pytest

from repro.cc.adaptive import AdaptiveUnfair
from repro.cc.fair import FairSharing
from repro.cc.priority import PrioritySharing
from repro.cc.weighted import StaticWeighted
from repro.errors import ConfigError, SimulationError, WorkloadError
from repro.net.phasesim import PhaseLevelSimulator
from repro.net.topology import Topology
from repro.units import gbps, ms
from repro.workloads.job import JobSpec

CAP = gbps(42)


def _job(name, compute_ms=100, comm_ms=100, jitter=0.0):
    return JobSpec(
        job_id=name,
        compute_time=ms(compute_ms),
        comm_bytes=ms(comm_ms) * CAP,
        compute_jitter=jitter,
    )


def _dumbbell(n=2):
    return Topology.dumbbell(
        hosts_per_side=n, host_capacity=CAP, bottleneck_capacity=CAP
    )


def _run(specs, policy, n_iterations=10, offsets=None, gates=None, seed=0):
    sim = PhaseLevelSimulator(_dumbbell(len(specs)), policy, seed=seed)
    offsets = offsets or {}
    gates = gates or {}
    for i, spec in enumerate(specs):
        sim.add_job(
            spec, f"ha{i}", f"hb{i}", n_iterations=n_iterations,
            start_offset=offsets.get(spec.job_id, 0.0),
            gate=gates.get(spec.job_id),
        )
    return sim.run()


class TestSoloJob:
    def test_iteration_time_is_exact(self):
        result = _run([_job("J", 100, 50)], FairSharing(), n_iterations=5)
        np.testing.assert_allclose(
            result.iteration_times("J"), ms(150), rtol=1e-9
        )

    def test_iteration_count(self):
        result = _run([_job("J")], FairSharing(), n_iterations=7)
        assert len(result.iteration_times("J")) == 7

    def test_records_have_monotone_times(self):
        result = _run([_job("J")], FairSharing(), n_iterations=5)
        records = result.jobs["J"].records
        for first, second in zip(records, records[1:]):
            assert second.start == pytest.approx(first.end)
            assert first.comm_start > first.start

    def test_start_offset_shifts_everything(self):
        result = _run(
            [_job("J")], FairSharing(), n_iterations=2,
            offsets={"J": 0.5},
        )
        assert result.jobs["J"].records[0].start == pytest.approx(0.5)

    def test_comm_duration_matches_solo_time(self):
        result = _run([_job("J", 100, 70)], FairSharing(), n_iterations=3)
        record = result.jobs["J"].records[0]
        assert record.comm_duration == pytest.approx(ms(70))


class TestFairSharing:
    def test_synchronized_identical_jobs_stay_overlapped(self):
        # Fair sharing pins both jobs at C + 2*Tc forever (Figure 2a).
        specs = [_job("J1", 100, 110), _job("J2", 100, 110)]
        result = _run(specs, FairSharing(), n_iterations=10)
        for job in ("J1", "J2"):
            np.testing.assert_allclose(
                result.iteration_times(job), ms(320), rtol=1e-9
            )

    def test_non_overlapping_jobs_unaffected(self):
        # J2 starts while J1 computes; small comm phases never collide.
        specs = [_job("J1", 200, 20), _job("J2", 200, 20)]
        result = _run(
            specs, FairSharing(), n_iterations=5,
            offsets={"J2": ms(100)},
        )
        for job in ("J1", "J2"):
            np.testing.assert_allclose(
                result.iteration_times(job), ms(220), rtol=1e-9
            )

    def test_bytes_conservation(self):
        # Integrated rate over each comm phase equals comm_bytes.
        spec = _job("J1", 100, 110)
        result = _run([spec, _job("J2", 100, 110)], FairSharing(), 5)
        trace = result.jobs["J1"].rate_trace
        for record in result.jobs["J1"].records:
            moved = trace.integrate(record.comm_start, record.end)
            assert moved == pytest.approx(spec.comm_bytes, rel=1e-6)

    def test_link_load_never_exceeds_capacity(self):
        result = _run(
            [_job("J1", 50, 150), _job("J2", 50, 150)], FairSharing(), 5
        )
        for _, load in result.link_loads["L1"].breakpoints():
            assert load <= CAP * (1 + 1e-9)


class TestUnfairSliding:
    def test_unfairness_speeds_up_both_jobs(self):
        specs = [_job("J1", 100, 110), _job("J2", 100, 110)]
        fair = _run(specs, FairSharing(), n_iterations=30)
        unfair = _run(
            specs,
            StaticWeighted.from_aggressiveness_order(["J1", "J2"]),
            n_iterations=30,
        )
        for job in ("J1", "J2"):
            assert unfair.mean_iteration_time(job, skip=10) < (
                fair.mean_iteration_time(job, skip=10)
            )

    def test_sliding_separates_comm_phases(self):
        # The overlap between comm phases shrinks dramatically from the
        # first iteration (full collision) to steady state (Figure 2b);
        # this workload keeps a small residual because its total comm
        # demand slightly exceeds the solo period.
        specs = [_job("J1", 100, 110), _job("J2", 100, 110)]
        result = _run(
            specs,
            StaticWeighted.from_aggressiveness_order(["J1", "J2"]),
            n_iterations=30,
        )

        def overlap_with_j2(record):
            return sum(
                max(0.0, min(record.end, o.end)
                    - max(record.comm_start, o.comm_start))
                for o in result.jobs["J2"].records
            )

        first = overlap_with_j2(result.jobs["J1"].records[0])
        last = overlap_with_j2(result.jobs["J1"].records[-1])
        assert first > ms(100)  # starts fully collided
        assert last < 0.4 * first

    def test_compatible_jobs_reach_solo_speed(self):
        # 30% comm fraction: two jobs interleave perfectly.
        specs = [_job("J1", 210, 90), _job("J2", 210, 90)]
        unfair = _run(
            specs,
            StaticWeighted.from_aggressiveness_order(["J1", "J2"]),
            n_iterations=40,
        )
        for job in ("J1", "J2"):
            assert unfair.mean_iteration_time(job, skip=20) == pytest.approx(
                ms(300), rel=0.01
            )


class TestPriorityPolicy:
    def test_starved_job_finishes_after_high_priority(self):
        specs = [_job("J1", 100, 100), _job("J2", 100, 100)]
        result = _run(
            specs,
            PrioritySharing({"J1": 2, "J2": 1}),
            n_iterations=3,
        )
        # In the first iteration J1 owns the link; J2's comm waits.
        j1_first = result.jobs["J1"].records[0]
        j2_first = result.jobs["J2"].records[0]
        assert j1_first.end == pytest.approx(ms(200))
        assert j2_first.end == pytest.approx(ms(300))


class TestAdaptivePolicy:
    def test_desynchronized_jobs_converge_to_interleaving(self):
        specs = [_job("J1", 150, 70), _job("J2", 150, 70)]
        result = _run(
            specs, AdaptiveUnfair(), n_iterations=40,
            offsets={"J2": ms(5)},
        )
        for job in ("J1", "J2"):
            assert result.mean_iteration_time(job, skip=25) == pytest.approx(
                ms(220), rel=0.02
            )

    def test_progress_tick_updates_rates(self):
        specs = [_job("J1", 100, 100), _job("J2", 100, 100)]
        result = _run(
            specs, AdaptiveUnfair(reallocation_interval=ms(5)),
            n_iterations=3, offsets={"J2": ms(10)},
        )
        # The rate trace must show more than one level per comm phase.
        trace = result.jobs["J1"].rate_trace
        assert len(trace.breakpoints()) > 6


class TestGates:
    def test_gate_delays_comm_start(self):
        delay_until = 0.5

        def gate(job_id, now):
            return max(now, delay_until)

        result = _run(
            [_job("J", 100, 50)], FairSharing(), n_iterations=1,
            gates={"J": gate},
        )
        record = result.jobs["J"].records[0]
        assert record.comm_start == pytest.approx(0.5)
        assert record.duration == pytest.approx(0.55)

    def test_gate_returning_now_is_transparent(self):
        result = _run(
            [_job("J", 100, 50)], FairSharing(), n_iterations=2,
            gates={"J": lambda job, now: now},
        )
        np.testing.assert_allclose(
            result.iteration_times("J"), ms(150), rtol=1e-9
        )

    def test_gate_in_past_rejected(self):
        with pytest.raises(SimulationError):
            _run(
                [_job("J")], FairSharing(), n_iterations=1,
                gates={"J": lambda job, now: now - 1.0},
            )


class TestJitter:
    def test_jitter_spreads_iteration_times(self):
        result = _run(
            [_job("J", 100, 50, jitter=0.05)], FairSharing(),
            n_iterations=50,
        )
        times = result.iteration_times("J")
        assert times.std() > 0
        assert times.mean() == pytest.approx(ms(150), rel=0.05)

    def test_jitter_is_seeded(self):
        a = _run([_job("J", jitter=0.05)], FairSharing(), 10, seed=3)
        b = _run([_job("J", jitter=0.05)], FairSharing(), 10, seed=3)
        np.testing.assert_allclose(
            a.iteration_times("J"), b.iteration_times("J")
        )


class TestRelease:
    """A finished simulator is freed by reference counting alone, even
    when its horizon leaves events queued."""

    @pytest.mark.parametrize(
        "build_policy",
        [FairSharing, lambda: AdaptiveUnfair(reallocation_interval=ms(5))],
        ids=["fair", "adaptive-tick"],
    )
    def test_freed_without_the_cyclic_gc(self, build_policy):
        gc.disable()
        try:
            sim = PhaseLevelSimulator(_dumbbell(), build_policy())
            sim.add_job(_job("J1"), "ha0", "hb0", n_iterations=100)
            sim.add_job(
                _job("J2"), "ha1", "hb1", n_iterations=100,
                start_offset=ms(30),
            )
            # The horizon cuts both jobs mid-run: their next phase
            # events (and the adaptive policy's tick) stay queued.
            result = sim.run(until=ms(450))
            released = weakref.ref(sim)
            del sim
            assert released() is None
            assert result.jobs["J1"].records
        finally:
            gc.enable()


class TestValidation:
    def test_duplicate_job_id_rejected(self):
        sim = PhaseLevelSimulator(_dumbbell(), FairSharing())
        sim.add_job(_job("J"), "ha0", "hb0", n_iterations=1)
        with pytest.raises(ConfigError):
            sim.add_job(_job("J"), "ha1", "hb1", n_iterations=1)

    def test_zero_iterations_rejected(self):
        sim = PhaseLevelSimulator(_dumbbell(), FairSharing())
        with pytest.raises(WorkloadError):
            sim.add_job(_job("J"), "ha0", "hb0", n_iterations=0)

    def test_run_without_jobs_rejected(self):
        with pytest.raises(SimulationError):
            PhaseLevelSimulator(_dumbbell(), FairSharing()).run()

    def test_same_host_route_rejected(self):
        # A route that crosses no link has no network phase: the job is
        # refused at registration, by name, instead of failing inside
        # the allocator once the run starts.
        sim = PhaseLevelSimulator(_dumbbell(), FairSharing())
        with pytest.raises(ConfigError, match="'J'"):
            sim.add_job(_job("J"), "ha0", "ha0", n_iterations=1)
        assert sim.add_job(_job("K"), "ha0", "hb0", n_iterations=1)

    def test_negative_offset_rejected(self):
        sim = PhaseLevelSimulator(_dumbbell(), FairSharing())
        with pytest.raises(ConfigError):
            sim.add_job(
                _job("J"), "ha0", "hb0", n_iterations=1, start_offset=-1.0
            )

    def test_mean_without_samples_rejected(self):
        result = _run([_job("J")], FairSharing(), n_iterations=2)
        with pytest.raises(SimulationError):
            result.mean_iteration_time("J", skip=10)


class _FixedWeight(FairSharing):
    """Fair sharing whose every weight is one given value."""

    name = "fixed-weight"

    def __init__(self, weight):
        self.weight = weight

    def weight_of(self, flow):
        return self.weight


class TestPolicyWeights:
    """A share weight the allocator cannot use is refused by name.

    On a bad weight the allocator used to fail with an unrelated
    message (0 or below: "flows without links must carry a rate_cap"),
    or to run on: a NaN weight gave a NaN rate and the run stopped with
    no iteration done.
    """

    @pytest.mark.parametrize(
        "weight", [0.0, -1.0, float("nan"), float("inf")],
        ids=["zero", "negative", "nan", "inf"],
    )
    def test_bad_weight_names_policy_job_and_weight(self, weight):
        sim = PhaseLevelSimulator(_dumbbell(), _FixedWeight(weight))
        sim.add_job(_job("J"), "ha0", "hb0", n_iterations=2)
        with pytest.raises(ConfigError) as info:
            sim.run()
        message = str(info.value)
        assert "'fixed-weight'" in message
        assert "'J'" in message
        assert repr(weight) in message

    def test_finite_positive_weight_runs(self):
        result = _run([_job("J")], _FixedWeight(2.5), n_iterations=2)
        assert result.jobs["J"].iterations_done == 2

"""Mechanism tests: unfair CC bridge, priority assignment, flow gates."""

import pytest

from repro.cc.adaptive import AdaptiveUnfair
from repro.cc.dcqcn import calibrate_timer_weights
from repro.cc.weighted import StaticWeighted
from repro.core.circle import JobCircle
from repro.core.compatibility import CompatibilityChecker
from repro.errors import ConfigError
from repro.mechanisms.flow_scheduling import FlowSchedule, PeriodicGate
from repro.mechanisms.priorities import PriorityAssigner
from repro.core.rotation import CommWindow
from repro.units import gbps, ms
from repro.workloads.job import JobSpec


class TestUnfairCcBridge:
    """§4(i) from the share policies and the timer calibration."""

    def test_adaptive_policy_defaults(self):
        policy = AdaptiveUnfair()
        assert policy.gain == 1.0

    def test_aggressiveness_policy(self):
        policy = StaticWeighted.from_aggressiveness_order(["a", "b", "c"])
        assert policy.weight_for_job("a") > policy.weight_for_job("b")

    def test_timer_skew_policy_orders_weights(self):
        timers = {"fast": 100e-6, "slow": 125e-6}
        weight_by_timer = calibrate_timer_weights(
            sorted(timers.values()), duration=0.08, seed=1
        )
        policy = StaticWeighted(
            {job: weight_by_timer[timer] for job, timer in timers.items()}
        )
        assert policy.weight_for_job("fast") > policy.weight_for_job("slow")

    def test_timer_skew_empty_rejected(self):
        with pytest.raises(ConfigError):
            calibrate_timer_weights([])


class TestPriorityAssigner:
    def test_unique_descending(self):
        assignment = PriorityAssigner().assign(["a", "b", "c"])
        ps = [assignment.priorities[j] for j in ("a", "b", "c")]
        assert ps == sorted(ps, reverse=True)
        assert len(set(ps)) == 3
        assert assignment.overflowed == []

    def test_queue_budget_overflow(self):
        assigner = PriorityAssigner(n_queues=3)
        jobs = [f"j{i}" for i in range(5)]
        assignment = assigner.assign(jobs)
        assert assignment.overflowed == ["j2", "j3", "j4"]
        # Overflowed jobs share the lowest class.
        assert all(
            assignment.priorities[j] == 0 for j in assignment.overflowed
        )

    def test_within_budget_no_overflow(self):
        assignment = PriorityAssigner(n_queues=8).assign(["a", "b"])
        assert assignment.overflowed == []

    def test_policy_export(self):
        assignment = PriorityAssigner().assign(["a", "b"])
        policy = assignment.policy()
        assert policy.priority_for_job("a") > policy.priority_for_job("b")

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError):
            PriorityAssigner().assign(["a", "a"])

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigError):
            PriorityAssigner(n_queues=0)


class TestPeriodicGate:
    def _window(self, start, length, period=100):
        return CommWindow(job_id="j", start=start, length=length,
                          period=period)

    def test_inside_window_passes(self):
        gate = PeriodicGate([self._window(20, 30)], ticks_per_second=1000)
        assert gate("j", 0.025) == pytest.approx(0.025)

    def test_before_window_waits(self):
        gate = PeriodicGate([self._window(20, 30)], ticks_per_second=1000)
        assert gate("j", 0.010) == pytest.approx(0.020)

    def test_after_window_waits_for_next_period(self):
        gate = PeriodicGate([self._window(20, 30)], ticks_per_second=1000)
        assert gate("j", 0.060) == pytest.approx(0.120)

    def test_multiple_windows_pick_earliest(self):
        gate = PeriodicGate(
            [self._window(20, 10), self._window(70, 10)],
            ticks_per_second=1000,
        )
        assert gate("j", 0.040) == pytest.approx(0.070)

    def test_periodicity(self):
        gate = PeriodicGate([self._window(20, 30)], ticks_per_second=1000)
        assert gate("j", 0.310) == pytest.approx(0.320)

    def test_slack_narrows_admission(self):
        gate = PeriodicGate(
            [self._window(20, 30)], ticks_per_second=1000, slack=0.1
        )
        # Only the first 3 ticks of the window admit a start.
        assert gate("j", 0.0215) == pytest.approx(0.0215)
        assert gate("j", 0.030) == pytest.approx(0.120)

    def test_validation(self):
        with pytest.raises(ConfigError):
            PeriodicGate([], ticks_per_second=1000)
        with pytest.raises(ConfigError):
            PeriodicGate([self._window(0, 10)], ticks_per_second=0)
        with pytest.raises(ConfigError):
            PeriodicGate(
                [self._window(0, 10)], ticks_per_second=1000, slack=0.0
            )
        with pytest.raises(ConfigError):
            PeriodicGate(
                [self._window(0, 10, period=100),
                 self._window(0, 10, period=200)],
                ticks_per_second=1000,
            )


class TestFlowSchedule:
    def _compatible_setup(self):
        checker = CompatibilityChecker(capacity=gbps(42))
        specs = [
            JobSpec("a", ms(210), ms(90) * gbps(42)),
            JobSpec("b", ms(210), ms(90) * gbps(42)),
        ]
        circles = checker.circles(specs)
        result = checker.check(specs)
        return checker, circles, result

    def test_from_compatibility(self):
        checker, circles, result = self._compatible_setup()
        schedule = FlowSchedule.from_compatibility(
            circles, result, checker.ticks_per_second
        )
        assert set(schedule.windows) == {"a", "b"}

    def test_incompatible_rejected(self):
        checker = CompatibilityChecker(capacity=gbps(42))
        specs = [
            JobSpec("a", ms(100), ms(110) * gbps(42)),
            JobSpec("b", ms(100), ms(110) * gbps(42)),
        ]
        result = checker.check(specs)
        with pytest.raises(ConfigError):
            FlowSchedule.from_compatibility(
                checker.circles(specs), result, checker.ticks_per_second
            )

    def test_gates_for_all_jobs(self):
        checker, circles, result = self._compatible_setup()
        schedule = FlowSchedule.from_compatibility(
            circles, result, checker.ticks_per_second
        )
        gates = schedule.gates()
        assert set(gates) == {"a", "b"}

    def test_unknown_job_gate_rejected(self):
        checker, circles, result = self._compatible_setup()
        schedule = FlowSchedule.from_compatibility(
            circles, result, checker.ticks_per_second
        )
        with pytest.raises(ConfigError):
            schedule.gate_for("ghost")

    def test_gated_windows_never_admit_simultaneously(self):
        # At every instant at most one job's gate admits a fresh start —
        # the disjoint-window property that kills comm collisions.
        checker, circles, result = self._compatible_setup()
        schedule = FlowSchedule.from_compatibility(
            circles, result, checker.ticks_per_second
        )
        gates = schedule.gates()
        period = 0.3  # unified period of the 300 ms pair
        for step in range(300):
            t = step * period / 300
            admitted = [
                job for job, gate in gates.items()
                if gate(job, t) == t
            ]
            assert len(admitted) <= 1, t

"""Simulator-loop tests: clock semantics, run bounds, stop/reset, and the
dispatch contract of the loop that pops the heap itself."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue
from repro.telemetry import Telemetry


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_relative(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_schedule_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule_at(0.5, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_chain(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(("first", sim.now))
            sim.schedule(1.0, second)

        def second():
            seen.append(("second", sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [("first", 1.0), ("second", 2.0)]

    def test_args_passed(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.1, seen.append, "payload")
        sim.run()
        assert seen == ["payload"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_refused(self, bad):
        """A NaN time compares false both ways, so in the heap it breaks
        the order: after 2.0, NaN, 1.0 and 0.5 a run would raise "event
        time 0.5 precedes clock 1.0". Every push refuses a non-finite
        time, and the rest of the schedule runs in time order."""
        sim = Simulator()
        seen = []
        sim.schedule(2.0, seen.append, 2.0)
        with pytest.raises(SimulationError, match="finite"):
            sim.schedule(bad, seen.append, bad)
        with pytest.raises(SimulationError, match="finite"):
            sim.schedule_at(bad, seen.append, bad)
        with pytest.raises(SimulationError, match="finite"):
            EventQueue().push(bad, seen.append, (bad,))
        sim.schedule(1.0, seen.append, 1.0)
        sim.schedule(0.5, seen.append, 0.5)
        sim.run()
        assert seen == [0.5, 1.0, 2.0]
        assert sim.events_executed == 3


class TestRunBounds:
    def test_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        end = sim.run(until=10.0)
        assert end == 10.0
        assert sim.now == 10.0

    def test_until_excludes_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "early")
        sim.schedule(5.0, seen.append, "late")
        sim.run(until=2.0)
        assert seen == ["early"]
        # The late event survives for a further run.
        sim.run()
        assert seen == ["early", "late"]

    def test_run_has_no_event_budget(self):
        """``run`` takes no ``max_events``: a run that stopped on such a
        budget moved the clock to ``until`` past pending events, so the
        next run raised. Events at 1.0 and 2.0 both run before the clock
        reaches ``until``, and a further run finds nothing behind it."""
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, 1.0)
        sim.schedule(2.0, seen.append, 2.0)
        with pytest.raises(TypeError):
            sim.run(until=5.0, max_events=1)
        assert sim.now == 0.0 and seen == []
        assert sim.run(until=5.0) == 5.0
        assert seen == [1.0, 2.0]
        assert sim.pending_events == 0
        sim.run()
        assert sim.now == 5.0

    def test_stop_from_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: (seen.append("a"), sim.stop()))
        sim.schedule(2.0, seen.append, "b")
        sim.run()
        assert seen[-1] != "b"

    def test_events_executed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 4

    def test_cancel_pending(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, seen.append, "nope")
        sim.cancel(event)
        sim.run()
        assert seen == []
        assert sim.pending_events == 0


class TestDispatchContract:
    """What :meth:`Simulator.run` promises for each heap entry it pops."""

    def test_callback_cancels_a_later_pending_event(self):
        sim = Simulator()
        seen = []
        later = sim.schedule(2.0, seen.append, "cancelled")
        sim.schedule(1.0, lambda: (seen.append("first"), sim.cancel(later)))
        sim.schedule(3.0, seen.append, "last")
        assert sim.run() == 3.0
        assert seen == ["first", "last"]
        assert sim.events_executed == 2
        assert sim.pending_events == 0

    def test_schedule_at_the_current_instant(self):
        """Events pushed for the current instant join the same-time
        events by ``(priority, seq)``: one of a lower priority value
        runs next, one of the same priority after those already queued,
        and both before a higher priority value queued earlier."""
        sim = Simulator()
        seen = []

        def spawn():
            seen.append("spawn")
            sim.schedule(0.0, seen.append, "now")
            sim.schedule_at(sim.now, seen.append, "now, priority -1",
                            priority=-1)

        sim.schedule(1.0, spawn)
        sim.schedule(1.0, seen.append, "queued, priority 0")
        sim.schedule(1.0, seen.append, "queued, priority 1", priority=1)
        sim.schedule(2.0, seen.append, "later")
        sim.run()
        assert seen == [
            "spawn", "now, priority -1", "queued, priority 0", "now",
            "queued, priority 1", "later",
        ]
        assert sim.now == 2.0

    def test_counts_are_dispatched_events_only(self):
        session = Telemetry()
        sim = Simulator(telemetry=session)
        events = [sim.schedule(float(t), lambda: None) for t in range(1, 7)]
        for event in events[::2]:
            sim.cancel(event)
        sim.run()
        assert sim.events_executed == 3
        assert session.registry.snapshot()["counters"]["sim.events"] == 3.0


class TestReset:
    def test_reset_rewinds(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.events_executed == 0
        assert sim.pending_events == 0

    def test_drop_pending_keeps_the_clock(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        sim.run(until=2.0)
        sim.drop_pending()
        assert sim.now == 2.0
        assert sim.events_executed == 1
        assert sim.pending_events == 0
        assert sim.run() == 2.0

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(errors) == 1

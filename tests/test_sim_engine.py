"""Simulator-loop tests: clock semantics, run bounds, stop/reset."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


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

    def test_max_events(self):
        sim = Simulator()
        seen = []
        for i in range(5):
            sim.schedule(float(i + 1), seen.append, i)
        sim.run(max_events=3)
        assert seen == [0, 1, 2]

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

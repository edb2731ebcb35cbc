"""Switch-model tests: fluid queue, ECN marking, priority, WFQ, AIMD."""

import pytest

from repro.cc.aimd import AimdFluidSimulator, AimdParams
from repro.errors import ConfigError, SimulationError
from repro.switches.ecn import RedEcnMarker
from repro.switches.priority import StrictPriorityScheduler
from repro.switches.queues import FluidQueue
from repro.switches.wfq import WeightedFairScheduler
from repro.units import gbps, kib


class TestFluidQueue:
    def test_builds_under_overload(self):
        q = FluidQueue(capacity=100.0)
        q.step(arrival_rate=150.0, dt=1.0)
        assert q.occupancy == pytest.approx(50.0)

    def test_drains_under_underload(self):
        q = FluidQueue(capacity=100.0)
        q.step(150.0, 1.0)
        q.step(0.0, 0.25)
        assert q.occupancy == pytest.approx(25.0)

    def test_never_negative(self):
        q = FluidQueue(capacity=100.0)
        q.step(0.0, 10.0)
        assert q.occupancy == 0.0

    def test_tail_drop_accounts_bytes(self):
        q = FluidQueue(capacity=100.0, max_occupancy=10.0)
        q.step(200.0, 1.0)
        assert q.occupancy == 10.0
        assert q.dropped_bytes == pytest.approx(90.0)

    def test_reset(self):
        q = FluidQueue(capacity=100.0, max_occupancy=10.0)
        q.step(200.0, 1.0)
        q.reset()
        assert q.occupancy == 0.0
        assert q.dropped_bytes == 0.0

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigError):
            FluidQueue(capacity=0.0)

    def test_negative_dt_rejected(self):
        with pytest.raises(ConfigError):
            FluidQueue(100.0).step(1.0, -0.1)


class TestRedEcn:
    def test_no_marking_below_kmin(self):
        marker = RedEcnMarker(kmin=100, kmax=400, pmax=0.1)
        assert marker.marking_probability(50) == 0.0
        assert marker.marking_probability(100) == 0.0

    def test_certain_marking_above_kmax(self):
        marker = RedEcnMarker(kmin=100, kmax=400, pmax=0.1)
        assert marker.marking_probability(400) == 1.0
        assert marker.marking_probability(1000) == 1.0

    def test_linear_ramp(self):
        marker = RedEcnMarker(kmin=100, kmax=300, pmax=0.2)
        assert marker.marking_probability(200) == pytest.approx(0.1)

    def test_monotone(self):
        marker = RedEcnMarker()
        probs = [
            marker.marking_probability(q)
            for q in (0, kib(50), kib(150), kib(300), kib(500))
        ]
        assert probs == sorted(probs)

    def test_bad_thresholds_rejected(self):
        with pytest.raises(ConfigError):
            RedEcnMarker(kmin=400, kmax=100)
        with pytest.raises(ConfigError):
            RedEcnMarker(pmax=0.0)


class TestStrictPriority:
    def test_highest_class_served_first(self):
        sched = StrictPriorityScheduler(capacity=100.0)
        rates = sched.service_rates({2: 80.0, 1: 80.0})
        assert rates[2] == 80.0
        assert rates[1] == 20.0

    def test_no_demand_no_service(self):
        sched = StrictPriorityScheduler(100.0)
        assert sched.service_rates({1: 0.0}) == {1: 0.0}

    def test_underload_serves_everyone(self):
        sched = StrictPriorityScheduler(100.0)
        rates = sched.service_rates({3: 30.0, 2: 30.0, 1: 30.0})
        assert sum(rates.values()) == pytest.approx(90.0)

    def test_total_never_exceeds_capacity(self):
        sched = StrictPriorityScheduler(100.0)
        rates = sched.service_rates({5: 70.0, 4: 70.0, 3: 70.0})
        assert sum(rates.values()) == pytest.approx(100.0)

    def test_negative_demand_rejected(self):
        with pytest.raises(ConfigError):
            StrictPriorityScheduler(100.0).service_rates({1: -5.0})


class TestWfq:
    def test_backlogged_flows_split_by_weight(self):
        sched = WeightedFairScheduler(90.0)
        rates = sched.service_rates(
            {"a": (2.0, 1000.0), "b": (1.0, 1000.0)}
        )
        assert rates["a"] == pytest.approx(60.0)
        assert rates["b"] == pytest.approx(30.0)

    def test_demand_limited_flow_releases_capacity(self):
        sched = WeightedFairScheduler(90.0)
        rates = sched.service_rates({"a": (1.0, 10.0), "b": (1.0, 1000.0)})
        assert rates["a"] == pytest.approx(10.0)
        assert rates["b"] == pytest.approx(80.0)

    def test_no_flow_exceeds_demand(self):
        sched = WeightedFairScheduler(1000.0)
        rates = sched.service_rates({"a": (1.0, 5.0), "b": (3.0, 7.0)})
        assert rates["a"] == pytest.approx(5.0)
        assert rates["b"] == pytest.approx(7.0)

    def test_zero_demand(self):
        sched = WeightedFairScheduler(10.0)
        assert sched.service_rates({"a": (1.0, 0.0)}) == {"a": 0.0}

    def test_bad_weight_rejected(self):
        with pytest.raises(ConfigError):
            WeightedFairScheduler(10.0).service_rates({"a": (0.0, 1.0)})


class TestAimd:
    def test_two_senders_converge_to_rough_fairness(self):
        sim = AimdFluidSimulator(capacity=gbps(40), buffer_bytes=kib(256))
        sim.add_sender("a")
        sim.add_sender("b")
        result = sim.run(0.4)
        ra = result.mean_rate("a", start=0.2)
        rb = result.mean_rate("b", start=0.2)
        # Synchronized AIMD is exactly fair in the fluid model.
        assert ra == pytest.approx(rb, rel=0.05)

    def test_single_sender_saturates(self):
        sim = AimdFluidSimulator(capacity=gbps(10))
        sim.add_sender("a", AimdParams(line_rate=gbps(50)))
        result = sim.run(0.5)
        assert result.mean_rate("a", start=0.3) > gbps(8)

    def test_run_without_senders_rejected(self):
        with pytest.raises(SimulationError):
            AimdFluidSimulator().run(0.01)

    def test_bad_decrease_factor_rejected(self):
        with pytest.raises(ConfigError):
            AimdParams(decrease_factor=1.0)

    @pytest.mark.parametrize(
        "min_rate", [gbps(2), 0.0, -1.0],
        ids=["above-line-rate", "zero", "negative"],
    )
    def test_min_rate_outside_line_rate_rejected(self, min_rate):
        # A floor above the line rate would lift a cut sender past its
        # NIC: on a 0.5 Gbps link it sampled at twice its line rate.
        with pytest.raises(ConfigError, match="min_rate"):
            AimdParams(line_rate=gbps(1), min_rate=min_rate)
        floor = AimdParams(line_rate=gbps(1), min_rate=gbps(1)).min_rate
        assert floor == gbps(1)

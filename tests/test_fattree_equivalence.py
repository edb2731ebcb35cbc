"""Bank/oracle bit-equivalence of the multi-link fabric tier.

The fabric tier's two loops — the scalar oracle
(:func:`repro.cc.link_engine.run_scalar_fabric`, the ``scalar`` cases)
and :meth:`DcqcnFluidSimulator.run` through the
:class:`repro.cc.sender_bank.SenderBank` (the ``vector`` cases) — must
agree exactly: same sampled rate series, same per-link queue series,
same timelines and the same number of random draws, on clean runs and
under fault schedules that target *different* links of the same fabric.
The dumbbell must also be exactly the 1-link fabric, since both run on
these loops.
"""

import numpy as np
import pytest

from conftest import run_dcqcn

from repro.cc.aimd import AimdFluidSimulator, AimdParams
from repro.cc.dcqcn import (
    AGGRESSIVE_TIMER,
    DEFAULT_TIMER,
    DcqcnFluidSimulator,
    DcqcnParams,
    OnOffDcqcnJob,
)
from repro.errors import ConfigError, TopologyError
from repro.faults import (
    InjectionSchedule,
    LatencySpike,
    LinkFailure,
    PfcStorm,
    RateChange,
    Straggler,
)
from repro.net.topology import BOTTLENECK, Topology
from repro.units import gbps, kib, mbps

# Three jobs on a k=4 fat tree, all converging on pod 1's downlinks so
# the shared links genuinely queue: J1/J2 start in pod 0 (sharing that
# pod's uplink), J3 in pod 2, and all three ride core0 -> agg1_0 ->
# edge1_0 down to pod 1 hosts.
ROUTES = {
    "J1": (
        "h0_0_0->edge0_0", "up_0_0_0", "core_0_0_0",
        "core_1_0_0_rev", "up_1_0_0_rev", "edge1_0->h1_0_0",
    ),
    "J2": (
        "h0_0_1->edge0_0", "up_0_0_0", "core_0_0_0",
        "core_1_0_0_rev", "up_1_0_0_rev", "edge1_0->h1_0_1",
    ),
    "J3": (
        "h2_0_0->edge2_0", "up_2_0_0", "core_2_0_0",
        "core_1_0_0_rev", "up_1_0_0_rev", "edge1_0->h1_0_0",
    ),
}

#: Mid-run perturbations hitting *different* fabric links, with window
#: boundaries off the sample grid so span truncation is stressed.
SCHEDULES = {
    "clean": None,
    "rate-dip": InjectionSchedule(events=(
        RateChange("core_1_0_0_rev", 0.0052, 0.0095, 0.35),
        RateChange("up_0_0_0", 0.0214, 0.0289, 1.6),
    )),
    "link-failure": InjectionSchedule(events=(
        LinkFailure("up_2_0_0", 0.0111, 0.0183),
    )),
    "pfc-storm": InjectionSchedule(events=(
        PfcStorm("core_1_0_0_rev", 0.0077, 0.0121),
    )),
    "everything": InjectionSchedule(events=(
        RateChange("core_0_0_0", 0.004, 0.008, 0.5),
        PfcStorm("up_1_0_0_rev", 0.012, 0.015),
        LinkFailure("up_0_0_0", 0.02, 0.024),
        Straggler("J2", 0.0, 0.05, 1.3),
        LatencySpike("core_2_0_0", 0.02, 0.04, 0.0003),
    ), horizon=0.06),
}


def _series_equal(left, right):
    assert set(left.rate_series) == set(right.rate_series)
    for name, series in left.rate_series.items():
        other = right.rate_series[name]
        assert np.array_equal(series.times, other.times), name
        assert np.array_equal(series.values, other.values), name
    if hasattr(left, "queue_series"):
        assert np.array_equal(
            left.queue_series.times, right.queue_series.times
        )
        assert np.array_equal(
            left.queue_series.values, right.queue_series.values
        )
        assert set(left.link_queue_series) == set(right.link_queue_series)
        for name, series in left.link_queue_series.items():
            other = right.link_queue_series[name]
            assert np.array_equal(series.times, other.times), name
            assert np.array_equal(series.values, other.values), name


def _dcqcn(faults, pfc=False):
    sim = DcqcnFluidSimulator(
        dt=10e-6,
        faults=faults,
        topology=Topology.fat_tree(4),
        pfc_pause_threshold=200 * kib(1) if pfc else None,
    )
    params = DcqcnParams(line_rate=gbps(50))
    jobs, rngs = [], []
    for index, (name, timer) in enumerate(zip(
        sorted(ROUTES), (AGGRESSIVE_TIMER, DEFAULT_TIMER, DEFAULT_TIMER)
    )):
        rng = np.random.default_rng(40 + index)
        job = OnOffDcqcnJob(
            name,
            params.with_timer(timer),
            rng,
            compute_time=0.0011,
            comm_bytes=0.0013 * gbps(50),
            start_offset=index * 0.0003,
        )
        sim.add_source(job, route=ROUTES[name])
        jobs.append(job)
        rngs.append(rng)
    return sim, jobs, rngs


def _aimd(faults):
    sim = AimdFluidSimulator(
        buffer_bytes=kib(64), dt=1e-3, sample_interval=5e-3, faults=faults,
        topology=Topology.fat_tree(4, host_capacity=mbps(400)),
    )
    for index, name in enumerate(sorted(ROUTES)):
        sim.add_job(
            name,
            compute_time=0.11,
            comm_bytes=0.13 * mbps(400),
            start_offset=index * 0.03,
            route=ROUTES[name],
        )
    return sim


class TestDcqcnFabricEquivalence:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_bit_identical(self, name):
        faults = SCHEDULES[name]
        sim_s, jobs_s, rngs_s = _dcqcn(faults)
        sim_v, jobs_v, rngs_v = _dcqcn(faults)
        result_s = run_dcqcn(sim_s, "scalar", 0.05)
        result_v = run_dcqcn(sim_v, "vector", 0.05)
        assert set(result_s.link_queue_series)  # fabric series exist
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

    @pytest.mark.parametrize("name", ["clean", "pfc-storm"])
    def test_bit_identical_with_pfc(self, name):
        faults = SCHEDULES[name]
        sim_s, _, rngs_s = _dcqcn(faults, pfc=True)
        sim_v, _, rngs_v = _dcqcn(faults, pfc=True)
        result_s = run_dcqcn(sim_s, "scalar", 0.05)
        result_v = run_dcqcn(sim_v, "vector", 0.05)
        _series_equal(result_s, result_v)
        assert sim_s.pfc_pause_seconds == sim_v.pfc_pause_seconds
        for rng_s, rng_v in zip(rngs_s, rngs_v):
            assert (
                rng_s.bit_generator.state == rng_v.bit_generator.state
            )

    def test_storm_accrues_pause_time(self):
        sim_s, _, _ = _dcqcn(SCHEDULES["pfc-storm"])
        sim_v, _, _ = _dcqcn(SCHEDULES["pfc-storm"])
        run_dcqcn(sim_s, "scalar", 0.05)
        run_dcqcn(sim_v, "vector", 0.05)
        assert sim_s.pfc_pause_seconds > 0.0
        assert sim_s.pfc_pause_seconds == sim_v.pfc_pause_seconds

    def test_capacity_restored_after_run(self):
        for engine in ("scalar", "vector"):
            sim, _, _ = _dcqcn(SCHEDULES["everything"])
            run_dcqcn(sim, engine, 0.05)
            for queue, base in zip(
                sim.fabric.queues, sim.fabric.base_caps
            ):
                assert queue.capacity == base

    def test_faulted_run_differs_from_clean(self):
        sim_clean, _, _ = _dcqcn(None)
        sim_fault, _, _ = _dcqcn(SCHEDULES["everything"])
        clean = sim_clean.run(0.05)
        faulted = sim_fault.run(0.05)
        assert not np.array_equal(
            clean.queue_series.values, faulted.queue_series.values
        )

    def test_shared_links_actually_congest(self):
        sim, _, _ = _dcqcn(None)
        result = sim.run(0.05)
        # Three 50 Gbps flows converge on the pod-1 downlinks: the
        # shared hops must queue, private host uplinks must not.
        assert result.link_queue_series["core_1_0_0_rev"].values.max() > 0
        assert result.link_queue_series["h0_0_0->edge0_0"].values.max() == 0


#: Single-link schedules for the dumbbell ≡ 1-link-fabric check. Every
#: window mode plus job warps; ``{link}`` is the bottleneck's name.
ONE_LINK_SCHEDULES = {
    "clean": lambda link: None,
    "rate-dip": lambda link: InjectionSchedule(events=(
        RateChange(link, 0.0052, 0.0095, 0.35),
        RateChange(link, 0.0134, 0.0171, 1.6),
    )),
    "link-failure": lambda link: InjectionSchedule(events=(
        LinkFailure(link, 0.0061, 0.0113),
    )),
    "pfc-storm": lambda link: InjectionSchedule(events=(
        PfcStorm(link, 0.0077, 0.0121),
    )),
    "straggler": lambda link: InjectionSchedule(events=(
        Straggler("J1", 0.0, 0.02, 1.7),
        LatencySpike(link, 0.008, 0.016, 0.0003),
    )),
}


def _one_link(schedule, link, fabric, pfc, onoff, n_senders):
    """The same DCQCN run as a dumbbell or as a 1-link fabric."""
    faults = ONE_LINK_SCHEDULES[schedule](link)
    sim = DcqcnFluidSimulator(
        capacity=gbps(50),
        dt=10e-6,
        faults=faults,
        topology=(
            Topology.dumbbell(bottleneck_name=link) if fabric else None
        ),
        pfc_pause_threshold=150 * kib(1) if pfc else None,
        pfc_resume_threshold=100 * kib(1) if pfc else None,
    )
    route = (link,) if fabric else ()
    params = DcqcnParams(line_rate=gbps(50))
    jobs, rngs = [], []
    for index in range(n_senders):
        name = f"J{index + 1}"
        timer = AGGRESSIVE_TIMER if index == 0 else DEFAULT_TIMER
        rng = np.random.default_rng(70 + index)
        rngs.append(rng)
        if onoff:
            job = OnOffDcqcnJob(
                name,
                params.with_timer(timer),
                rng,
                compute_time=0.0011,
                comm_bytes=0.0013 * gbps(50),
                start_offset=index * 0.0003,
            )
            sim.add_source(job, route=route)
            jobs.append(job)
        else:
            sim.add_sender(name, params.with_timer(timer), rng, route=route)
    return sim, jobs, rngs


class TestDumbbellIsOneLinkFabric:
    """A dumbbell run equals the same run over a 1-link ``Topology``:
    series, timelines, pause time and RNG stream positions, through
    both the oracle and the bank — the equivalence that lets one loop
    serve both."""

    @pytest.mark.parametrize("n_senders", [2, 5])
    @pytest.mark.parametrize("onoff", [True, False], ids=["onoff", "long"])
    @pytest.mark.parametrize("pfc", [False, True], ids=["nopfc", "pfc"])
    @pytest.mark.parametrize("schedule", sorted(ONE_LINK_SCHEDULES))
    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_bit_identical(self, engine, schedule, pfc, onoff, n_senders):
        self._check(engine, schedule, "L1", pfc, onoff, n_senders)

    @pytest.mark.parametrize("schedule", ["rate-dip", "pfc-storm"])
    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_link_not_named_l1(self, engine, schedule):
        self._check(engine, schedule, "spine", True, True, 2)

    def _check(self, engine, schedule, link, pfc, onoff, n_senders):
        bell, bell_jobs, bell_rngs = _one_link(
            schedule, link, False, pfc, onoff, n_senders
        )
        fab, fab_jobs, fab_rngs = _one_link(
            schedule, link, True, pfc, onoff, n_senders
        )
        left = run_dcqcn(bell, engine, 0.025)
        right = run_dcqcn(fab, engine, 0.025)
        assert not left.link_queue_series
        assert list(right.link_queue_series) == [link]
        assert np.array_equal(
            right.link_queue_series[link].values, right.queue_series.values
        )
        right.link_queue_series = {}
        _series_equal(left, right)
        assert left.timelines.keys() == right.timelines.keys()
        for job_b, job_f in zip(bell_jobs, fab_jobs):
            assert (
                repr(job_b.timeline.__dict__)
                == repr(job_f.timeline.__dict__)
            )
        assert bell.pfc_pause_seconds == fab.pfc_pause_seconds
        for rng_b, rng_f in zip(bell_rngs, fab_rngs):
            assert rng_b.random() == rng_f.random()


def _aimd_one_link(schedule, link, fabric, long_lived):
    """The same AIMD run as a dumbbell or as a 1-link fabric."""
    capacity = gbps(1)
    sim = AimdFluidSimulator(
        capacity=capacity,
        buffer_bytes=kib(16),
        faults=ONE_LINK_SCHEDULES[schedule](link),
        topology=(
            Topology.dumbbell(1, capacity, bottleneck_name=link)
            if fabric else None
        ),
    )
    route = (link,) if fabric else ()
    params = AimdParams(
        line_rate=capacity, increase_rate=capacity / 0.002, min_rate=mbps(50)
    )
    if long_lived:
        sim.add_sender("bg", params, route=route)
    for index in range(2):
        sim.add_job(
            f"J{index + 1}",
            compute_time=0.0011,
            comm_bytes=0.0013 * capacity,
            params=params,
            start_offset=index * 0.0003,
            route=route,
        )
    return sim


class TestAimdDumbbellIsOneLinkFabric:
    """An AIMD dumbbell run equals the same run over a 1-link
    ``Topology`` whose every source routes over that link: rate series,
    timelines and drop-tail losses. The link is ``BOTTLENECK`` (``L1``)
    or ``spine``; a dumbbell under a clean schedule names its link
    ``BOTTLENECK`` either way."""

    @pytest.mark.parametrize(
        "long_lived", [False, True], ids=["jobs", "jobs+bg"]
    )
    @pytest.mark.parametrize("link", [BOTTLENECK, "spine"])
    @pytest.mark.parametrize("schedule", sorted(ONE_LINK_SCHEDULES))
    def test_bit_identical(self, schedule, link, long_lived):
        args = (schedule, link)
        bell = _aimd_one_link(*args, False, long_lived)
        fab = _aimd_one_link(*args, True, long_lived)
        left = bell.run(0.025)
        right = fab.run(0.025)
        _series_equal(left, right)
        assert list(left.timelines) == ["J1", "J2"]
        assert left.timelines.keys() == right.timelines.keys()
        for name, timeline in left.timelines.items():
            assert len(timeline) > 0
            assert timeline.to_rows() == right.timelines[name].to_rows()
        # The buffer is small enough that the run exercises the loss cut.
        dropped = fab.fabric.queues[0].dropped_bytes
        assert dropped > 0
        assert bell.queue.dropped_bytes == dropped
        assert bell.queue.occupancy == fab.fabric.queues[0].occupancy


class TestAimdFabricEquivalence:
    """AIMD's fabric loop reproduces, bit for bit, the output its former
    scalar and vector engines agreed on. The fault windows close before
    the first burst starts (0.11 s), so every schedule pins the clean
    run; ``TestAimdDumbbellIsOneLinkFabric`` covers windows that hit
    traffic."""

    PIN = "2edffafb2def34b4c4e84be8607b5fa71730973cb6970779a8a8c69bacd51ad7"

    @pytest.mark.parametrize(
        "name", ["clean", "rate-dip", "link-failure", "pfc-storm"]
    )
    def test_bit_identical(self, name, result_digest):
        assert result_digest(_aimd(SCHEDULES[name]).run(4.0)) == self.PIN


class TestRouteValidation:
    def test_route_requires_topology(self):
        sim = DcqcnFluidSimulator()
        with pytest.raises(ConfigError, match="topology"):
            sim.add_sender(
                "s", DcqcnParams(), np.random.default_rng(0),
                route=("core_0_0_0",),
            )

    def test_topology_requires_route(self):
        sim = DcqcnFluidSimulator(topology=Topology.fat_tree(2))
        with pytest.raises(ConfigError, match="route"):
            sim.add_sender("s", DcqcnParams(), np.random.default_rng(0))

    def test_duplicate_link_in_route_rejected(self):
        sim = DcqcnFluidSimulator(topology=Topology.fat_tree(2))
        with pytest.raises(ConfigError, match="twice"):
            sim.add_sender(
                "s", DcqcnParams(), np.random.default_rng(0),
                route=("core_0_0_0", "core_0_0_0"),
            )

    def test_unknown_link_in_route_rejected(self):
        sim = DcqcnFluidSimulator(topology=Topology.fat_tree(2))
        with pytest.raises(TopologyError, match="no link named"):
            sim.add_sender(
                "s", DcqcnParams(), np.random.default_rng(0),
                route=("nope",),
            )

    def test_fault_on_unknown_link_rejected(self):
        faults = InjectionSchedule(events=(
            LinkFailure("no_such_link", 0.01, 0.02),
        ))
        sim, _, _ = _dcqcn(faults)
        with pytest.raises(TopologyError, match="no_such_link"):
            sim.run(0.01)

    def test_fault_on_unrouted_link_is_harmless(self):
        # A failure elsewhere in the fabric, crossed by no route, must
        # not perturb the routed traffic.
        faults = InjectionSchedule(events=(
            LinkFailure("up_1_1_1", 0.01, 0.02),
        ))
        clean_sim, _, _ = _dcqcn(None)
        fault_sim, _, _ = _dcqcn(faults)
        clean = clean_sim.run(0.05)
        faulted = fault_sim.run(0.05)
        for name in clean.rate_series:
            assert np.array_equal(
                clean.rate_series[name].values,
                faulted.rate_series[name].values,
            )

    def test_aimd_route_validation_mirrors_dcqcn(self):
        sim = AimdFluidSimulator(topology=Topology.fat_tree(2))
        with pytest.raises(ConfigError, match="route"):
            sim.add_sender("s")
        with pytest.raises(ConfigError, match="topology"):
            AimdFluidSimulator().add_sender("s", route=("L1",))

"""Shared fixtures for the test suite."""

import hashlib
import json

import pytest

from repro.cc.dcqcn import DcqcnFluidSimulator, DcqcnParams
from repro.cc.fair import FairSharing
from repro.cc.link_engine import run_scalar_fabric
from repro.cc.weighted import StaticWeighted
from repro.core.circle import JobCircle
from repro.core.unified import UnifiedCircle
from repro.net.topology import Topology
from repro.runner.backends import build_fluid_scenario_sim
from repro.sim.rng import RandomStreams
from repro.units import gbps, ms
from repro.workloads.job import JobSpec

#: A small capacity that keeps byte counts readable in tests.
CAPACITY = gbps(42)

#: The two ways to run a DCQCN simulator that the equivalence suites
#: compare, by the case ID they parametrize over: the scalar oracle and
#: the simulator's own run, which goes through the sender bank.
DCQCN_RUNS = {
    "scalar": run_scalar_fabric,
    "vector": DcqcnFluidSimulator.run,
}


def run_dcqcn(sim, engine, duration):
    """Run DCQCN simulator ``sim`` for ``duration`` seconds the
    ``engine`` way (a :data:`DCQCN_RUNS` key)."""
    return DCQCN_RUNS[engine](sim, duration)


def run_fluid_spec(spec, engine):
    """Every scenario of fluid ``spec`` run the ``engine`` way on the
    simulators the fluid backend builds, keyed by scenario name."""
    capacity = spec.capacity or gbps(50)
    params = DcqcnParams(line_rate=capacity)
    streams = RandomStreams(spec.seed)
    return {
        scenario.name: run_dcqcn(
            build_fluid_scenario_sim(
                spec, scenario, params, streams, capacity
            ),
            engine,
            spec.duration,
        )
        for scenario in spec.scenarios
    }


def swept_overlap(circles, rotations=None):
    """Ticks where two or more of ``circles`` communicate at
    ``rotations``, from the coverage sweep over every job tiled onto
    the LCM circle: the tests' oracle for
    :meth:`UnifiedCircle.overlap_ticks`, which shares no code with it."""
    return sum(
        end - start
        for start, end, n in UnifiedCircle(circles).coverage(rotations)
        if n > 1
    )


@pytest.fixture(autouse=True)
def _isolated_runs_dir(tmp_path, monkeypatch):
    """Keep CLI-recorded runs out of the working tree during tests."""
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))


@pytest.fixture
def capacity():
    """Reference link capacity used across tests."""
    return CAPACITY


@pytest.fixture
def dumbbell():
    """A two-host-per-side dumbbell with bottleneck L1."""
    return Topology.dumbbell(
        hosts_per_side=2,
        host_capacity=CAPACITY,
        bottleneck_capacity=CAPACITY,
    )


@pytest.fixture
def simple_pair():
    """Two identical jobs: 100 ms compute + 100 ms solo communication."""
    mk = lambda name: JobSpec(
        job_id=name,
        compute_time=ms(100),
        comm_bytes=ms(100) * CAPACITY,
    )
    return mk("J1"), mk("J2")


@pytest.fixture
def compatible_pair_circles():
    """Two equal-period circles that can interleave (40 + 45 < 100)."""
    return [
        JobCircle.from_phases("J1", 60, 40),
        JobCircle.from_phases("J2", 55, 45),
    ]


@pytest.fixture
def incompatible_pair_circles():
    """Two equal-period circles that cannot (60 + 60 > 100)."""
    return [
        JobCircle.from_phases("J1", 40, 60),
        JobCircle.from_phases("J2", 40, 60),
    ]


@pytest.fixture
def fair_policy():
    """Plain max-min fair sharing."""
    return FairSharing()


@pytest.fixture
def unfair_policy():
    """2:1 static unfairness, J1 more aggressive."""
    return StaticWeighted.from_aggressiveness_order(["J1", "J2"])


@pytest.fixture
def result_digest():
    """sha256 of a fluid result's rate series and timelines.

    The payload is canonical JSON over plain floats (``tolist()`` and
    ``to_rows()``), so a pinned digest is exact yet independent of how
    numpy prints arrays.
    """

    def digest(result):
        payload = {
            "rates": [
                [name, series.times.tolist(), series.values.tolist()]
                for name, series in result.rate_series.items()
            ],
            "timelines": [
                [name, timeline.to_rows()]
                for name, timeline in result.timelines.items()
            ],
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    return digest

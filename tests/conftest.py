"""Shared fixtures for the test suite."""

import hashlib
import json

import pytest

from repro.cc.fair import FairSharing
from repro.cc.weighted import StaticWeighted
from repro.core.circle import JobCircle
from repro.net.topology import Topology
from repro.units import gbps, ms
from repro.workloads.job import JobSpec

#: A small capacity that keeps byte counts readable in tests.
CAPACITY = gbps(42)


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

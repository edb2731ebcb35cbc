"""Determinism of recorded telemetry traces.

The trace deliberately carries only simulation time — no wall-clock
stamps, no object reprs with memory addresses — so two runs of the same
seeded scenario must serialize to *byte-identical* JSONL. This is what
makes recorded runs diffable and the golden tests meaningful.
"""

import pytest

from repro.cc.fair import FairSharing
from repro.cc.weighted import StaticWeighted
from repro.experiments.common import run_jobs
from repro.io import trace_to_jsonl
from repro.telemetry import Telemetry
from repro.units import ms
from repro.workloads.job import JobSpec


def jittered_pair(capacity):
    """Two jobs with compute jitter, so the run exercises sim/rng.py."""
    mk = lambda name: JobSpec(
        job_id=name,
        compute_time=ms(100),
        comm_bytes=ms(100) * capacity,
        compute_jitter=0.05,
    )
    return [mk("J1"), mk("J2")]


def traced_run(specs, policy, seed):
    telemetry = Telemetry()
    run_jobs(
        specs, policy, n_iterations=5, seed=seed, telemetry=telemetry
    )
    return telemetry


class TestTraceDeterminism:
    def test_same_seed_byte_identical_trace(self, capacity):
        specs = jittered_pair(capacity)
        first = traced_run(specs, FairSharing(), seed=3)
        second = traced_run(specs, FairSharing(), seed=3)
        assert len(first.trace) > 0
        assert trace_to_jsonl(first.trace.records) == trace_to_jsonl(
            second.trace.records
        )

    def test_same_seed_identical_snapshot(self, capacity):
        # Counters and event counts must agree too (spans are wall-clock
        # and so are excluded from this comparison).
        specs = jittered_pair(capacity)
        first = traced_run(specs, FairSharing(), seed=3)
        second = traced_run(specs, FairSharing(), seed=3)
        strip = lambda snap: {
            key: value for key, value in snap.items() if key != "spans"
        }
        assert strip(first.snapshot()) == strip(second.snapshot())

    def test_different_seed_different_trace(self, capacity):
        # Jitter > 0 means the seed must matter; identical traces here
        # would mean the RNG never reached the simulation.
        specs = jittered_pair(capacity)
        first = traced_run(specs, FairSharing(), seed=3)
        second = traced_run(specs, FairSharing(), seed=4)
        assert trace_to_jsonl(first.trace.records) != trace_to_jsonl(
            second.trace.records
        )

    def test_policy_changes_trace(self, capacity):
        specs = jittered_pair(capacity)
        fair = traced_run(specs, FairSharing(), seed=3)
        unfair = traced_run(
            specs,
            StaticWeighted.from_aggressiveness_order(["J1", "J2"]),
            seed=3,
        )
        assert trace_to_jsonl(fair.trace.records) != trace_to_jsonl(
            unfair.trace.records
        )

    def test_trace_carries_no_wall_clock_fields(self, capacity):
        specs = jittered_pair(capacity)
        telemetry = traced_run(specs, FairSharing(), seed=3)
        for record in telemetry.trace.records:
            assert set(record.fields).isdisjoint(
                {"wall", "walltime", "timestamp", "perf_counter"}
            )

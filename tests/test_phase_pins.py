"""Bit-identity pins for the phase tier and the cluster backend.

Each pin is one sha256 over a batch of runs: every result serialized by
:func:`repro.io.run_result_to_dict` without its cosmetic ``label`` and
its ``spec_hash`` (the rule ``bench/workloads.py`` digests results by),
followed by every encoded trace line the batch emitted. The results
carry the timelines (and, for phase runs, rate traces and link loads);
the trace carries flow ids, phase changes and rate changes. So a pin
moves on any change to what the simulator computes or records.

The digests were recorded from the code as it stood when this file was
written. A refactor of the phase tier must leave them unchanged; a
deliberate model change updates them alongside the change.
"""

import hashlib
import json

from repro import io
from repro.cc.priority import PrioritySharing
from repro.core.rotation import CommWindow
from repro.experiments import fattree, scheduler_exp
from repro.faults.events import InjectionSchedule, RateChange
from repro.mechanisms.flow_scheduling import PeriodicGate
from repro.net.topology import BOTTLENECK
from repro.runner import RunSpec, run_many
from repro.telemetry import Telemetry
from repro.units import gbps, ms
from repro.workloads.job import JobSpec

#: ``scheduler_exp.run_policies()``: the scheduler artifact's newcomer
#: placements under the random, consolidated and compatibility-aware
#: policies.
SCHEDULER_PIN = (
    "79a441f419242c296dd5772c456b3e0a82061dd997fcdddd4d8132fe82912a81"
)

#: ``fattree.run_placement()``: the fat-tree placement study's clusters.
FATTREE_PIN = (
    "14072a0d0e68e67d07f9a5f4471d9be287175178c0108f6d60bd7e87fb413cd6"
)

#: :func:`gated_priority_spec` on the default dumbbell.
PHASE_PIN = (
    "7d280fcf70dd810169b0ff2bbf75b66428a8af90cd4b075510f4d2682b14a36c"
)


def batch_digest(results, trace_lines):
    """sha256 over ``results`` (label and spec hash dropped), then the
    trace lines, one canonical JSON document or line per entry."""
    parts = []
    for result in results:
        document = io.run_result_to_dict(result)
        document.pop("label", None)
        document.pop("spec_hash", None)
        parts.append(
            json.dumps(document, sort_keys=True, separators=(",", ":"))
        )
    parts.extend(trace_lines)
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def run_pinned(specs):
    """Run ``specs`` serially and uncached under a fresh session;
    return their results and the session's trace lines."""
    session = Telemetry()
    results = run_many(specs, jobs=1, cache=False, telemetry=session)
    return results, session.trace.lines


def experiment_digest(monkeypatch, module, experiment):
    """Digest every batch ``experiment`` hands ``module.run_many``."""
    results, lines = [], []

    def recorded(specs, *args, **kwargs):
        batch, batch_lines = run_pinned(specs)
        results.extend(batch)
        lines.extend(batch_lines)
        return batch

    monkeypatch.setattr(module, "run_many", recorded)
    experiment()
    assert results, "the experiment ran no specs"
    return batch_digest(results, lines)


def gated_priority_spec():
    """Three jobs on the dumbbell: J1 in the high priority class, J2 and
    J3 sharing the low one, J3 gated into periodic windows, and the
    bottleneck halved for part of the run."""
    capacity = gbps(42)
    jobs = (
        JobSpec("J1", ms(100), ms(60) * capacity, compute_jitter=0.05),
        JobSpec("J2", ms(120), ms(40) * capacity, compute_jitter=0.05),
        JobSpec("J3", ms(80), ms(30) * capacity),
    )
    gate = PeriodicGate(
        [CommWindow("J3", start=40, length=60, period=200)],
        ticks_per_second=1000.0,
        slack=0.5,
    )
    return RunSpec(
        backend="phase",
        label="pinned-phase",
        seed=7,
        jobs=jobs,
        policy=PrioritySharing({"J1": 1}, default=0),
        n_iterations=12,
        capacity=capacity,
        gates=(("J3", gate),),
        faults=InjectionSchedule(
            (RateChange(BOTTLENECK, 0.35, 0.9, 0.5),)
        ),
    )


class TestPins:
    def test_scheduler_cluster_specs(self, monkeypatch):
        digest = experiment_digest(
            monkeypatch, scheduler_exp, scheduler_exp.run_policies
        )
        assert digest == SCHEDULER_PIN

    def test_fattree_cluster_specs(self, monkeypatch):
        digest = experiment_digest(
            monkeypatch, fattree, fattree.run_placement
        )
        assert digest == FATTREE_PIN

    def test_gated_priority_phase_spec(self):
        results, lines = run_pinned([gated_priority_spec()])
        # The spec reaches every path the pin is meant to cover.
        kinds = {json.loads(line)["kind"] for line in lines}
        assert {"fault.window", "job.phase", "rate.change"} <= kinds
        assert any('"waiting"' in line for line in lines)
        assert batch_digest(results, lines) == PHASE_PIN

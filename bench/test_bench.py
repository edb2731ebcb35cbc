"""Tests of the benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest bench/``.
"""

import dataclasses
import importlib
import sys
import time

import pytest

import child
import run
import tracing
import workloads
from repro.net.topology import Topology
from repro.runner import RunResult
from repro.workloads.traces import poisson_arrivals


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_arithmetic_on_nested_calls():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        traced_leaf()
        traced_leaf()
        clock.now += 0.5

    def top():
        traced_middle()
        clock.now += 3.0

    traced_leaf = tracer.wrap("cc.leaf", leaf)
    traced_middle = tracer.wrap("runner.middle", middle)
    tracer.wrap("experiments.top", top)()
    clock.now += 7.0  # outside every span
    tracer.wrap("cc.leaf", leaf)()

    table = tracing.summarize(tracer.spans)
    assert table["cc.leaf"]["calls"] == 3
    assert table["cc.leaf"]["self_s"] == pytest.approx(3.0)
    assert table["runner.middle"]["total_s"] == pytest.approx(4.5)
    assert table["runner.middle"]["self_s"] == pytest.approx(2.5)
    assert table["experiments.top"]["total_s"] == pytest.approx(7.5)
    assert table["experiments.top"]["self_s"] == pytest.approx(3.0)
    assert tracing.root_time(tracer.spans) == pytest.approx(8.5)
    layers = tracing.layer_self_times(table)
    assert layers == pytest.approx(
        {"cc": 3.0, "runner": 2.5, "experiments": 3.0}
    )
    # Self times partition the covered time exactly.
    assert sum(layers.values()) == pytest.approx(
        tracing.root_time(tracer.spans)
    )


def test_recursive_calls_count_once_in_total():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def recurse(depth):
        clock.now += 1.0
        if depth:
            traced(depth - 1)

    traced = tracer.wrap("core.recurse", recurse)
    traced(2)
    row = tracing.summarize(tracer.spans)["core.recurse"]
    assert row["calls"] == 3
    assert row["total_s"] == pytest.approx(3.0)
    assert row["self_s"] == pytest.approx(3.0)


def test_paused_tracer_records_nothing():
    tracer = tracing.Tracer()
    traced = tracer.wrap("io.noop", lambda: 1)
    with tracer.paused():
        assert traced() == 1
    assert tracer.spans == []
    traced()
    assert len(tracer.spans) == 1


def test_speed_sampler_probes_during_work_and_hides_its_time():
    sampler = child.SpeedSampler().start()
    try:
        wall_start, start = time.perf_counter(), sampler.clock()
        while time.perf_counter() - wall_start < 0.45:
            pass
        elapsed, wall = sampler.clock() - start, time.perf_counter() - wall_start
    finally:
        sampler.stop()
    assert len(sampler.probes) >= 2
    assert wall - elapsed == pytest.approx(sum(sampler.probes), abs=1e-4)


def test_speed_normalization_scales_to_the_reference_probe():
    sampler = child.SpeedSampler()
    sampler.probes = [2 * child.PROBE_REFERENCE_S] * 3 + [
        4 * child.PROBE_REFERENCE_S
    ]
    assert sampler.normalize(3.0, 0, 3) == pytest.approx(1.5)
    assert sampler.normalize(3.0, 3) == pytest.approx(0.75)


def _bindings():
    """Every module attribute and class attribute a target could touch."""
    for _, module_name, _ in tracing.TARGETS:
        importlib.import_module(module_name)
    seen = {}
    for name, module in list(sys.modules.items()):
        namespace = getattr(module, "__dict__", None)
        if name.startswith(("repro", "workloads")) and namespace:
            for key, value in namespace.items():
                seen[(name, key)] = value
    for _, module_name, attr in tracing.TARGETS:
        if "." in attr:
            cls = getattr(sys.modules[module_name], attr.split(".")[0])
            for owner in [cls] + tracing._subclasses(cls):
                for key, value in vars(owner).items():
                    seen[(owner, key)] = value
    return seen


def test_wrappers_reach_every_lookup_site_and_restore_fully():
    from repro.experiments import sweep
    from repro.runner import parallel

    original = parallel.run_many
    before = _bindings()
    tracer = tracing.Tracer().install()
    try:
        assert sweep.run_many is not original
        assert sweep.run_many is parallel.run_many
        assert workloads.runner.run_many is parallel.run_many
        sweep.point_specs([0.2], 2, True, seed=0)[0].content_hash()
        assert [span[0] for span in tracer.spans] == [
            "runner.content_hash", "io.run_spec_to_dict",
        ]
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert sweep.run_many is original


def test_digest_ignores_label_and_spec_hash_only():
    result = RunResult(
        spec_hash="abc", backend="sweep-point", label="a",
        data={"x": 1.0},
    )
    same = dataclasses.replace(result, label="b", spec_hash="def")
    other = dataclasses.replace(result, data={"x": 2.0})
    digest = workloads.result_digest(result)
    assert workloads.result_digest(same) == digest
    assert workloads.result_digest(other) != digest


def test_stepwise_service_matches_submit_all_then_run():
    arrivals = poisson_arrivals(
        200, seed=3, mean_interarrival_s=8.0, mean_lifetime_s=6000.0,
        lifetime_model="pareto", capacity=workloads.ONLINE_CAPACITY,
    )
    inputs = {
        "seed": 3,
        "arrivals": arrivals,
        "topology": Topology.leaf_spine(
            n_racks=8, hosts_per_rack=2,
            host_capacity=workloads.ONLINE_CAPACITY,
        ),
    }
    online = workloads.OnlineAdmission()
    stepwise = online.run_pass(inputs, "cold")
    offline = online.run_pass(inputs, "warm")
    assert len(stepwise.extras["latencies_s"]) == 200
    assert stepwise.extras["queued_frac"] > 0
    assert stepwise.extras["rejected_frac"] > 0
    assert [r.to_dict() for r in stepwise.outputs] == [
        r.to_dict() for r in offline.outputs
    ]
    assert online.digest(stepwise) == online.digest(offline)


def test_online_seed_changes_shapes_not_load():
    a = workloads.online_arrivals(0)
    b = workloads.online_arrivals(1)
    assert [(x.time, x.lifetime, x.n_workers) for x in a] == [
        (y.time, y.lifetime, y.n_workers) for y in b
    ]
    assert [x.spec for x in a] != [y.spec for y in b]
    assert all(x.spec.n_workers == x.n_workers for x in b)


def _report(parts, ops=None):
    return {
        "parts": dict(parts),
        "ops": len(parts) if ops is None else ops,
        "digest": workloads.workload_digest(parts),
    }


def test_failures_count_an_injected_digest_mismatch():
    good = {"a": "1", "b": "2", "c": "3"}
    bad = dict(good, b="x")
    assert run.count_failures([_report(good), _report(good)], None) == 0
    assert run.count_failures([_report(good), _report(bad)], None) == 1
    # A missing output (the operation raised) is a failure too.
    missing = {"a": "1", "c": "3"}
    assert run.count_failures(
        [_report(good), _report(missing, ops=3)], None
    ) == 1
    expected = {"digest": workloads.workload_digest(good), "parts": good}
    assert run.count_failures([_report(bad)], expected) == 1
    # Without a per-operation breakdown a wrong whole digest fails every
    # operation of the pass.
    whole_only = {"digest": workloads.workload_digest(bad)}
    assert run.count_failures([_report(good)], whole_only) == 3

"""Tests for the congestion-free controller, JSON serialization, and
bootstrap confidence intervals."""

import json
import tracemalloc

import numpy as np
import pytest

from repro.analysis import bootstrap
from repro.analysis.bootstrap import (
    bootstrap_median,
    bootstrap_median_ratio,
)
from repro.cc.adaptive import AdaptiveUnfair
from repro.cc.priority import PrioritySharing
from repro.core.circle import JobCircle
from repro.core.compatibility import CompatibilityChecker
from repro.errors import ConfigError, SimulationError
from repro.io import (
    circle_from_dict,
    circle_to_dict,
    job_spec_from_dict,
    job_spec_to_dict,
    load_workload,
    save_workload,
    time_series_from_dict,
)
from repro.mechanisms.controller import (
    CongestionFreeController,
    Mechanism,
)
from repro.net.topology import Topology
from repro.scheduler.cluster import ClusterState
from repro.scheduler.simulation import ClusterSimulation
from repro.units import gbps, ms
from repro.workloads.job import JobSpec

CAP = gbps(42)


def _cluster_with(specs_and_hosts):
    topo = Topology.leaf_spine(
        n_racks=4, hosts_per_rack=2, n_spines=1,
        host_capacity=CAP, uplink_capacity=CAP,
    )
    cluster = ClusterState(topo, gpus_per_host=4)
    for spec, hosts in specs_and_hosts:
        cluster.place(spec, hosts)
    return cluster


def _compatible_pair():
    a = JobSpec("a", ms(210), ms(90) * CAP, n_workers=2)
    b = JobSpec("b", ms(210), ms(90) * CAP, n_workers=2)
    return [
        (a, ["h0_0", "h1_0"]),
        (b, ["h0_1", "h1_1"]),
    ]


def _incompatible_pair():
    a = JobSpec("a", ms(100), ms(110) * CAP, n_workers=2)
    b = JobSpec("b", ms(100), ms(110) * CAP, n_workers=2)
    return [
        (a, ["h0_0", "h1_0"]),
        (b, ["h0_1", "h1_1"]),
    ]


class TestController:
    def test_flow_scheduling_plan_for_compatible_cluster(self):
        cluster = _cluster_with(_compatible_pair())
        plan = CongestionFreeController(
            checker=CompatibilityChecker(capacity=CAP)
        ).plan(cluster, mechanism=Mechanism.FLOW_SCHEDULING)
        assert plan.mechanism is Mechanism.FLOW_SCHEDULING
        assert plan.fully_congestion_free
        assert set(plan.gates) == {"a", "b"}
        assert plan.rotations

    def test_plan_runs_at_solo_speed(self):
        cluster = _cluster_with(_compatible_pair())
        controller = CongestionFreeController(
            checker=CompatibilityChecker(capacity=CAP)
        )
        plan = controller.plan(cluster)
        report = ClusterSimulation(
            cluster, reference_capacity=CAP
        ).run(plan.policy, n_iterations=40, gates=plan.gates, stagger=0.0)
        assert report.mean_slowdown == pytest.approx(1.0, abs=0.02)

    def test_incompatible_cluster_falls_back_to_adaptive(self):
        cluster = _cluster_with(_incompatible_pair())
        plan = CongestionFreeController(
            checker=CompatibilityChecker(capacity=CAP)
        ).plan(cluster)
        assert plan.mechanism is Mechanism.ADAPTIVE
        assert isinstance(plan.policy, AdaptiveUnfair)
        assert not plan.fully_congestion_free
        assert plan.gates == {}

    def test_priorities_mechanism(self):
        cluster = _cluster_with(_compatible_pair())
        plan = CongestionFreeController(
            checker=CompatibilityChecker(capacity=CAP)
        ).plan(cluster, mechanism=Mechanism.PRIORITIES)
        assert plan.mechanism is Mechanism.PRIORITIES
        assert isinstance(plan.policy, PrioritySharing)

    def test_weighted_mechanism(self):
        cluster = _cluster_with(_compatible_pair())
        plan = CongestionFreeController(
            checker=CompatibilityChecker(capacity=CAP)
        ).plan(cluster, mechanism=Mechanism.WEIGHTED)
        assert plan.mechanism is Mechanism.WEIGHTED

    def test_uncontended_cluster_gets_adaptive_default(self):
        a = JobSpec("a", ms(210), ms(90) * CAP, n_workers=2)
        cluster = _cluster_with([(a, ["h0_0", "h1_0"])])
        plan = CongestionFreeController(
            checker=CompatibilityChecker(capacity=CAP)
        ).plan(cluster)
        assert plan.compatible_links == []
        assert plan.incompatible_links == []

    def test_per_link_mode_downgrades_flow_scheduling(self):
        cluster = _cluster_with(_compatible_pair())
        plan = CongestionFreeController(
            checker=CompatibilityChecker(capacity=CAP)
        ).plan(
            cluster,
            mechanism=Mechanism.FLOW_SCHEDULING,
            cluster_level=False,
        )
        # Without the global rotation solve, gates cannot be trusted.
        assert plan.mechanism is Mechanism.PRIORITIES


class TestIo:
    def test_job_spec_roundtrip(self):
        spec = JobSpec(
            "j", ms(100), ms(50) * CAP, model_name="vgg19",
            batch_size=1200, compute_jitter=0.02, n_workers=8,
        )
        assert job_spec_from_dict(job_spec_to_dict(spec)) == spec

    def test_segments_key_refused(self, tmp_path):
        # A document written for several bursts per iteration is refused,
        # not flattened into one compute phase and one burst.
        data = job_spec_to_dict(JobSpec("mp", ms(80), ms(35) * CAP))
        data["segments"] = [
            [ms(50), ms(20) * CAP], [ms(30), ms(15) * CAP]
        ]
        with pytest.raises(ConfigError, match="segments"):
            job_spec_from_dict(data)
        path = tmp_path / "workload.json"
        path.write_text(json.dumps({"version": 1, "jobs": [data]}))
        with pytest.raises(ConfigError, match="segments"):
            load_workload(path)

    def test_circle_roundtrip(self):
        circle = JobCircle.from_arcs(
            "c", 255, [(141, 100), (245, 10)], demand=0.7
        )
        text = json.dumps(circle_to_dict(circle))
        restored = circle_from_dict(json.loads(text))
        assert restored.comm == circle.comm
        assert restored.demand == circle.demand
        assert json.dumps(circle_to_dict(restored)) == text

    @pytest.mark.parametrize("field,value", [
        ("perimeter", None),
        ("perimeter", "x"),
        ("perimeter", 10.7),
        ("perimeter", True),
        ("demand", None),
        ("job_id", 5),
        ("arc_start", 1.5),
        ("arc_length", True),
        ("comm_arcs", None),
        ("comm_arcs", [[2]]),
    ], ids=[
        "null-perimeter", "string-perimeter", "float-perimeter",
        "bool-perimeter", "null-demand", "int-id", "float-arc-start",
        "bool-arc-length", "null-arcs", "short-arc",
    ])
    def test_bad_circle_field_names_the_field(self, field, value):
        data = circle_to_dict(JobCircle.from_arcs("c", 20, [(2, 5)]))
        named = field
        if field.startswith("arc_"):
            named = "comm_arcs"
            data["comm_arcs"][0][field == "arc_length"] = value
        else:
            data[field] = value
        with pytest.raises(ConfigError, match=repr(named)):
            circle_from_dict(data)

    @pytest.mark.parametrize("field,value", [
        ("values", [0.0, 1.0]),
        ("times", [1.0]),
        ("times", "12"),
        ("values", {"3": 0, "4": 1}),
        ("times", None),
    ], ids=["long-values", "short-times", "string-times", "dict-values",
            "null-times"])
    def test_misshapen_series_names_the_series(self, field, value):
        data = {"name": "queue", "times": [1.0, 2.0, 3.0],
                "values": [0.0, 1.0, 0.5]}
        assert time_series_from_dict(data).values.tolist() == [0, 1, 0.5]
        data[field] = value
        with pytest.raises(ConfigError, match=repr(field)) as refused:
            time_series_from_dict(data)
        assert "'queue'" in str(refused.value)

    def test_workload_file_roundtrip(self, tmp_path):
        specs = [
            JobSpec("a", ms(100), ms(50) * CAP),
            JobSpec("b", ms(30), 3e6, n_workers=4),
        ]
        path = tmp_path / "workload.json"
        save_workload(specs, path)
        assert load_workload(path) == specs

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError):
            job_spec_from_dict({"version": 1})

    @pytest.mark.parametrize("field,value", [
        ("compute_time", None),
        ("compute_time", "abc"),
        ("compute_time", float("nan")),
        ("comm_bytes", float("inf")),
        ("n_workers", None),
        ("batch_size", float("inf")),
        ("compute_jitter", "0.01"),
        ("compute_time", True),
        ("n_workers", True),
    ], ids=[
        "null-compute", "string-compute", "nan-compute", "inf-bytes",
        "null-workers", "inf-batch", "string-jitter", "bool-compute",
        "bool-workers",
    ])
    def test_bad_number_field_names_the_field(self, tmp_path, field, value):
        data = job_spec_to_dict(JobSpec("a", ms(80), ms(35) * CAP))
        data[field] = value
        with pytest.raises(ConfigError, match=repr(field)):
            job_spec_from_dict(data)
        path = tmp_path / "workload.json"
        path.write_text(json.dumps({"version": 1, "jobs": [data]}))
        with pytest.raises(ConfigError, match=repr(field)):
            load_workload(path)

    @pytest.mark.parametrize("field,value", [
        ("job_id", 5),
        ("job_id", ["x"]),
        ("model_name", None),
        ("model_name", 7),
    ], ids=["int-id", "list-id", "null-model", "int-model"])
    def test_bad_string_field_names_the_field(self, tmp_path, field, value):
        data = job_spec_to_dict(JobSpec("a", ms(80), ms(35) * CAP))
        data[field] = value
        with pytest.raises(ConfigError, match=repr(field)):
            job_spec_from_dict(data)
        path = tmp_path / "workload.json"
        path.write_text(json.dumps({"version": 1, "jobs": [data]}))
        with pytest.raises(ConfigError, match=repr(field)):
            load_workload(path)

    def test_unknown_version_rejected(self):
        with pytest.raises(ConfigError):
            job_spec_from_dict({"version": 99, "job_id": "x"})

    def test_workload_file_without_jobs_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1}')
        with pytest.raises(ConfigError):
            load_workload(path)


class TestBootstrap:
    def test_median_ci_brackets_truth(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(0.30, 0.01, size=300)
        ci = bootstrap_median(samples, seed=2)
        assert ci.contains(0.30)
        assert ci.low < ci.estimate < ci.high

    def test_tight_data_tight_interval(self):
        ci = bootstrap_median([1.0] * 50, seed=0)
        assert ci.low == ci.high == ci.estimate == 1.0

    def test_ratio_ci(self):
        rng = np.random.default_rng(3)
        fair = rng.normal(0.32, 0.01, size=200)
        unfair = rng.normal(0.26, 0.01, size=200)
        ci = bootstrap_median_ratio(fair, unfair, seed=4)
        assert ci.contains(0.32 / 0.26)
        assert 1.1 < ci.estimate < 1.4

    def test_str_format(self):
        ci = bootstrap_median([1.0, 2.0, 3.0], seed=0)
        assert "@95%" in str(ci)

    def test_bad_inputs_rejected(self):
        with pytest.raises(SimulationError):
            bootstrap_median([])
        with pytest.raises(SimulationError):
            bootstrap_median([1.0], n_resamples=5)
        with pytest.raises(SimulationError):
            bootstrap_median([1.0], confidence=0.4)
        with pytest.raises(SimulationError):
            bootstrap_median_ratio([1.0], [0.0])

    @pytest.mark.parametrize("n", [7, 10, 99, 100])
    def test_row_blocks_give_the_one_shot_medians(self, n, monkeypatch):
        """Medians taken over blocks of resample rows equal the medians
        of the whole index matrix at once, bit for bit, with a block
        size that does not divide ``n_resamples``."""
        monkeypatch.setattr(bootstrap, "MEDIAN_BLOCK_ROWS", 7)
        n_resamples, alpha = 100, 0.025
        data = np.random.default_rng(n)
        num = data.normal(0.32, 0.01, size=n)
        den = data.normal(0.26, 0.01, size=n)

        def one_shot(rng, values):
            indices = rng.integers(0, n, size=(n_resamples, n))
            return np.median(values[indices], axis=1)

        def bits(*values):
            return [float(value).hex() for value in values]

        rng = np.random.default_rng(3)
        ratios = one_shot(rng, num) / one_shot(rng, den)
        ci = bootstrap_median_ratio(num, den, n_resamples, seed=3)
        assert bits(ci.estimate, ci.low, ci.high) == bits(
            np.median(num) / np.median(den),
            np.quantile(ratios, alpha), np.quantile(ratios, 1 - alpha),
        )
        medians = one_shot(np.random.default_rng(4), num)
        ci = bootstrap_median(num, n_resamples, seed=4)
        assert bits(ci.estimate, ci.low, ci.high) == bits(
            np.median(num),
            np.quantile(medians, alpha), np.quantile(medians, 1 - alpha),
        )

    def test_rank_counted_medians_are_np_medians(self, monkeypatch):
        """Seeded property: each resample median counted from ranks has
        the bits ``np.median`` gives the gathered row, for odd and even
        sample counts, with and without ties, and with a last block of
        rows shorter than the others."""
        monkeypatch.setattr(bootstrap, "MEDIAN_BLOCK_ROWS", 16)
        draw = np.random.default_rng(11)
        for case in range(60):
            n = int(draw.integers(1, 60))
            n_resamples = int(draw.integers(10, 70))
            if case % 2:
                data = draw.integers(0, 4, size=n) * 0.25 + 0.1  # ties
            else:
                data = draw.normal(0.3, 0.05, size=n)
            indices = np.random.default_rng(case).integers(
                0, n, size=(n_resamples, n)
            )
            expected = np.median(data[indices], axis=1)
            medians = bootstrap._resample_medians(
                data, np.random.default_rng(case), n_resamples
            )
            assert medians.tobytes() == expected.tobytes(), (n, n_resamples)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        """A row that draws a NaN has a NaN ``np.median``, which a
        median counted from ranks cannot give, so non-finite samples
        are refused up front."""
        with pytest.raises(SimulationError, match="finite"):
            bootstrap_median([1.0, bad, 2.0])
        with pytest.raises(SimulationError, match="finite"):
            bootstrap_median_ratio([1.0, 2.0], [1.0, bad])

    def test_peak_memory_stays_near_the_index_matrix(self):
        """Figure 1d's bootstrap (990 samples a side, 2,000 resamples)
        holds the index matrix plus one block of rows, not the gathered
        values of every resample as well."""
        data = np.random.default_rng(5)
        fair = data.normal(0.32, 0.01, size=990)
        unfair = data.normal(0.26, 0.01, size=990)
        index_bytes = 2000 * 990 * 8
        tracemalloc.start()
        try:
            bootstrap_median_ratio(fair, unfair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * index_bytes

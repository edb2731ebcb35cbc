"""Workload tests: model zoo, allreduce accounting, job specs, profiles."""

import pytest

from repro.errors import WorkloadError
from repro.units import gbps, ms
from repro.workloads.allreduce import (
    AllreduceAlgorithm,
    allreduce_steps,
    bytes_per_worker,
)
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.job import JobSpec
from repro.workloads.models import MODEL_ZOO, model
from repro.workloads.profiles import (
    EFFECTIVE_BOTTLENECK,
    figure2_vgg19_pair,
    figure3_vgg16,
    paper_profile,
    table1_groups,
)
from repro.workloads.traces import demand_trace


class TestModelZoo:
    def test_known_models_present(self):
        for name in ("vgg16", "vgg19", "resnet50", "wideresnet",
                     "bert", "dlrm"):
            assert name in MODEL_ZOO

    def test_lookup_case_insensitive(self):
        assert model("VGG16") is MODEL_ZOO["vgg16"]

    def test_unknown_model_rejected(self):
        with pytest.raises(WorkloadError):
            model("alexnet")

    def test_gradient_bytes_fp32(self):
        # VGG16: 138.4M params x 4 bytes.
        assert model("vgg16").gradient_bytes == pytest.approx(553.6e6)

    def test_compute_scales_with_batch(self):
        spec = model("resnet50")
        assert spec.compute_time(200) == pytest.approx(
            2 * spec.compute_time(100)
        )

    def test_compute_rejects_bad_batch(self):
        with pytest.raises(WorkloadError):
            model("vgg16").compute_time(0)

    def test_vgg19_larger_than_vgg16(self):
        assert model("vgg19").params_millions > model("vgg16").params_millions


class TestAllreduce:
    def test_ring_formula(self):
        # 2(N-1)/N * S for N=4, S=100
        assert bytes_per_worker(100.0, 4) == pytest.approx(150.0)

    def test_ring_approaches_2s(self):
        assert bytes_per_worker(100.0, 1000) == pytest.approx(199.8)

    def test_single_worker_no_traffic(self):
        for algo in AllreduceAlgorithm:
            assert bytes_per_worker(100.0, 1, algo) == 0.0

    def test_tree(self):
        assert bytes_per_worker(
            100.0, 8, AllreduceAlgorithm.TREE
        ) == pytest.approx(200.0)

    def test_parameter_server(self):
        assert bytes_per_worker(
            100.0, 8, AllreduceAlgorithm.PARAMETER_SERVER
        ) == pytest.approx(200.0)

    def test_broadcast_scales_with_n(self):
        assert bytes_per_worker(
            100.0, 5, AllreduceAlgorithm.BROADCAST
        ) == pytest.approx(400.0)

    def test_hierarchical_less_than_broadcast(self):
        h = bytes_per_worker(100.0, 16, AllreduceAlgorithm.HIERARCHICAL)
        b = bytes_per_worker(100.0, 16, AllreduceAlgorithm.BROADCAST)
        assert h < b

    def test_steps_ring(self):
        assert allreduce_steps(8, AllreduceAlgorithm.RING) == 14

    def test_steps_tree_logarithmic(self):
        assert allreduce_steps(8, AllreduceAlgorithm.TREE) == 6

    def test_negative_bytes_rejected(self):
        with pytest.raises(WorkloadError):
            bytes_per_worker(-1.0, 4)

    def test_zero_workers_rejected(self):
        with pytest.raises(WorkloadError):
            bytes_per_worker(10.0, 0)


class TestJobSpec:
    def test_solo_times(self):
        spec = JobSpec("j", compute_time=0.1, comm_bytes=gbps(42) * 0.05)
        assert spec.solo_comm_time(gbps(42)) == pytest.approx(0.05)
        assert spec.solo_iteration_time(gbps(42)) == pytest.approx(0.15)
        assert spec.comm_fraction(gbps(42)) == pytest.approx(1 / 3)

    def test_from_model(self):
        spec = JobSpec.from_model("j", "resnet50", batch_size=256)
        assert spec.model_name == "resnet50"
        assert spec.comm_bytes > 0
        assert spec.compute_time > 0

    def test_with_id_and_jitter(self):
        spec = JobSpec("j", 0.1, 1e6)
        assert spec.with_id("k").job_id == "k"
        assert spec.with_jitter(0.05).compute_jitter == 0.05
        # original unchanged (frozen)
        assert spec.compute_jitter == 0.0

    def test_validation(self):
        with pytest.raises(WorkloadError):
            JobSpec("", 0.1, 1e6)
        with pytest.raises(WorkloadError):
            JobSpec("j", -0.1, 1e6)
        with pytest.raises(WorkloadError):
            JobSpec("j", 0.1, 0.0)
        with pytest.raises(WorkloadError):
            JobSpec("j", 0.1, 1e6, compute_jitter=1.0)
        with pytest.raises(WorkloadError):
            JobSpec("j", 0.1, 1e6, n_workers=0)

    @pytest.mark.parametrize("compute_time,comm_bytes", [
        (float("nan"), 1e6),
        (float("inf"), 1e6),
        (0.1, float("inf")),
        (0.1, float("nan")),
    ], ids=["nan-compute", "inf-compute", "inf-bytes", "nan-bytes"])
    def test_non_finite_refused(self, compute_time, comm_bytes):
        with pytest.raises(WorkloadError, match="finite"):
            JobSpec("a", compute_time, comm_bytes)


class TestPaperProfiles:
    def test_figure3_vgg16_matches_paper(self):
        spec = figure3_vgg16()
        assert spec.compute_time == pytest.approx(ms(141))
        assert spec.solo_iteration_time(
            EFFECTIVE_BOTTLENECK
        ) == pytest.approx(ms(255))

    def test_figure2_pair_symmetric(self):
        j1, j2 = figure2_vgg19_pair()
        assert j1.compute_time == j2.compute_time
        assert j1.comm_bytes == j2.comm_bytes
        assert j1.job_id != j2.job_id

    def test_figure2_pair_anchors(self):
        j1, _ = figure2_vgg19_pair()
        assert j1.compute_time == pytest.approx(ms(100))
        assert j1.solo_comm_time(EFFECTIVE_BOTTLENECK) == pytest.approx(
            ms(110)
        )

    def test_table1_has_five_groups(self):
        groups = table1_groups()
        assert len(groups) == 5
        assert [g.paper_compatible for g in groups] == [
            False, True, False, True, True
        ]

    def test_dlrm_solo_matches_unfair_column(self):
        # The paper's point: unfair time of a compatible pair ~= solo.
        group2 = table1_groups()[1]
        for entry in group2.entries:
            solo = entry.spec.solo_iteration_time(EFFECTIVE_BOTTLENECK)
            assert solo * 1e3 == pytest.approx(
                entry.paper_unfair_ms, rel=0.02
            )

    def test_fair_column_consistent_with_full_overlap(self):
        # Fair sharing of two identical jobs: C + 2*Tc.
        group2 = table1_groups()[1]
        entry = group2.entries[0]
        spec = entry.spec
        expected = spec.compute_time + 2 * spec.solo_comm_time(
            EFFECTIVE_BOTTLENECK
        )
        assert expected * 1e3 == pytest.approx(entry.paper_fair_ms, rel=0.01)

    def test_paper_profile_lookup(self):
        assert paper_profile("dlrm-a-g2").model_name == "dlrm"
        assert paper_profile("vgg16-fig3").job_id == "vgg16-fig3"
        assert paper_profile("vgg19-fig2").job_id == "J1"

    def test_unknown_profile_rejected(self):
        with pytest.raises(WorkloadError):
            paper_profile("gpt4")

    def test_jitter_passthrough(self):
        j1, _ = figure2_vgg19_pair(jitter=0.03)
        assert j1.compute_jitter == 0.03


class TestGenerator:
    def test_seeded_determinism(self):
        a = WorkloadGenerator(seed=5).jobs(4)
        b = WorkloadGenerator(seed=5).jobs(4)
        assert [j.comm_bytes for j in a] == [j.comm_bytes for j in b]

    def test_jobs_within_configured_ranges(self):
        gen = WorkloadGenerator(
            seed=1,
            iteration_range_ms=(100, 500),
            comm_fraction_range=(0.1, 0.4),
        )
        for spec in gen.jobs(20):
            iteration = spec.solo_iteration_time(gbps(42))
            assert ms(95) <= iteration <= ms(510)
            assert 0.08 <= spec.comm_fraction(gbps(42)) <= 0.42

    def test_unique_ids(self):
        ids = [j.job_id for j in WorkloadGenerator().jobs(10)]
        assert len(set(ids)) == 10

    def test_arrival_times_increasing(self):
        times = WorkloadGenerator(seed=2).arrival_times(10, 30.0)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_bad_config_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(iteration_range_ms=(500, 100))
        with pytest.raises(WorkloadError):
            WorkloadGenerator(comm_fraction_range=(0.5, 0.2))
        with pytest.raises(WorkloadError):
            WorkloadGenerator().jobs(-1)


class TestDemandTrace:
    def test_on_off_pattern(self):
        spec = JobSpec("j", compute_time=0.1, comm_bytes=gbps(10) * 0.05)
        trace = demand_trace(spec, gbps(10), n_iterations=2)
        assert trace.value_at(0.05) == 0.0  # computing
        assert trace.value_at(0.12) == pytest.approx(gbps(10))  # comm
        assert trace.value_at(0.16) == 0.0  # next compute
        assert trace.value_at(0.27) == pytest.approx(gbps(10))

    def test_total_bytes_match(self):
        spec = JobSpec("j", compute_time=0.1, comm_bytes=5e8)
        trace = demand_trace(spec, gbps(42), n_iterations=3)
        total = trace.integrate(0.0, 3 * spec.solo_iteration_time(gbps(42)))
        assert total == pytest.approx(3 * spec.comm_bytes, rel=1e-9)

    def test_bad_args_rejected(self):
        spec = JobSpec("j", 0.1, 1e6)
        with pytest.raises(WorkloadError):
            demand_trace(spec, gbps(10), 0)
        with pytest.raises(WorkloadError):
            demand_trace(spec, 0.0, 1)

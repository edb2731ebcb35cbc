"""Tests for batch-size scaling laws and the compatibility frontier."""

import pytest

from repro.errors import WorkloadError
from repro.units import gbps
from repro.workloads.allreduce import AllreduceAlgorithm
from repro.workloads.scaling import (
    scaling_profile,
    self_compatibility_threshold,
)

CAP = gbps(42)


class TestScalingProfile:
    def test_comm_fraction_falls_with_batch(self):
        points = scaling_profile("vgg16", [64, 256, 1024, 4096])
        fractions = [p.comm_fraction for p in points]
        assert fractions == sorted(fractions, reverse=True)

    def test_comm_time_constant_across_batches(self):
        points = scaling_profile("vgg16", [64, 4096])
        assert points[0].comm_time == pytest.approx(points[1].comm_time)

    def test_compute_scales_linearly(self):
        points = scaling_profile("resnet50", [100, 200])
        assert points[1].compute_time == pytest.approx(
            2 * points[0].compute_time
        )

    def test_self_compatible_flag_matches_fraction(self):
        for point in scaling_profile("vgg19", [32, 512, 8192]):
            assert point.self_compatible == (point.comm_fraction <= 0.5)

    def test_sharing_capacity_inverse_of_fraction(self):
        points = scaling_profile("resnet50", [4096])
        point = points[0]
        assert point.sharing_capacity == int(1.0 / point.comm_fraction)

    def test_empty_batches_rejected(self):
        with pytest.raises(WorkloadError):
            scaling_profile("vgg16", [])

    def test_unknown_model_rejected(self):
        with pytest.raises(WorkloadError):
            scaling_profile("alexnet", [64])


class TestThreshold:
    def test_threshold_is_the_frontier(self):
        threshold = self_compatibility_threshold("vgg16")
        assert threshold is not None
        below = scaling_profile("vgg16", [threshold - 1])[0]
        at = scaling_profile("vgg16", [threshold])[0]
        assert not below.self_compatible
        assert at.self_compatible

    def test_small_models_need_small_batches(self):
        # ResNet50's gradient is ~5x smaller than VGG19's, so it crosses
        # the frontier at a much smaller batch.
        resnet = self_compatibility_threshold("resnet50")
        vgg = self_compatibility_threshold("vgg19")
        assert resnet is not None and vgg is not None
        assert resnet < vgg

    def test_max_batch_bound(self):
        assert self_compatibility_threshold(
            "vgg19", max_batch=2
        ) is None

    def test_broadcast_needs_bigger_batches_than_ring(self):
        ring = self_compatibility_threshold(
            "vgg16", algorithm=AllreduceAlgorithm.RING
        )
        broadcast = self_compatibility_threshold(
            "vgg16", algorithm=AllreduceAlgorithm.BROADCAST
        )
        assert ring is not None and broadcast is not None
        assert broadcast > ring

    def test_single_worker_trivially_compatible(self):
        assert self_compatibility_threshold("vgg16", n_workers=1) == 1


class TestSharingCapacity:
    def test_large_batch_hosts_many_copies(self):
        small, large = scaling_profile("resnet50", [128, 8192])
        assert large.sharing_capacity > small.sharing_capacity

    def test_capacity_at_least_one(self):
        assert scaling_profile("bert", [1])[0].sharing_capacity >= 1

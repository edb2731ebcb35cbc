"""ML training workload models.

Replaces the paper's real DNN training jobs with calibrated synthetic
equivalents: a :class:`JobSpec` captures exactly what the paper's geometric
abstraction consumes — the compute-phase duration, the bytes injected into
the network per iteration, and the resulting periodic on-off pattern.

* :mod:`repro.workloads.models` — the model zoo (VGG16/19, ResNet50,
  WideResNet, BERT, DLRM) with parameter counts and per-sample compute
  coefficients.
* :mod:`repro.workloads.allreduce` — bytes-on-wire accounting for ring,
  tree, parameter-server and hierarchical allreduce.
* :mod:`repro.workloads.profiles` — profiles calibrated to the paper's
  reported numbers (Figure 3's VGG16, Table 1's rows, Figure 2's VGG19).
* :mod:`repro.workloads.generator` — random job mixes for the scheduler
  experiments.
* :mod:`repro.workloads.traces` — on-off network demand traces.
"""

from .models import ModelSpec, MODEL_ZOO, model
from .allreduce import (
    AllreduceAlgorithm,
    bytes_per_worker,
)
from .job import JobSpec
from .profiles import (
    paper_profile,
    figure2_vgg19_pair,
    figure3_vgg16,
    table1_groups,
    Table1Group,
    Table1Entry,
)
from .generator import WorkloadGenerator
from .traces import demand_trace
from .profiler import ProfiledJob, on_off_phases, profile_trace
from .scaling import (
    ScalingPoint,
    scaling_profile,
    self_compatibility_threshold,
)

__all__ = [
    "ModelSpec",
    "MODEL_ZOO",
    "model",
    "AllreduceAlgorithm",
    "bytes_per_worker",
    "JobSpec",
    "paper_profile",
    "figure2_vgg19_pair",
    "figure3_vgg16",
    "table1_groups",
    "Table1Group",
    "Table1Entry",
    "WorkloadGenerator",
    "demand_trace",
    "ProfiledJob",
    "on_off_phases",
    "profile_trace",
    "ScalingPoint",
    "scaling_profile",
    "self_compatibility_threshold",
]

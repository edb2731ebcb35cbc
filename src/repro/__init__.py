"""repro — reproduction of "Congestion Control in Machine Learning
Clusters" (HotNets '22).

Public API re-exports the pieces a downstream user needs: the geometric
abstraction (:mod:`repro.core`), workload models (:mod:`repro.workloads`),
the simulators (:mod:`repro.net`, :mod:`repro.cc`), the three §4 mechanisms
(:mod:`repro.mechanisms`) and the compatibility-aware scheduler
(:mod:`repro.scheduler`).

Quickstart::

    from repro import (
        CompatibilityChecker, JobSpec, PhaseLevelSimulator,
        Topology, make_policy, gbps, ms,
    )

    j1 = JobSpec("j1", compute_time=ms(100), comm_bytes=ms(110) * gbps(42))
    j2 = JobSpec("j2", compute_time=ms(100), comm_bytes=ms(110) * gbps(42))

    result = CompatibilityChecker().check([j1, j2])
    print(result.compatible, result.rotations)
"""

from .errors import (
    ReproError,
    ConfigError,
    SimulationError,
    TopologyError,
    RoutingError,
    AllocationError,
    WorkloadError,
    GeometryError,
    CompatibilityError,
    PlacementError,
)
from .units import gbps, mbps, ms, us, seconds, to_gbps, to_milliseconds
from .net import (
    Topology,
    NodeKind,
    Link,
    Router,
    EcmpRouter,
    Flow,
    FluidAllocator,
    PhaseLevelSimulator,
    SimulationResult,
)
from .cc import (
    SharePolicy,
    FairSharing,
    StaticWeighted,
    AdaptiveUnfair,
    PrioritySharing,
    DcqcnParams,
    DcqcnFluidSimulator,
    calibrate_timer_weights,
    make_policy,
)
from .workloads import (
    JobSpec,
    ModelSpec,
    MODEL_ZOO,
    WorkloadGenerator,
    paper_profile,
    figure2_vgg19_pair,
    figure3_vgg16,
    table1_groups,
)
from .core import (
    Arc,
    ArcSet,
    Gate,
    IterationSample,
    JobLifecycle,
    JobState,
    JobTimeline,
    OnOffSource,
    JobCircle,
    UnifiedCircle,
    CompatibilityChecker,
    CompatibilityResult,
    ClusterCompatibilityProblem,
    ClusterCompatibilityResult,
    TuningSuggestion,
    suggest_compute_scaling,
    rotation_to_degrees,
    communication_schedule,
)
from .mechanisms import (
    adaptive_policy,
    timer_skew_policy,
    aggressiveness_policy,
    PriorityAssigner,
    PeriodicGate,
    FlowSchedule,
    CongestionFreeController,
    DeploymentPlan,
    Mechanism,
)
from .telemetry import (
    Telemetry,
    TraceRecord,
    Registry,
)
from .telemetry import NULL as NULL_TELEMETRY
from .telemetry import current as current_telemetry
from .telemetry import use as use_telemetry
from .io import load_workload, save_workload, load_trace, save_trace
from .scheduler import (
    ClusterState,
    PlacedJob,
    RandomPlacement,
    ConsolidatedPlacement,
    CompatibilityAwarePlacement,
    ClusterSimulation,
    ClusterReport,
)
from .analysis import (
    summarize,
    speedup,
    empirical_cdf,
    ascii_table,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError", "ConfigError", "SimulationError", "TopologyError",
    "RoutingError", "AllocationError", "WorkloadError", "GeometryError",
    "CompatibilityError", "PlacementError",
    # units
    "gbps", "mbps", "ms", "us", "seconds", "to_gbps", "to_milliseconds",
    # net
    "Topology", "NodeKind", "Link", "Router", "EcmpRouter", "Flow",
    "FluidAllocator", "PhaseLevelSimulator", "SimulationResult",
    # cc
    "SharePolicy", "FairSharing", "StaticWeighted", "AdaptiveUnfair",
    "PrioritySharing", "DcqcnParams", "DcqcnFluidSimulator",
    "calibrate_timer_weights", "make_policy",
    # workloads
    "JobSpec", "ModelSpec", "MODEL_ZOO", "WorkloadGenerator",
    "paper_profile", "figure2_vgg19_pair", "figure3_vgg16", "table1_groups",
    # core
    "Arc", "ArcSet", "JobCircle", "UnifiedCircle",
    "Gate", "IterationSample", "JobLifecycle", "JobState",
    "JobTimeline", "OnOffSource",
    "CompatibilityChecker", "CompatibilityResult",
    "ClusterCompatibilityProblem", "ClusterCompatibilityResult",
    "TuningSuggestion", "suggest_compute_scaling",
    "rotation_to_degrees", "communication_schedule",
    # mechanisms
    "adaptive_policy", "timer_skew_policy", "aggressiveness_policy",
    "PriorityAssigner", "PeriodicGate", "FlowSchedule",
    "CongestionFreeController", "DeploymentPlan", "Mechanism",
    # telemetry
    "Telemetry", "TraceRecord", "Registry", "NULL_TELEMETRY",
    "current_telemetry", "use_telemetry",
    # io
    "load_workload", "save_workload", "load_trace", "save_trace",
    # scheduler
    "ClusterState", "PlacedJob", "RandomPlacement",
    "ConsolidatedPlacement", "CompatibilityAwarePlacement",
    "ClusterSimulation", "ClusterReport",
    # analysis
    "summarize", "speedup", "empirical_cdf", "ascii_table",
    "__version__",
]

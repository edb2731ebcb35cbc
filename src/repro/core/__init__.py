"""The paper's geometric abstraction, job lifecycle, and compatibility machinery.

Time is *rolled around a circle* whose perimeter equals a job's training
iteration time; communication phases become arcs (§3, Figure 3). Jobs with
different iteration times live on a **unified circle** whose perimeter is
the LCM of their iteration times (Figure 5). A set of jobs is **fully
compatible** when rotations exist under which no point of the circle is
covered by more than one job's communication arcs (Figure 4) — rotating a
circle is equivalent to the sliding side effect of unfair congestion
control.

Durations are quantized to integer ticks (microseconds by default) so that
LCM arithmetic and overlap tests are exact.
"""

from .arcs import Arc, ArcSet
from .lifecycle import Gate, JobLifecycle, JobState, OnOffSource
from .timeline import IterationSample, JobTimeline
from .circle import JobCircle
from .unified import UnifiedCircle, unified_perimeter
from .compatibility import (
    CompatibilityChecker,
    CompatibilityResult,
)
from .optimize import (
    solve,
    solve_fractional,
    exact_pair_feasible_rotations,
    feasible_against,
    backtracking_search,
    greedy_search,
    annealing_search,
    exhaustive_search,
)
from .cluster_compat import (
    ClusterCompatibilityProblem,
    ClusterCompatibilityResult,
)
from .tuning import TuningSuggestion, scale_compute, suggest_compute_scaling
from .prediction import (
    fair_lockstep_iteration_time,
    steady_period_lower_bound,
    unfairness_speedup_estimate,
)
from .rotation import (
    rotation_to_seconds,
    rotation_to_degrees,
    degrees_to_rotation,
    communication_schedule,
)
from .metrics import (
    min_overlap,
    compatibility_score,
    pairwise_compatibility_matrix,
)

__all__ = [
    "Arc",
    "ArcSet",
    "Gate",
    "IterationSample",
    "JobLifecycle",
    "JobState",
    "JobTimeline",
    "OnOffSource",
    "JobCircle",
    "UnifiedCircle",
    "unified_perimeter",
    "CompatibilityChecker",
    "CompatibilityResult",
    "solve",
    "solve_fractional",
    "exact_pair_feasible_rotations",
    "feasible_against",
    "backtracking_search",
    "greedy_search",
    "annealing_search",
    "exhaustive_search",
    "ClusterCompatibilityProblem",
    "ClusterCompatibilityResult",
    "TuningSuggestion",
    "scale_compute",
    "suggest_compute_scaling",
    "fair_lockstep_iteration_time",
    "steady_period_lower_bound",
    "unfairness_speedup_estimate",
    "rotation_to_seconds",
    "rotation_to_degrees",
    "degrees_to_rotation",
    "communication_schedule",
    "min_overlap",
    "compatibility_score",
    "pairwise_compatibility_matrix",
]

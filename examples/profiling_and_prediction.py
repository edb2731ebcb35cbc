#!/usr/bin/env python
"""Profile a job from its raw traffic, predict, then verify by simulation.

The full §4 scheduler workflow on one page:

1. run a job solo and record its NIC rate trace,
2. recover its on-off profile from the *trace alone* (no ground truth),
3. build its circle and check compatibility against a candidate partner,
4. predict the fair-sharing and best-case iteration times analytically,
5. verify both predictions in the phase-level simulator.

Run:
    python examples/profiling_and_prediction.py
"""

from repro import (
    CompatibilityChecker,
    FairSharing,
    JobCircle,
    JobSpec,
    StaticWeighted,
    ascii_table,
    gbps,
    ms,
)
from repro.analysis.circleplot import render_coverage_band
from repro.core.prediction import (
    fair_lockstep_iteration_time,
    unfairness_speedup_estimate,
)
from repro.experiments.common import run_jobs
from repro.net.phasesim import PhaseLevelSimulator
from repro.net.topology import Topology
from repro.workloads.profiler import profile_trace

CAPACITY = gbps(42)


def main() -> None:
    # --- 1. run the job solo and record its traffic -------------------
    secret_spec = JobSpec(
        "mystery", compute_time=ms(141), comm_bytes=ms(114) * CAPACITY
    )
    topo = Topology.dumbbell(
        host_capacity=CAPACITY, bottleneck_capacity=CAPACITY
    )
    sim = PhaseLevelSimulator(topo, FairSharing())
    run = sim.add_job(secret_spec, "ha0", "hb0", n_iterations=8)
    result = sim.run()

    # --- 2. profile from the trace alone ------------------------------
    profile = profile_trace(run.rate_trace, 0.0, result.duration)
    print(ascii_table(
        ["measured from trace", "value"],
        [
            ("iteration time", f"{profile.iteration_time * 1e3:.0f} ms"),
            ("compute phase", f"{profile.compute_time * 1e3:.0f} ms"),
            ("communication phase", f"{profile.comm_time * 1e3:.0f} ms"),
            ("bandwidth demand",
             f"{profile.bandwidth_demand * 8 / 1e9:.1f} Gbps"),
        ],
        title="Step 1-2: profiling a job in isolation (Figure 3's input)",
    ))
    print()

    # --- 3. compatibility against a candidate partner -----------------
    compute_ticks, comm_ticks = profile.circle_ticks(1000)
    mystery = JobCircle.from_phases("mystery", compute_ticks, comm_ticks)
    partner = JobCircle.from_phases("partner", 141, 114)
    checker = CompatibilityChecker(capacity=CAPACITY)
    verdict = checker.check_circles([mystery, partner])
    print(f"mystery + partner compatible: {verdict.compatible} "
          f"({verdict.method})")
    print("coverage:",
          render_coverage_band([mystery, partner], verdict.rotations,
                               width=60))
    print()

    # --- 4. analytic predictions --------------------------------------
    pair = [
        JobSpec("m1", ms(141), ms(114) * CAPACITY),
        JobSpec("m2", ms(141), ms(114) * CAPACITY),
    ]
    fair_predicted = fair_lockstep_iteration_time(pair, CAPACITY)
    speedup_predicted = unfairness_speedup_estimate(pair, CAPACITY)

    # --- 5. verify both in the simulator ------------------------------
    fair = run_jobs(pair, FairSharing(), n_iterations=30,
                    capacity=CAPACITY)
    unfair = run_jobs(
        pair, StaticWeighted.from_aggressiveness_order(["m1", "m2"]),
        n_iterations=30, capacity=CAPACITY,
    )
    fair_measured = fair.mean_iteration_time("m1", skip=10)
    speedup_measured = fair_measured / unfair.mean_iteration_time(
        "m1", skip=10
    )
    print(ascii_table(
        ["quantity", "predicted", "simulated"],
        [
            ("fair iteration time",
             f"{fair_predicted * 1e3:.0f} ms",
             f"{fair_measured * 1e3:.0f} ms"),
            ("unfairness speedup",
             f"{speedup_predicted:.2f}x",
             f"{speedup_measured:.2f}x"),
        ],
        title="Steps 4-5: analytic prediction vs simulation",
    ))


if __name__ == "__main__":
    main()

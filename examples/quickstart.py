#!/usr/bin/env python
"""Quickstart: is unfairness good for *your* pair of training jobs?

Builds two data-parallel training jobs, checks their compatibility with
the paper's geometric abstraction, then simulates them sharing a 42 Gbps
bottleneck under fair and unfair congestion control — reproducing the
paper's core observation in ~30 lines of API use.

Run:
    python examples/quickstart.py
"""

from repro import (
    AdaptiveUnfair,
    CompatibilityChecker,
    FairSharing,
    JobSpec,
    StaticWeighted,
    ascii_table,
    gbps,
    ms,
    rotation_to_degrees,
)
from repro.experiments.common import run_jobs

CAPACITY = gbps(42)


def main() -> None:
    # Two DLRM-like jobs: 701 ms of compute, then 300 ms worth of
    # gradient traffic per iteration (Table 1, group 2).
    j1 = JobSpec("dlrm-1", compute_time=ms(701),
                 comm_bytes=ms(300) * CAPACITY)
    j2 = JobSpec("dlrm-2", compute_time=ms(701),
                 comm_bytes=ms(300) * CAPACITY)

    # 1. The geometric abstraction: are these jobs compatible?
    checker = CompatibilityChecker(capacity=CAPACITY)
    verdict = checker.check([j1, j2])
    print(f"compatible: {verdict.compatible}  "
          f"(solver: {verdict.method}, certified: {verdict.certified})")
    for job_id, ticks in verdict.rotations.items():
        degrees = rotation_to_degrees(ticks, verdict.unified_perimeter)
        print(f"  rotate {job_id} by {ticks} ms = {degrees:.0f} deg")

    # 2. Simulate fair vs unfair sharing of the bottleneck.
    rows = []
    for name, policy in [
        ("fair", FairSharing()),
        ("unfair 2:1",
         StaticWeighted.from_aggressiveness_order([j1.job_id, j2.job_id])),
        ("adaptive", AdaptiveUnfair()),
    ]:
        result = run_jobs(
            [j1, j2], policy, n_iterations=30, capacity=CAPACITY,
            start_offsets={j2.job_id: ms(7)},
        )
        rows.append(
            (
                name,
                f"{result.mean_iteration_time(j1.job_id, skip=10) * 1e3:.0f}",
                f"{result.mean_iteration_time(j2.job_id, skip=10) * 1e3:.0f}",
            )
        )
    solo_ms = j1.solo_iteration_time(CAPACITY) * 1e3
    rows.append(("solo (dedicated)", f"{solo_ms:.0f}", f"{solo_ms:.0f}"))
    print()
    print(ascii_table(
        ["policy", f"{j1.job_id} ms", f"{j2.job_id} ms"],
        rows,
        title="Mean iteration time on the shared bottleneck",
    ))
    print()
    print("Unfairness (and the adaptive rule) recover dedicated-network "
          "speed for compatible jobs — the paper's headline result.")


if __name__ == "__main__":
    main()

"""Online scheduling: the cluster service under Poisson arrival streams.

The batch experiments (:mod:`.scheduler_exp`) freeze one cluster snapshot
and compare placements; this driver runs the *online* question the paper's
§4 placement argument implies: over a stream of arrivals and departures,
how do placement policies differ in admission rate, cluster-wide
compatibility rate and congestion (a slowdown proxy), and what does the
incremental engine's solver reuse buy?

Each cell of the sweep (arrival rate x placement policy) is one
``service``-backend :class:`~repro.runner.spec.RunSpec` — deterministic,
content-hashed, cacheable — executed through :func:`repro.runner.
run_many`. Placement latency is wall-clock and therefore *not* part of
the run result or of its cached telemetry: each attempt is a
``service.place`` span, which ``run_many`` appends to the ambient
session's span log and :func:`main` reports when spans exist. A cache
hit replays no spans, so a fully cached re-run reports no latency rather
than a latency measured by some earlier process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

import numpy as np

from ..analysis.report import ascii_table
from ..runner import RunSpec, run_many
from ..telemetry import current
from ..units import to_milliseconds

#: The placement policies the sweep compares.
POLICIES = ("random", "consolidated", "compatibility-aware")

#: Mean inter-arrival gaps (seconds): a calm and a congested regime.
ARRIVAL_GAPS_S = (45.0, 15.0)


@dataclass
class OnlineOutcome:
    """One (arrival rate, policy) cell of the online sweep."""

    policy: str
    mean_interarrival_s: float
    data: Dict[str, Any]

    @property
    def engine_stats(self) -> Dict[str, int]:
        """The incremental engine's solver-reuse counters."""
        return dict(self.data.get("engine", {}))


def online_spec(
    policy: str,
    mean_interarrival_s: float,
    n_arrivals: int = 60,
    mean_lifetime_s: float = 400.0,
    seed: int = 0,
    n_racks: int = 6,
    hosts_per_rack: int = 1,
    gpus_per_host: int = 4,
) -> RunSpec:
    """One declarative ``service``-backend run of the online sweep."""
    return RunSpec(
        backend="service",
        label=f"online-{policy}-gap{mean_interarrival_s:g}",
        seed=seed,
        options=(
            ("n_arrivals", n_arrivals),
            ("mean_interarrival_s", mean_interarrival_s),
            ("mean_lifetime_s", mean_lifetime_s),
            ("lifetime_model", "pareto"),
            ("placement", policy),
            ("n_racks", n_racks),
            ("hosts_per_rack", hosts_per_rack),
            ("gpus_per_host", gpus_per_host),
            ("queue_limit", 16),
        ),
    )


def run_online(
    policies: Sequence[str] = POLICIES,
    arrival_gaps_s: Sequence[float] = ARRIVAL_GAPS_S,
    n_arrivals: int = 60,
    seed: int = 0,
) -> List[OnlineOutcome]:
    """Sweep arrival rate x placement policy through the runner."""
    cells = [
        (policy, gap)
        for gap in arrival_gaps_s
        for policy in policies
    ]
    specs = [
        online_spec(policy, gap, n_arrivals=n_arrivals, seed=seed)
        for policy, gap in cells
    ]
    results = run_many(specs)
    return [
        OnlineOutcome(
            policy=policy,
            mean_interarrival_s=gap,
            data=dict(result.data),
        )
        for (policy, gap), result in zip(cells, results)
    ]


def report(outcomes: Sequence[OnlineOutcome]) -> str:
    """Render the online sweep as a table."""
    rows = []
    for outcome in outcomes:
        data = outcome.data
        engine = outcome.engine_stats
        adds = int(engine.get("adds", 0))
        solves = int(engine.get("component_solves", 0))
        screens = int(engine.get("screen_admits", 0))
        rows.append(
            (
                f"{outcome.mean_interarrival_s:g}",
                outcome.policy,
                f"{data['admission_rate']:.2f}",
                f"{data['compatibility_rate']:.2f}",
                f"{data['mean_slowdown_proxy']:.3f}",
                str(data["peak_concurrent"]),
                f"{screens}/{adds}",
                str(solves),
            )
        )
    return ascii_table(
        ["gap (s)", "placement policy", "admission", "compatible",
         "slowdown proxy", "peak jobs", "screens/adds", "solves"],
        rows,
        title="online service — arrival rate x placement policy",
    )


def placement_latency_line() -> str:
    """P50/p99 placement latency from the ambient session's span log.

    Wall-clock latency never enters run results or the cache; the
    ``service.place`` spans are those of the specs this process executed,
    so there are none when every spec was a cache hit or telemetry is off.
    """
    latencies_ms = [
        to_milliseconds(span.duration)
        for span in current().spans.completed
        if span.name == "service.place"
    ]
    if not latencies_ms:
        return "placement latency: - (cache hits or telemetry off)"
    p50, p99 = np.percentile(latencies_ms, [50, 99])
    return (
        f"placement latency: p50 {p50:.3f} ms, p99 {p99:.3f} ms "
        f"over {len(latencies_ms)} placements"
    )


def main() -> None:
    """Print the online service sweep."""
    with current().span("experiment.online"):
        outcomes = run_online()
        print(report(outcomes))
        print()
        print(placement_latency_line())


if __name__ == "__main__":
    main()

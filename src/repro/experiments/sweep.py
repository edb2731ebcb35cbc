"""Population sweep: when does compatibility-aware sharing matter?

The paper demonstrates its effect on hand-picked job groups; an operator
wants to know how often *random* pairs in a real mix are compatible, and
how much unfairness buys when they are. This sweep draws random job pairs
at each communication-fraction level and measures:

* the probability that a pair is fully compatible (exact check), and
* the achievable unfairness speedup over fair lockstep for the
  compatible pairs (analytic, verified against the simulator elsewhere).

The shape is the paper's story quantified: below ~50% communication
fraction equal-period pairs are always compatible and the payoff grows
linearly with the fraction; past 50% full compatibility collapses and
only partial relief remains.

Each fraction level is one :class:`~repro.runner.spec.RunSpec` against a
sweep-specific backend, with its own derived seed — so
``repro-experiments run sweep --jobs N`` evaluates the levels in
parallel without changing any level's sample stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..telemetry import current
from ..analysis.report import ascii_table
from ..cc.dcqcn import AGGRESSIVE_TIMER, DEFAULT_TIMER
from ..core.circle import JobCircle
from ..core.optimize import exact_pair_feasible_rotations
from ..runner import (
    RunResult,
    RunSpec,
    ScenarioSpec,
    SenderSpec,
    derive_seed,
    register,
    run_many,
    safe_content_hash,
)
from ..sim.rng import RandomStreams

#: Registry name of the point evaluator below.
SWEEP_BACKEND = "sweep-point"


@dataclass
class SweepPoint:
    """Outcome at one communication-fraction level.

    Attributes:
        comm_fraction: Target communication fraction of both jobs.
        compatible_rate: Fraction of sampled pairs fully compatible.
        mean_speedup: Mean fair-lockstep-over-interleaved speedup across
            compatible pairs (NaN when none were compatible — "no data",
            deliberately distinct from "no payoff").
    """

    comm_fraction: float
    compatible_rate: float
    mean_speedup: float


def _random_pair(
    rng: np.random.Generator,
    comm_fraction: float,
    same_period: bool,
) -> List[JobCircle]:
    period_a = int(rng.integers(100, 1000))
    period_b = period_a if same_period else int(rng.integers(100, 1000))
    comm_a = max(1, round(period_a * comm_fraction))
    comm_b = max(1, round(period_b * comm_fraction))
    return [
        JobCircle.from_phases("a", period_a - comm_a, comm_a),
        JobCircle.from_phases("b", period_b - comm_b, comm_b),
    ]


def _pair_speedup(circles: Sequence[JobCircle]) -> float:
    """Fair-lockstep over perfect-interleave period for an (equal-period)
    pair; approximates the attainable unfairness payoff."""
    a, b = circles
    fair = max(
        a.perimeter + b.comm_ticks,
        b.perimeter + a.comm_ticks,
    )
    interleaved = max(
        a.perimeter, b.perimeter, a.comm_ticks + b.comm_ticks
    )
    return fair / interleaved


class SweepPointBackend:
    """Evaluates one communication-fraction level of the sweep."""

    name = SWEEP_BACKEND

    def execute(self, spec: RunSpec) -> RunResult:
        options = spec.options_dict()
        fraction = float(options["comm_fraction"])
        pairs_per_point = int(options["pairs_per_point"])
        same_period = bool(options["same_period"])
        rng = RandomStreams(spec.seed).get("sweep")
        compatible = 0
        speedups: List[float] = []
        for _ in range(pairs_per_point):
            circles = _random_pair(rng, fraction, same_period)
            feasible = exact_pair_feasible_rotations(*circles)
            if not feasible.is_empty:
                compatible += 1
                speedups.append(_pair_speedup(circles))
        return RunResult(
            spec_hash=safe_content_hash(spec),
            backend=self.name,
            label=spec.label,
            data={
                "comm_fraction": fraction,
                "compatible_rate": compatible / pairs_per_point,
                "mean_speedup": (
                    float(np.mean(speedups))
                    if speedups
                    else float("nan")
                ),
            },
        )


register(SWEEP_BACKEND, SweepPointBackend(), replace=True)


def point_specs(
    fractions: Sequence[float],
    pairs_per_point: int,
    same_period: bool,
    seed: int,
) -> List[RunSpec]:
    """One spec per fraction level, each with its own derived seed."""
    kind = "eq" if same_period else "mix"
    return [
        RunSpec(
            backend=SWEEP_BACKEND,
            backend_module="repro.experiments.sweep",
            label=f"sweep-{kind}-{fraction:g}",
            seed=derive_seed(seed, f"sweep:{kind}:{fraction!r}"),
            options=(
                ("comm_fraction", float(fraction)),
                ("pairs_per_point", int(pairs_per_point)),
                ("same_period", bool(same_period)),
            ),
        )
        for fraction in fractions
    ]


def run(
    fractions: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.45, 0.5, 0.55,
                                  0.6, 0.7),
    pairs_per_point: int = 60,
    same_period: bool = True,
    seed: int = 0,
) -> List[SweepPoint]:
    """Sweep communication fraction and sample pair compatibility."""
    results = run_many(
        point_specs(fractions, pairs_per_point, same_period, seed)
    )
    return [
        SweepPoint(
            comm_fraction=result.data["comm_fraction"],
            compatible_rate=result.data["compatible_rate"],
            mean_speedup=result.data["mean_speedup"],
        )
        for result in results
    ]


# ---------------------------------------------------------------------------
# Fluid validation grid — the "verified against the simulator" leg
# ---------------------------------------------------------------------------

@dataclass
class FluidGridPoint:
    """DCQCN-tier validation at one seed.

    Attributes:
        seed: Replication seed of this grid point.
        fair_share: Aggressive sender's bandwidth share, equal timers.
        unfair_share: Its share when its timer is aggressive.
        gain: ``unfair_share / fair_share`` — the directional payoff
            the analytic sweep predicts (> 1 when unfairness pays).
    """

    seed: int
    fair_share: float
    unfair_share: float
    gain: float


def fluid_grid_specs(
    seeds: Sequence[int], duration: float, seed: int = 0
) -> List[RunSpec]:
    """One fluid spec per replication seed: a fair/unfair DCQCN pair.

    Every spec shares the default ``dt`` and the given duration, so the
    whole grid is one group for the runner's grid tier. At two sender
    slots per spec it stays below
    :data:`~repro.runner.grid.MIN_GROUP_SLOTS` and runs spec by spec,
    where span fast-forward wins; only a grid of at least half that
    many seeds stacks, bit-identically.
    """
    def lineup(name: str, timer_j1: float) -> ScenarioSpec:
        return ScenarioSpec(
            name,
            (
                SenderSpec(name="J1", timer=timer_j1),
                SenderSpec(name="J2", timer=DEFAULT_TIMER),
            ),
        )

    return [
        RunSpec(
            backend="fluid",
            label=f"sweep-fluid-{replication}",
            seed=derive_seed(seed, f"sweep:fluid:{replication}"),
            duration=duration,
            scenarios=(
                lineup("fair", DEFAULT_TIMER),
                lineup("unfair", AGGRESSIVE_TIMER),
            ),
        )
        for replication in seeds
    ]


def fluid_grid(
    seeds: Sequence[int] = (0, 1, 2, 3),
    duration: float = 0.15,
    seed: int = 0,
    warmup: float = 0.03,
) -> List[FluidGridPoint]:
    """Validate the sweep's payoff direction on the DCQCN fluid tier.

    Runs a seeds-replicated fair/unfair grid (:func:`fluid_grid_specs`)
    through ``run_many`` and reports the aggressive sender's
    bandwidth-share gain per seed.
    """
    results = run_many(fluid_grid_specs(seeds, duration, seed))
    points: List[FluidGridPoint] = []
    for replication, result in zip(seeds, results):
        shares = {}
        for scenario in ("fair", "unfair"):
            trace = result.scenario(scenario).trace
            j1 = trace.mean_rate("J1", start=warmup)
            j2 = trace.mean_rate("J2", start=warmup)
            shares[scenario] = j1 / (j1 + j2)
        points.append(
            FluidGridPoint(
                seed=replication,
                fair_share=shares["fair"],
                unfair_share=shares["unfair"],
                gain=shares["unfair"] / shares["fair"],
            )
        )
    return points


def fluid_report(points: Sequence[FluidGridPoint]) -> str:
    """Render the fluid validation grid."""
    rows = [
        (
            str(p.seed),
            f"{p.fair_share:.1%}",
            f"{p.unfair_share:.1%}",
            f"{p.gain:.2f}x",
        )
        for p in points
    ]
    mean_gain = float(np.mean([p.gain for p in points]))
    rows.append(("mean", "", "", f"{mean_gain:.2f}x"))
    return ascii_table(
        ["seed", "fair share", "unfair share", "aggressive gain"],
        rows,
        title=(
            "Fluid validation grid — aggressive-timer bandwidth gain "
            "per replication seed (DCQCN fluid runs)"
        ),
    )


def report(points: Sequence[SweepPoint]) -> str:
    """Render the sweep (``—`` marks levels with no compatible pairs)."""
    rows = [
        (
            f"{p.comm_fraction:.0%}",
            f"{p.compatible_rate:.0%}",
            (
                "—"
                if math.isnan(p.mean_speedup)
                else f"{p.mean_speedup:.2f}x"
            ),
        )
        for p in points
    ]
    return ascii_table(
        ["comm fraction", "compatible pairs", "mean payoff when compatible"],
        rows,
        title=(
            "Population sweep — equal-period random pairs: compatibility "
            "probability and unfairness payoff vs communication fraction"
        ),
    )


def main() -> None:
    """Print the sweep for equal and mixed periods, then the fluid
    validation grid."""
    with current().span("experiment.sweep"):
        print(report(run(same_period=True)))
        print()
        mixed = run(same_period=False)
        print(report(mixed).replace("equal-period", "mixed-period"))
        print()
        print(fluid_report(fluid_grid()))


if __name__ == "__main__":
    main()

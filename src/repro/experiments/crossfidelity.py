"""Cross-fidelity validation: does the fine-grained DCQCN model agree?

The phase-level simulator asserts that a static weight skew slides
compatible jobs apart. That abstraction is only trustworthy if the same
behaviour emerges from the *microsecond-scale* DCQCN rate dynamics with
the actual ``T`` knob — no fluid-allocator shortcut anywhere. This
experiment runs the Figure 1 VGG19 pair as on-off DCQCN traffic sources
and compares fair (both T = 125 µs) against unfair (J1 at T = 100 µs)
mean iteration times, exactly like the testbed protocol.

:func:`dt_sweep` additionally re-runs the comparison at coarser fluid
time steps — a resolution-robustness check that fans out across
processes under ``--jobs N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..telemetry import current
from ..analysis.report import ascii_table
from ..cc.dcqcn import AGGRESSIVE_TIMER, DEFAULT_TIMER
from ..runner import RunSpec, ScenarioSpec, SenderSpec, run_many
from ..units import gbps, to_milliseconds

#: The Figure 2 VGG19 profile at 50 Gbps line rate: 100 ms compute plus
#: 110 ms worth of bytes at the ~42 Gbps effective goodput.
COMPUTE_TIME = 0.100
COMM_BYTES = 0.110 * gbps(42)


@dataclass
class CrossFidelityResult:
    """Mean iteration times from the fine-grained runs."""

    fair_ms: Dict[str, float]
    unfair_ms: Dict[str, float]
    iterations: Dict[str, int]

    def speedup(self, job: str) -> float:
        """Fair over unfair mean iteration time."""
        return self.fair_ms[job] / self.unfair_ms[job]

    def report(self) -> str:
        """Comparison table, with the phase-level prediction row."""
        rows = []
        for job in self.fair_ms:
            rows.append(
                (
                    job,
                    f"{self.fair_ms[job]:.0f}",
                    f"{self.unfair_ms[job]:.0f}",
                    f"{self.speedup(job):.2f}x",
                    str(self.iterations[job]),
                )
            )
        table = ascii_table(
            ["job", "fair ms", "unfair ms", "speedup", "iterations"],
            rows,
            title=(
                "Cross-fidelity: on-off jobs driven by the raw DCQCN "
                "state machine (T = 125 vs 100 us)"
            ),
        )
        return table + (
            "\nphase-level prediction: both jobs speed up "
            "(fair ~320 ms -> unfair ~230-250 ms)"
        )


def _lineup(timers: Dict[str, float]) -> tuple:
    """The on-off sender lineup for one scenario.

    Stream names replicate the original experiment's
    ``xfid:<name>:<timer>`` convention, so the fair and unfair
    scenarios draw exactly the jitter sequences they always did.
    """
    return tuple(
        SenderSpec(
            name,
            timer,
            compute_time=COMPUTE_TIME,
            comm_bytes=COMM_BYTES,
            start_offset=index * 0.004,
            stream=f"xfid:{name}:{timer}",
        )
        for index, (name, timer) in enumerate(timers.items())
    )


def _spec(
    duration: float,
    dt: float,
    seed: int,
    label: str = "crossfidelity",
) -> RunSpec:
    """Both scenarios in one fluid spec (they share random streams)."""
    return RunSpec(
        backend="fluid",
        label=label,
        seed=seed,
        capacity=gbps(50),
        duration=duration,
        options=(("dt", dt),),
        scenarios=(
            ScenarioSpec(
                "fair",
                _lineup({"J1": DEFAULT_TIMER, "J2": DEFAULT_TIMER}),
            ),
            ScenarioSpec(
                "unfair",
                _lineup({"J1": AGGRESSIVE_TIMER, "J2": DEFAULT_TIMER}),
            ),
        ),
    )


def _summarize(result, skip: int) -> CrossFidelityResult:
    fair = result.scenario("fair")
    unfair = result.scenario("unfair")

    def mean_ms(scenario, name: str) -> float:
        # All tiers share the canonical timeline schema, so the summary
        # is one accessor call — no per-backend glue.
        return to_milliseconds(
            scenario.timeline(name).mean_iteration_time(skip=skip)
        )

    names = ("J1", "J2")
    return CrossFidelityResult(
        fair_ms={name: mean_ms(fair, name) for name in names},
        unfair_ms={name: mean_ms(unfair, name) for name in names},
        iterations={name: unfair.iterations(name) for name in names},
    )


def run(
    duration: float = 3.0,
    dt: float = 10e-6,
    skip: int = 3,
    seed: int = 5,
) -> CrossFidelityResult:
    """Run both scenarios at fine granularity and summarize."""
    [result] = run_many([_spec(duration, dt, seed)])
    return _summarize(result, skip)


@dataclass
class DtSweepPoint:
    """One resolution level of the dt sweep."""

    dt: float
    result: CrossFidelityResult


def dt_sweep(
    dts: Sequence[float] = (10e-6, 20e-6, 40e-6),
    duration: float = 1.2,
    skip: int = 1,
    seed: int = 5,
) -> List[DtSweepPoint]:
    """The fair/unfair comparison at several fluid time steps.

    One spec per resolution, all submitted through a single
    :func:`run_many` call — the embarrassingly parallel shape the
    runner exists for.
    """
    specs = [
        _spec(duration, dt, seed, label=f"crossfidelity-dt-{dt:g}")
        for dt in dts
    ]
    results = run_many(specs)
    return [
        DtSweepPoint(dt=dt, result=_summarize(result, skip))
        for dt, result in zip(dts, results)
    ]


def dt_sweep_report(points: Sequence[DtSweepPoint]) -> str:
    """Render the resolution-robustness table."""
    rows = [
        (
            f"{point.dt * 1e6:.0f} us",
            f"{point.result.speedup('J1'):.2f}x",
            f"{point.result.speedup('J2'):.2f}x",
        )
        for point in points
    ]
    return ascii_table(
        ["fluid dt", "J1 speedup", "J2 speedup"],
        rows,
        title="Cross-fidelity dt sweep — unfairness payoff vs resolution",
    )


def main() -> None:
    """Print the cross-fidelity comparison and the dt sweep."""
    with current().span("experiment.crossfidelity"):
        print(run().report())
        print()
        print(dt_sweep_report(dt_sweep()))


if __name__ == "__main__":
    main()

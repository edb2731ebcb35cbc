"""The benchmark's four workloads, their inputs and output digests.

Each workload builds its inputs from a seed (``setup``) and then runs
one *pass* over them (``run_pass``): ``cold`` is the first execution,
``warm`` repeats the same work the way a user repeats it — from the
result cache the cold pass filled, or, for the online service, by
replaying the same arrival trace offline. A pass returns the seconds
it took and its outputs; ``digest`` turns those into one digest per
operation, so the caller can check that warm equals cold, that traced
equals untraced, and that a seed reproduces its committed digests.

Everything here runs in one single-threaded child process per pass
(``bench/child.py``), which passes in the clock that times the pass;
``bench/run.py`` owns process creation, repetition and statistics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io as _stdio
import json
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import cli, io, runner
from repro.cc.dcqcn import AGGRESSIVE_TIMER, DEFAULT_TIMER
from repro.core.compatibility import CompatibilityChecker
from repro.experiments import fattree, sweep
from repro.faults.events import (
    InjectionSchedule,
    LinkFailure,
    PfcStorm,
    RateChange,
)
from repro.net.topology import Topology
from repro.runner import RunSpec, ScenarioSpec, SenderSpec, derive_seed
from repro.scheduler.cluster import ClusterState
from repro.scheduler.placement import CompatibilityAwarePlacement
from repro.scheduler.service import ClusterService
from repro.units import gbps, kib
from repro.workloads.traces import JobArrival, poisson_arrivals

from tracing import patch_everywhere, undo


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def canonical_digest(document: Any) -> str:
    """sha256 of ``document`` as sorted, compact JSON."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result: runner.RunResult) -> str:
    """Digest of one run result, ignoring its cosmetic ``label`` and the
    ``spec_hash`` (which names the spec, not the outcome)."""
    document = io.run_result_to_dict(result)
    document.pop("label", None)
    document.pop("spec_hash", None)
    return canonical_digest(document)


def combine(digests: Sequence[str]) -> str:
    """One digest over an ordered list of digests."""
    return hashlib.sha256("\n".join(digests).encode("utf-8")).hexdigest()


def workload_digest(parts: Dict[str, str]) -> str:
    """One digest over a pass's ``{operation: digest}`` map, in order."""
    return combine([f"{name}={digest}" for name, digest in parts.items()])


@dataclasses.dataclass
class PassOutcome:
    """What one pass measured and produced.

    ``outputs`` holds what the program returned; the workload's
    ``digest`` turns it into ``{operation: digest}`` (artifact, spec
    label or job id, in execution order) after the timed region. An
    operation that raised has no digest. ``part_seconds`` times each
    artifact (reproduce only).
    """

    seconds: float
    ops: int
    outputs: Any
    part_seconds: Dict[str, float] = dataclasses.field(default_factory=dict)
    extras: Dict[str, Any] = dataclasses.field(default_factory=dict)


# ---------------------------------------------------------------------------
# reproduce: every paper artifact through the CLI, recording on
# ---------------------------------------------------------------------------

class Reproduce:
    """``repro-experiments run <artifact>`` for every artifact, in
    ``run all`` order; the warm pass replays the cache the cold pass
    filled. The seed is ignored: the paper's inputs are fixed."""

    name = "reproduce"

    def setup(self, seed: int, workdir: Path) -> Dict[str, Any]:
        return {"runs_dir": str(workdir / "runs")}

    def run_pass(self, inputs, pass_name, tracer=None,
                 clock=time.perf_counter) -> PassOutcome:
        captured: List[List[runner.RunResult]] = []
        original = runner.parallel.run_many

        def capturing(*args, **kwargs):
            results = original(*args, **kwargs)
            captured.append(results)
            return results

        patches = patch_everywhere(original, capturing)
        parts: Dict[str, str] = {}
        seconds: Dict[str, float] = {}
        try:
            for artifact in sorted(cli.EXPERIMENTS):
                argv = ["run", artifact, "--runs-dir", inputs["runs_dir"]]
                main = cli.main
                if tracer is not None:
                    main = tracer.wrap(f"experiments.{artifact}", main)
                start = clock()
                try:
                    with contextlib.redirect_stdout(_stdio.StringIO()):
                        code = main(argv)
                except Exception:  # reported as a failed operation
                    traceback.print_exc()
                    code = -1
                seconds[artifact] = clock() - start
                if code == 0:
                    with (contextlib.nullcontext() if tracer is None
                          else tracer.paused()):
                        parts[artifact] = combine([
                            result_digest(result)
                            for results in captured
                            for result in results
                        ])
                captured.clear()
        finally:
            undo(patches)
        return PassOutcome(
            seconds=sum(seconds.values()),
            ops=len(cli.EXPERIMENTS),
            outputs=parts,
            part_seconds=seconds,
        )

    def digest(self, outcome: PassOutcome) -> Dict[str, str]:
        return outcome.outputs


# ---------------------------------------------------------------------------
# grid-dense / onoff-sparse: one batched run_many over a fluid grid
# ---------------------------------------------------------------------------

#: grid-dense shape: a congested 1 Gbps bottleneck shared by 32 senders,
#: so every tick is stepped and the stacked grid kernel pays off.
DENSE_SPECS = 64
DENSE_SENDERS = 32
DENSE_DURATION_S = 0.02

#: onoff-sparse shape: the sweep's 2-sender fair/unfair grid plus the
#: fat-tree rotation demo under each fault kind, with and without PFC.
SPARSE_SEEDS = 8
SPARSE_DURATION_S = 0.15
ROTATION_DURATION_S = 0.15
ROTATION_LINK = fattree.ROTATION_ROUTES["J1"][3]


def dense_specs(seed: int) -> List[RunSpec]:
    """64 long-lived 32-sender DCQCN runs with alternating timers."""
    base = (DEFAULT_TIMER, AGGRESSIVE_TIMER)
    senders = tuple(
        SenderSpec(name=f"J{s + 1}", timer=base[s % 2] * (1 + 0.03 * s))
        for s in range(DENSE_SENDERS)
    )
    return [
        RunSpec(
            backend="fluid",
            label=f"dense-{k}",
            seed=derive_seed(seed, f"bench:dense:{k}"),
            capacity=gbps(1),
            duration=DENSE_DURATION_S,
            scenarios=(ScenarioSpec("grid", senders),),
        )
        for k in range(DENSE_SPECS)
    ]


def rotation_faults() -> Dict[str, Optional[InjectionSchedule]]:
    """One schedule per fault kind on the rotation demo's shared link."""
    link = ROTATION_LINK
    return {
        "none": None,
        "rate-dip": InjectionSchedule((RateChange(link, 0.05, 0.1, 0.5),)),
        "link-failure": InjectionSchedule((LinkFailure(link, 0.06, 0.08),)),
        "pfc-storm": InjectionSchedule((
            PfcStorm(link, 0.04, 0.05),
            PfcStorm(link, 0.1, 0.11),
        )),
    }


def sparse_specs(seed: int) -> List[RunSpec]:
    """The 2-sender sweep grid plus 8 fat-tree rotation variants."""
    specs = sweep.fluid_grid_specs(range(SPARSE_SEEDS), SPARSE_DURATION_S,
                                   seed)
    for fault, schedule in rotation_faults().items():
        for pfc in (False, True):
            variant = f"{fault}-{'pfc' if pfc else 'nopfc'}"
            spec = fattree.rotation_spec(
                duration=ROTATION_DURATION_S,
                seed=derive_seed(seed, f"bench:rotation:{variant}"),
            )
            options = spec.options
            if pfc:
                options += (("pfc_pause_threshold", kib(200)),)
            specs.append(spec.replace(
                label=f"rotation-{variant}", faults=schedule,
                options=options,
            ))
    return specs


class FluidGrid:
    """One ``run_many(batch=True)`` over a grid of fluid specs, cache on;
    the warm pass is answered from the cache the cold pass filled."""

    def __init__(self, name: str, build: Callable[[int], List[RunSpec]]):
        self.name = name
        self.build = build

    def setup(self, seed: int, workdir: Path) -> Dict[str, Any]:
        return {"specs": self.build(seed), "cache_dir": workdir / "cache"}

    def run_pass(self, inputs, pass_name, tracer=None,
                 clock=time.perf_counter) -> PassOutcome:
        specs = inputs["specs"]
        start = clock()
        results = runner.run_many(
            specs, jobs=1, cache=True, cache_dir=inputs["cache_dir"],
            batch=True,
        )
        seconds = clock() - start
        return PassOutcome(
            seconds=seconds, ops=len(specs),
            outputs=list(zip(specs, results)),
        )

    def digest(self, outcome: PassOutcome) -> Dict[str, str]:
        return {
            spec.label: result_digest(result)
            for spec, result in outcome.outputs
        }


# ---------------------------------------------------------------------------
# online-admission: the cluster service fed one arrival at a time
# ---------------------------------------------------------------------------

ONLINE_ARRIVALS = 1500
ONLINE_GAP_S = 8.0
ONLINE_LIFETIME_S = 6000.0
ONLINE_CAPACITY = gbps(42)
ONLINE_RACKS = 64
ONLINE_HOSTS_PER_RACK = 4
ONLINE_GPUS_PER_HOST = 8
ONLINE_QUEUE_LIMIT = 64
ONLINE_MAX_CANDIDATES = 16

#: The arrival skeleton — times, lifetimes and worker counts — comes
#: from this fixed seed, so every seed offers the cluster the same load
#: and the queueing work (and hence the run time) does not swing with
#: the seed; ``--seed`` draws the job shapes, i.e. the circles the
#: placement and compatibility layers must fit together.
SKELETON_SEED = 0


def online_arrivals(seed: int) -> List[JobArrival]:
    """The seed's job shapes on the fixed arrival skeleton."""
    kwargs = dict(
        count=ONLINE_ARRIVALS,
        mean_interarrival_s=ONLINE_GAP_S,
        mean_lifetime_s=ONLINE_LIFETIME_S,
        lifetime_model="pareto",
        capacity=ONLINE_CAPACITY,
    )
    skeleton = poisson_arrivals(seed=SKELETON_SEED, **kwargs)
    shapes = poisson_arrivals(seed=seed, **kwargs)
    return [
        JobArrival(
            time=slot.time,
            spec=dataclasses.replace(shape.spec, n_workers=slot.n_workers),
            n_workers=slot.n_workers,
            lifetime=slot.lifetime,
        )
        for slot, shape in zip(skeleton, shapes)
    ]


def records_by_job(records: Sequence[Dict[str, Any]]) -> Dict[str, str]:
    """One digest per job over its admission records, in first-seen
    job order (the per-arrival operations of the online workload)."""
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        grouped.setdefault(record["job_id"], []).append(record)
    return {job: canonical_digest(rows) for job, rows in grouped.items()}


class OnlineAdmission:
    """``ClusterService`` driven one arrival at a time (cold): submit,
    then ``run(until=arrival)``, then a final ``run()``. The warm pass
    replays the same trace offline: ``submit_all`` and one ``run()``;
    both must produce the same admission records."""

    name = "online-admission"

    def setup(self, seed: int, workdir: Path) -> Dict[str, Any]:
        return {
            "seed": seed,
            "arrivals": online_arrivals(seed),
            "topology": Topology.leaf_spine(
                n_racks=ONLINE_RACKS,
                hosts_per_rack=ONLINE_HOSTS_PER_RACK,
                host_capacity=ONLINE_CAPACITY,
            ),
        }

    @staticmethod
    def service(inputs) -> ClusterService:
        checker = CompatibilityChecker(capacity=ONLINE_CAPACITY)
        return ClusterService(
            ClusterState(
                inputs["topology"], gpus_per_host=ONLINE_GPUS_PER_HOST
            ),
            CompatibilityAwarePlacement(
                checker=checker, max_candidates=ONLINE_MAX_CANDIDATES
            ),
            checker=checker,
            queue_limit=ONLINE_QUEUE_LIMIT,
            seed=inputs["seed"],
        )

    def run_pass(self, inputs, pass_name, tracer=None,
                 clock=time.perf_counter) -> PassOutcome:
        arrivals = inputs["arrivals"]
        service = self.service(inputs)
        latencies: List[float] = []
        start = clock()
        if pass_name == "cold":
            for arrival in arrivals:
                service.submit(arrival)
                issued = clock()
                service.run(until=arrival.time)
                latencies.append(clock() - issued)
            service.run()
        else:
            service.submit_all(arrivals)
            service.run()
        seconds = clock() - start
        stats = service.stats
        extras = {
            "queued_frac": stats.queued / stats.submitted,
            "rejected_frac": stats.rejected / stats.submitted,
        }
        if latencies:
            extras["latencies_s"] = latencies
        return PassOutcome(
            seconds=seconds, ops=len(arrivals), outputs=stats.records,
            extras=extras,
        )

    def digest(self, outcome: PassOutcome) -> Dict[str, str]:
        return records_by_job([record.to_dict() for record in outcome.outputs])


WORKLOADS = {
    workload.name: workload
    for workload in (
        Reproduce(),
        FluidGrid("grid-dense", dense_specs),
        FluidGrid("onoff-sparse", sparse_specs),
        OnlineAdmission(),
    )
}

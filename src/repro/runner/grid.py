"""The batched grid tier: stack compatible fluid specs into one run.

``run_many`` partitions its cache misses into groups that one
:class:`repro.cc.grid_bank.GridBank` can execute together — same
backend, same ``dt``, same duration, single-bottleneck topology,
long-lived senders and no fault schedule — and simulates each group as
one structure-of-arrays run. :func:`plan_groups` alone decides which
groups are worth it: a group stacks only when it carries at least
:data:`MIN_GROUP_SLOTS` sender slots, since below that the per-spec
engine's span fast-forward beats one shared kernel. Per-spec divergence
(timers, seeds, sender counts) lives in per-run lanes inside the bank,
so every spec's result is bit-identical to executing it alone through
:class:`~repro.runner.backends.FluidBackend` — including the telemetry
each spec's session records.

Specs whose scenarios the bank cannot represent (PFC thresholds,
routed fabrics, on-off jobs, finite transfers, fault schedules) simply
stay on the per-spec path, which is the grid's reference: every
function here returns ``None`` rather than raise when a group turns out
not to be batchable, and ``run_many`` falls back to the pool for
exactly those specs.

Raggedness: a spec may carry several scenarios, run in order over one
shared :class:`~repro.sim.rng.RandomStreams`. The group executes in
*waves* — wave ``w`` stacks scenario ``w`` of every spec that has one
— which preserves each spec's sequential scenario order (and therefore
its stream continuation) while still batching across specs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cc.dcqcn import DEFAULT_DT
from ..telemetry.session import Telemetry, use
from ..units import gbps
from .backends import FLUID_OPTIONS, build_fluid_scenario_sim
from .spec import RunResult, RunSpec, safe_content_hash

#: The only options a batchable spec may carry: the fluid backend's own
#: options minus PFC thresholds, which have no grid-lane representation.
BATCHABLE_OPTIONS = FLUID_OPTIONS - {"pfc_pause_threshold"}

#: Smallest group worth stacking — a single spec gains nothing from
#: the grid kernel over its own sender bank.
MIN_GROUP = 2

#: Fewest sender slots (one sender in one lane; a spec counts its
#: largest scenario) a group needs to stack. The measured crossover:
#: below it each spec's own span fast-forward skips more ticks than
#: the shared grid kernel saves, so small grids run spec by spec.
MIN_GROUP_SLOTS = 256


def batchable_spec(spec: RunSpec) -> bool:
    """Whether ``spec`` is a candidate for grid batching: a fluid spec
    without a topology or a fault schedule whose senders are all
    long-lived (no route, no ``compute_time``, no ``data_bytes``).

    This is the cheap declarative screen; the engine-level authority is
    :meth:`repro.cc.grid_bank.GridBank.build` on the built simulators,
    and :func:`execute_batched` still falls back when that rejects.
    """
    if spec.backend != "fluid":
        return False
    if spec.topology is not None or spec.faults is not None:
        return False
    if not spec.scenarios or spec.duration <= 0:
        return False
    options = spec.options_dict()
    if not set(options) <= BATCHABLE_OPTIONS:
        return False
    for scenario in spec.scenarios:
        for sender in scenario.senders:
            if sender.route or sender.compute_time is not None or (
                sender.data_bytes is not None
            ):
                return False
    return True


def _group_key(spec: RunSpec) -> Tuple[float, float]:
    """Specs stack only when they share a tick size and a horizon; a
    spec without a ``dt`` option runs at the simulator's default."""
    options = spec.options_dict()
    return (float(options.get("dt", DEFAULT_DT)), float(spec.duration))


def _sender_slots(spec: RunSpec) -> int:
    """Grid-lane sender slots ``spec`` occupies (its widest wave)."""
    return max(len(scenario.senders) for scenario in spec.scenarios)


def plan_groups(
    indexed: Sequence[Tuple[int, RunSpec]],
) -> List[List[int]]:
    """Partition ``(index, spec)`` pairs into groups worth stacking.

    Returns lists of indices in first-seen order, each of at least
    :data:`MIN_GROUP` specs and :data:`MIN_GROUP_SLOTS` sender slots;
    unbatchable specs and groups below either floor are left out (they
    run on the per-spec path).
    """
    buckets: Dict[Tuple[float, float], List[int]] = {}
    slots: Dict[Tuple[float, float], int] = {}
    for index, spec in indexed:
        if not batchable_spec(spec):
            continue
        key = _group_key(spec)
        buckets.setdefault(key, []).append(index)
        slots[key] = slots.get(key, 0) + _sender_slots(spec)
    return [
        group for key, group in buckets.items()
        if len(group) >= MIN_GROUP and slots[key] >= MIN_GROUP_SLOTS
    ]


def execute_batched(
    specs: Sequence[RunSpec],
) -> Optional[List[Tuple[RunResult, Dict[str, Any]]]]:
    """Execute a batchable group as stacked grid runs.

    Returns ``(result, telemetry_state)`` per spec in spec order —
    the same pair :func:`repro.runner.parallel._execute_spec` produces
    — or ``None`` when any wave turns out not to be batchable, in
    which case the caller re-executes every spec from scratch on the
    per-spec path (nothing here mutates the specs, so the fallback is
    safe, just slower).
    """
    from ..cc.dcqcn import DcqcnParams
    from ..cc.grid_bank import GridBank

    specs = list(specs)
    sessions = [
        Telemetry(name=spec.label or spec.backend) for spec in specs
    ]
    contexts = []
    for spec in specs:
        capacity = spec.capacity or gbps(50)
        contexts.append({
            "capacity": capacity,
            "params": DcqcnParams(line_rate=capacity),
            "streams": None,
            "scenarios": {},
        })
    max_waves = max(len(spec.scenarios) for spec in specs)
    for wave in range(max_waves):
        entries = []
        for i, spec in enumerate(specs):
            if wave >= len(spec.scenarios):
                continue
            scenario = spec.scenarios[wave]
            ctx = contexts[i]
            with use(sessions[i]):
                if ctx["streams"] is None:
                    from ..sim.rng import RandomStreams

                    ctx["streams"] = RandomStreams(spec.seed)
                sim = build_fluid_scenario_sim(
                    spec, scenario, ctx["params"], ctx["streams"],
                    ctx["capacity"],
                )
            entries.append((i, scenario, sim))
        grid = GridBank.build([entry[2] for entry in entries])
        if grid is None:
            return None
        traces = grid.run(specs[entries[0][0]].duration)
        for (i, scenario, _sim), trace in zip(entries, traces):
            contexts[i]["scenarios"][scenario.name] = trace
    outcome: List[Tuple[RunResult, Dict[str, Any]]] = []
    for spec, session, ctx in zip(specs, sessions, contexts):
        result = RunResult(
            spec_hash=safe_content_hash(spec),
            backend="fluid",
            label=spec.label,
            fluid=ctx["scenarios"],
        )
        outcome.append((result, session.worker_state()))
    return outcome

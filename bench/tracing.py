"""Per-layer tracing from outside the program.

The benchmark measures each layer of ``repro`` by wrapping the public
calls its workloads pass through: nothing under ``src/`` changes. A
wrapper records one span per call — name, start, end and the span that
was open when the call began — into memory, and :func:`summarize`
turns the spans into per-name call counts, inclusive time and self
time (duration minus the time its traced children cover).

Wrappers are installed at every place the original is looked up:
module-level functions are replaced in every loaded module that
imported them by name (a dozen experiment modules import ``run_many``),
methods are replaced on the class that defines them — for
``PlacementPolicy.place`` on every subclass that overrides it.
:meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

#: ``(span name, module, attribute)``: what the traced run wraps. A
#: dotted attribute names a method; ``PlacementPolicy.place`` is
#: wrapped on each subclass that defines ``place``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("runner.run_many", "repro.runner.parallel", "run_many"),
    ("runner.content_hash", "repro.runner.spec", "RunSpec.content_hash"),
    ("runner.cache_get", "repro.runner.cache", "ResultCache.get"),
    ("runner.cache_put", "repro.runner.cache", "ResultCache.put"),
    ("runner.plan_groups", "repro.runner.grid", "plan_groups"),
    ("runner.execute_batched", "repro.runner.grid", "execute_batched"),
    ("runner.execute", "repro.runner.backends", "execute"),
    ("io.run_spec_to_dict", "repro.io", "run_spec_to_dict"),
    ("io.run_result_to_dict", "repro.io", "run_result_to_dict"),
    ("io.run_result_from_dict", "repro.io", "run_result_from_dict"),
    ("telemetry.merge_worker_state", "repro.telemetry.session",
     "Telemetry.merge_worker_state"),
    ("telemetry.worker_state", "repro.telemetry.session",
     "Telemetry.worker_state"),
    ("telemetry.recorder_exit", "repro.telemetry.runs",
     "RunRecorder.__exit__"),
    ("cc.fluid_run", "repro.cc.dcqcn", "DcqcnFluidSimulator.run"),
    ("cc.grid_build", "repro.cc.grid_bank", "GridBank.build"),
    ("cc.grid_run", "repro.cc.grid_bank", "GridBank.run"),
    ("cc.aimd_run", "repro.cc.aimd", "AimdFluidSimulator.run"),
    ("net.phase_run", "repro.net.phasesim", "PhaseLevelSimulator.run"),
    ("net.allocate", "repro.net.fluid", "FluidAllocator.allocate"),
    ("scheduler.cluster_sim", "repro.scheduler.simulation",
     "ClusterSimulation.run"),
    ("scheduler.place", "repro.scheduler.placement", "PlacementPolicy.place"),
    ("scheduler.service_run", "repro.scheduler.service", "ClusterService.run"),
    ("core.engine_add", "repro.core.incremental",
     "IncrementalCompatibilityEngine.add"),
    ("core.engine_remove", "repro.core.incremental",
     "IncrementalCompatibilityEngine.remove"),
    ("core.candidate_score", "repro.core.incremental",
     "IncrementalCompatibilityEngine.candidate_score"),
    ("core.cluster_solve", "repro.core.cluster_compat",
     "ClusterCompatibilityProblem.solve"),
)

#: Engine counters read from the worker telemetry states the runner
#: merges (``Telemetry.merge_worker_state``'s argument).
MERGED_COUNTERS = ("cc.steps", "cc.cnps", "sim.events", "solve.calls",
                   "solve.nodes")

# Span record fields: [name, start, end, parent index, returned None].
_NAME, _START, _END, _PARENT, _NONE = range(5)


class Tracer:
    """Records spans of wrapped calls; installs and removes wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._active = [True]
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``fn`` recording one span called ``name`` per call.

        ``after(result, *args, **kwargs)``, when given, sees each call's
        result and arguments once the call has returned.
        """
        spans, stack, clock = self.spans, self._stack, self.clock
        active = self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
                record[_NONE] = result is None
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            finally:
                stack.pop()
                record[_END] = clock()

        return traced

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Call through the wrappers without recording (the benchmark's
        own digest work inside a traced pass)."""
        self._active[0] = False
        try:
            yield
        finally:
            self._active[0] = True

    def _tally(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _after_merge(self, _result, _session, state, *args, **kw) -> None:
        """Tally engine counters and trace records from a worker state."""
        counters = state.get("registry", {}).get("counters", {})
        for key in MERGED_COUNTERS:
            self._tally(key, float(counters.get(key, 0.0)))
        self._tally("trace_records", len(state.get("trace", ())))

    def _after_batch(self, result, specs, *args, **kwargs) -> None:
        """Count specs a batched group ran (``None`` means it fell back)."""
        if result is not None:
            self._tally("batched_specs", len(specs))

    # -- installation --------------------------------------------------

    def install(self, targets: Sequence[Tuple[str, str, str]] = TARGETS):
        """Wrap every target at every site it is looked up."""
        hooks = {
            "telemetry.merge_worker_state": self._after_merge,
            "runner.execute_batched": self._after_batch,
        }
        for span_name, module_name, attr in targets:
            module = importlib.import_module(module_name)
            after = hooks.get(span_name)
            if "." not in attr:
                original = getattr(module, attr)
                self._patches.extend(patch_everywhere(
                    original, self.wrap(span_name, original, after)
                ))
                continue
            class_name, method = attr.split(".")
            cls = getattr(module, class_name)
            for owner in [cls] + _subclasses(cls):
                if method in vars(owner):
                    self._patch_method(span_name, owner, method, after)
        return self

    def _patch_method(self, span_name, owner, method, after) -> None:
        original = vars(owner)[method]
        if isinstance(original, classmethod):
            wrapper = classmethod(
                self.wrap(span_name, original.__func__, after)
            )
        else:
            wrapper = self.wrap(span_name, original, after)
        self._patches.append((owner, method, original))
        setattr(owner, method, wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        undo(self._patches)


def patch_everywhere(
    original: Callable, replacement: Callable
) -> List[Tuple[Any, str, Any]]:
    """Bind ``replacement`` wherever a loaded module holds ``original``.

    Returns the ``(module, name, original)`` patches made, for undoing.
    """
    patches: List[Tuple[Any, str, Any]] = []
    for loaded in list(sys.modules.values()):
        namespace = getattr(loaded, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                patches.append((loaded, key, original))
                setattr(loaded, key, replacement)
    return patches


def undo(patches: List[Tuple[Any, str, Any]]) -> None:
    """Reverse :func:`patch_everywhere`'s patches, newest first."""
    while patches:
        owner, key, original = patches.pop()
        setattr(owner, key, original)


def _subclasses(cls) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


# ---------------------------------------------------------------------------
# Arithmetic over recorded spans
# ---------------------------------------------------------------------------

def summarize(spans: Sequence[Sequence]) -> Dict[str, Dict[str, Any]]:
    """Per span name: ``calls``, ``total_s``, ``self_s``, ``none_frac``
    and the call ``durations``.

    ``self_s`` is each span's duration minus the durations of its direct
    children. ``total_s`` counts only calls not nested inside another
    call of the same name, so recursion is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for record in spans:
        parent = record[_PARENT]
        if parent >= 0:
            child_time[parent] += record[_END] - record[_START]
    table: Dict[str, Dict[str, Any]] = {}
    for index, record in enumerate(spans):
        name = record[_NAME]
        duration = record[_END] - record[_START]
        row = table.setdefault(name, {
            "calls": 0, "total_s": 0.0, "self_s": 0.0, "none": 0,
            "durations": [],
        })
        row["calls"] += 1
        row["self_s"] += duration - child_time[index]
        row["none"] += bool(record[_NONE])
        row["durations"].append(duration)
        if not _nested_in_same_name(spans, index):
            row["total_s"] += duration
    for row in table.values():
        row["none_frac"] = row.pop("none") / row["calls"]
    return table


def _nested_in_same_name(spans, index: int) -> bool:
    name = spans[index][_NAME]
    parent = spans[index][_PARENT]
    while parent >= 0:
        if spans[parent][_NAME] == name:
            return True
        parent = spans[parent][_PARENT]
    return False


def root_time(spans: Sequence[Sequence]) -> float:
    """Seconds covered by spans that have no traced parent."""
    return sum(
        record[_END] - record[_START]
        for record in spans
        if record[_PARENT] < 0
    )


def layer_self_times(table: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """Self seconds per layer: the span-name prefix before the first dot."""
    layers: Dict[str, float] = {}
    for name, row in table.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    return layers


def percentile_us(durations: Sequence[float], q: int) -> float:
    """The ``q``-th percentile of ``durations`` in microseconds."""
    if len(durations) < 2:
        return 1e6 * (durations[0] if durations else 0.0)
    return 1e6 * statistics.quantiles(durations, n=100)[q - 1]


def spans_to_json(spans: Sequence[Sequence]) -> Dict[str, List]:
    """Columnar, JSON-ready form of the span list (see README)."""
    names = sorted({record[_NAME] for record in spans})
    ids = {name: i for i, name in enumerate(names)}
    return {
        "names": names,
        "name": [ids[record[_NAME]] for record in spans],
        "start": [record[_START] for record in spans],
        "end": [record[_END] for record in spans],
        "parent": [record[_PARENT] for record in spans],
        "none": [bool(record[_NONE]) for record in spans],
    }


def spans_from_json(columns: Dict[str, List], offset: int = 0) -> List[list]:
    """Inverse of :func:`spans_to_json`; parent indices shift by
    ``offset`` so span lists can be concatenated."""
    names = columns["names"]
    return [
        [names[n], start, end, parent + offset if parent >= 0 else -1, none]
        for n, start, end, parent, none in zip(
            columns["name"], columns["start"], columns["end"],
            columns["parent"], columns["none"],
        )
    ]

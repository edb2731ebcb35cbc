"""``run_many``: execute run specs across processes, deterministically.

The contract that makes parallelism safe to adopt everywhere:

* **Results come back in spec order**, regardless of worker scheduling.
* **Every spec executes under its own fresh telemetry session** — even
  serially — and the sessions are merged into the caller's session in
  spec order. A ``jobs=4`` run therefore produces byte-identical results
  *and* an identical trace to ``jobs=1``.
* **Each spec carries its own seed**; drivers derive per-spec seeds with
  :func:`repro.runner.spec.derive_seed` so fan-out never changes the
  randomness a spec sees.
* **Cache hits replay** the stored result and its recorded telemetry,
  so a fully cached run is indistinguishable from a fresh one (minus
  the wall-clock spans, which are per-process by design).

Runner-level instruments on the caller's session: counters
``runner.specs``, ``runner.executed``, ``runner.cache.hits``,
``runner.cache.misses``, ``runner.batched``. Worker wall-clock lands in
the *span log* — path ``runner.worker/<label>`` per executed spec, or
``runner.worker/grid[<n>]:<first label>`` once per stacked group of
``n`` specs, with the spans the worker opened (``service.place``,
``solve_rotations``, ...) nested under it. Spans are the session's
wall-clock surface, excluded from the deterministic metrics snapshot and
never cached: a cache hit replays no worker spans.
"""

from __future__ import annotations

import contextlib
import os
import pickle
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..telemetry.session import Telemetry, resolve, use
from ..telemetry.spans import Span, SpanLog
from . import backends as _backends
from .cache import ResultCache
from .spec import RunResult, RunSpec, safe_content_hash


def _default_cache_dir() -> Path:
    return Path(os.environ.get("REPRO_RUNS_DIR", "runs")) / "cache"


@dataclass(frozen=True)
class RunnerConfig:
    """Ambient defaults for :func:`run_many`.

    The CLI installs one of these via :func:`using` so experiment
    drivers pick up ``--jobs`` / ``--no-cache`` without plumbing the
    flags through every function signature.
    """

    jobs: int = 1
    cache: bool = False
    cache_dir: Path = field(default_factory=_default_cache_dir)


_config = RunnerConfig()


def current_config() -> RunnerConfig:
    """The ambient runner configuration."""
    return _config


@contextlib.contextmanager
def using(config: RunnerConfig) -> Iterator[RunnerConfig]:
    """Install ``config`` as the ambient runner configuration."""
    global _config
    previous = _config
    _config = config
    try:
        yield config
    finally:
        _config = previous


def _execute_spec(
    spec: RunSpec,
) -> Tuple[RunResult, Dict[str, Any], List[Span]]:
    """Run one spec under a fresh telemetry session (pool entry point).

    Returns the result, the session's transportable state, and the
    worker's completed spans, rooted at one ``execute`` span timing the
    whole spec. Top-level so it pickles.
    """
    session = Telemetry(name=spec.label or spec.backend)
    # The span log is the one sanctioned wall-clock surface (DET002):
    # the spans travel next to worker_state(), never inside it, so the
    # state the cache stores stays free of wall-clock time.
    with use(session):
        with session.spans.span("execute"):
            result = _backends.execute(spec)
    return result, session.worker_state(), session.spans.completed


def _graft_spans(session: Telemetry, name: str, spans: List[Span]) -> None:
    """Append a worker's spans under ``runner.worker/<name>``.

    The worker's ``execute`` root becomes ``runner.worker/<name>`` and
    every span nested in it keeps its path below that root.
    """
    root = f"runner.worker/{name}"
    for span in spans:
        nested = span.path[len("execute"):]
        span.path = root + nested
        if not nested:
            span.name = name
        span.depth += 1
        session.spans.completed.append(span)


def _specs_pickle(specs: Sequence[RunSpec]) -> bool:
    """Whether every spec survives pickling (pool precondition)."""
    try:
        pickle.dumps(list(specs))
    except Exception:
        return False
    return True


def run_many(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[Path] = None,
    telemetry: Optional[Telemetry] = None,
    batch: bool = True,
) -> List[RunResult]:
    """Execute ``specs`` and return their results in spec order.

    Args:
        specs: The runs to execute.
        jobs: Worker processes; ``None`` takes the ambient config,
            ``1`` runs in-process. Values above the spec count are
            clamped.
        cache: Whether to consult/populate the on-disk result cache;
            ``None`` takes the ambient config.
        cache_dir: Cache root; ``None`` takes the ambient config.
        telemetry: Session to merge worker telemetry into; ``None``
            resolves to the ambient session.
        batch: Whether cache misses may stack into grid runs;
            :func:`repro.runner.grid.plan_groups` decides which groups
            are large enough to gain. ``False`` forces the per-spec
            path, the reference stacked results are bit-identical to.

    Specs that fail to pickle (ad-hoc gate closures) silently fall back
    to in-process execution — same results, no fan-out.
    """
    config = current_config()
    jobs = config.jobs if jobs is None else jobs
    cache_enabled = config.cache if cache is None else cache
    root = Path(cache_dir) if cache_dir is not None else config.cache_dir
    session = resolve(telemetry)

    specs = list(specs)
    store = ResultCache(root) if cache_enabled else None
    hashes: List[str] = [safe_content_hash(spec) for spec in specs]

    results: List[Optional[RunResult]] = [None] * len(specs)
    states: List[Optional[Dict[str, Any]]] = [None] * len(specs)
    # ``(name, spans)`` of the worker merged at an index: a per-spec
    # run's own, a stacked group's at its first spec.
    worker_spans: List[Optional[Tuple[str, List[Span]]]] = (
        [None] * len(specs)
    )
    hits = 0

    pending: List[int] = []
    for index, spec in enumerate(specs):
        entry = (
            store.get(hashes[index])
            if store is not None and hashes[index]
            else None
        )
        if entry is not None:
            results[index] = replace(entry.result, label=spec.label)
            states[index] = entry.telemetry
            hits += 1
        else:
            pending.append(index)

    # Grid tier: stack the cache-miss groups plan_groups judges large
    # enough to gain. A group that turns out not to be batchable
    # mid-build falls back to the per-spec path below — results are
    # bit-identical either way, so stacking is purely a wall-clock
    # decision.
    batched: set = set()
    if batch and len(pending) >= 2:
        from . import grid as _grid

        for group in _grid.plan_groups(
            [(i, specs[i]) for i in pending]
        ):
            # The span log is the sanctioned wall-clock surface
            # (DET002); a throwaway log times the group.
            log = SpanLog()
            with log.span("execute"):
                outcome = _grid.execute_batched(
                    [specs[i] for i in group]
                )
            if outcome is None:
                continue
            for index, (result, state) in zip(group, outcome):
                results[index] = result
                states[index] = state
            first = specs[group[0]]
            worker_spans[group[0]] = (
                f"grid[{len(group)}]:{first.label or first.backend}",
                log.completed,
            )
            batched.update(group)

    pool_pending = [i for i in pending if i not in batched]
    if pool_pending:
        workers = min(jobs, len(pool_pending))
        pool_ok = workers > 1 and _specs_pickle(
            [specs[i] for i in pool_pending]
        )
        if pool_ok:
            # Imported only here: it loads multiprocessing, which a
            # serial run (the default) never needs.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(
                    pool.map(
                        _execute_spec,
                        [specs[i] for i in pool_pending],
                    )
                )
        else:
            outcomes = [_execute_spec(specs[i]) for i in pool_pending]
        for index, (result, state, spans) in zip(pool_pending, outcomes):
            results[index] = result
            states[index] = state
            spec = specs[index]
            worker_spans[index] = (spec.label or spec.backend, spans)

    # Merge telemetry and populate the cache in spec order.
    executed = set(pending)
    for index, spec in enumerate(specs):
        state = states[index]
        if state:
            session.merge_worker_state(state)
        if worker_spans[index] is not None and session.enabled:
            # Wall-clock belongs in the span log, never in metrics:
            # the metrics snapshot must stay deterministic per seed.
            _graft_spans(session, *worker_spans[index])
        if (
            store is not None
            and index in executed
            and hashes[index]
            and spec.cacheable()
        ):
            store.put(spec, hashes[index], results[index], state or {})

    if session.enabled:
        session.counter("runner.specs").inc(len(specs))
        session.counter("runner.executed").inc(len(pending))
        session.counter("runner.cache.hits").inc(hits)
        session.counter("runner.cache.misses").inc(len(pending))
        session.counter("runner.batched").inc(len(batched))

    return [result for result in results if result is not None]


def run_one(
    spec: RunSpec,
    cache: Optional[bool] = None,
    cache_dir: Optional[Path] = None,
    telemetry: Optional[Telemetry] = None,
) -> RunResult:
    """Execute a single spec through the runner (serial)."""
    [result] = run_many(
        [spec], jobs=1, cache=cache, cache_dir=cache_dir,
        telemetry=telemetry,
    )
    return result

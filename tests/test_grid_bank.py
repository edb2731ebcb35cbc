"""Grid-bank tests: batched multi-scenario execution is bit-identical.

The tentpole guarantee: stacking N compatible DCQCN runs into one
:class:`repro.cc.grid_bank.GridBank` must reproduce each run's solo
vector execution *bit for bit* — sampled rate/queue series, job
timelines, and the RNG stream positions every generator is left at.
The metamorphic suite below checks that over randomized grids (mixed
seeds x timers x fault schedules) and over the batch sizes that stress
the lane machinery: 1 (degenerate), 2 (minimal), odd, and a wide 64.

The runner half pins the integration contract: a grid that reaches
``MIN_GROUP_SLOTS`` stacks and is byte-identical to ``batch=False``
(results *and* cache entries), a grid below it runs spec by spec, a
fully cached grid never touches the process pool, and the grouping
screen only admits specs the bank can actually represent.
"""

import json

import numpy as np
import pytest

from repro import io
from repro.cc.dcqcn import (
    AGGRESSIVE_TIMER,
    DEFAULT_TIMER,
    DcqcnFluidSimulator,
    DcqcnParams,
    OnOffDcqcnJob,
)
from repro.cc.grid_bank import GridBank, grid_compatible, run_grid
from repro.experiments import sweep
from repro.faults import (
    InjectionSchedule,
    LinkFailure,
    PfcStorm,
    RateChange,
    Straggler,
)
from repro.runner import (
    RunSpec,
    ScenarioSpec,
    SenderSpec,
    derive_seed,
    run_many,
)
from repro.runner.grid import (
    DEFAULT_DT,
    DEFAULT_ENGINE,
    MIN_GROUP,
    MIN_GROUP_SLOTS,
    batchable_spec,
    execute_batched,
    plan_groups,
)
from repro.telemetry.session import Telemetry, use
from repro.units import gbps

#: Tick size for engine-level tests: coarse enough to keep 64-run
#: grids cheap, same code paths as the 5 µs default.
DT = 10e-6
DURATION = 0.004

#: Fault schedules drawn by the randomized grids — every window mode
#: (scaled capacity, freeze, storm) plus a clean control.
SCHEDULES = (
    None,
    InjectionSchedule(events=(
        RateChange("L1", 0.0007, 0.0013, 0.4),
        RateChange("L1", 0.0021, 0.0029, 1.5),
    )),
    InjectionSchedule(events=(
        LinkFailure("L1", 0.0011, 0.0017),
    )),
    InjectionSchedule(events=(
        PfcStorm("L1", 0.0008, 0.0012),
        Straggler("J1", 0.0, 0.003, 1.6),
    )),
)

TIMERS = (DEFAULT_TIMER, AGGRESSIVE_TIMER)


def _build_run(index, grid_seed):
    """One randomized run: seed, timers, faults, and sender mix.

    Returns ``(sim, jobs, rngs)`` like the fault-equivalence tests; the
    draw is deterministic in ``(index, grid_seed)`` so the solo and
    batched twins are built identically.
    """
    rng = np.random.default_rng(1000 * grid_seed + index)
    faults = SCHEDULES[int(rng.integers(len(SCHEDULES)))]
    capacity = gbps(50)
    sim = DcqcnFluidSimulator(
        capacity=capacity, dt=DT, engine="vector", faults=faults
    )
    params = DcqcnParams(line_rate=capacity)
    jobs, rngs = {}, []
    n_senders = 2 + int(rng.integers(2))
    for s in range(n_senders):
        timer = TIMERS[int(rng.integers(len(TIMERS)))]
        sender_rng = np.random.default_rng(
            int(rng.integers(1, 2**31))
        )
        rngs.append(sender_rng)
        name = f"J{s + 1}"
        if s % 2 == 0:
            job = OnOffDcqcnJob(
                name,
                params.with_timer(timer),
                sender_rng,
                compute_time=0.0009,
                comm_bytes=0.0011 * capacity,
                start_offset=s * 0.0002,
            )
            sim.add_source(job)
            jobs[name] = job
        else:
            sim.add_sender(name, params.with_timer(timer), sender_rng)
    return sim, jobs, rngs


def _build_grid(n_runs, grid_seed):
    return [_build_run(i, grid_seed) for i in range(n_runs)]


def _assert_bit_identical(solo, batched):
    """Solo and batched twins agree on every observable surface."""
    (trace_s, jobs_s, rngs_s) = solo
    (trace_b, jobs_b, rngs_b) = batched
    assert set(trace_s.rate_series) == set(trace_b.rate_series)
    for name, series in trace_s.rate_series.items():
        other = trace_b.rate_series[name]
        assert np.array_equal(series.times, other.times), name
        assert np.array_equal(series.values, other.values), name
    assert np.array_equal(
        trace_s.queue_series.times, trace_b.queue_series.times
    )
    assert np.array_equal(
        trace_s.queue_series.values, trace_b.queue_series.values
    )
    assert set(jobs_s) == set(jobs_b)
    for name in jobs_s:
        assert (
            repr(jobs_s[name].timeline.__dict__)
            == repr(jobs_b[name].timeline.__dict__)
        ), name
    for rng_s, rng_b in zip(rngs_s, rngs_b):
        assert rng_s.bit_generator.state == rng_b.bit_generator.state


class TestGridBankMetamorphic:
    """Batched == sequential over randomized grids."""

    @pytest.mark.parametrize("n_runs", [1, 2, 3, 64])
    def test_batched_matches_sequential(self, n_runs):
        solo = _build_grid(n_runs, grid_seed=n_runs)
        twin = _build_grid(n_runs, grid_seed=n_runs)
        solo_traces = [sim.run(DURATION) for sim, _, _ in solo]
        grid_traces = run_grid(
            [sim for sim, _, _ in twin], DURATION
        )
        for (_, jobs_s, rngs_s), trace_s, (_, jobs_b, rngs_b), trace_b in zip(
            solo, solo_traces, twin, grid_traces
        ):
            _assert_bit_identical(
                (trace_s, jobs_s, rngs_s), (trace_b, jobs_b, rngs_b)
            )

    def test_mixed_dt_grid_partitions_by_tick(self):
        """run_grid stacks per-dt subsets and still matches solo."""
        coarse = [_build_run(i, grid_seed=5) for i in range(2)]
        fine_sim = DcqcnFluidSimulator(
            capacity=gbps(50), dt=DT / 2, engine="vector"
        )
        fine_sim.add_sender(
            "J1",
            DcqcnParams(line_rate=gbps(50)),
            np.random.default_rng(99),
        )
        twin_coarse = [_build_run(i, grid_seed=5) for i in range(2)]
        twin_fine = DcqcnFluidSimulator(
            capacity=gbps(50), dt=DT / 2, engine="vector"
        )
        twin_fine.add_sender(
            "J1",
            DcqcnParams(line_rate=gbps(50)),
            np.random.default_rng(99),
        )
        solo_traces = [sim.run(DURATION) for sim, _, _ in coarse]
        solo_traces.append(fine_sim.run(DURATION))
        grid_traces = run_grid(
            [sim for sim, _, _ in twin_coarse] + [twin_fine], DURATION
        )
        for trace_s, trace_b in zip(solo_traces, grid_traces):
            for name, series in trace_s.rate_series.items():
                other = trace_b.rate_series[name]
                assert np.array_equal(series.values, other.values)

    def test_grid_compatible_rejects_special_configs(self):
        scalar = DcqcnFluidSimulator(dt=DT, engine="scalar")
        assert not grid_compatible(scalar)
        pfc = DcqcnFluidSimulator(dt=DT, pfc_pause_threshold=1e6)
        assert not grid_compatible(pfc)
        plain = DcqcnFluidSimulator(dt=DT)
        assert not grid_compatible(plain)  # no senders yet
        plain.add_sender(
            "J1",
            DcqcnParams(line_rate=gbps(50)),
            np.random.default_rng(1),
        )
        assert grid_compatible(plain)

    def test_build_rejects_shared_rng(self):
        """One generator feeding two lanes cannot be interleaved."""
        shared = np.random.default_rng(3)
        sims = []
        for _ in range(2):
            sim = DcqcnFluidSimulator(dt=DT, engine="vector")
            sim.add_sender(
                "J1", DcqcnParams(line_rate=gbps(50)), shared
            )
            sims.append(sim)
        assert GridBank.build(sims) is None


def lineup(timer_j1, senders):
    """J1 on ``timer_j1`` plus ``senders - 1`` default-timer peers."""
    return (SenderSpec(name="J1", timer=timer_j1),) + tuple(
        SenderSpec(name=f"J{s}", timer=DEFAULT_TIMER)
        for s in range(2, senders + 1)
    )


def fluid_specs(n=4, duration=DURATION, seed=0, ragged=False, senders=2):
    """A batchable fluid grid at test scale (coarse dt option)."""
    specs = []
    for k in range(n):
        scenarios = [
            ScenarioSpec("fair", lineup(DEFAULT_TIMER, senders)),
            ScenarioSpec("unfair", lineup(AGGRESSIVE_TIMER, senders)),
        ]
        if ragged and k % 2 == 1:
            scenarios = scenarios[:1]
        specs.append(
            RunSpec(
                backend="fluid",
                label=f"grid-test-{k}",
                seed=derive_seed(seed, f"grid-test:{k}"),
                duration=duration,
                options=(("dt", DT),),
                scenarios=tuple(scenarios),
            )
        )
    return specs


def floor_specs(n=4, **kwargs):
    """``n`` specs with just enough senders to reach ``MIN_GROUP_SLOTS``.

    The runner stacks only grids at or above the slot floor, so the
    runner-tier tests use this shape to exercise the stacked path.
    """
    return fluid_specs(n, senders=-(-MIN_GROUP_SLOTS // n), **kwargs)


def canonical(results):
    """Canonical JSON of results — the byte-identity yardstick."""
    return json.dumps(
        [io.run_result_to_dict(result) for result in results],
        sort_keys=True,
    )


class TestRunnerGridTier:
    """run_many(batch=True) == run_many(batch=False), byte for byte.

    :func:`floor_specs` grids reach ``MIN_GROUP_SLOTS``, so the runner
    stacks them; the sweep artifact's grid stays below it.
    """

    @pytest.mark.parametrize("ragged", [False, True])
    def test_batched_matches_per_spec(self, ragged):
        specs = floor_specs(ragged=ragged)
        batched = run_many(specs, batch=True, cache=False)
        solo = run_many(specs, batch=False, cache=False)
        assert canonical(batched) == canonical(solo)

    def test_batched_telemetry_matches_per_spec(self):
        specs = floor_specs(n=2)

        def run(batch):
            session = Telemetry(name="grid-test")
            with use(session):
                run_many(specs, batch=batch, cache=False)
            return session

        with_grid, without = run(True), run(False)
        assert (
            int(with_grid.counter("runner.batched").value) == 2
        )
        assert int(without.counter("runner.batched").value) == 0
        # Same simulation events either way; only the runner counter
        # differs (it is deliberately recorded on both paths).
        assert [r.kind for r in with_grid.trace] == [
            r.kind for r in without.trace
        ]

    def test_cache_entries_byte_identical_across_paths(self, tmp_path):
        specs = floor_specs(n=2)
        run_many(specs, batch=True, cache=True,
                 cache_dir=tmp_path / "a")
        run_many(specs, batch=False, cache=True,
                 cache_dir=tmp_path / "b")
        files_a = sorted(
            p.relative_to(tmp_path / "a")
            for p in (tmp_path / "a").rglob("*") if p.is_file()
        )
        files_b = sorted(
            p.relative_to(tmp_path / "b")
            for p in (tmp_path / "b").rglob("*") if p.is_file()
        )
        assert files_a == files_b and files_a
        for rel in files_a:
            assert (
                (tmp_path / "a" / rel).read_bytes()
                == (tmp_path / "b" / rel).read_bytes()
            ), rel

    def test_cache_round_trip(self, tmp_path):
        specs = floor_specs(n=3)
        first = run_many(specs, batch=True, cache=True,
                         cache_dir=tmp_path)
        second = run_many(specs, batch=True, cache=True,
                          cache_dir=tmp_path)
        assert canonical(first) == canonical(second)

    def test_fully_cached_grid_never_opens_pool(
        self, tmp_path, monkeypatch
    ):
        """Satellite regression: a 100%-hit grid spawns zero workers."""
        from repro.runner import parallel

        specs = floor_specs(n=3)
        run_many(specs, batch=True, cache=True, cache_dir=tmp_path)

        class PoolBomb:
            def __init__(self, *args, **kwargs):
                raise AssertionError(
                    "process pool opened on a fully cached run"
                )

        monkeypatch.setattr(
            parallel, "ProcessPoolExecutor", PoolBomb
        )
        replayed = run_many(
            specs, jobs=4, batch=True, cache=True, cache_dir=tmp_path
        )
        assert canonical(replayed) == canonical(
            run_many(specs, batch=False, cache=False)
        )

    def test_batched_specs_are_cached_for_later_hits(self, tmp_path):
        specs = floor_specs(n=2)
        session = Telemetry(name="grid-test")
        with use(session):
            run_many(specs, batch=True, cache=True,
                     cache_dir=tmp_path)
            run_many(specs, batch=True, cache=True,
                     cache_dir=tmp_path)
        assert int(session.counter("runner.cache.hits").value) == 2
        assert int(session.counter("runner.batched").value) == 2

    def test_sweep_fluid_grid_runs_spec_by_spec(self):
        """The sweep artifact's 2-sender grid sits below the floor."""
        specs = sweep.fluid_grid_specs((0, 1, 2, 3), duration=0.01)
        session = Telemetry(name="grid-test")
        with use(session):
            run_many(specs, cache=False)
        assert int(session.counter("runner.executed").value) == 4
        assert int(session.counter("runner.batched").value) == 0

    def test_grid_just_above_floor_stacks(self):
        n = 4
        specs = fluid_specs(n, senders=MIN_GROUP_SLOTS // n + 1)
        session = Telemetry(name="grid-test")
        with use(session):
            stacked = run_many(specs, cache=False)
        assert int(session.counter("runner.batched").value) == n
        assert canonical(stacked) == canonical(
            run_many(specs, batch=False, cache=False)
        )

    def _mixed_grid(self):
        """Two stackable groups (split by dt) plus one per-spec run."""
        group_a = floor_specs(n=2)
        group_b = [
            spec.replace(label=f"other-dt-{k}", options=(("dt", DT * 2),))
            for k, spec in enumerate(floor_specs(n=2, seed=1))
        ]
        solo = [
            spec.replace(label="solo")
            for spec in fluid_specs(n=1, duration=DURATION * 2, seed=2)
        ]
        return group_a + group_b + solo

    def test_one_worker_span_per_stacked_group(self):
        session = Telemetry(name="grid-test")
        with use(session):
            run_many(self._mixed_grid(), cache=False)
        spans = [
            span for span in session.spans.completed
            if span.path.startswith("runner.worker/")
        ]
        assert [span.path for span in spans] == [
            "runner.worker/grid[2]:grid-test-0",
            "runner.worker/grid[2]:other-dt-0",
            "runner.worker/solo",
        ]
        assert all(span.duration > 0 for span in spans)
        assert int(session.counter("runner.batched").value) == 4

    def test_group_spans_leave_metrics_snapshot_unchanged(self):
        specs = self._mixed_grid()

        def snapshot(batch):
            session = Telemetry(name="grid-test")
            with use(session):
                run_many(specs, batch=batch, cache=False)
            return session.registry.snapshot()

        stacked, per_spec = snapshot(True), snapshot(False)
        assert stacked["counters"].pop("runner.batched") == 4
        assert per_spec["counters"].pop("runner.batched") == 0
        assert stacked == per_spec


class TestGroupingScreen:
    """plan_groups only admits what the bank can represent."""

    def test_defaults_mirror_simulator(self):
        import inspect

        signature = inspect.signature(DcqcnFluidSimulator.__init__)
        assert signature.parameters["dt"].default == DEFAULT_DT
        assert (
            signature.parameters["engine"].default == DEFAULT_ENGINE
        )

    def test_rejects_non_fluid_and_special_specs(self):
        fluid = fluid_specs(n=1)[0]
        assert batchable_spec(fluid)
        assert not batchable_spec(fluid.replace(backend="phase"))
        assert not batchable_spec(fluid.replace(scenarios=()))
        assert not batchable_spec(fluid.replace(duration=0.0))
        assert not batchable_spec(
            fluid.replace(options=(("engine", "scalar"),))
        )
        assert not batchable_spec(
            fluid.replace(
                options=(("pfc_pause_threshold", 1e6),)
            )
        )
        routed = ScenarioSpec(
            "routed",
            (
                SenderSpec(
                    name="J1",
                    timer=DEFAULT_TIMER,
                    route=("L1", "L2"),
                ),
            ),
        )
        assert not batchable_spec(
            fluid.replace(scenarios=(routed,))
        )

    def test_groups_split_by_dt_and_duration(self):
        base = floor_specs(n=2)
        other_dt = [
            spec.replace(options=(("dt", DT * 2),))
            for spec in floor_specs(n=2, seed=1)
        ]
        other_duration = [
            spec.replace(duration=DURATION * 2)
            for spec in floor_specs(n=1, seed=2)
        ]
        indexed = list(
            enumerate(base + other_dt + other_duration)
        )
        groups = plan_groups(indexed)
        assert groups == [[0, 1], [2, 3]]
        assert MIN_GROUP == 2  # the singleton stayed on the solo path

    def test_slot_floor(self):
        """A group stacks from ``MIN_GROUP_SLOTS`` sender slots on, and
        a spec counts its largest scenario, not the sum of them."""
        half = MIN_GROUP_SLOTS // 2
        rest = MIN_GROUP_SLOTS - half
        [wide] = fluid_specs(n=1, senders=half)
        [narrow] = fluid_specs(n=1, seed=1, senders=rest - 1)
        assert plan_groups([(0, wide), (1, narrow)]) == []
        widened = narrow.replace(scenarios=(
            narrow.scenarios[0],
            ScenarioSpec("wide", lineup(DEFAULT_TIMER, rest)),
        ))
        assert plan_groups([(0, wide), (1, widened)]) == [[0, 1]]

    def test_execute_batched_falls_back_on_scalar_engine(self):
        # The declarative screen catches this earlier in run_many;
        # execute_batched itself must also refuse gracefully.
        specs = [
            spec.replace(options=(("dt", DT), ("engine", "scalar")))
            for spec in fluid_specs(n=2)
        ]
        assert execute_batched(specs) is None

"""Grid-bank tests: batched multi-scenario execution is bit-identical.

The core guarantee: stacking N compatible DCQCN runs into one
:class:`repro.cc.grid_bank.GridBank` must reproduce each run's solo
``sim.run`` *bit for bit* — sampled rate/queue series, job timelines,
and the RNG stream positions every generator is left at.
The metamorphic suite below checks that over randomized grids (mixed
seeds x timers x fault schedules) and over the batch sizes that stress
the lane machinery: 1 (degenerate), 2 (minimal), odd, and a wide 64.

The runner half pins the integration contract: a grid that reaches
``MIN_GROUP_SLOTS`` stacks and is byte-identical to ``batch=False``
(results *and* cache entries), a grid below it runs spec by spec, a
fully cached grid never touches the process pool, and the grouping
screen only admits specs the bank can actually represent.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import io
from repro.cc import grid_bank
from repro.cc.dcqcn import (
    AGGRESSIVE_TIMER,
    DEFAULT_TIMER,
    DcqcnFluidSimulator,
    DcqcnParams,
    OnOffDcqcnJob,
)
from repro.cc.grid_bank import GridBank
from repro.cc.sender_bank import UniformChunks
from repro.experiments import sweep
from repro.faults import (
    InjectionSchedule,
    LinkFailure,
    PfcStorm,
    RateChange,
)
from repro.runner import (
    RunSpec,
    ScenarioSpec,
    SenderSpec,
    derive_seed,
    run_many,
)
from repro.runner.grid import (
    MIN_GROUP,
    MIN_GROUP_SLOTS,
    batchable_spec,
    execute_batched,
    plan_groups,
)
from repro.switches.ecn import RedEcnMarker
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
    sim = DcqcnFluidSimulator(capacity=capacity, dt=DT, faults=faults)
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
        grid = GridBank.build([sim for sim, _, _ in twin])
        assert grid is not None
        grid_traces = grid.run(DURATION)
        for (_, jobs_s, rngs_s), trace_s, (_, jobs_b, rngs_b), trace_b in zip(
            solo, solo_traces, twin, grid_traces
        ):
            _assert_bit_identical(
                (trace_s, jobs_s, rngs_s), (trace_b, jobs_b, rngs_b)
            )

    def test_grid_compatible_rejects_special_configs(self):
        def with_sender(sim):
            sim.add_sender(
                "J1",
                DcqcnParams(line_rate=gbps(50)),
                np.random.default_rng(1),
            )
            return sim

        class OtherMarker(RedEcnMarker):
            pass

        pfc = with_sender(DcqcnFluidSimulator(dt=DT, pfc_pause_threshold=1e6))
        assert GridBank.build([pfc]) is None
        marked = with_sender(DcqcnFluidSimulator(dt=DT, marker=OtherMarker()))
        assert GridBank.build([marked]) is None
        plain = DcqcnFluidSimulator(dt=DT)
        assert GridBank.build([plain]) is None  # no senders yet
        assert GridBank.build([with_sender(plain)]) is not None

    def test_build_rejects_shared_rng(self):
        """One generator feeding two lanes cannot be interleaved."""
        shared = np.random.default_rng(3)
        sims = []
        for _ in range(2):
            sim = DcqcnFluidSimulator(dt=DT)
            sim.add_sender(
                "J1", DcqcnParams(line_rate=gbps(50)), shared
            )
            sims.append(sim)
        assert GridBank.build(sims) is None

    def test_build_rejects_rng_shared_within_a_lane(self):
        """Each slot draws from its own table row, so two senders of one
        lane may not share a generator either."""
        shared = np.random.default_rng(3)
        sim = DcqcnFluidSimulator(dt=DT)
        for name in ("J1", "J2"):
            sim.add_sender(name, DcqcnParams(line_rate=gbps(50)), shared)
        assert GridBank.build([sim]) is None


class TestDrawTable:
    """The CNP draw table: rows far narrower than a run's draws, and
    the take/untake handback the table rests on."""

    @pytest.mark.parametrize("width", [2, 5])
    def test_narrow_rows_match_sequential(self, width, monkeypatch):
        """Every stream crosses many refills, and unread draws go back
        to their streams at each exit of a faulted lane and before the
        final rewind; the grid still equals the solo runs."""
        monkeypatch.setattr(grid_bank, "DRAWS_PER_ROW", width)
        returned = []
        untake = UniformChunks.untake

        def counted(stream, tail):
            returned.append(len(tail))
            untake(stream, tail)

        monkeypatch.setattr(UniformChunks, "untake", counted)
        solo = _build_grid(64, grid_seed=width)
        twin = _build_grid(64, grid_seed=width)
        assert {sim.faults for sim, _, _ in twin} == set(SCHEDULES)
        assert any(jobs for _, jobs, _ in twin)
        solo_traces = [sim.run(DURATION) for sim, _, _ in solo]
        grid = GridBank.build([sim for sim, _, _ in twin])
        assert grid is not None
        grid_traces = grid.run(DURATION)
        for (_, jobs_s, rngs_s), trace_s, (_, jobs_b, rngs_b), trace_b in zip(
            solo, solo_traces, twin, grid_traces
        ):
            _assert_bit_identical(
                (trace_s, jobs_s, rngs_s), (trace_b, jobs_b, rngs_b)
            )
        assert sum(tail > 0 for tail in returned) > 64

    def test_final_handback_only_uncounts(self, monkeypatch):
        """At the end of a run the unread table draws only leave their
        streams' consumed counts, since ``_finish``'s rewind drops the
        buffers: no draw goes back through ``untake``. A fault-free grid
        (no lane hands back at an exit) still equals its solo runs,
        generator states included."""
        taken = []
        take = UniformChunks.take

        def counted(stream, n):
            taken.append(n)
            return take(stream, n)

        def refused(stream, tail):
            raise AssertionError("untake at the end of a run")

        monkeypatch.setattr(UniformChunks, "take", counted)
        monkeypatch.setattr(UniformChunks, "untake", refused)
        solo, twin = (
            [run for run in _build_grid(32, grid_seed=9)
             if run[0].faults is None]
            for _ in range(2)
        )
        assert len(solo) >= 2
        solo_traces = [sim.run(DURATION) for sim, _, _ in solo]
        grid = GridBank.build([sim for sim, _, _ in twin])
        assert grid is not None
        grid_traces = grid.run(DURATION)
        assert taken  # table rows were filled, so draws were left unread
        for (_, jobs_s, rngs_s), trace_s, (_, jobs_b, rngs_b), trace_b in zip(
            solo, solo_traces, twin, grid_traces
        ):
            _assert_bit_identical(
                (trace_s, jobs_s, rngs_s), (trace_b, jobs_b, rngs_b)
            )

    def test_coin_uses_python_float_pow(self):
        """A draw that lands between ``1 - q ** packets`` and numpy's
        ``1 - np.power(q, packets)`` (1 ulp apart for some operands on
        hosts whose numpy dispatches a vector ``pow``) flips the coin
        the way the scalar kernel does."""
        search = np.random.default_rng(0)
        p_mark = search.uniform(0.01, 1.0, 4096)
        sent = search.uniform(1e3, 6e4, 4096)
        mtu = DcqcnParams().mtu
        q, packets = 1.0 - p_mark, sent / mtu
        exact = 1.0 - np.array([
            a ** b for a, b in zip(q.tolist(), packets.tolist())
        ])
        vector = 1.0 - np.power(q, packets)
        # Up to 60 operand pairs numpy rounds differently, plus a few it
        # rounds the same way.
        pick = np.concatenate((
            np.flatnonzero(exact != vector)[:60], np.arange(4)
        ))
        runs = len(pick)
        sims = []
        for r in range(runs):
            sim = DcqcnFluidSimulator(dt=DT)
            sim.add_sender(
                "J1", DcqcnParams(line_rate=gbps(50)),
                np.random.default_rng(r),
            )
            sims.append(sim)
        grid = GridBank.build(sims)
        assert grid is not None
        draws = np.minimum(exact, vector)[pick]
        grid._sent[:, 0] = sent[pick]
        grid._draws[:, 0] = draws
        grid._dpos[:] = 0
        elig = np.ones((runs, 1), dtype=bool)
        grid._cnp_pass(elig, p_mark[pick], np.zeros(runs))
        assert grid._cnps[:, 0].tolist() == (
            draws < exact[pick]
        ).astype(int).tolist()

    @pytest.mark.parametrize("seed", range(8))
    def test_take_untake_replay_scalar_draws(self, seed):
        """Seeded interleavings of the kernels' inline draw, ``take(n)``
        and ``untake(tail)`` read the generator's own sequence, and
        ``rewind`` leaves it where as many ``rng.random()`` calls do."""
        plan = np.random.default_rng(seed)
        rng = np.random.default_rng(100 + seed)
        stream = UniformChunks(rng)
        read = []
        for _ in range(300):
            op = int(plan.integers(3))
            if op == 0:
                # The inline draw of SenderBank._tick_run.
                if stream._pos >= len(stream._buf):
                    stream.refill()
                read.append(stream._buf[stream._pos])
                stream._pos += 1
                stream._consumed += 1
                continue
            block = stream.take(int(plan.integers(1, 40)))
            used = block.size if op == 1 else int(plan.integers(block.size))
            read.extend(block[:used].tolist())
            if used < block.size:
                stream.untake(block[used:])
        oracle = np.random.default_rng(100 + seed)
        assert read == [oracle.random() for _ in read]
        stream.rewind()
        assert rng.bit_generator.state == oracle.bit_generator.state


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
        # Same engine work either way; only the runner counter differs
        # (it is deliberately recorded on both paths).
        def counters(session):
            merged = dict(session.registry.snapshot()["counters"])
            del merged["runner.batched"]
            return merged

        assert counters(with_grid) == counters(without)
        assert counters(with_grid)["cc.steps"] > 0
        assert counters(with_grid)["cc.cnps"] > 0
        # Fluid rates live in the results, never in the trace.
        assert len(with_grid.trace) == len(without.trace) == 0

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
        import concurrent.futures

        specs = floor_specs(n=3)
        run_many(specs, batch=True, cache=True, cache_dir=tmp_path)

        class PoolBomb:
            def __init__(self, *args, **kwargs):
                raise AssertionError(
                    "process pool opened on a fully cached run"
                )

        # ``run_many`` imports the pool class when it opens a pool.
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", PoolBomb
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

    def test_shared_stream_runs_spec_by_spec(self):
        """A spec whose two senders share one stream cannot ride in a
        lane: its group runs spec by spec, byte-identical to
        ``batch=False``."""
        specs = floor_specs()
        first, second, *rest = specs[0].scenarios[0].senders
        shared = tuple(
            dataclasses.replace(sender, stream="shared")
            for sender in (first, second)
        )
        specs[0] = specs[0].replace(scenarios=(
            ScenarioSpec("fair", shared + tuple(rest)),
        ) + specs[0].scenarios[1:])
        session = Telemetry(name="grid-test")
        with use(session):
            stacked = run_many(specs, cache=False)
        assert int(session.counter("runner.batched").value) == 0
        assert canonical(stacked) == canonical(
            run_many(specs, batch=False, cache=False)
        )

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
        # The declarative screen keeps PFC specs out of run_many's
        # groups; execute_batched itself must also refuse them
        # gracefully, because GridBank.build rejects PFC lanes.
        specs = [
            spec.replace(options=(("dt", DT), ("pfc_pause_threshold", 1e6)))
            for spec in fluid_specs(n=2)
        ]
        assert execute_batched(specs) is None

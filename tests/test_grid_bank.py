"""Grid-bank tests: batched multi-scenario execution is bit-identical.

The core guarantee: stacking N compatible DCQCN runs into one
:class:`repro.cc.grid_bank.GridBank` must reproduce each run's solo
``sim.run`` *bit for bit* — sampled rate/queue series, final sender
state, and the RNG stream positions every generator is left at.
The metamorphic suite below checks that over randomized grids of
long-lived senders (mixed seeds x timers x sender counts) and over the
batch sizes that stress the lane machinery: 1 (degenerate), 2
(minimal), odd, and a wide 64.

The runner half pins the integration contract: a grid that reaches
``MIN_GROUP_SLOTS`` stacks and is byte-identical to ``batch=False``
(results *and* cache entries), a grid below it runs spec by spec, a
fully cached grid never touches the process pool, the grouping screen
only admits specs the bank can actually represent (long-lived senders,
no fault schedule), and the two shapes stacking was measured on plan as
one group each.
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
from repro.faults import InjectionSchedule, RateChange
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

TIMERS = (DEFAULT_TIMER, AGGRESSIVE_TIMER)


def _build_run(index, grid_seed):
    """One randomized run of long-lived senders: seed, timers and
    sender count (2 or 3).

    Returns ``(sim, rngs)``; the draw is deterministic in
    ``(index, grid_seed)`` so the solo and batched twins are built
    identically.
    """
    rng = np.random.default_rng(1000 * grid_seed + index)
    capacity = gbps(50)
    sim = DcqcnFluidSimulator(capacity=capacity, dt=DT)
    params = DcqcnParams(line_rate=capacity)
    rngs = []
    n_senders = 2 + int(rng.integers(2))
    for s in range(n_senders):
        timer = TIMERS[int(rng.integers(len(TIMERS)))]
        sender_rng = np.random.default_rng(
            int(rng.integers(1, 2**31))
        )
        rngs.append(sender_rng)
        sim.add_sender(f"J{s + 1}", params.with_timer(timer), sender_rng)
    return sim, rngs


def _build_grid(n_runs, grid_seed):
    return [_build_run(i, grid_seed) for i in range(n_runs)]


def _sender_state(sim):
    """Each sender's public state after a run."""
    return [
        (sender.name, sender.rate, sender.target_rate, sender.alpha,
         sender.bytes_sent, sender.cnps_received, sender.remaining)
        for sender in sim.senders
    ]


def _assert_bit_identical(solo, batched):
    """Solo and batched twins agree on every observable surface."""
    (trace_s, sim_s, rngs_s) = solo
    (trace_b, sim_b, rngs_b) = batched
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
    assert trace_s.timelines == trace_b.timelines == {}
    assert _sender_state(sim_s) == _sender_state(sim_b)
    for rng_s, rng_b in zip(rngs_s, rngs_b):
        assert rng_s.bit_generator.state == rng_b.bit_generator.state


def _assert_grid_matches_solo(solo, twin):
    """Run ``solo`` one simulator at a time and ``twin`` as one grid;
    return the grid."""
    solo_traces = [sim.run(DURATION) for sim, _ in solo]
    grid = GridBank.build([sim for sim, _ in twin])
    assert grid is not None
    grid_traces = grid.run(DURATION)
    for (sim_s, rngs_s), trace_s, (sim_b, rngs_b), trace_b in zip(
        solo, solo_traces, twin, grid_traces
    ):
        _assert_bit_identical(
            (trace_s, sim_s, rngs_s), (trace_b, sim_b, rngs_b)
        )
    return grid


class TestGridBankMetamorphic:
    """Batched == sequential over randomized grids."""

    @pytest.mark.parametrize("n_runs", [1, 2, 3, 64])
    def test_batched_matches_sequential(self, n_runs):
        _assert_grid_matches_solo(
            _build_grid(n_runs, grid_seed=n_runs),
            _build_grid(n_runs, grid_seed=n_runs),
        )

    def test_grid_compatible_rejects_special_configs(self):
        """A lane holds long-lived senders under no fault schedule, on
        one link without PFC and under a plain RED marker."""
        params = DcqcnParams(line_rate=gbps(50))

        def with_sender(sim, **kwargs):
            sim.add_sender(
                "J1", params, np.random.default_rng(1), **kwargs
            )
            return sim

        class OtherMarker(RedEcnMarker):
            pass

        pfc = with_sender(DcqcnFluidSimulator(dt=DT, pfc_pause_threshold=1e6))
        assert GridBank.build([pfc]) is None
        marked = with_sender(DcqcnFluidSimulator(dt=DT, marker=OtherMarker()))
        assert GridBank.build([marked]) is None
        finite = with_sender(DcqcnFluidSimulator(dt=DT), data_bytes=1e6)
        assert GridBank.build([finite]) is None
        for schedule in (
            InjectionSchedule(events=()),
            InjectionSchedule(events=(
                RateChange("L1", 0.0007, 0.0013, 0.4),
            )),
        ):
            faulted = with_sender(DcqcnFluidSimulator(dt=DT, faults=schedule))
            assert GridBank.build([faulted]) is None
        on_off = with_sender(DcqcnFluidSimulator(dt=DT))
        on_off.add_source(OnOffDcqcnJob(
            "J2", params, np.random.default_rng(2),
            compute_time=0.0009, comm_bytes=1e6,
        ))
        assert GridBank.build([on_off]) is None
        plain = DcqcnFluidSimulator(dt=DT)
        assert GridBank.build([plain]) is None  # no senders yet
        assert GridBank.build([with_sender(plain)]) is not None
        # One refused lane keeps the whole grid from building.
        assert GridBank.build(
            [with_sender(DcqcnFluidSimulator(dt=DT)), finite]
        ) is None

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
    the take-then-uncount the table rests on."""

    @pytest.mark.parametrize("width", [2, 5])
    def test_narrow_rows_match_sequential(self, width, monkeypatch):
        """Every stream crosses many refills, and many rows still hold
        unread draws when the run ends, which only leave their streams'
        consumed counts before the rewind; the grid still equals the
        solo runs, generator states included."""
        monkeypatch.setattr(grid_bank, "DRAWS_PER_ROW", width)
        taken = []
        take = UniformChunks.take

        def counted(stream, n):
            taken.append(n)
            return take(stream, n)

        monkeypatch.setattr(UniformChunks, "take", counted)
        solo = _build_grid(64, grid_seed=width)
        twin = _build_grid(64, grid_seed=width)
        assert {
            sender.params.timer for sim, _ in twin for sender in sim.senders
        } == set(TIMERS)
        assert {len(sim.senders) for sim, _ in twin} == {2, 3}
        grid = _assert_grid_matches_solo(solo, twin)
        assert set(taken) == {width} and len(taken) > 64 * width
        assert int((grid._dpos < width).sum()) > 64

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
    def test_take_replays_scalar_draws(self, seed):
        """Seeded interleavings of the kernels' inline draw and
        ``take(n)`` read the generator's own sequence; once the unread
        end of the last block leaves the consumed count, as the grid
        uncounts its rows at the end of a run, ``rewind`` leaves the
        generator where as many ``rng.random()`` calls do."""
        plan = np.random.default_rng(seed)
        rng = np.random.default_rng(100 + seed)
        stream = UniformChunks(rng)
        read = []
        for _ in range(300):
            if plan.integers(2):
                # The inline draw of SenderBank._tick_run.
                if stream._pos >= len(stream._buf):
                    stream.refill()
                read.append(stream._buf[stream._pos])
                stream._pos += 1
                stream._consumed += 1
            else:
                read.extend(stream.take(int(plan.integers(1, 40))).tolist())
        block = stream.take(int(plan.integers(1, 40)))
        used = int(plan.integers(block.size))
        read.extend(block[:used].tolist())
        stream._consumed -= block.size - used
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

    @pytest.mark.parametrize("refused", ["faulted", "on-off"])
    def test_refused_lanes_run_spec_by_spec(self, refused):
        """A floor-sized group of faulted specs, and one of specs with
        an on-off sender, cannot ride in lanes: each runs spec by spec,
        byte-identical to ``batch=False``."""
        if refused == "faulted":
            schedule = InjectionSchedule(events=(
                RateChange("L1", 0.0007, 0.0013, 0.4),
            ))
            specs = [spec.replace(faults=schedule) for spec in floor_specs()]
        else:
            specs = [
                spec.replace(scenarios=tuple(
                    ScenarioSpec(scenario.name, (dataclasses.replace(
                        scenario.senders[0], compute_time=0.0009,
                        comm_bytes=0.0011 * gbps(50),
                    ),) + scenario.senders[1:])
                    for scenario in spec.scenarios
                ))
                for spec in floor_specs(seed=1)
            ]
        session = Telemetry(name="grid-test")
        with use(session):
            results = run_many(specs, cache=False)
        assert int(session.counter("runner.batched").value) == 0
        assert canonical(results) == canonical(
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
        # A lane holds long-lived senders under no fault schedule.
        sender = fluid.scenarios[0].senders[0]
        for special in (
            dataclasses.replace(
                sender, compute_time=0.0009, comm_bytes=1e6
            ),
            dataclasses.replace(sender, data_bytes=1e6),
        ):
            assert not batchable_spec(fluid.replace(scenarios=(
                fluid.scenarios[0],
                ScenarioSpec("special", (special,)),
            )))
        for schedule in (
            InjectionSchedule(events=()),
            InjectionSchedule(events=(
                RateChange("L1", 0.0007, 0.0013, 0.4),
            )),
        ):
            assert not batchable_spec(fluid.replace(faults=schedule))

    @pytest.mark.parametrize("shape", ["grid-dense", "sweep-128x2"])
    def test_measured_stacking_shapes_plan_as_one_group(self, shape):
        """The two shapes stacking was measured to win on each plan as
        one group: the ``grid-dense`` lineup (64 one-scenario specs of 32
        long-lived senders at 1 Gbps for 0.02 s) and the sweep's
        128 x 2 grid at 0.15 s, each exactly at the slot floor or
        above it."""
        if shape == "grid-dense":
            timers = (DEFAULT_TIMER, AGGRESSIVE_TIMER)
            senders = tuple(
                SenderSpec(
                    name=f"J{s + 1}", timer=timers[s % 2] * (1 + 0.03 * s)
                )
                for s in range(32)
            )
            specs = [
                RunSpec(
                    backend="fluid",
                    label=f"dense-{k}",
                    seed=derive_seed(0, f"dense:{k}"),
                    capacity=gbps(1),
                    duration=0.02,
                    scenarios=(ScenarioSpec("grid", senders),),
                )
                for k in range(64)
            ]
        else:
            specs = sweep.fluid_grid_specs(range(128), 0.15)
        assert all(batchable_spec(spec) for spec in specs)
        assert plan_groups(list(enumerate(specs))) == [
            list(range(len(specs)))
        ]

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

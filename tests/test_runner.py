"""Runner-layer tests: specs, registry, cache, and parallel fan-out.

The load-bearing contract is determinism: ``run_many(specs, jobs=4)``
must be byte-identical — results *and* telemetry trace — to ``jobs=1``,
and a cache hit must replay exactly what the original execution stored.
"""

import base64
import copy
import json
import math
import pickle
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import run_fluid_spec

from repro import io
from repro.core.timeline import IterationSample, JobTimeline
from repro.errors import ConfigError, TopologyError
from repro.experiments import sweep
from repro.experiments.common import phase_spec
from repro.faults import InjectionSchedule, LinkFailure, RateChange
from repro.experiments.sweep import point_specs
from repro.net.phasesim import PhaseLevelSimulator
from repro.net.topology import Topology
from repro.cc.fair import FairSharing
from repro.cc.weighted import StaticWeighted
from repro.runner import (
    ResultCache,
    RunSpec,
    RunnerConfig,
    ScenarioSpec,
    SenderSpec,
    backend_names,
    current_config,
    derive_seed,
    execute,
    get_backend,
    run_many,
    run_one,
    safe_content_hash,
    using,
)
from repro.runner.backends import dumbbell_topology
from repro.runner.cache import (
    CACHE_VERSION,
    pack_columns,
    unpack_columns,
)
from repro.telemetry.session import Telemetry, use
from repro.units import gbps, ms
from repro.workloads.job import JobSpec
from repro.workloads.profiles import (
    EFFECTIVE_BOTTLENECK,
    figure2_vgg19_pair,
)


def small_phase_specs(n_iterations=30, seed=0):
    """The Figure 1d pair at test scale: one fair, one 2:1 weighted."""
    j1, j2 = figure2_vgg19_pair(jitter=0.02)
    job_ids = [j1.job_id, j2.job_id]
    return [
        phase_spec(
            [j1, j2],
            FairSharing(),
            n_iterations=n_iterations,
            seed=seed,
            label="runner-test-fair",
        ),
        phase_spec(
            [j1, j2],
            StaticWeighted.from_aggressiveness_order(job_ids),
            n_iterations=n_iterations,
            seed=seed,
            label="runner-test-unfair",
        ),
    ]


def canonical(results):
    """Canonical JSON of results — the byte-identity yardstick."""
    return json.dumps(
        [io.run_result_to_dict(result) for result in results],
        sort_keys=True,
    )


def read_entry(path):
    """A cache entry file as ``(header, lines)``: the JSON object on
    its first line, with its float columns put back into ``result``,
    and the trace lines after it."""
    header, *lines = path.read_text(encoding="utf-8").split("\n")
    assert lines.pop() == "", "every line of an entry ends with a newline"
    header = json.loads(header)
    header["result"] = unpack_columns(
        header["result"], header.pop("columns"), header.pop("floats")
    )
    return header, lines


def header_line(header):
    """The first line of an entry for ``header`` as :func:`read_entry`
    gives it: its result's float columns packed, as sorted-key JSON."""
    result, columns, floats = pack_columns(header["result"])
    return json.dumps(
        {**header, "result": result, "columns": columns,
         "floats": floats.decode("ascii")},
        sort_keys=True,
    )


def write_entry(path, header, lines=()):
    """Write ``header`` and trace ``lines`` in the entry layout: the
    header line, then each line, every one newline-ended."""
    path.write_text(
        "".join(f"{line}\n" for line in (header_line(header), *lines)),
        encoding="utf-8",
    )


def fat_tree_cluster_spec(faults=None, until=None, n_iterations=8):
    """Two cross-pod Figure 2 jobs on a k=4 fat tree: both routes climb
    ``up_0_0_0`` and share it."""
    j1, j2 = figure2_vgg19_pair(jitter=0.02)
    return RunSpec(
        backend="cluster",
        seed=11,
        policy=FairSharing(),
        topology=Topology.fat_tree(4),
        n_iterations=n_iterations,
        until=until,
        options=(
            ("placements", (
                (j1, ("h0_0_0", "h1_0_0")),
                (j2, ("h0_0_1", "h1_0_1")),
            )),
            ("warmup_iterations", 1),
        ),
        faults=faults,
    )


#: Two cross-pod on-off senders on a k=4 fat tree, sharing ``up_0_0_0``.
FABRIC_ROUTES = {
    "J1": (
        "h0_0_0->edge0_0", "up_0_0_0", "core_0_0_0",
        "core_1_0_0_rev", "up_1_0_0_rev", "edge1_0->h1_0_0",
    ),
    "J2": (
        "h0_0_1->edge0_0", "up_0_0_0", "core_0_0_0",
        "core_1_0_0_rev", "up_1_0_0_rev", "edge1_0->h1_0_1",
    ),
}


def fat_tree_fluid_spec(faults=None):
    """The on-off DCQCN pair of :data:`FABRIC_ROUTES` as a fluid spec."""
    senders = tuple(
        SenderSpec(
            name=name,
            timer=125e-6,
            compute_time=0.0011,
            comm_bytes=0.0013 * 50e9,
            start_offset=index * 0.0003,
            route=FABRIC_ROUTES[name],
        )
        for index, name in enumerate(sorted(FABRIC_ROUTES))
    )
    return RunSpec(
        backend="fluid",
        seed=3,
        topology=Topology.fat_tree(4),
        duration=0.02,
        scenarios=(ScenarioSpec(name="fabric", senders=senders),),
        options=(("dt", 10e-6),),
        faults=faults,
    )


def assert_run_leaves_spec_unchanged(spec, link_name):
    """Executing ``spec`` leaves ``link_name`` at its base capacity and
    the spec's content hash as it was, so a rerun repeats the first run
    byte for byte."""
    link = spec.topology.link_by_name(link_name)
    base = link.capacity
    before = spec.content_hash()
    first = execute(spec)
    assert link.capacity == base
    assert spec.content_hash() == before
    assert first.spec_hash == before
    assert canonical([execute(spec)]) == canonical([first])


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a") == derive_seed(7, "a")

    def test_name_and_seed_sensitive(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_non_negative(self):
        for name in ("x", "y", "sweep:eq:0.5"):
            assert derive_seed(0, name) >= 0


class TestContentHash:
    def test_stable_across_instances(self):
        a, b = small_phase_specs()[0], small_phase_specs()[0]
        assert a.content_hash() == b.content_hash()

    def test_label_excluded(self):
        spec = small_phase_specs()[0]
        assert (
            spec.replace(label="renamed").content_hash()
            == spec.content_hash()
        )

    def test_seed_changes_hash(self):
        spec = small_phase_specs()[0]
        assert spec.replace(seed=99).content_hash() != spec.content_hash()

    def test_policy_changes_hash(self):
        fair, unfair = small_phase_specs()
        assert fair.content_hash() != unfair.content_hash()

    def test_survives_pickle(self):
        spec = small_phase_specs()[0]
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.content_hash() == spec.content_hash()

    def test_uncacheable_spec(self):
        spec = small_phase_specs()[0].replace(
            gates=(("vgg19-1", lambda t: True),)
        )
        assert not spec.cacheable()
        assert safe_content_hash(spec) == ""


class TestRegistry:
    def test_builtins_registered(self):
        names = backend_names()
        for name in ("phase", "fluid", "cluster", "service"):
            assert name in names

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            get_backend("no-such-backend")

    def test_backend_module_resolution(self):
        # The sweep registers its point backend at import time; a spec
        # carrying backend_module resolves it even in a fresh process.
        [spec] = point_specs([0.3], 10, True, 0)
        assert spec.backend_module == "repro.experiments.sweep"
        result = execute(spec)
        assert result.data["compatible_rate"] == 1.0


class TestPhaseBackend:
    def test_matches_direct_simulator(self):
        """The backend is a refactor, not a remodel: same numbers."""
        spec = small_phase_specs()[0]
        via_runner = run_one(spec, cache=False).phase

        topology = Topology.dumbbell(
            hosts_per_side=2,
            host_capacity=EFFECTIVE_BOTTLENECK,
            bottleneck_capacity=EFFECTIVE_BOTTLENECK,
            bottleneck_name="L1",
        )
        sim = PhaseLevelSimulator(topology, FairSharing(), seed=spec.seed)
        for index, job in enumerate(spec.jobs):
            sim.add_job(
                job,
                src=f"ha{index}",
                dst=f"hb{index}",
                n_iterations=spec.n_iterations,
            )
        direct = sim.run()

        for job in spec.jobs:
            assert via_runner.iteration_times(job.job_id).tolist() == (
                direct.iteration_times(job.job_id).tolist()
            )

    def test_fault_window_open_at_until_leaves_spec_unchanged(self):
        cap = gbps(42)
        spec = RunSpec(
            backend="phase",
            jobs=(
                JobSpec("J1", ms(10), ms(5) * cap),
                JobSpec("J2", ms(10), ms(5) * cap),
            ),
            policy=FairSharing(),
            n_iterations=30,
            capacity=cap,
            topology=dumbbell_topology(2, cap),
            faults=InjectionSchedule(events=(
                RateChange("L1", 0.2, 1.0, 0.5),
            )),
            until=0.3,
        )
        assert_run_leaves_spec_unchanged(spec, "L1")


class TestTimelineSchema:
    """Every backend's RunResult carries the one canonical timeline."""

    def fluid_spec(self):
        return RunSpec(
            backend="fluid",
            seed=0,
            capacity=5e9,
            duration=0.03,
            options=(("dt", 20e-6),),
            scenarios=(
                ScenarioSpec(
                    "only",
                    (
                        SenderSpec(
                            "vgg19-1",
                            125e-6,
                            compute_time=0.002,
                            comm_bytes=5e9 * 0.001,
                        ),
                    ),
                ),
            ),
        )

    def check_schema(self, timelines):
        assert timelines
        for job_id, timeline in timelines.items():
            assert isinstance(timeline, JobTimeline)
            assert timeline.job_id == job_id
            assert len(timeline) > 0
            for position, observed in enumerate(timeline):
                assert isinstance(observed, IterationSample)
                assert observed.index == position
                assert (
                    observed.start <= observed.comm_start <= observed.end
                )
            # The codec preserves the schema bit-for-bit.
            rebuilt = io.timeline_from_dict(io.timeline_to_dict(timeline))
            assert rebuilt.to_rows() == timeline.to_rows()

    def test_phase_fluid_engine_share_schema(self):
        """Phase, fluid and cluster results share the timeline schema."""
        results = {
            "phase": run_one(
                small_phase_specs(n_iterations=5)[0], cache=False
            ),
            "fluid": run_one(self.fluid_spec(), cache=False),
            "cluster": run_one(
                fat_tree_cluster_spec(n_iterations=5), cache=False
            ),
        }
        for result in results.values():
            self.check_schema(result.timelines())

    def test_timelines_requires_scenario_when_ambiguous(self):
        spec = self.fluid_spec()
        two = spec.replace(
            scenarios=spec.scenarios
            + (ScenarioSpec("again", spec.scenarios[0].senders),)
        )
        result = run_one(two, cache=False)
        with pytest.raises(ConfigError, match="several scenarios"):
            result.timelines()
        self.check_schema(result.timelines(scenario="again"))


class TestFluidOptions:
    """The fluid backend refuses option names it does not read."""

    def spec(self, options):
        return RunSpec(
            backend="fluid",
            seed=0,
            duration=0.005,
            options=options,
            scenarios=(
                ScenarioSpec("only", (SenderSpec("a", 125e-6),)),
            ),
        )

    @pytest.mark.parametrize(
        "option",
        [("sample_intervall", 1e-3), ("engine", "scalar")],
        ids=["misspelled", "engine"],
    )
    def test_unread_option_raises(self, option):
        with pytest.raises(ConfigError) as excinfo:
            run_many([self.spec((option,))], cache=False)
        message = str(excinfo.value)
        assert option[0] in message
        for accepted in ("dt", "sample_interval", "pfc_pause_threshold"):
            assert accepted in message

    def test_accepted_options_are_applied(self):
        [result] = run_many(
            [self.spec((("dt", 10e-6), ("sample_interval", 1e-3)))],
            cache=False,
        )
        assert len(result.scenario("only").rate_series["a"]) == 5


class TestUnreadOptions:
    """The phase, cluster and service backends refuse option names they
    do not read, as the fluid backend does: an unread option would only
    give the same run a second cache key."""

    ACCEPTED = {
        "phase": [],
        "cluster": ["gpus_per_host", "placements", "warmup_iterations"],
        "service": [
            "gpus_per_host", "hosts_per_rack", "lifetime_model",
            "mean_interarrival_s", "mean_lifetime_s", "n_arrivals",
            "n_racks", "placement", "queue_limit",
        ],
    }

    @staticmethod
    def spec(backend):
        if backend == "phase":
            return small_phase_specs(n_iterations=2)[0]
        if backend == "cluster":
            return fat_tree_cluster_spec(n_iterations=2)
        return RunSpec(
            backend="service", seed=0, options=(("n_arrivals", 5),)
        )

    @pytest.mark.parametrize("backend", ["phase", "cluster", "service"])
    def test_unread_option_raises(self, backend):
        spec = self.spec(backend)
        [good] = run_many([spec], cache=False)
        assert good.backend == backend
        bad = spec.replace(
            options=spec.options + (("cluster_levle", True),)
        )
        with pytest.raises(ConfigError) as excinfo:
            run_many([bad], cache=False)
        message = str(excinfo.value)
        assert f"{backend} backend" in message
        assert "cluster_levle" in message
        assert f"accepted: {self.ACCEPTED[backend]}" in message


class TestRunMany:
    def test_results_in_spec_order(self):
        results = run_many(small_phase_specs(), cache=False)
        assert [r.label for r in results] == [
            "runner-test-fair", "runner-test-unfair"
        ]

    def test_parallel_matches_serial_phase(self):
        serial = run_many(small_phase_specs(), jobs=1, cache=False)
        parallel = run_many(small_phase_specs(), jobs=4, cache=False)
        assert canonical(parallel) == canonical(serial)

    def test_parallel_matches_serial_sweep(self):
        specs = point_specs((0.2, 0.45, 0.7), 30, True, 0)
        serial = run_many(specs, jobs=1, cache=False)
        parallel = run_many(specs, jobs=4, cache=False)
        assert canonical(parallel) == canonical(serial)

    def test_parallel_matches_serial_telemetry(self):
        def traced(jobs):
            session = Telemetry(name="runner-test")
            with use(session):
                run_many(small_phase_specs(), jobs=jobs, cache=False)
            return [
                (r.kind, r.t, r.fields) for r in session.trace.records
            ]

        serial = traced(1)
        assert serial  # two empty traces would match trivially
        assert traced(4) == serial

    def test_unpicklable_specs_fall_back_in_process(self):
        gated = [
            spec.replace(gates=(("vgg19-1", lambda t: True),))
            for spec in small_phase_specs(n_iterations=5)
        ]
        results = run_many(gated, jobs=4, cache=False)
        assert all(r.phase is not None for r in results)


def recorded_run(spec, **run_options):
    """What one ``run_many([spec])`` leaves in a fresh session: the
    engine counters (``runner.*`` left out), the encoded and the
    decoded trace, and the cache hits."""
    session = Telemetry(name="runner-test")
    run_many([spec], telemetry=session, **run_options)
    counters = session.registry.snapshot()["counters"]
    return {
        "counters": {
            name: value for name, value in counters.items()
            if not name.startswith("runner.")
        },
        "lines": session.trace.lines,
        "trace": session.trace.records,
        "hits": counters["runner.cache.hits"],
    }


class TestCache:
    def test_hit_replays_identical_result(self, tmp_path):
        specs = small_phase_specs(n_iterations=10)
        first = run_many(specs, cache=True, cache_dir=tmp_path)
        second = run_many(specs, cache=True, cache_dir=tmp_path)
        assert canonical(second) == canonical(first)

    def test_counters_track_hits_and_misses(self, tmp_path):
        def counted():
            session = Telemetry(name="runner-test")
            run_many(
                small_phase_specs(n_iterations=10),
                cache=True,
                cache_dir=tmp_path,
                telemetry=session,
            )
            return {
                name: session.counter(f"runner.{name}").value
                for name in ("specs", "executed", "cache.hits",
                             "cache.misses")
            }

        assert counted() == {
            "specs": 2.0, "executed": 2.0,
            "cache.hits": 0.0, "cache.misses": 2.0,
        }
        assert counted() == {
            "specs": 2.0, "executed": 0.0,
            "cache.hits": 2.0, "cache.misses": 0.0,
        }

    def test_hit_replays_stored_telemetry(self, tmp_path):
        def traced():
            session = Telemetry(name="runner-test")
            run_many(
                small_phase_specs(n_iterations=10),
                cache=True,
                cache_dir=tmp_path,
                telemetry=session,
            )
            return [
                (r.kind, r.t, r.fields) for r in session.trace.records
            ]

        executed = traced()
        assert executed  # two empty traces would match trivially
        assert traced() == executed

    def test_v5_entry_heals_as_miss(self, tmp_path):
        """An entry in the v5 layout (one dict per trace record, no kind
        counts) is a miss that removes itself; the re-executed run
        records the counters and trace of a fresh one."""
        spec = small_phase_specs(n_iterations=5)[0]
        store = ResultCache(tmp_path)
        path = store.path_for(spec.content_hash())
        fresh = recorded_run(spec, cache=False)
        run_many([spec], cache=True, cache_dir=tmp_path)
        document, lines = read_entry(path)
        telemetry = document["telemetry"]
        document["cache_version"] = 5
        telemetry["trace"] = [json.loads(line) for line in lines]
        del telemetry["event_kinds"]
        v5 = json.dumps(document, sort_keys=True)

        path.write_text(v5, encoding="utf-8")
        assert store.get(spec.content_hash()) is None
        assert not path.exists()

        path.write_text(v5, encoding="utf-8")
        healed = recorded_run(spec, cache=True, cache_dir=tmp_path)
        assert healed.pop("hits") == fresh.pop("hits") == 0
        assert healed == fresh
        assert fresh["counters"]["phasesim.iterations"] == 10
        assert fresh["trace"]
        entry = store.get(spec.content_hash())
        assert entry is not None
        assert entry.telemetry["trace"] == fresh["lines"]

    def test_v7_entry_heals_as_miss(self, tmp_path):
        """An entry in the v7 layout (one JSON document, the trace lines
        as strings under ``telemetry.trace``) is a miss that removes
        itself, and the re-executed run stores the current layout."""
        spec = small_phase_specs(n_iterations=5)[0]
        store = ResultCache(tmp_path)
        path = store.path_for(spec.content_hash())
        fresh = recorded_run(spec, cache=False)
        run_many([spec], cache=True, cache_dir=tmp_path)
        current = path.read_bytes()
        header, lines = read_entry(path)
        assert lines and "trace" not in header["telemetry"]
        header["cache_version"] = 7
        header["telemetry"]["trace"] = lines
        v7 = json.dumps(header, sort_keys=True)

        path.write_text(v7, encoding="utf-8")
        assert store.get(spec.content_hash()) is None
        assert not path.exists()

        path.write_text(v7, encoding="utf-8")
        healed = recorded_run(spec, cache=True, cache_dir=tmp_path)
        assert healed.pop("hits") == fresh.pop("hits") == 0
        assert healed == fresh
        assert path.read_bytes() == current
        entry = store.get(spec.content_hash())
        assert entry is not None
        assert entry.telemetry["trace"] == fresh["lines"]

    def test_v8_entry_heals_as_miss(self, tmp_path):
        """An entry in the v8 layout (the float columns as decimal JSON
        inside ``result``, no ``columns`` or ``floats``) is a miss that
        removes itself, and the re-executed run stores the current
        layout."""
        spec = small_phase_specs(n_iterations=5)[0]
        store = ResultCache(tmp_path)
        path = store.path_for(spec.content_hash())
        fresh = recorded_run(spec, cache=False)
        run_many([spec], cache=True, cache_dir=tmp_path)
        current = path.read_bytes()
        header, lines = read_entry(path)
        assert lines
        header["cache_version"] = 8
        v8 = "".join(
            f"{line}\n"
            for line in (json.dumps(header, sort_keys=True), *lines)
        )

        path.write_text(v8, encoding="utf-8")
        assert store.get(spec.content_hash()) is None
        assert not path.exists()

        path.write_text(v8, encoding="utf-8")
        healed = recorded_run(spec, cache=True, cache_dir=tmp_path)
        assert healed.pop("hits") == fresh.pop("hits") == 0
        assert healed == fresh
        assert path.read_bytes() == current

    @pytest.mark.parametrize("n_lines", [0, 1, 5])
    def test_entry_is_the_header_then_the_lines(self, tmp_path, n_lines):
        """The entry file is the header line, then each trace line as
        given, every line newline-ended; a hit hands the lines back as
        the list ``worker_state()`` ships, beside the header's counts."""
        spec = small_phase_specs(n_iterations=5)[0]
        [result] = run_many([spec], cache=False)
        lines = [
            json.dumps({"fields": {"i": i}, "kind": "x.line", "t": 0.0},
                       sort_keys=True, separators=(",", ":"))
            for i in range(n_lines)
        ]
        kinds = {"x.line": n_lines} if n_lines else {}
        state = {
            "registry": {"counters": {"x.count": 2.0}},
            "trace": lines,
            "event_kinds": kinds,
        }
        store = ResultCache(tmp_path)
        assert store.put(spec, "h", result, state)
        text = store.path_for("h").read_text(encoding="utf-8")
        assert text.count("\n") == 1 + n_lines
        header, stored = read_entry(store.path_for("h"))
        assert stored == lines
        assert text == "".join(
            f"{line}\n" for line in (header_line(header), *lines)
        )
        assert header["cache_version"] == CACHE_VERSION
        assert header["telemetry"] == {
            "registry": {"counters": {"x.count": 2.0}},
            "event_kinds": kinds,
        }
        entry = store.get("h")
        assert entry is not None
        assert entry.telemetry == state
        assert state["trace"] is lines  # put leaves the state as it was

    def test_line_holding_a_newline_is_never_cached(self, tmp_path):
        """A trace line with a newline in it would read back as two
        lines, so ``put`` refuses the spec instead of storing it."""
        spec = small_phase_specs(n_iterations=5)[0]
        [result] = run_many([spec], cache=False)
        state = {
            "registry": {"counters": {}},
            "trace": ['{"kind":"x"}', '{"kind":\n"x"}'],
            "event_kinds": {"x": 2},
        }
        store = ResultCache(tmp_path)
        assert not store.put(spec, "h", result, state)
        assert list(tmp_path.iterdir()) == []

    def test_trace_lines_are_written_in_pieces(self, tmp_path):
        """Putting an entry holds one piece of its trace text at a time
        (``io.TRACE_WRITE_LINES`` lines), never the whole text or its
        encoding, and writes the same bytes as one write would."""
        spec = small_phase_specs(n_iterations=5)[0]
        [result] = run_many([spec], cache=False)
        lines = [
            json.dumps({"fields": {"i": i}, "kind": "x.line", "t": 0.0},
                       sort_keys=True, separators=(",", ":"))
            for i in range(40_000)
        ]
        state = {
            "registry": {"counters": {}},
            "trace": lines,
            "event_kinds": {"x.line": len(lines)},
        }
        text = "".join(f"{line}\n" for line in lines)
        store = ResultCache(tmp_path)
        tracemalloc.start()
        try:
            assert store.put(spec, "h", result, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = store.path_for("h").read_text(encoding="utf-8")
        assert written.partition("\n")[2] == text
        assert peak < len(text) / 2

    def test_newline_in_a_later_piece_leaves_no_file(
        self, tmp_path, monkeypatch
    ):
        """A line holding a newline in a piece after the first is
        refused too, and the part-written staging file is removed."""
        monkeypatch.setattr(io, "TRACE_WRITE_LINES", 2)
        spec = small_phase_specs(n_iterations=5)[0]
        [result] = run_many([spec], cache=False)
        state = {
            "registry": {"counters": {}},
            "trace": ['{"kind":"x"}'] * 3 + ['{"kind":\n"x"}'],
            "event_kinds": {"x": 4},
        }
        store = ResultCache(tmp_path)
        assert not store.put(spec, "h", result, state)
        assert list(tmp_path.iterdir()) == []
        state["trace"][3] = '{"kind":"x"}'
        assert store.put(spec, "h", result, state)
        assert store.get("h").telemetry["trace"] == state["trace"]

    @pytest.mark.parametrize("corrupt", [
        # The first three ids name faults of a trace held as a JSON
        # list; with the lines after the header they become a header
        # that carries ``trace`` (v5 record dicts, or not a list) and a
        # stray line that the kind counts do not cover.
        lambda doc, lines: doc["telemetry"].update(trace=[{"kind": ""}]),
        lambda doc, lines: doc["telemetry"].update(trace="not a list"),
        lambda doc, lines: lines.append("7"),
        lambda doc, lines: doc["telemetry"].pop("event_kinds", None),
        lambda doc, lines: doc["telemetry"].update(event_kinds={
            "job.phase": len(lines) + 1,
        }),
        lambda doc, lines: doc["telemetry"].update(event_kinds={
            "": len(lines),
        }),
        lambda doc, lines: doc["telemetry"].update(event_kinds={
            "job.phase": float(len(lines)),
        }),
        lambda doc, lines: doc["telemetry"].update(event_kinds={
            "job.phase": len(lines) + 2,
            "rate.change": -2,
        }),
        lambda doc, lines: doc["telemetry"].update(event_kinds=[]),
        lambda doc, lines: doc["telemetry"]["registry"]["counters"].update(
            {"phasesim.iterations": "many"}
        ),
        lambda doc, lines: doc["telemetry"].update(registry=[]),
        lambda doc, lines: doc.update(telemetry=[]),
        lambda doc, lines: lines.pop(),
        lambda doc, lines: doc["telemetry"].update(trace=list(lines)),
    ], ids=[
        "record-with-empty-kind", "trace-not-a-list", "line-not-a-string",
        "kind-counts-missing", "kind-counts-off-by-one", "empty-kind",
        "count-not-an-int", "negative-count", "kind-counts-not-a-dict",
        "counter-not-a-number", "registry-not-a-dict",
        "telemetry-not-a-dict", "one-line-too-few", "header-carries-trace",
    ])
    def test_malformed_telemetry_heals_as_miss(self, tmp_path, corrupt):
        """A stored telemetry block the session could not merge is a
        miss that removes itself, instead of failing every later run."""
        spec = small_phase_specs(n_iterations=5)[0]
        store = ResultCache(tmp_path)
        path = store.path_for(spec.content_hash())
        fresh = recorded_run(spec, cache=False)
        run_many([spec], cache=True, cache_dir=tmp_path)
        document, lines = read_entry(path)
        corrupt(document, lines)

        write_entry(path, document, lines)
        assert store.get(spec.content_hash()) is None
        assert not path.exists()

        write_entry(path, document, lines)
        healed = recorded_run(spec, cache=True, cache_dir=tmp_path)
        assert healed.pop("hits") == fresh.pop("hits") == 0
        assert healed == fresh
        assert store.get(spec.content_hash()) is not None

    @pytest.mark.parametrize("corrupt", [
        lambda jobs: jobs["J1"].update(spec=None),
        lambda jobs: jobs["J1"]["spec"].update(compute_time=-1.0),
    ], ids=["spec-null", "spec-refused-by-jobspec"])
    def test_undecodable_result_heals_as_miss(self, tmp_path, corrupt):
        """A stored result that fails to decode, with AttributeError
        (a job ``spec`` of ``null``) or with a library error (a spec
        ``JobSpec`` refuses), is a miss that removes itself."""
        spec = small_phase_specs(n_iterations=5)[0]
        store = ResultCache(tmp_path)
        path = store.path_for(spec.content_hash())
        fresh = recorded_run(spec, cache=False)
        run_many([spec], cache=True, cache_dir=tmp_path)
        document, lines = read_entry(path)
        corrupt(document["result"]["phase"]["jobs"])

        write_entry(path, document, lines)
        assert store.get(spec.content_hash()) is None
        assert not path.exists()

        write_entry(path, document, lines)
        healed = recorded_run(spec, cache=True, cache_dir=tmp_path)
        assert healed.pop("hits") == fresh.pop("hits") == 0
        assert healed == fresh
        assert store.get(spec.content_hash()) is not None

    @pytest.mark.parametrize("corrupt", [
        lambda series: series["values"].pop(),
        lambda series: series.update(times="12"),
        lambda series: series.update(values={"3": 0, "4": 1}),
    ], ids=["one-value-short", "string-times", "dict-values"])
    def test_misshapen_series_heals_as_miss(self, tmp_path, corrupt):
        """A stored fluid series whose ``times`` and ``values`` are not
        two lists of one length is a miss that removes itself."""
        spec = RunSpec(
            backend="fluid",
            seed=0,
            duration=0.002,
            options=(("dt", 20e-6),),
            scenarios=(ScenarioSpec("pair", (
                SenderSpec("J1", 100e-6), SenderSpec("J2", 125e-6),
            )),),
        )
        store = ResultCache(tmp_path)
        path = store.path_for(spec.content_hash())
        [fresh] = run_many([spec], cache=True, cache_dir=tmp_path)
        document, lines = read_entry(path)
        corrupt(document["result"]["fluid"]["pair"]["trace"]["queue_series"])
        write_entry(path, document, lines)
        assert store.get(spec.content_hash()) is None
        assert not path.exists()
        [healed] = run_many([spec], cache=True, cache_dir=tmp_path)
        assert canonical([healed]) == canonical([fresh])

    def test_entry_that_is_not_an_object_heals_as_miss(self, tmp_path):
        spec = small_phase_specs(n_iterations=5)[0]
        run_many([spec], cache=True, cache_dir=tmp_path)
        store = ResultCache(tmp_path)
        path = store.path_for(spec.content_hash())
        path.write_text("[]", encoding="utf-8")
        assert store.get(spec.content_hash()) is None
        assert not path.exists()

    def test_entry_round_trips_through_io(self, tmp_path):
        spec = small_phase_specs(n_iterations=10)[0]
        [executed] = run_many([spec], cache=True, cache_dir=tmp_path)
        store = ResultCache(tmp_path)
        entry = store.get(spec.content_hash())
        assert entry is not None
        assert io.run_result_to_dict(entry.result) == (
            io.run_result_to_dict(executed)
        )

    def test_corrupt_entry_heals_as_miss(self, tmp_path):
        spec = small_phase_specs(n_iterations=5)[0]
        run_many([spec], cache=True, cache_dir=tmp_path)
        store = ResultCache(tmp_path)
        path = store.path_for(spec.content_hash())
        path.write_text("{not json", encoding="utf-8")
        assert store.get(spec.content_hash()) is None
        assert not path.exists()

    @pytest.mark.parametrize("text", [b"", b'{"cache_version": \xff}\n'],
                             ids=["empty", "not-utf-8"])
    def test_unreadable_entry_heals_as_miss(self, tmp_path, text):
        spec = small_phase_specs(n_iterations=5)[0]
        run_many([spec], cache=True, cache_dir=tmp_path)
        store = ResultCache(tmp_path)
        path = store.path_for(spec.content_hash())
        path.write_bytes(text)
        assert store.get(spec.content_hash()) is None
        assert not path.exists()

    def test_unterminated_last_line_heals_as_miss(self, tmp_path):
        """An entry whose last trace line lacks its newline was not
        written by ``put``: a miss that removes itself."""
        spec = small_phase_specs(n_iterations=5)[0]
        run_many([spec], cache=True, cache_dir=tmp_path)
        store = ResultCache(tmp_path)
        path = store.path_for(spec.content_hash())
        text = path.read_text(encoding="utf-8")
        assert text.count("\n") > 1 and text.endswith("\n")
        path.write_text(text[:-1], encoding="utf-8")
        assert store.get(spec.content_hash()) is None
        assert not path.exists()

    def test_uncacheable_spec_never_cached(self, tmp_path):
        spec = small_phase_specs(n_iterations=5)[0].replace(
            gates=(("vgg19-1", lambda t: True),)
        )
        run_many([spec], cache=True, cache_dir=tmp_path)
        assert ResultCache(tmp_path).stats()["entries"] == 0

    def test_stats_and_clear(self, tmp_path):
        run_many(
            small_phase_specs(n_iterations=5),
            cache=True,
            cache_dir=tmp_path,
        )
        store = ResultCache(tmp_path)
        assert store.stats()["entries"] == 2
        assert store.stats()["bytes"] > 0
        assert store.clear() == 2
        assert store.stats()["entries"] == 0

    def test_concurrent_writers_of_one_spec(self, tmp_path, monkeypatch):
        """A second writer landing between a write and its rename.

        Two processes sharing a cache that miss the same spec both
        stage and rename an entry for one hash. The interleaving is
        forced deterministically: the first writer's rename runs a
        whole second ``put`` before it proceeds.
        """
        import pathlib

        spec = small_phase_specs(n_iterations=5)[0]
        [result] = run_many([spec], cache=False)
        content_hash = spec.content_hash()
        store = ResultCache(tmp_path)
        original = pathlib.Path.replace
        renames = []
        nested = []

        def interleaved(self, target):
            renames.append(self.name)
            if len(renames) == 1:
                nested.append(store.put(spec, content_hash, result, {}))
            return original(self, target)

        monkeypatch.setattr(pathlib.Path, "replace", interleaved)
        assert store.put(spec, content_hash, result, {})
        assert nested == [True], "the second writer never ran"
        entry = store.get(content_hash)
        assert entry is not None
        assert canonical([entry.result]) == canonical([result])
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{content_hash}.json"
        ]

    def test_clear_removes_leftover_staging_files(self, tmp_path):
        run_many(
            small_phase_specs(n_iterations=5),
            cache=True,
            cache_dir=tmp_path,
        )
        (tmp_path / "abc.json.123.0.tmp").write_text("{", encoding="utf-8")
        (tmp_path / "abc.tmp").write_text("{", encoding="utf-8")
        store = ResultCache(tmp_path)
        assert store.clear() == 2
        assert list(tmp_path.iterdir()) == []


#: Floats whose bits a column must keep: signed zeros, the smallest
#: subnormal and others, infinities and the one NaN JSON can write.
odd_floats = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e-310, math.inf, -math.inf, math.nan]
)
float_values = st.floats(allow_nan=False) | odd_floats
scalars = (
    st.none() | st.booleans() | st.integers() | float_values
    | st.text(max_size=4)
)
leaves = (
    scalars
    | st.lists(float_values, min_size=1, max_size=6)
    | st.lists(st.lists(float_values, min_size=2, max_size=2), min_size=1,
               max_size=4)
    | st.lists(scalars, max_size=4)
)
documents = st.dictionaries(
    st.text(max_size=4),
    st.recursive(
        leaves,
        lambda children: (
            st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=4), children, max_size=4)
        ),
        max_leaves=12,
    ),
    max_size=5,
)


def same_document(a, b):
    """Whether ``a`` and ``b`` are equal with the same type at every
    node and the same bits in every float."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    if type(a) is list:
        return len(a) == len(b) and all(map(same_document, a, b))
    if type(a) is dict:
        return a.keys() == b.keys() and all(
            same_document(a[key], b[key]) for key in a
        )
    return a == b


def float_columns_in(node):
    """The non-empty lists of exact floats or of exact float pairs
    anywhere under ``node``."""
    if type(node) is dict:
        return [c for value in node.values() for c in float_columns_in(value)]
    if type(node) is not list:
        return []
    if node and (
        all(type(item) is float for item in node)
        or all(
            type(item) is list and len(item) == 2
            and all(type(value) is float for value in item)
            for item in node
        )
    ):
        return [node]
    return [c for item in node for c in float_columns_in(item)]


class TestFloatColumns:
    """The cache's float-column codec, alone and inside entries."""

    @settings(max_examples=150, deadline=None)
    @given(documents)
    def test_pack_then_unpack_gives_the_document_back(self, document):
        original = copy.deepcopy(document)
        skeleton, columns, packed = pack_columns(document)
        assert same_document(document, original)  # pack changes nothing
        assert float_columns_in(skeleton) == []
        header = json.loads(json.dumps(
            {"columns": columns, "floats": packed.decode("ascii"),
             "result": skeleton},
            sort_keys=True,
        ))
        unpacked = unpack_columns(
            header["result"], header["columns"], header["floats"]
        )
        assert same_document(unpacked, original)
        assert len(columns) == len(float_columns_in(original))

    def test_columns_tile_little_endian_float64_bytes(self):
        document = {
            "a": [1.5, -0.0],
            "b": {"points": [[0.0, 2.0], [1.0, 5e-324]]},
            "rows": [[0, 1.5], [1, 2.5]],
            "ints": [1, 2],
        }
        skeleton, columns, packed = pack_columns(document)
        assert skeleton == {
            "a": [], "b": {"points": []},
            "rows": [[0, 1.5], [1, 2.5]], "ints": [1, 2],
        }
        assert skeleton["rows"] is document["rows"]  # shared, not copied
        assert columns == [[["a"], 0, 2, 1], [["b", "points"], 2, 2, 2]]
        assert base64.b64decode(packed) == struct.pack(
            "<6d", 1.5, -0.0, 0.0, 2.0, 1.0, 5e-324
        )

    def test_entry_header_holds_no_float_column(self, tmp_path):
        spec = small_phase_specs(n_iterations=5)[0]
        [executed] = run_many([spec], cache=True, cache_dir=tmp_path)
        path = ResultCache(tmp_path).path_for(spec.content_hash())
        header = json.loads(path.read_text(encoding="utf-8").split("\n")[0])
        assert float_columns_in(header["result"]) == []
        assert header["columns"] and {c[3] for c in header["columns"]} == {2}
        stored = struct.unpack(
            f"<{len(base64.b64decode(header['floats'])) // 8}d",
            base64.b64decode(header["floats"]),
        )
        assert sum(c[2] * c[3] for c in header["columns"]) == len(stored)
        document, _ = read_entry(path)
        assert document["result"] == io.run_result_to_dict(executed)

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc.update(floats="!" + doc["floats"][1:]),
        lambda doc: doc.update(floats=base64.b64encode(
            base64.b64decode(doc["floats"])[:-1]
        ).decode()),
        lambda doc: doc.update(floats=base64.b64encode(
            base64.b64decode(doc["floats"]) + bytes(8)
        ).decode()),
        lambda doc: doc["columns"][1].__setitem__(
            1, doc["columns"][1][1] + 2
        ),
        lambda doc: doc["columns"][1].__setitem__(
            1, doc["columns"][1][1] - 2
        ),
        lambda doc: doc["columns"][-1].__setitem__(
            2, doc["columns"][-1][2] + 1
        ),
        lambda doc: doc["columns"][0].__setitem__(3, 3),
        lambda doc: doc["columns"][0].__setitem__(3, 1.0),
        lambda doc: doc["columns"][0].__setitem__(2, 0),
        lambda doc: doc["columns"][0][0].pop(),
        lambda doc: doc["columns"][0][0].__setitem__(-1, "nope"),
        lambda doc: doc["columns"][0][0].append(3),
        lambda doc: doc["columns"][0][0].insert(1, 0),
        lambda doc: doc["columns"][1].__setitem__(0, doc["columns"][0][0]),
        lambda doc: doc["columns"][0].__setitem__(0, []),
        lambda doc: doc.update(columns={"abcd": 1}),
        lambda doc: doc.pop("floats"),
    ], ids=[
        "floats-not-base64", "floats-not-whole-float64s",
        "floats-left-over", "offset-leaves-a-gap", "offset-overlaps",
        "column-past-the-floats", "width-3", "width-not-an-int",
        "count-0", "path-ends-at-a-dict", "path-to-a-missing-key",
        "path-index-out-of-range", "path-step-fits-no-container",
        "two-columns-one-slot", "empty-path", "columns-not-a-list",
        "floats-missing",
    ])
    def test_misplaced_columns_heal_as_miss(self, tmp_path, corrupt):
        """Columns that do not tile the floats, or that a path cannot
        place at an empty list, are a miss that removes the entry; the
        re-executed run stores the entry a fresh one would."""
        spec = small_phase_specs(n_iterations=5)[0]
        store = ResultCache(tmp_path)
        path = store.path_for(spec.content_hash())
        run_many([spec], cache=True, cache_dir=tmp_path)
        current = path.read_bytes()
        header, rest = current.decode("utf-8").split("\n", 1)
        document = json.loads(header)
        assert len(document["columns"]) > 1
        corrupt(document)

        path.write_text(
            json.dumps(document, sort_keys=True) + "\n" + rest,
            encoding="utf-8",
        )
        assert store.get(spec.content_hash()) is None
        assert not path.exists()
        run_many([spec], cache=True, cache_dir=tmp_path)
        assert path.read_bytes() == current


class TestEncodedTraceIdentity:
    """A session's encoded trace and its event counts are the same
    however the runs were served: executed with the cache off, executed
    into a cold cache, replayed from the warm cache, or executed in a
    pool of two workers."""

    def test_every_path_merges_the_same_lines(self, tmp_path):
        specs = [
            *small_phase_specs(n_iterations=5),
            fat_tree_fluid_spec(faults=InjectionSchedule(events=(
                LinkFailure("up_0_0_0", 0.005, 0.008),
            ))),
            fat_tree_cluster_spec(n_iterations=4),
        ]

        def traced(**run_options):
            session = Telemetry(name="identity")
            run_many(specs, telemetry=session, **run_options)
            snapshot = session.snapshot()
            hits = session.counter("runner.cache.hits").value
            return (
                session.trace.lines, snapshot["events"],
                snapshot["event_kinds"], hits,
            )

        off = traced(cache=False)
        cold = traced(cache=True, cache_dir=tmp_path)
        warm = traced(cache=True, cache_dir=tmp_path)
        pooled = traced(cache=False, jobs=2)
        lines, events, kinds, _ = off
        assert {"fault.window", "job.phase", "rate.change",
                "scheduler.place"} <= set(kinds)
        assert events == len(lines) == sum(kinds.values())
        assert cold[3] == 0 and warm[3] == len(specs)
        for served in (cold, warm, pooled):
            assert served[:3] == off[:3]


class TestRunnerConfig:
    def test_default_is_serial_uncached(self):
        config = current_config()
        assert config.jobs == 1
        assert config.cache is False

    def test_using_installs_and_restores(self, tmp_path):
        config = RunnerConfig(jobs=3, cache=True, cache_dir=tmp_path)
        with using(config):
            assert current_config() is config
        assert current_config().jobs == 1

    def test_ambient_cache_dir_honoured(self, tmp_path):
        config = RunnerConfig(jobs=1, cache=True, cache_dir=tmp_path)
        with using(config):
            run_many(small_phase_specs(n_iterations=5))
        assert ResultCache(tmp_path).stats()["entries"] == 2


class TestSweepNaN:
    def test_no_compatible_pairs_is_nan(self):
        # At 70% comm fraction equal-period pairs are never compatible.
        points = sweep.run(fractions=(0.7,), pairs_per_point=20)
        assert points[0].compatible_rate == 0.0
        assert math.isnan(points[0].mean_speedup)

    def test_nan_renders_as_dash(self):
        points = sweep.run(fractions=(0.3, 0.7), pairs_per_point=20)
        report = sweep.report(points)
        assert "—" in report
        for line in report.splitlines():
            if "70%" in line:
                assert "—" in line

    def test_nan_round_trips_through_cache(self, tmp_path):
        [spec] = point_specs([0.7], 20, True, 0)
        first = run_one(spec, cache=True, cache_dir=tmp_path)
        second = run_one(spec, cache=True, cache_dir=tmp_path)
        assert math.isnan(first.data["mean_speedup"])
        assert math.isnan(second.data["mean_speedup"])


class TestFabricBackends:
    """The runner's multi-link tier: routed specs over a topology."""

    # -- fluid ---------------------------------------------------------

    def test_fluid_fabric_engines_agree(self):
        # The runner's result (the bank) equals the scalar oracle run
        # on the simulators the fluid backend builds.
        spec = fat_tree_fluid_spec()
        result = execute(spec)
        oracle = run_fluid_spec(spec, "scalar")
        assert list(result.fluid) == list(oracle) == ["fabric"]
        assert io.dcqcn_result_to_dict(
            result.scenario("fabric")
        ) == io.dcqcn_result_to_dict(oracle["fabric"])
        scenario = result.scenario("fabric")
        assert "core_1_0_0_rev" in scenario.link_queue_series

    def test_fluid_fabric_honours_multilink_faults(self):
        faults = InjectionSchedule(events=(
            LinkFailure("up_0_0_0", 0.005, 0.008),
        ))
        clean = execute(fat_tree_fluid_spec())
        faulted = execute(fat_tree_fluid_spec(faults=faults))
        assert canonical([clean]) != canonical([faulted])

    def test_fabric_spec_round_trips_and_caches(self, tmp_path):
        spec = fat_tree_fluid_spec()
        assert spec.cacheable()
        clone = io.run_spec_from_dict(io.run_spec_to_dict(spec))
        assert clone.content_hash() == spec.content_hash()
        first = run_many([spec], cache=True, cache_dir=tmp_path)
        second = run_many([spec], cache=True, cache_dir=tmp_path)
        assert canonical(second) == canonical(first)

    def test_routeless_sender_document_unchanged(self):
        plain = io.sender_spec_to_dict(SenderSpec(name="a", timer=125e-6))
        assert "route" not in plain
        routed = io.sender_spec_to_dict(
            SenderSpec(name="a", timer=125e-6, route=("L1",))
        )
        assert routed["route"] == ["L1"]
        clone = io.sender_spec_from_dict(routed)
        assert clone.route == ("L1",)

    def test_fluid_without_topology_rejects_fabric_faults(self):
        faults = InjectionSchedule(events=(
            LinkFailure("up_0_0_0", 0.001, 0.002),
        ))
        spec = RunSpec(
            backend="fluid",
            duration=0.01,
            scenarios=(ScenarioSpec(
                name="s", senders=(SenderSpec(name="a", timer=125e-6),),
            ),),
            faults=faults,
        )
        with pytest.raises(ConfigError) as excinfo:
            execute(spec)
        message = str(excinfo.value)
        assert "up_0_0_0" in message
        assert "RunSpec.topology" in message
        assert "SenderSpec.route" in message

    # -- phase and cluster ---------------------------------------------

    def test_engine_fabric_needs_placements(self):
        """The cluster backend refuses a topology without placements."""
        spec = fat_tree_cluster_spec().replace(options=())
        with pytest.raises(ConfigError, match="placements"):
            execute(spec)

    def test_engine_fabric_runs_and_reports_link_loads(self):
        """Two cross-pod phase jobs on a fat tree finish and load their
        shared uplink."""
        j1, j2 = figure2_vgg19_pair(jitter=0.02)
        sim = PhaseLevelSimulator(
            Topology.fat_tree(4), FairSharing(), seed=11
        )
        runs = [
            sim.add_job(j1, "h0_0_0", "h1_0_0", n_iterations=8),
            sim.add_job(j2, "h0_0_1", "h1_0_1", n_iterations=8),
        ]
        result = sim.run()
        for run in result.jobs.values():
            assert run.done
        routes = [
            {link.name for link in run.flow.links}
            for run in runs
        ]
        loads = result.link_loads
        for link in set.union(*routes):
            assert link in loads
        assert "up_0_0_0" in set.intersection(*routes)
        assert max(
            value for _, value in loads["up_0_0_0"].breakpoints()
        ) > 0.0

    def test_engine_fabric_fault_slows_jobs_and_restores_capacity(self):
        """A dip on the shared uplink slows both cluster jobs; the link
        is back at base capacity after the run, also when ``until``
        stops it inside the window."""
        faults = InjectionSchedule(events=(
            RateChange("up_0_0_0", 0.05, 1.0, 0.2),
        ))
        spec = fat_tree_cluster_spec()
        topology = spec.topology
        base = topology.link_by_name("up_0_0_0").capacity
        clean = execute(spec)
        faulted = execute(spec.replace(faults=faults))
        for job_id, clean_ms in clean.data["iteration_ms"].items():
            assert faulted.data["iteration_ms"][job_id] > clean_ms
        assert topology.link_by_name("up_0_0_0").capacity == base
        assert_run_leaves_spec_unchanged(
            fat_tree_cluster_spec(faults=faults, until=0.9), "up_0_0_0"
        )

    def test_engine_fabric_rejects_unknown_fault_link(self):
        """A fault on a link the topology lacks raises TopologyError
        naming it."""
        faults = InjectionSchedule(events=(
            LinkFailure("no_such_link", 0.01, 0.02),
        ))
        with pytest.raises(TopologyError, match="no_such_link"):
            execute(fat_tree_cluster_spec(faults=faults))

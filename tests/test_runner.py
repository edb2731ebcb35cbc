"""Runner-layer tests: specs, registry, cache, and parallel fan-out.

The load-bearing contract is determinism: ``run_many(specs, jobs=4)``
must be byte-identical — results *and* telemetry trace — to ``jobs=1``,
and a cache hit must replay exactly what the original execution stored.
"""

import json
import math
import pickle

import pytest

from repro import io
from repro.core.timeline import IterationSample, JobTimeline
from repro.errors import ConfigError
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
from repro.telemetry.session import Telemetry, use
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
        for name in ("phase", "fluid", "engine", "cluster"):
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


class TestEngineBackend:
    def test_agrees_with_phase_on_fair_dumbbell(self):
        spec = small_phase_specs()[0]
        phase = run_one(spec, cache=False).phase
        engine = run_one(
            spec.replace(backend="engine"), cache=False
        ).phase
        for job in spec.jobs:
            assert engine.mean_iteration_time(job.job_id) == (
                pytest.approx(
                    phase.mean_iteration_time(job.job_id), rel=1e-12
                )
            )


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
        spec = small_phase_specs(n_iterations=5)[0]
        results = {
            "phase": run_one(spec, cache=False),
            "engine": run_one(
                spec.replace(backend="engine"), cache=False
            ),
            "fluid": run_one(self.fluid_spec(), cache=False),
        }
        for result in results.values():
            self.check_schema(result.timelines())

    def test_phase_and_engine_agree_structurally(self):
        spec = small_phase_specs(n_iterations=5)[0]
        phase = run_one(spec, cache=False).timelines()
        engine = run_one(
            spec.replace(backend="engine"), cache=False
        ).timelines()
        assert sorted(phase) == sorted(engine)
        for job_id in phase:
            assert len(phase[job_id]) == len(engine[job_id])

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

        assert traced(4) == traced(1)

    def test_unpicklable_specs_fall_back_in_process(self):
        gated = [
            spec.replace(gates=(("vgg19-1", lambda t: True),))
            for spec in small_phase_specs(n_iterations=5)
        ]
        results = run_many(gated, jobs=4, cache=False)
        assert all(r.phase is not None for r in results)


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

        assert traced() == traced()

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

    ROUTES = {
        "J1": (
            "h0_0_0->edge0_0", "up_0_0_0", "core_0_0_0",
            "core_1_0_0_rev", "up_1_0_0_rev", "edge1_0->h1_0_0",
        ),
        "J2": (
            "h0_0_1->edge0_0", "up_0_0_0", "core_0_0_0",
            "core_1_0_0_rev", "up_1_0_0_rev", "edge1_0->h1_0_1",
        ),
    }

    def _fluid_spec(self, engine, faults=None):
        senders = tuple(
            SenderSpec(
                name=name,
                timer=125e-6,
                compute_time=0.0011,
                comm_bytes=0.0013 * 50e9,
                start_offset=index * 0.0003,
                route=self.ROUTES[name],
            )
            for index, name in enumerate(sorted(self.ROUTES))
        )
        return RunSpec(
            backend="fluid",
            seed=3,
            topology=Topology.fat_tree(4),
            duration=0.02,
            scenarios=(ScenarioSpec(name="fabric", senders=senders),),
            options=(("dt", 10e-6), ("engine", engine)),
            faults=faults,
        )

    def _engine_fabric_spec(self, faults=None, n_iterations=8):
        j1, j2 = figure2_vgg19_pair(jitter=0.02)
        return RunSpec(
            backend="engine",
            seed=11,
            jobs=(j1, j2),
            policy=FairSharing(),
            topology=Topology.fat_tree(4),
            n_iterations=n_iterations,
            options=(
                ("placements", (
                    (j1.job_id, "h0_0_0", "h1_0_0"),
                    (j2.job_id, "h0_0_1", "h1_0_1"),
                )),
            ),
            faults=faults,
        )

    # -- fluid ---------------------------------------------------------

    def test_fluid_fabric_engines_agree(self):
        scalar = execute(self._fluid_spec("scalar"))
        vector = execute(self._fluid_spec("vector"))
        docs = []
        for result in (scalar, vector):
            document = io.run_result_to_dict(result)
            # The engine choice rides in options, so the spec hashes
            # (correctly) differ; the payloads must not.
            document.pop("spec_hash")
            docs.append(json.dumps(document, sort_keys=True))
        assert docs[0] == docs[1]
        trace = vector.scenario("fabric").trace
        assert "core_1_0_0_rev" in trace.link_queue_series

    def test_fluid_fabric_honours_multilink_faults(self):
        faults = InjectionSchedule(events=(
            LinkFailure("up_0_0_0", 0.005, 0.008),
        ))
        clean = execute(self._fluid_spec("vector"))
        faulted = execute(self._fluid_spec("vector", faults=faults))
        assert canonical([clean]) != canonical([faulted])

    def test_fabric_spec_round_trips_and_caches(self, tmp_path):
        spec = self._fluid_spec("vector")
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

    # -- engine --------------------------------------------------------

    def test_engine_without_topology_rejects_fabric_faults(self):
        faults = InjectionSchedule(events=(
            LinkFailure("up_0_0_0", 0.001, 0.002),
        ))
        j1, j2 = figure2_vgg19_pair()
        spec = RunSpec(
            backend="engine", jobs=(j1, j2), policy=FairSharing(),
            n_iterations=2, faults=faults,
        )
        with pytest.raises(ConfigError) as excinfo:
            execute(spec)
        message = str(excinfo.value)
        assert "up_0_0_0" in message
        assert "RunSpec.topology" in message
        assert "placements" in message

    def test_engine_fabric_needs_placements(self):
        spec = self._engine_fabric_spec().replace(options=())
        with pytest.raises(ConfigError, match="placements"):
            execute(spec)

    def test_engine_fabric_runs_and_reports_link_loads(self):
        result = execute(self._engine_fabric_spec())
        for run in result.phase.jobs.values():
            assert run.done
        loads = result.phase.link_loads
        for link in self.ROUTES["J1"]:
            assert link in loads
        assert max(
            value for _, value in loads["up_0_0_0"].breakpoints()
        ) > 0.0

    def test_engine_fabric_agrees_with_single_bottleneck_on_dumbbell(self):
        j1, j2 = figure2_vgg19_pair(jitter=0.02)
        capacity = EFFECTIVE_BOTTLENECK
        base = RunSpec(
            backend="engine", seed=5, jobs=(j1, j2),
            policy=FairSharing(), n_iterations=8, capacity=capacity,
        )
        dumbbell = Topology.dumbbell(
            hosts_per_side=2,
            host_capacity=capacity,
            bottleneck_capacity=capacity,
        )
        fabric = base.replace(
            topology=dumbbell,
            options=(
                ("placements", (
                    (j1.job_id, "ha0", "hb0"),
                    (j2.job_id, "ha1", "hb1"),
                )),
            ),
        )
        single = execute(base)
        routed = execute(fabric)
        for job_id in (j1.job_id, j2.job_id):
            assert io.timeline_to_dict(
                single.phase.timelines()[job_id]
            ) == io.timeline_to_dict(routed.phase.timelines()[job_id])

    def test_engine_fabric_fault_slows_jobs_and_restores_capacity(self):
        spec = self._engine_fabric_spec()
        topology = spec.topology
        base = topology.link_by_name("up_0_0_0").capacity
        faults = InjectionSchedule(events=(
            RateChange("up_0_0_0", 0.05, 1.0, 0.2),
        ))
        clean = execute(spec)
        faulted = execute(spec.replace(faults=faults))
        assert faulted.phase.duration > clean.phase.duration
        assert topology.link_by_name("up_0_0_0").capacity == base

    def test_engine_fabric_rejects_unknown_fault_link(self):
        from repro.errors import TopologyError

        faults = InjectionSchedule(events=(
            LinkFailure("no_such_link", 0.01, 0.02),
        ))
        with pytest.raises(TopologyError, match="no_such_link"):
            execute(self._engine_fabric_spec(faults=faults))

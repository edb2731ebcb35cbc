"""Unit tests for the telemetry subsystem.

Covers the counter registry, span nesting, JSONL round-trips, the
disabled (NULL) path, the ambient session, and the run recorder + CLI
stats/trace commands.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from conftest import run_dcqcn

from repro import io
from repro.cc.dcqcn import DcqcnFluidSimulator, DcqcnParams
from repro.cc.fair import FairSharing
from repro.cli import main as cli_main
from repro.errors import ConfigError
from repro.experiments import ablations
from repro.experiments.common import run_jobs
from repro.faults import InjectionSchedule, LinkFailure, PfcStorm
from repro.sim.engine import Simulator
from repro.telemetry import (
    NULL,
    Registry,
    Telemetry,
    TraceRecord,
    TraceRecorder,
    current,
    use,
)
from repro.telemetry.trace import encode_record
from repro.telemetry.runs import (
    RunRecorder,
    flow_bytes,
    resolve_run,
    stats_report,
    trace_report,
)
from repro.units import gbps


class TestCounters:
    def test_counter_accumulates(self):
        registry = Registry()
        counter = registry.counter("a.b")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_is_shared_by_name(self):
        registry = Registry()
        registry.counter("x").inc()
        registry.counter("x").inc()
        assert registry.counter("x").value == 2

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigError):
            Registry().counter("x").inc(-1)

    def test_snapshot_is_sorted(self):
        registry = Registry()
        registry.counter("z").inc()
        registry.counter("a").inc()
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "z"]


class TestSpans:
    def test_span_records_duration(self):
        telemetry = Telemetry()
        with telemetry.span("work") as span:
            pass
        assert span.duration >= 0.0
        assert telemetry.spans.find("work") is span

    def test_span_nesting_builds_paths(self):
        telemetry = Telemetry()
        with telemetry.span("outer"):
            with telemetry.span("inner") as inner:
                assert telemetry.spans.active_depth == 2
        assert inner.path == "outer/inner"
        assert inner.depth == 1
        timings = telemetry.spans.timings()
        assert set(timings) == {"outer", "outer/inner"}
        assert timings["outer"]["count"] == 1

    def test_sibling_spans_aggregate(self):
        telemetry = Telemetry()
        for _ in range(3):
            with telemetry.span("step"):
                pass
        assert telemetry.spans.timings()["step"]["count"] == 3

    def test_exception_still_closes_span(self):
        telemetry = Telemetry()
        with pytest.raises(ValueError):
            with telemetry.span("boom"):
                raise ValueError("x")
        assert telemetry.spans.active_depth == 0
        assert telemetry.spans.find("boom") is not None


class TestTrace:
    def test_emit_and_query(self):
        recorder = TraceRecorder()
        recorder.emit("job.phase", 0.5, job="J1", state="comm")
        recorder.emit("job.phase", 0.7, job="J2", state="comm")
        recorder.emit("rate.change", 0.7, job="J1", rate=1.0)
        assert len(recorder) == 3
        assert recorder.counts_by_kind() == {
            "job.phase": 2, "rate.change": 1,
        }
        assert [r.fields["job"] for r in recorder.of_kind("job.phase")] == [
            "J1", "J2",
        ]

    def test_record_equality_and_dict_round_trip(self):
        record = TraceRecord("k", 1.25, {"a": 1})
        assert TraceRecord.from_dict(record.to_dict()) == record

    def test_empty_kind_rejected(self):
        with pytest.raises(ConfigError):
            TraceRecord("", 0.0)
        recorder = TraceRecorder()
        with pytest.raises(ConfigError):
            recorder.emit("", 0.0)
        assert len(recorder) == 0 and recorder.counts_by_kind() == {}

    def test_malformed_dict_rejected(self):
        with pytest.raises(ConfigError):
            TraceRecord.from_dict({"t": 1.0})


#: ``(kind, t, fields)`` of assorted shapes: integer and numpy times,
#: unsorted and nested keys, tuples, numpy floats, non-finite floats,
#: non-ASCII text, booleans, None and big integers.
MIXED_RECORDS = [
    ("job.phase", 0, {"job": "J1", "state": "comm", "iteration": 3}),
    ("rate.change", np.float64(0.1) + 0.2, {"rate": np.float64(5.25e9),
                                            "flow": "flow:J1:0"}),
    ("scheduler.place", 0.0, {"hosts": ("h0", "h1"), "links": [],
                              "cross_rack": True}),
    ("x.nested", 1e-9, {"z": {"b": 1, "a": [None, 2 ** 70]},
                        "a": float("nan"), "m": float("-inf")}),
    ("x.text", 2.5, {"name": "Jöb \"7\"\n", "empty": ""}),
]


class TestEncodedTrace:
    """The recorder holds each record as its JSONL line."""

    def test_line_is_the_sorted_compact_dict_encoding(self):
        recorder = TraceRecorder()
        for kind, t, fields in MIXED_RECORDS:
            recorder.emit(kind, t, **fields)
        assert recorder.lines == [
            json.dumps(
                TraceRecord(kind, t, fields).to_dict(),
                sort_keys=True, separators=(",", ":"),
            )
            for kind, t, fields in MIXED_RECORDS
        ]

    def test_records_decode_to_json_types(self):
        recorder = TraceRecorder()
        for kind, t, fields in MIXED_RECORDS:
            recorder.emit(kind, t, **fields)
        records = recorder.records
        assert [r.kind for r in records] == [k for k, _, _ in MIXED_RECORDS]
        assert [r.t for r in records] == [
            float(t) for _, t, _ in MIXED_RECORDS
        ]
        assert all(type(r.t) is float for r in records)
        assert records[0].fields == {
            "job": "J1", "state": "comm", "iteration": 3,
        }
        assert type(records[1].fields["rate"]) is float
        assert records[2].fields["hosts"] == ["h0", "h1"]
        assert records[3].fields["z"] == {"a": [None, 2 ** 70], "b": 1}
        assert np.isnan(records[3].fields["a"])
        assert records[4].fields["name"] == 'Jöb "7"\n'
        assert list(recorder) == records
        assert recorder.of_kind("x.text") == [records[4]]

    def test_counts_match_decoded_records_after_merges(self):
        session = Telemetry()
        workers = [Telemetry() for _ in range(3)]
        for index, (kind, t, fields) in enumerate(MIXED_RECORDS):
            workers[index % 3].event(kind, t, **fields)
            workers[index % 2].event(kind, t + 1.0, **fields)
        session.event("job.phase", 0.0, job="J0")
        session.merge_worker_state(workers[0].worker_state())
        session.event("rate.change", 9.0, rate=1.0)
        session.merge_worker_state(workers[1].worker_state())
        session.merge_worker_state(workers[2].worker_state())
        session.merge_worker_state(Telemetry().worker_state())
        recount = {}
        for record in session.trace.records:
            recount[record.kind] = recount.get(record.kind, 0) + 1
        assert session.trace.counts_by_kind() == dict(sorted(recount.items()))
        snapshot = session.snapshot()
        assert snapshot["event_kinds"] == session.trace.counts_by_kind()
        assert snapshot["events"] == len(session.trace) == 2 + sum(
            len(worker.trace) for worker in workers
        )
        assert session.trace.lines == (
            ['{"fields":{"job":"J0"},"kind":"job.phase","t":0.0}']
            + workers[0].trace.lines
            + ['{"fields":{"rate":1.0},"kind":"rate.change","t":9.0}']
            + workers[1].trace.lines + workers[2].trace.lines
        )

    def test_worker_state_ships_lines_and_counts(self):
        session = Telemetry()
        session.event("job.phase", 0.5, job="J1")
        session.event("job.phase", 0.7, job="J2")
        state = session.worker_state()
        assert state["trace"] == session.trace.lines
        assert all(isinstance(line, str) for line in state["trace"])
        assert state["event_kinds"] == {"job.phase": 2}
        state["trace"].append("changed")
        assert len(session.trace) == 2  # the state holds a copy

    def test_merge_refuses_counts_that_miss_lines(self):
        state = Telemetry().worker_state()
        state["trace"] = ['{"fields":{},"kind":"x","t":0.0}']
        with pytest.raises(ConfigError, match="sum to 0"):
            Telemetry().merge_worker_state(state)

    def test_unencodable_field_refused_at_emit(self):
        recorder = TraceRecorder()
        recorder.emit("job.phase", 0.0, job="J1", iteration=3)
        with pytest.raises(ConfigError) as excinfo:
            recorder.emit(
                "job.phase", 1.0, job="J1", iteration=np.int64(3)
            )
        assert "'job.phase'" in str(excinfo.value)
        assert "'iteration'" in str(excinfo.value)
        assert len(recorder) == 1
        assert recorder.counts_by_kind() == {"job.phase": 1}

    def test_templates_encode_what_the_encoder_gives(self):
        """Seeded records of repeating shapes encode to the bytes of one
        ``JSONEncoder(sort_keys=True, separators=(",", ":"))`` over the
        whole record: text with quotes, escapes, ``%`` and non-ASCII,
        ints of any size, signed zeros and non-finite floats, bools,
        ``None``, numpy floats, tuples and nested dicts. A session's
        emitter bound once per shape, which fills the shape's template,
        records the same lines and kind counts as ``emit``. Field names
        that are not strings encode as the encoder writes them too."""
        recorder = TraceRecorder()
        session = Telemetry()
        emitters = {}
        reference = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
        rng = np.random.default_rng(2024)
        texts = ["", "a", "J1", 'say "hi"', "back\\slash", "100%", "%s",
                 "%%d", "Jöb", "日本", "\u2028", "tab\tnew\nline", "\x00",
                 "\U0001f600"]
        floats = [0.0, -0.0, 1.5, -2.25e-308, 5e-324, 1.7976931348623157e308,
                  float("nan"), float("inf"), float("-inf"), 0.1 + 0.2]

        def value(depth=0):
            pick = int(rng.integers(12 if depth < 2 else 9))
            if pick == 0:
                return texts[int(rng.integers(len(texts)))]
            if pick == 1:
                return int(rng.integers(-10**6, 10**6))
            if pick == 2:
                return (-1) ** int(rng.integers(2)) * 2 ** int(
                    rng.integers(60, 200)
                )
            if pick == 3:
                return floats[int(rng.integers(len(floats)))]
            if pick == 4:
                return float(rng.normal() * 10.0 ** rng.integers(-12, 12))
            if pick == 5:
                return bool(rng.integers(2))
            if pick == 6:
                return None
            if pick == 7:
                return np.float64(floats[int(rng.integers(len(floats)))])
            if pick == 8:
                return np.float64(rng.normal())
            if pick == 9:
                return tuple(value(depth + 1)
                             for _ in range(int(rng.integers(3))))
            if pick == 10:
                return [value(depth + 1) for _ in range(int(rng.integers(3)))]
            return {texts[int(rng.integers(len(texts)))]: value(depth + 1)
                    for _ in range(int(rng.integers(3)))}

        kinds = ["rate.change", "job.phase", "x.%s", "%d%%", "kïnd", "q\"k"]
        names = ["rate", "job", "flow", "%", "%s", "a%%b", "ünï", '"q"', ""]
        t_values = [0, 7, 1e-9, 0.1 + 0.2, np.float64(2.5), float("nan"),
                    float("inf"), -0.0, True]
        for _ in range(4000):
            kind = kinds[int(rng.integers(len(kinds)))]
            shape = rng.permutation(len(names))[:int(rng.integers(4))]
            fields = {names[i]: value() for i in shape.tolist()}
            t = t_values[int(rng.integers(len(t_values)))]
            expected = reference.encode(
                {"fields": fields, "kind": kind, "t": float(t)}
            )
            assert encode_record(kind, t, fields) == expected
            recorder.emit(kind, t, **fields)
            shape = (kind, *fields)
            if shape not in emitters:
                emitters[shape] = session.emitter(*shape)
            emitters[shape](t, *fields.values())
            assert session.trace.lines[-1] == expected
        assert len(emitters) > 100
        assert session.trace.lines == recorder.lines
        assert session.trace.counts_by_kind() == recorder.counts_by_kind()
        fields = {3: "three", 1: "one"}
        assert encode_record("x.keys", 0.5, fields) == (
            '{"fields":{"1":"one","3":"three"},"kind":"x.keys","t":0.5}'
        )

    @pytest.mark.parametrize("bad", [
        np.int64(3), {1, 2}, {"inner": object()}, (1, np.float32(0.5)),
    ], ids=["numpy-int", "set", "nested-object", "tuple-of-float32"])
    def test_unencodable_field_named_by_template_path(self, bad):
        """A value JSON cannot encode raises ``ConfigError`` naming its
        field, whether or not a record of its shape encoded before, and
        the same error through a bound emitter, which then records
        nothing."""
        shape = {"job": "J1", "value": 1.0}
        encode_record("x.bad", 0.0, shape)
        for _ in range(2):
            with pytest.raises(ConfigError) as excinfo:
                encode_record("x.bad", 0.0, {"job": "J1", "value": bad})
            assert "'x.bad'" in str(excinfo.value)
            assert "'value'" in str(excinfo.value)
        recorder = TraceRecorder()
        for names, values in ((("job", "value"), ("J1", bad)),
                              (("value", "job"), (bad, "J1"))):
            with pytest.raises(ConfigError) as emitted:
                recorder.emitter("x.bad", *names)(0.0, *values)
            assert str(emitted.value) == str(excinfo.value)
        assert len(recorder) == 0 and recorder.counts_by_kind() == {}

    def test_emitter_refuses_a_wrong_shape(self):
        """An empty kind, a repeated field name or one that is not a
        string is refused when the emitter is bound; a value count other
        than the field count is refused at the emit, whichever order the
        names come in."""
        recorder = TraceRecorder()
        with pytest.raises(ConfigError):
            recorder.emitter("", "job")
        with pytest.raises(ConfigError):
            recorder.emitter("x.twice", "job", "job")
        with pytest.raises(ConfigError):
            recorder.emitter("x.number", "job", 3)
        for names in (("job", "rate"), ("rate", "job")):
            emit = recorder.emitter("x.count", *names)
            for values in (("J1",), ("J1", 1.0, 2.0)):
                with pytest.raises(ConfigError, match="values"):
                    emit(0.0, *values)
        assert len(recorder) == 0
        recorder.emitter("x.count", "rate", "job")(0.5, 2.0, "J1")
        assert recorder.lines == [
            '{"fields":{"job":"J1","rate":2.0},"kind":"x.count","t":0.5}'
        ]


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        records = [
            TraceRecord("job.phase", 0.1, {"job": "J1", "state": "comm"}),
            TraceRecord("rate.change", 0.2, {"rate": 5.25e9}),
        ]
        path = tmp_path / "trace.jsonl"
        io.save_trace(records, path)
        assert io.load_trace(path) == records

    def test_header_is_versioned(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        io.save_trace([], path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"type": "trace", "version": io.FORMAT_VERSION}

    def test_missing_header_rejected(self):
        with pytest.raises(ConfigError):
            io.trace_from_jsonl('{"kind": "x", "t": 0.0}\n')

    def test_bad_version_rejected(self):
        with pytest.raises(ConfigError):
            io.trace_from_jsonl('{"type": "trace", "version": 99}\n')

    def test_manifest_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        io.save_manifest({"artifact": "figure1", "events": 3}, path)
        loaded = io.load_manifest(path)
        assert loaded["artifact"] == "figure1"
        assert loaded["events"] == 3


class TestDisabledPath:
    def test_null_accepts_everything(self):
        NULL.counter("x").inc()
        NULL.event("kind", t=0.0, a=1)
        NULL.emitter("kind", "a")(0.0, 1)
        with NULL.span("s") as span:
            pass
        assert span.duration == 0.0
        assert len(NULL.trace) == 0
        assert NULL.registry.snapshot()["counters"] == {}

    def test_ambient_default_is_null(self):
        assert current() is NULL
        assert not current().enabled

    def test_use_installs_and_restores(self):
        telemetry = Telemetry()
        with use(telemetry):
            assert current() is telemetry
        assert current() is NULL

    def test_disabled_simulator_run_adds_zero_events(self, simple_pair):
        # The core satellite requirement: with telemetry disabled, a
        # Simulator-backed run must not record anything anywhere.
        before_events = len(NULL.trace)
        result = run_jobs(
            list(simple_pair), FairSharing(), n_iterations=3
        )
        assert result.jobs["J1"].iterations_done == 3
        assert len(NULL.trace) == before_events == 0
        assert NULL.registry.snapshot()["counters"] == {}

    def test_simulator_default_telemetry_is_disabled(self):
        sim = Simulator()
        assert sim.telemetry is NULL
        sim.schedule(0.0, lambda: None)
        sim.run()
        assert len(NULL.trace) == 0

    def test_enabled_simulator_traces_dispatches(self):
        # Dispatches are counted, not traced: the counter is the one
        # copy of that number.
        telemetry = Telemetry()
        sim = Simulator(telemetry=telemetry)
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert telemetry.counter("sim.events").value == 2
        assert len(telemetry.trace) == 0


class TestPhasesimInstrumentation:
    def test_trace_covers_phases_rates_iterations(self, simple_pair):
        telemetry = Telemetry()
        run_jobs(
            list(simple_pair), FairSharing(), n_iterations=2,
            telemetry=telemetry,
        )
        kinds = telemetry.trace.counts_by_kind()
        assert kinds["job.iteration"] == 4  # 2 jobs x 2 iterations
        assert kinds["job.comm"] == 4
        assert kinds["job.phase"] >= 8  # compute + comm per iteration
        assert kinds["rate.change"] > 0
        assert "sim.dispatch" not in kinds

    def test_registry_exports_counters_only(self, simple_pair):
        # One export form: the manifest and the worker state both carry
        # {"counters": {...}} and nothing else from the registry.
        telemetry = Telemetry()
        run_jobs(
            list(simple_pair), FairSharing(), n_iterations=2,
            telemetry=telemetry,
        )
        snapshot = telemetry.registry.snapshot()
        assert list(snapshot) == ["counters"]
        assert snapshot["counters"]["phasesim.iterations"] == 4
        assert telemetry.worker_state()["registry"] == snapshot

    def test_comm_records_carry_flow_bytes(self, simple_pair):
        telemetry = Telemetry()
        run_jobs(
            list(simple_pair), FairSharing(), n_iterations=2,
            telemetry=telemetry,
        )
        totals = flow_bytes(telemetry.trace.records)
        expected = 2 * simple_pair[0].comm_bytes
        assert totals["flow:J1:0"] == pytest.approx(expected)
        assert totals["flow:J2:0"] == pytest.approx(expected)


class TestFluidInstrumentation:
    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_dcqcn_counts_steps_and_keeps_rates_in_result(self, engine):
        # Fluid rate samples live only in the result's rate_series; the
        # session counts the work and traces nothing.
        telemetry = Telemetry()
        sim = DcqcnFluidSimulator(capacity=gbps(10), telemetry=telemetry)
        for k, name in enumerate(("a", "b", "c")):
            sim.add_sender(name, DcqcnParams(), np.random.default_rng(k))
        result = run_dcqcn(sim, engine, 0.01)
        assert telemetry.counter("cc.steps").value > 0
        assert len(telemetry.trace) == 0
        assert sorted(result.rate_series) == ["a", "b", "c"]
        assert all(len(series) > 0 for series in result.rate_series.values())

    def test_faulted_dumbbell_telemetry_same_on_oracle_and_bank(self):
        # Both loops share one preparation, so the oracle records the
        # fault windows and counters exactly as sim.run does.
        faults = InjectionSchedule(events=(
            LinkFailure("L1", 0.002, 0.003),
            PfcStorm("L1", 0.005, 0.006),
        ))
        sessions = {}
        for engine in ("scalar", "vector"):
            telemetry = Telemetry()
            sim = DcqcnFluidSimulator(
                capacity=gbps(10), telemetry=telemetry, faults=faults
            )
            for k, name in enumerate(("a", "b")):
                sim.add_sender(name, DcqcnParams(), np.random.default_rng(k))
            run_dcqcn(sim, engine, 0.01)
            sessions[engine] = telemetry
        scalar, vector = sessions["scalar"], sessions["vector"]
        assert scalar.registry.snapshot() == vector.registry.snapshot()
        assert scalar.counter("cc.steps").value > 0
        assert scalar.counter("cc.cnps").value > 0
        for telemetry in (scalar, vector):
            assert [record.kind for record in telemetry.trace.records] == [
                "fault.window", "fault.window",
            ]


class TestRunRecorder:
    def test_records_trace_and_manifest(self, tmp_path, simple_pair):
        with RunRecorder("demo", runs_dir=tmp_path) as recorder:
            run_jobs(list(simple_pair), FairSharing(), n_iterations=2)
        run_dir = recorder.run_dir
        assert run_dir is not None
        manifest = io.load_manifest(run_dir / "manifest.json")
        records = io.load_trace(run_dir / "trace.jsonl")
        assert manifest["artifact"] == "demo"
        assert manifest["events"] == len(records) > 0
        assert manifest["failed"] is False
        assert "phasesim.iterations" in manifest["counters"]

    def test_iteration_times_live_in_the_trace(self, tmp_path, simple_pair):
        # The manifest carries counters only; every iteration duration
        # is a job.iteration record, equal to the result's timeline.
        specs = [
            dataclasses.replace(spec, compute_jitter=0.05)
            for spec in simple_pair
        ]
        with RunRecorder("demo", runs_dir=tmp_path) as recorder:
            result = run_jobs(specs, FairSharing(), n_iterations=4, seed=3)
        manifest = io.load_manifest(recorder.run_dir / "manifest.json")
        assert "gauges" not in manifest
        assert "histograms" not in manifest
        traced = {}
        for record in io.load_trace(recorder.run_dir / "trace.jsonl"):
            if record.kind == "job.iteration":
                traced.setdefault(record.fields["job"], []).append(
                    record.fields["duration"]
                )
        expected = {
            job_id: timeline.iteration_times().tolist()
            for job_id, timeline in result.timelines().items()
        }
        assert traced == expected
        assert len(set(expected["J1"])) > 1  # jitter reached the run

    def test_trace_is_written_in_pieces(self, tmp_path):
        # 40,000 records (about 2.9 MB of text): writing them may hold a
        # piece of the document, never the whole text or its encoding.
        try:
            with RunRecorder("bulk", runs_dir=tmp_path) as recorder:
                telemetry = current()
                for index in range(40_000):
                    telemetry.event(
                        "rate.change", t=index * 1e-3,
                        flow=f"J{index % 7}", rate=index * 0.5,
                    )
                lines = recorder.telemetry.trace.lines
                text = io.trace_lines_to_jsonl(lines)
                tracemalloc.start()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (recorder.run_dir / "trace.jsonl").read_text() == text
        assert peak < len(text) / 2

    def test_exit_writes_the_recorders_own_lines(self, tmp_path):
        # 60,000 short records: a copy of the line list alone (8 bytes a
        # line) is more than writing one piece of them holds.
        try:
            with RunRecorder("bulk", runs_dir=tmp_path) as recorder:
                telemetry = current()
                for _ in range(60_000):
                    telemetry.event("x", t=0.0)
                lines = recorder.telemetry.trace.lines
                text = io.trace_lines_to_jsonl(lines)
                tracemalloc.start()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (recorder.run_dir / "trace.jsonl").read_text() == text
        assert peak < 8 * len(lines)

    def test_failed_run_still_recorded(self, tmp_path):
        with pytest.raises(RuntimeError):
            with RunRecorder("boom", runs_dir=tmp_path) as recorder:
                current().event("x", t=0.0)
                raise RuntimeError("experiment crashed")
        manifest = io.load_manifest(recorder.run_dir / "manifest.json")
        assert manifest["failed"] is True
        assert manifest["events"] == 1

    def test_unencodable_field_fails_at_the_call(self, tmp_path):
        # The emit raises inside the run, so the run directory still
        # gets its trace and manifest, marked failed.
        with pytest.raises(ConfigError, match="'n'"):
            with RunRecorder("bad", runs_dir=tmp_path) as recorder:
                current().event("x", t=0.0, n=3)
                current().event("x", t=1.0, n=np.int64(3))
        manifest = io.load_manifest(recorder.run_dir / "manifest.json")
        assert manifest["failed"] is True
        assert manifest["events"] == 1
        assert manifest["event_kinds"] == {"x": 1}
        assert io.load_trace(recorder.run_dir / "trace.jsonl") == [
            TraceRecord("x", 0.0, {"n": 3})
        ]

    def test_resolve_run_picks_latest(self, tmp_path, simple_pair):
        for _ in range(2):
            with RunRecorder("demo", runs_dir=tmp_path) as recorder:
                pass
        assert resolve_run("demo", runs_dir=tmp_path) == recorder.run_dir
        assert resolve_run(str(recorder.run_dir)) == recorder.run_dir

    def test_resolve_unknown_run_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            resolve_run("nope", runs_dir=tmp_path)

    def test_stats_and_trace_reports(self, tmp_path, simple_pair):
        with RunRecorder("demo", runs_dir=tmp_path) as recorder:
            with current().span("experiment.demo"):
                run_jobs(list(simple_pair), FairSharing(), n_iterations=2)
        stats = stats_report(recorder.run_dir)
        assert "job.iteration" in stats
        assert "flow:J1:0" in stats
        assert "experiment.demo" in stats
        listing = trace_report(recorder.run_dir, kind="job.iteration")
        assert "job.iteration" in listing
        assert "rate.change" not in listing


class TestCliTelemetryCommands:
    def test_run_records_and_stats_summarizes(self, tmp_path, capsys):
        runs_dir = str(tmp_path / "runs")
        assert cli_main(
            ["run", "figure3", "--runs-dir", runs_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert cli_main(["stats", "figure3", "--runs-dir", runs_dir]) == 0
        out = capsys.readouterr().out
        assert "artifact figure3" in out
        assert "experiment.figure3" in out

    def test_no_record_writes_nothing(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert cli_main(
            ["run", "figure3", "--no-record", "--runs-dir", str(runs_dir)]
        ) == 0
        assert not runs_dir.exists()
        assert "telemetry:" not in capsys.readouterr().out

    def test_stats_unknown_run_fails_cleanly(self, tmp_path, capsys):
        assert cli_main(
            ["stats", "nope", "--runs-dir", str(tmp_path)]
        ) == 1
        assert "error:" in capsys.readouterr().err


class TestAblationsManifest:
    def test_solver_spans_reach_run_manifest(self, tmp_path):
        # The solver-comparison ablation times solvers through telemetry
        # spans; a recorded run must carry them in its manifest.
        with RunRecorder("ablations", runs_dir=tmp_path) as recorder:
            runs = ablations.solver_comparison()
        assert all(run.seconds >= 0.0 for run in runs)
        assert any(run.seconds > 0.0 for run in runs)
        manifest = io.load_manifest(recorder.run_dir / "manifest.json")
        span_paths = set(manifest["spans"])
        for solver in ("backtracking", "greedy", "annealing", "grid-36"):
            assert f"solver.{solver}" in span_paths, solver

    def test_solver_timings_without_session_still_measured(self):
        runs = ablations.solver_comparison()
        assert any(run.seconds > 0.0 for run in runs)
        # Nothing leaked into the disabled ambient session.
        assert len(NULL.trace) == 0

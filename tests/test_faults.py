"""Fault-injection runtime: schedule validation and seeded determinism.

The injection schedule is validated once at build time — the simulators
assume well-formed input — so the validation rules are pinned here as
property-style tests. Determinism is the harder contract: the same spec
plus the same schedule must produce byte-identical traces and timelines
across repeated runs and across worker fan-out (``jobs=1`` vs
``jobs=4``), because the robustness experiments diff faulted runs
against clean ones.
"""

import json

import pytest

from repro import io
from repro.cc.fair import FairSharing
from repro.errors import ConfigError
from repro.faults import (
    InjectionSchedule,
    LinkFailure,
    MODE_FREEZE,
    MODE_NORMAL,
    MODE_STORM,
    PfcStorm,
    RateChange,
    link_capacity_windows,
    single_link,
)
from repro.runner import RunSpec, ScenarioSpec, SenderSpec, run_many
from repro.units import gbps, ms
from repro.workloads.job import JobSpec


def _decoded(document):
    """Decoding ``document`` as an injection schedule, deferred."""
    return lambda: io.injection_schedule_from_dict(document)


def _event(**fields):
    """A rate-change event document with ``fields`` replaced."""
    return {"kind": "rate-change", "link": "L1", "start": 0.0, "end": 1.0,
            "factor": 0.5, **fields}


#: Malformed events and schedule documents: case -> (build, what the
#: ConfigError names). Each was accepted, or escaped as TypeError,
#: AttributeError or ValueError, before the one field check.
MALFORMED = {
    "link-none-beside-a-named-link": (lambda: InjectionSchedule(events=(
        LinkFailure(None, 0.0, 1.0), RateChange("L1", 0.0, 1.0, 0.5),
    )), "field 'link'"),
    "link-int": (lambda: InjectionSchedule(
        events=(LinkFailure(7, 0.0, 1.0),)
    ), "field 'link'"),
    "link-empty": (lambda: InjectionSchedule(
        events=(LinkFailure("", 0.0, 1.0),)
    ), "field 'link'"),
    "start-str": (lambda: InjectionSchedule(
        events=(RateChange("L1", "0", 1.0, 0.5),)
    ), "field 'start'"),
    "end-none": (lambda: InjectionSchedule(
        events=(PfcStorm("L1", 0.0, None),)
    ), "field 'end'"),
    "factor-bool": (lambda: InjectionSchedule(
        events=(RateChange("L1", 0.0, 1.0, True),)
    ), "field 'factor'"),
    "factor-str": (lambda: InjectionSchedule(
        events=(RateChange("L1", 0.0, 1.0, "0.5"),)
    ), "field 'factor'"),
    "horizon-bool": (
        lambda: InjectionSchedule(horizon=True), "field 'horizon'"
    ),
    "horizon-str": (
        lambda: InjectionSchedule(horizon="5"), "field 'horizon'"
    ),
    "decode-list-document": (_decoded([]), "injection schedule"),
    "decode-events-object": (
        _decoded({"events": {"kind": "rate-change"}}), "field 'events'"
    ),
    "decode-event-number": (_decoded({"events": [7]}), "fault event"),
    "decode-kind-list": (
        _decoded({"events": [_event(kind=["rate-change"])]}), "kind"
    ),
    "decode-link-int": (
        _decoded({"events": [_event(link=7)]}), "field 'link'"
    ),
    "decode-start-str": (
        _decoded({"events": [_event(start="0")]}), "field 'start'"
    ),
    "decode-horizon-str": (
        _decoded({"events": [], "horizon": "x"}), "field 'horizon'"
    ),
}


class TestScheduleValidation:
    def test_rejects_end_before_start(self):
        with pytest.raises(ConfigError):
            InjectionSchedule(events=(RateChange("L1", 2.0, 1.0, 0.5),))

    def test_rejects_negative_start(self):
        with pytest.raises(ConfigError):
            InjectionSchedule(events=(LinkFailure("L1", -0.5, 1.0),))

    def test_rejects_non_finite_bounds(self):
        with pytest.raises(ConfigError):
            InjectionSchedule(
                events=(LinkFailure("L1", 0.0, float("inf")),)
            )

    def test_rejects_event_past_horizon(self):
        with pytest.raises(ConfigError):
            InjectionSchedule(
                events=(PfcStorm("L1", 0.5, 2.0),), horizon=1.0
            )

    def test_rejects_overlapping_same_link_windows(self):
        with pytest.raises(ConfigError):
            InjectionSchedule(events=(
                RateChange("L1", 0.0, 1.0, 0.5),
                LinkFailure("L1", 0.5, 1.5),
            ))

    def test_different_targets_may_overlap(self):
        schedule = InjectionSchedule(events=(
            RateChange("L1", 0.0, 1.0, 0.5),
            LinkFailure("L2", 0.5, 1.5),
        ))
        assert len(schedule) == 2
        assert schedule.link_names() == ["L1", "L2"]

    def test_adjacent_windows_do_not_overlap(self):
        schedule = InjectionSchedule(events=(
            RateChange("L1", 0.0, 1.0, 0.5),
            RateChange("L1", 1.0, 2.0, 0.25),
        ))
        assert len(schedule) == 2

    def test_zero_duration_events_are_dropped(self):
        schedule = InjectionSchedule(events=(
            RateChange("L1", 1.0, 1.0, 0.5),
            LinkFailure("L2", 0.25, 0.25),
        ))
        assert schedule.is_empty
        assert len(schedule) == 0

    def test_rejects_bad_factors(self):
        for factor in (0.0, -1.0):
            with pytest.raises(ConfigError, match="field 'factor'"):
                InjectionSchedule(
                    events=(RateChange("L1", 0.0, 1.0, factor),)
                )

    def test_rejects_non_events(self):
        with pytest.raises(ConfigError):
            InjectionSchedule(events=("not-an-event",))

    def test_rejects_bad_horizon(self):
        with pytest.raises(ConfigError):
            InjectionSchedule(horizon=0.0)
        with pytest.raises(ConfigError):
            InjectionSchedule(horizon=float("nan"))

    def test_empty_schedule_is_valid(self):
        schedule = InjectionSchedule()
        assert schedule.is_empty
        assert schedule.link_names() == []
        assert single_link(schedule) is None

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_is_refused_naming_the_field(self, case):
        build, field = MALFORMED[case]
        with pytest.raises(ConfigError, match=field):
            build()


class TestRuntimeHelpers:
    def test_single_link_rejects_multi_link_schedules(self):
        schedule = InjectionSchedule(events=(
            RateChange("L1", 0.0, 1.0, 0.5),
            LinkFailure("L2", 0.0, 1.0),
        ))
        with pytest.raises(ConfigError):
            single_link(schedule)

    @staticmethod
    def _l1_windows(schedule, steps, capacity):
        """``(start, end, mode, capacity)`` of link ``L1`` per window."""
        return [
            (w.start, w.end) + w.modes.get("L1", (MODE_NORMAL, capacity))
            for w in link_capacity_windows(
                schedule, steps, 10e-6, {"L1": capacity}
            )
        ]

    def test_windows_tile_the_run(self):
        schedule = InjectionSchedule(events=(
            RateChange("L1", 0.001, 0.002, 0.5),
            LinkFailure("L1", 0.004, 0.005),
            PfcStorm("L1", 0.007, 0.008),
        ))
        windows = self._l1_windows(schedule, 1000, 100.0)
        assert windows[0][0] == 0
        assert windows[-1][1] == 1000
        for left, right in zip(windows, windows[1:]):
            assert left[1] == right[0]
        modes = [w[2] for w in windows]
        assert modes == [
            MODE_NORMAL, MODE_NORMAL, MODE_NORMAL, MODE_FREEZE,
            MODE_NORMAL, MODE_STORM, MODE_NORMAL,
        ]
        assert windows[1][3] == pytest.approx(50.0)
        assert windows[3][3] == 0.0
        assert windows[5][3] == 100.0

    def test_empty_schedule_yields_one_normal_window(self):
        for schedule in (None, InjectionSchedule()):
            windows = self._l1_windows(schedule, 500, 42.0)
            assert windows == [(0, 500, MODE_NORMAL, 42.0)]

    def test_sub_tick_events_collapse_to_noops(self):
        schedule = InjectionSchedule(
            events=(RateChange("L1", 0.0000101, 0.0000102, 0.5),)
        )
        windows = self._l1_windows(schedule, 100, 1.0)
        assert len(windows) == 1 and windows[0][2] == MODE_NORMAL


class TestCodec:
    def schedule(self):
        return InjectionSchedule(
            events=(
                RateChange("L1", 0.1, 0.2, 0.5),
                LinkFailure("L2", 0.0, 0.05),
                PfcStorm("L3", 0.3, 0.4),
            ),
            horizon=1.0,
        )

    def test_schedule_round_trip(self):
        schedule = self.schedule()
        data = io.injection_schedule_to_dict(schedule)
        json.dumps(data)  # must be JSON-able
        assert io.injection_schedule_from_dict(data) == schedule

    def test_unknown_kind_rejected(self):
        # Besides a made-up kind, the job-phase kinds the codec no
        # longer knows, each as a complete document of its old form.
        for document in (
            {"kind": "meteor-strike"},
            {"kind": "latency-spike", "link": "L1", "start": 0.0,
             "end": 1.0, "extra": 0.01},
            {"kind": "straggler", "job": "J1", "start": 0.0, "end": 1.0,
             "factor": 1.5},
            {"kind": "clock-skew", "job": "J1", "start": 0.0, "end": 1.0,
             "offset": 0.002},
        ):
            with pytest.raises(ConfigError, match="kind"):
                io.fault_event_from_dict(document)

    def test_run_spec_round_trip_and_hash(self):
        schedule = self.schedule()
        spec = RunSpec(backend="fluid", faults=schedule)
        data = io.run_spec_to_dict(spec)
        assert io.run_spec_from_dict(data).faults == schedule
        # The schedule must be part of the content hash: a faulted and
        # a clean spec must never collide in the result cache.
        assert (
            spec.content_hash()
            != RunSpec(backend="fluid").content_hash()
        )


def _fluid_spec(label="faults-det", seed=11):
    schedule = InjectionSchedule(
        events=(
            RateChange("L1", 0.005, 0.010, 0.4),
            LinkFailure("L1", 0.015, 0.020),
            PfcStorm("L1", 0.030, 0.033),
        ),
        horizon=0.05,
    )
    senders = tuple(
        SenderSpec(
            f"J{i + 1}",
            125e-6,
            compute_time=0.0009,
            comm_bytes=0.0011 * gbps(50),
            start_offset=i * 0.0002,
            stream=f"faults:J{i + 1}",
        )
        for i in range(3)
    )
    return RunSpec(
        backend="fluid",
        label=label,
        seed=seed,
        capacity=gbps(50),
        duration=0.05,
        scenarios=(ScenarioSpec("only", senders),),
        faults=schedule,
    )


def _phase_spec(seed=3):
    schedule = InjectionSchedule(events=(
        RateChange("L1", 0.5, 1.5, 0.3),
    ))
    jobs = tuple(
        JobSpec(f"J{i + 1}", ms(100), ms(110) * gbps(42))
        for i in range(2)
    )
    return RunSpec(
        backend="phase",
        seed=seed,
        jobs=jobs,
        policy=FairSharing(),
        n_iterations=10,
        faults=schedule,
    )


def _fingerprint(result):
    return json.dumps(
        io.run_result_to_dict(result), sort_keys=True,
        separators=(",", ":"),
    )


class TestSeededDeterminism:
    @pytest.mark.parametrize("make", [_fluid_spec, _phase_spec])
    def test_repeat_runs_byte_identical(self, make):
        first = _fingerprint(run_many([make()], jobs=1, cache=False)[0])
        second = _fingerprint(run_many([make()], jobs=1, cache=False)[0])
        assert first == second

    @pytest.mark.parametrize("make", [_fluid_spec, _phase_spec])
    def test_worker_fanout_byte_identical(self, make):
        specs = [make() for _ in range(4)]
        serial = run_many(specs, jobs=1, cache=False)
        parallel = run_many(specs, jobs=4, cache=False)
        for left, right in zip(serial, parallel):
            assert _fingerprint(left) == _fingerprint(right)

    def test_cache_round_trip_replays_faulted_run(self, tmp_path):
        spec = _fluid_spec()
        first = run_many(
            [spec], jobs=1, cache=True, cache_dir=tmp_path
        )[0]
        # Second submission must be a cache hit that replays the stored
        # result exactly.
        second = run_many(
            [spec], jobs=1, cache=True, cache_dir=tmp_path
        )[0]
        assert _fingerprint(first) == _fingerprint(second)
        assert list(tmp_path.glob("*.json"))

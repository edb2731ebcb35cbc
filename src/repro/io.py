"""JSON serialization for workloads, circles, results and telemetry.

Lets operators exchange profiled workloads between tools: job specs and
circles round-trip losslessly (circles are integer data). Telemetry
traces round-trip as JSONL (one record per line) so recorded runs can be
summarized, diffed and replayed by the ``repro-experiments stats`` /
``trace`` commands.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Sequence, Union

import numpy as np

from .cc.adaptive import AdaptiveUnfair
from .cc.fair import FairSharing
from .cc.priority import PrioritySharing
from .cc.weighted import StaticWeighted
from .core.circle import JobCircle
from .core.lifecycle import JobState
from .core.timeline import JobTimeline
from .errors import ConfigError
from .faults.events import EVENT_KINDS, InjectionSchedule
from .mechanisms.flow_scheduling import PeriodicGate
from .net.phasesim import JobRun, SimulationResult
from .net.topology import NodeKind, Topology
from .sim.trace import StepFunction, TimeSeries
from .telemetry.trace import TraceRecord, decode_record, encode_record
from .workloads.job import JobSpec

#: Format tag embedded in every document.
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# JobSpec
# ---------------------------------------------------------------------------

def job_spec_to_dict(spec: JobSpec) -> Dict[str, Any]:
    """Serialize a job spec to plain data."""
    return {
        "version": FORMAT_VERSION,
        "job_id": spec.job_id,
        "compute_time": spec.compute_time,
        "comm_bytes": spec.comm_bytes,
        "model_name": spec.model_name,
        "batch_size": spec.batch_size,
        "compute_jitter": spec.compute_jitter,
        "n_workers": spec.n_workers,
    }


_REQUIRED = object()


def _refusal(
    data: Dict[str, Any], key: str, expected: str, value: Any,
    name: Any = None,
) -> ConfigError:
    """The error for field ``key`` of a document holding ``value``; the
    message names the document ``name``, or by its ``job_id``."""
    if name is None:
        name = repr(data.get("job_id"))
    return ConfigError(
        f"{name}: field {key!r} must be {expected}, got {value!r}"
    )


def _finite_field(
    data: Dict[str, Any], key: str, default: Any = _REQUIRED,
    name: Any = None,
) -> Union[int, float]:
    """Number field ``key`` of a document (named as in
    :func:`_refusal`).

    Raises:
        KeyError: when the field is missing and has no ``default``.
        ConfigError: naming the field, when its value is ``null``, a
            boolean, not a number, or not finite.
    """
    value = data[key] if default is _REQUIRED else data.get(key, default)
    if not (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    ):
        raise _refusal(data, key, "a finite number", value, name)
    return value


def _text_field(
    data: Dict[str, Any], key: str, default: Any = _REQUIRED,
    name: Any = None,
) -> str:
    """String field ``key`` of a document: as :func:`_finite_field`,
    refusing a value that is not a string."""
    value = data[key] if default is _REQUIRED else data.get(key, default)
    if not isinstance(value, str):
        raise _refusal(data, key, "a string", value, name)
    return value


def _integer(data: Dict[str, Any], key: str, value: Any) -> int:
    """``value``, read from field ``key`` of ``data``, if it is an
    integer; a boolean or any other value raises :class:`ConfigError`
    naming the field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise _refusal(data, key, "an integer", value)
    return value


def job_spec_from_dict(data: Dict[str, Any]) -> JobSpec:
    """Deserialize a job spec.

    Raises:
        ConfigError: on a missing field, a ``job_id`` or ``model_name``
            that is not a string, a number field that is ``null``, a
            boolean, not a number or not finite, an unknown format
            version, or a ``segments`` key (several bursts per
            iteration): a job's iteration is one compute phase and one
            burst.
    """
    _check_version(data)
    if "segments" in data:
        raise ConfigError(
            f"job spec {data.get('job_id')!r}: the 'segments' key is not "
            "supported; an iteration is one compute phase and one burst"
        )
    try:
        return JobSpec(
            job_id=_text_field(data, "job_id"),
            compute_time=float(_finite_field(data, "compute_time")),
            comm_bytes=float(_finite_field(data, "comm_bytes")),
            model_name=_text_field(data, "model_name", ""),
            batch_size=int(_finite_field(data, "batch_size", 0)),
            compute_jitter=float(
                _finite_field(data, "compute_jitter", 0.0)
            ),
            n_workers=int(_finite_field(data, "n_workers", 2)),
        )
    except KeyError as exc:
        raise ConfigError(f"missing field in job spec: {exc}") from exc


# ---------------------------------------------------------------------------
# JobCircle
# ---------------------------------------------------------------------------

def circle_to_dict(circle: JobCircle) -> Dict[str, Any]:
    """Serialize a circle (exact: integers only)."""
    return {
        "version": FORMAT_VERSION,
        "job_id": circle.job_id,
        "perimeter": circle.perimeter,
        "comm_arcs": [
            [start, end - start] for start, end in circle.comm.intervals
        ],
        "demand": circle.demand,
    }


def circle_from_dict(data: Dict[str, Any]) -> JobCircle:
    """Deserialize a circle.

    Raises:
        ConfigError: on a missing field, a ``job_id`` that is not a
            string, ``comm_arcs`` that is not a list of ``[start,
            length]`` pairs, a ``perimeter`` or arc bound that is not
            an integer (a boolean included), a ``demand`` that is not a
            finite number, or an unknown format version.
    """
    _check_version(data)
    try:
        arcs = data["comm_arcs"]
        if not isinstance(arcs, list) or not all(
            isinstance(arc, list) and len(arc) == 2 for arc in arcs
        ):
            raise _refusal(
                data, "comm_arcs", "a list of [start, length] pairs", arcs
            )
        return JobCircle.from_arcs(
            _text_field(data, "job_id"),
            _integer(data, "perimeter", data["perimeter"]),
            [
                (
                    _integer(data, "comm_arcs", start),
                    _integer(data, "comm_arcs", length),
                )
                for start, length in arcs
            ],
            demand=float(_finite_field(data, "demand", 1.0)),
        )
    except KeyError as exc:
        raise ConfigError(f"missing field in circle: {exc}") from exc


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def save_workload(
    specs: Sequence[JobSpec], path: Union[str, Path]
) -> None:
    """Write a list of job specs to a JSON file."""
    document = {
        "version": FORMAT_VERSION,
        "jobs": [job_spec_to_dict(spec) for spec in specs],
    }
    Path(path).write_text(json.dumps(document, indent=2))


def load_workload(path: Union[str, Path]) -> List[JobSpec]:
    """Read a list of job specs from a JSON file."""
    document = json.loads(Path(path).read_text())
    _check_version(document)
    if "jobs" not in document:
        raise ConfigError("workload file has no 'jobs' field")
    return [job_spec_from_dict(entry) for entry in document["jobs"]]


# ---------------------------------------------------------------------------
# Telemetry traces (JSONL) and run manifests
# ---------------------------------------------------------------------------

#: First line of every trace document.
_TRACE_HEADER = json.dumps(
    {"type": "trace", "version": FORMAT_VERSION},
    sort_keys=True,
    separators=(",", ":"),
)


#: Lines per ``write`` in :func:`write_lines`: a write holds one piece's
#: text and its encoding, not the whole document's.
TRACE_WRITE_LINES = 4096


def trace_lines_to_jsonl(lines: Sequence[str]) -> str:
    """A trace document from encoded records: the header line, then
    one :func:`~repro.telemetry.trace.encode_record` line per record."""
    return "\n".join([_TRACE_HEADER, *lines]) + "\n"


def write_lines(handle: Any, lines: Sequence[str]) -> None:
    """Write ``lines`` to the text ``handle``, each newline-ended,
    :data:`TRACE_WRITE_LINES` lines per ``write``.

    Raises:
        ConfigError: at the first piece holding a line that is not a
            string or that holds a newline (it would read back as two
            lines); the pieces before it are written.
    """
    for start in range(0, len(lines), TRACE_WRITE_LINES):
        piece = lines[start:start + TRACE_WRITE_LINES]
        try:
            text = "\n".join(piece)
            whole = text.count("\n") == len(piece) - 1
        except TypeError:
            whole = False
        if not whole:
            raise ConfigError(
                f"lines {start}-{start + len(piece) - 1}: a line is not "
                "a string or holds a newline"
            )
        handle.write(text)
        handle.write("\n")


def write_trace_lines(
    lines: Sequence[str], path: Union[str, Path]
) -> None:
    """Write :func:`trace_lines_to_jsonl`'s bytes to ``path`` through
    :func:`write_lines`.

    Raises:
        ConfigError: when :func:`write_lines` refuses a line; no file
            is left at ``path``.
    """
    path = Path(path)
    try:
        with path.open("w") as handle:
            handle.write(_TRACE_HEADER + "\n")
            write_lines(handle, lines)
    except ConfigError:
        path.unlink()
        raise


def trace_to_jsonl(records: Sequence[TraceRecord]) -> str:
    """Serialize trace records to JSONL text.

    The first line is a header carrying the format version; each further
    line is one record, encoded by
    :func:`~repro.telemetry.trace.encode_record` (sorted keys, fixed
    separators) exactly as a recorder encodes it at emit time, so two
    identical traces serialize to byte-identical text — the determinism
    tests depend on this.
    """
    return trace_lines_to_jsonl(
        [encode_record(r.kind, r.t, r.fields) for r in records]
    )


def trace_from_jsonl(text: str) -> List[TraceRecord]:
    """Inverse of :func:`trace_to_jsonl`.

    Raises:
        ConfigError: on a missing/invalid header or a malformed record.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ConfigError("empty trace document")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad trace header: {exc}") from exc
    if not isinstance(header, dict) or header.get("type") != "trace":
        raise ConfigError("trace document has no trace header line")
    _check_version(header)
    records: List[TraceRecord] = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            records.append(decode_record(line))
        except ConfigError as exc:
            raise ConfigError(f"trace line {number}: {exc}") from exc
    return records


def save_trace(
    records: Sequence[TraceRecord], path: Union[str, Path]
) -> None:
    """Write trace records to a JSONL file."""
    write_trace_lines(
        [encode_record(r.kind, r.t, r.fields) for r in records], path
    )


def load_trace(path: Union[str, Path]) -> List[TraceRecord]:
    """Read trace records from a JSONL file."""
    return trace_from_jsonl(Path(path).read_text())


def save_manifest(data: Dict[str, Any], path: Union[str, Path]) -> None:
    """Write a run manifest (adds the format version)."""
    document = {"version": FORMAT_VERSION, **data}
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True))


def load_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a run manifest.

    Raises:
        ConfigError: on an unknown format version.
    """
    document = json.loads(Path(path).read_text())
    _check_version(document)
    return document


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------

def topology_to_dict(topology: Topology) -> Dict[str, Any]:
    """Serialize a topology (nodes and directed links, insertion order)."""
    return {
        "version": FORMAT_VERSION,
        "nodes": [[node.name, node.kind.value] for node in topology.nodes],
        "links": [
            [link.src, link.dst, link.capacity, link.name]
            for link in topology.links
        ],
    }


def topology_from_dict(data: Dict[str, Any]) -> Topology:
    """Deserialize a topology (exact: every directed link is explicit)."""
    _check_version(data)
    topology = Topology()
    try:
        for name, kind in data["nodes"]:
            topology.add_node(name, NodeKind(kind))
        for src, dst, capacity, name in data["links"]:
            topology.add_link(
                src, dst, float(capacity), name=name, bidirectional=False
            )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad topology document: {exc}") from exc
    return topology


# ---------------------------------------------------------------------------
# Share policies
# ---------------------------------------------------------------------------

def policy_to_dict(policy: Any) -> Dict[str, Any]:
    """Serialize one of the library's share policies.

    Raises:
        ConfigError: for policy types the codec does not know — such
            specs are executable but not cacheable.
    """
    if isinstance(policy, FairSharing):
        return {"kind": "fair"}
    if isinstance(policy, StaticWeighted):
        return {
            "kind": "static-weighted",
            "weights": policy.weights,
            "default": policy.default_weight,
        }
    if isinstance(policy, AdaptiveUnfair):
        return {
            "kind": "adaptive-unfair",
            "gain": policy.gain,
            "exponent": policy.exponent,
            "base_weight": policy.base_weight,
            "reallocation_interval": policy.reallocation_interval,
        }
    if isinstance(policy, PrioritySharing):
        return {
            "kind": "priority",
            "priorities": policy.priorities,
            "default": policy.default_priority,
        }
    raise ConfigError(
        f"cannot serialize policy of type {type(policy).__name__}"
    )


def policy_from_dict(data: Dict[str, Any]) -> Any:
    """Deserialize a share policy."""
    kind = data.get("kind")
    if kind == "fair":
        return FairSharing()
    if kind == "static-weighted":
        return StaticWeighted(
            {k: float(v) for k, v in data["weights"].items()},
            default=float(data.get("default", 1.0)),
        )
    if kind == "adaptive-unfair":
        return AdaptiveUnfair(
            gain=float(data["gain"]),
            exponent=float(data["exponent"]),
            base_weight=float(data["base_weight"]),
            reallocation_interval=float(data["reallocation_interval"]),
        )
    if kind == "priority":
        return PrioritySharing(
            {k: int(v) for k, v in data["priorities"].items()},
            default=int(data.get("default", 0)),
        )
    raise ConfigError(f"unknown policy kind {kind!r}")


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def gate_to_dict(gate: Any) -> Dict[str, Any]:
    """Serialize a flow-scheduling gate (periodic gates only)."""
    if isinstance(gate, PeriodicGate):
        return {"kind": "periodic", **gate.to_state()}
    raise ConfigError(
        f"cannot serialize gate of type {type(gate).__name__}"
    )


def gate_from_dict(data: Dict[str, Any]) -> PeriodicGate:
    """Deserialize a flow-scheduling gate."""
    if data.get("kind") != "periodic":
        raise ConfigError(f"unknown gate kind {data.get('kind')!r}")
    return PeriodicGate.from_state(data)


# ---------------------------------------------------------------------------
# Fault injection schedules
# ---------------------------------------------------------------------------

def fault_event_to_dict(event: Any) -> Dict[str, Any]:
    """Serialize one fault event, tagged with its ``kind``."""
    kind = getattr(event, "kind", None)
    if kind not in EVENT_KINDS or not isinstance(event, EVENT_KINDS[kind]):
        raise ConfigError(
            f"cannot serialize fault event of type {type(event).__name__}"
        )
    data = {
        field.name: getattr(event, field.name)
        for field in dataclasses.fields(event)
    }
    data["kind"] = kind
    return data


def fault_event_from_dict(data: Dict[str, Any]) -> Any:
    """Deserialize one kind-tagged fault event.

    Raises:
        ConfigError: naming the event and the field, on a document that
            is not an object, an unknown ``kind``, a missing field, a
            ``link`` that is not a string, or a bound or factor that is
            not a finite number (a boolean included).
    """
    if not isinstance(data, dict):
        raise ConfigError(f"a fault event must be an object, got {data!r}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in EVENT_KINDS:
        raise ConfigError(
            f"unknown fault event kind {kind!r}; known: "
            f"{sorted(EVENT_KINDS)}"
        )
    cls = EVENT_KINDS[kind]
    name = f"fault event {kind!r}"
    try:
        return cls(**{
            field.name: (
                _text_field(data, field.name, name=name)
                if field.name == "link"
                else _finite_field(data, field.name, name=name)
            )
            for field in dataclasses.fields(cls)
        })
    except KeyError as exc:
        raise ConfigError(f"{name}: missing field {exc}") from None


def injection_schedule_to_dict(
    schedule: InjectionSchedule,
) -> Dict[str, Any]:
    """Serialize a fault injection schedule."""
    return {
        "version": FORMAT_VERSION,
        "horizon": schedule.horizon,
        "events": [
            fault_event_to_dict(event) for event in schedule.events
        ],
    }


def injection_schedule_from_dict(
    data: Dict[str, Any],
) -> InjectionSchedule:
    """Deserialize a fault injection schedule (re-validates it).

    Raises:
        ConfigError: naming the field, on a document that is not an
            object, a missing or non-list ``events``, a malformed event
            (:func:`fault_event_from_dict`), a ``horizon`` that is
            neither ``null`` nor a finite number, an unknown format
            version, or a schedule :class:`InjectionSchedule` refuses.
    """
    name = "injection schedule"
    if not isinstance(data, dict):
        raise ConfigError(f"an {name} must be an object, got {data!r}")
    _check_version(data)
    if "events" not in data:
        raise ConfigError(f"missing field in {name}: 'events'")
    events = data["events"]
    if not isinstance(events, list):
        raise _refusal(data, "events", "a list", events, name)
    return InjectionSchedule(
        events=tuple(fault_event_from_dict(entry) for entry in events),
        horizon=(
            None if data.get("horizon") is None
            else float(_finite_field(data, "horizon", name=name))
        ),
    )


# ---------------------------------------------------------------------------
# Time series and step functions
# ---------------------------------------------------------------------------

def step_function_to_dict(fn: StepFunction) -> Dict[str, Any]:
    """Serialize a step function via its minimal breakpoint list."""
    return {
        "name": fn.name,
        "initial": fn._initial,
        "points": [list(pair) for pair in fn.breakpoints()],
    }


def step_function_from_dict(data: Dict[str, Any]) -> StepFunction:
    """Exact inverse of :func:`step_function_to_dict`.

    Breakpoints are restored verbatim (not replayed through ``set``,
    whose no-op skipping could drop an overwrite-created breakpoint).
    """
    fn = StepFunction(float(data["initial"]), name=data.get("name", ""))
    fn._times = [float(t) for t, _ in data["points"]]
    fn._values = [float(v) for _, v in data["points"]]
    return fn


def time_series_to_dict(series: TimeSeries) -> Dict[str, Any]:
    """Serialize an irregular time series."""
    return {
        "name": series.name,
        "times": list(series._times),
        "values": list(series._values),
    }


def time_series_from_dict(data: Dict[str, Any]) -> TimeSeries:
    """Deserialize an irregular time series.

    Raises:
        ConfigError: naming the series and the field, when ``times`` or
            ``values`` is not a list, or the two lists differ in length.
    """
    name = data.get("name", "")
    times = data["times"]
    values = data["values"]
    for key, column in (("times", times), ("values", values)):
        if not isinstance(column, list):
            raise ConfigError(
                f"series {name!r}: field {key!r} must be a list, "
                f"got {column!r}"
            )
    if len(times) != len(values):
        raise ConfigError(
            f"series {name!r}: field 'values' has {len(values)} "
            f"entries but field 'times' has {len(times)}"
        )
    series = TimeSeries(name=name)
    series._times = [float(t) for t in times]
    series._values = [float(v) for v in values]
    return series


# ---------------------------------------------------------------------------
# Timelines and phase-level results
# ---------------------------------------------------------------------------

def timeline_to_dict(timeline: JobTimeline) -> Dict[str, Any]:
    """Serialize a canonical job timeline (compact sample rows)."""
    return {
        "job_id": timeline.job_id,
        "samples": timeline.to_rows(),
    }


def timeline_from_dict(data: Dict[str, Any]) -> JobTimeline:
    """Deserialize a canonical job timeline."""
    try:
        return JobTimeline.from_rows(data["job_id"], data["samples"])
    except KeyError as exc:
        raise ConfigError(f"missing field in timeline: {exc}") from exc


def job_run_to_dict(run: JobRun) -> Dict[str, Any]:
    """Serialize a completed job run (flow/gate/rng are not carried)."""
    return {
        "spec": job_spec_to_dict(run.spec),
        "n_iterations": run.n_iterations,
        "start_offset": run.start_offset,
        "state": run.state.value,
        "timeline": timeline_to_dict(run.timeline),
        "rate_trace": step_function_to_dict(run.rate_trace),
    }


def job_run_from_dict(data: Dict[str, Any]) -> JobRun:
    """Deserialize a job run (as a result container: no flow, no rng)."""
    run = JobRun(
        spec=job_spec_from_dict(data["spec"]),
        flow=None,
        n_iterations=int(data["n_iterations"]),
        start_offset=float(data["start_offset"]),
        gate=None,
        rng=np.random.default_rng(0),
    )
    run.state = JobState(data["state"])
    run.lifecycle.timeline = timeline_from_dict(data["timeline"])
    run.rate_trace = step_function_from_dict(data["rate_trace"])
    return run


def simulation_result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """Serialize a phase-level simulation result."""
    return {
        "jobs": {
            job_id: job_run_to_dict(run)
            for job_id, run in sorted(result.jobs.items())
        },
        "link_loads": {
            name: step_function_to_dict(fn)
            for name, fn in sorted(result.link_loads.items())
        },
        "duration": result.duration,
    }


def simulation_result_from_dict(data: Dict[str, Any]) -> SimulationResult:
    """Deserialize a phase-level simulation result."""
    return SimulationResult(
        jobs={
            job_id: job_run_from_dict(entry)
            for job_id, entry in data["jobs"].items()
        },
        link_loads={
            name: step_function_from_dict(entry)
            for name, entry in data["link_loads"].items()
        },
        duration=float(data["duration"]),
    )


# ---------------------------------------------------------------------------
# Fluid (DCQCN) results
# ---------------------------------------------------------------------------

def dcqcn_result_to_dict(result: Any) -> Dict[str, Any]:
    """Serialize a :class:`repro.cc.dcqcn.DcqcnResult`.

    The per-link queue series of fabric runs are emitted only when
    present, so single-bottleneck result documents are byte-identical
    to the pre-fabric format.
    """
    document = {
        "rate_series": {
            name: time_series_to_dict(series)
            for name, series in sorted(result.rate_series.items())
        },
        "queue_series": time_series_to_dict(result.queue_series),
        "duration": result.duration,
        "timelines": {
            name: timeline_to_dict(timeline)
            for name, timeline in sorted(result.timelines.items())
        },
    }
    if result.link_queue_series:
        document["link_queue_series"] = {
            name: time_series_to_dict(series)
            for name, series in sorted(result.link_queue_series.items())
        }
    return document


def dcqcn_result_from_dict(data: Dict[str, Any]) -> Any:
    """Deserialize a DCQCN fluid result."""
    from .cc.dcqcn import DcqcnResult

    return DcqcnResult(
        rate_series={
            name: time_series_from_dict(entry)
            for name, entry in data["rate_series"].items()
        },
        queue_series=time_series_from_dict(data["queue_series"]),
        duration=float(data["duration"]),
        timelines={
            name: timeline_from_dict(entry)
            for name, entry in data.get("timelines", {}).items()
        },
        link_queue_series={
            name: time_series_from_dict(entry)
            for name, entry in data.get("link_queue_series", {}).items()
        },
    )


# ---------------------------------------------------------------------------
# Run specs and results
# ---------------------------------------------------------------------------

def _encode_option(value: Any) -> Any:
    """Encode one backend option value as JSON-able data.

    Primitives pass through; sequences become lists; mappings keep
    string keys; job specs are tagged so they round-trip.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, JobSpec):
        return {"__jobspec__": job_spec_to_dict(value)}
    if isinstance(value, (list, tuple)):
        return [_encode_option(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _encode_option(v) for k, v in value.items()}
    raise ConfigError(
        f"cannot serialize option value of type {type(value).__name__}"
    )


def _decode_option(value: Any) -> Any:
    if isinstance(value, dict):
        if "__jobspec__" in value:
            return job_spec_from_dict(value["__jobspec__"])
        return {k: _decode_option(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_option(item) for item in value]
    return value


def sender_spec_to_dict(sender: Any) -> Dict[str, Any]:
    """Serialize a fluid-backend sender spec.

    ``route`` is emitted only when set: routeless (single-bottleneck)
    sender documents — and therefore existing spec content hashes —
    stay byte-identical to the pre-fabric format.
    """
    document = {
        "name": sender.name,
        "timer": sender.timer,
        "data_bytes": sender.data_bytes,
        "compute_time": sender.compute_time,
        "comm_bytes": sender.comm_bytes,
        "start_offset": sender.start_offset,
        "stream": sender.stream,
    }
    if sender.route:
        document["route"] = list(sender.route)
    return document


def sender_spec_from_dict(data: Dict[str, Any]) -> Any:
    """Deserialize a fluid-backend sender spec."""
    from .runner.spec import SenderSpec

    return SenderSpec(
        name=data["name"],
        timer=float(data["timer"]),
        data_bytes=(
            None if data.get("data_bytes") is None
            else float(data["data_bytes"])
        ),
        compute_time=(
            None if data.get("compute_time") is None
            else float(data["compute_time"])
        ),
        comm_bytes=(
            None if data.get("comm_bytes") is None
            else float(data["comm_bytes"])
        ),
        start_offset=float(data.get("start_offset", 0.0)),
        stream=data.get("stream", ""),
        route=tuple(data.get("route", ())),
    )


def run_spec_to_dict(spec: Any) -> Dict[str, Any]:
    """Serialize a :class:`repro.runner.spec.RunSpec`.

    Raises:
        ConfigError: when the spec holds something the codecs cannot
            express (ad-hoc gates, unknown policies, odd option values).
    """
    return {
        "version": FORMAT_VERSION,
        "backend": spec.backend,
        "label": spec.label,
        "seed": spec.seed,
        "jobs": [job_spec_to_dict(job) for job in spec.jobs],
        "policy": (
            None if spec.policy is None else policy_to_dict(spec.policy)
        ),
        "topology": (
            None if spec.topology is None
            else topology_to_dict(spec.topology)
        ),
        "n_iterations": spec.n_iterations,
        "capacity": spec.capacity,
        "start_offsets": [
            [job_id, offset] for job_id, offset in spec.start_offsets
        ],
        "gates": [
            [job_id, gate_to_dict(gate)] for job_id, gate in spec.gates
        ],
        "until": spec.until,
        "duration": spec.duration,
        "scenarios": [
            {
                "name": scenario.name,
                "senders": [
                    sender_spec_to_dict(sender)
                    for sender in scenario.senders
                ],
            }
            for scenario in spec.scenarios
        ],
        "options": [
            [key, _encode_option(value)] for key, value in spec.options
        ],
        "backend_module": spec.backend_module,
        # An empty schedule is the documented no-op, bit-identical to
        # no schedule at all — normalize it to null so clean and
        # zero-event specs share one content hash (and cache entry).
        "faults": (
            None if spec.faults is None or spec.faults.is_empty
            else injection_schedule_to_dict(spec.faults)
        ),
    }


def run_spec_from_dict(data: Dict[str, Any]) -> Any:
    """Deserialize a run spec."""
    from .runner.spec import RunSpec, ScenarioSpec

    _check_version(data)
    return RunSpec(
        backend=data["backend"],
        label=data.get("label", ""),
        seed=int(data.get("seed", 0)),
        jobs=tuple(
            job_spec_from_dict(entry) for entry in data.get("jobs", [])
        ),
        policy=(
            None if data.get("policy") is None
            else policy_from_dict(data["policy"])
        ),
        topology=(
            None if data.get("topology") is None
            else topology_from_dict(data["topology"])
        ),
        n_iterations=int(data.get("n_iterations", 0)),
        capacity=float(data.get("capacity", 0.0)),
        start_offsets=tuple(
            (job_id, float(offset))
            for job_id, offset in data.get("start_offsets", [])
        ),
        gates=tuple(
            (job_id, gate_from_dict(entry))
            for job_id, entry in data.get("gates", [])
        ),
        until=(
            None if data.get("until") is None else float(data["until"])
        ),
        duration=float(data.get("duration", 0.0)),
        scenarios=tuple(
            ScenarioSpec(
                name=entry["name"],
                senders=tuple(
                    sender_spec_from_dict(sender)
                    for sender in entry["senders"]
                ),
            )
            for entry in data.get("scenarios", [])
        ),
        options=tuple(
            (key, _decode_option(value))
            for key, value in data.get("options", [])
        ),
        backend_module=data.get("backend_module", ""),
        faults=(
            None if data.get("faults") is None
            else injection_schedule_from_dict(data["faults"])
        ),
    )


def fluid_scenario_result_to_dict(result: Any) -> Dict[str, Any]:
    """Serialize one fluid scenario's :class:`repro.cc.dcqcn.DcqcnResult`.

    The scenario-level ``timelines`` entry repeats the trace's own: the
    committed ``bench/expected.json`` digests and every result-cache
    entry hash exactly this document shape, so it stays. Every source
    the fluid backend builds is a plain DCQCN sender or an on-off DCQCN
    job, so the two copies always agree.
    """
    trace = dcqcn_result_to_dict(result)
    return {"trace": trace, "timelines": trace["timelines"]}


def fluid_scenario_result_from_dict(data: Dict[str, Any]) -> Any:
    """Deserialize one fluid scenario's result from its ``trace``; the
    repeated scenario-level ``timelines`` are not read."""
    return dcqcn_result_from_dict(data["trace"])


def run_result_to_dict(result: Any) -> Dict[str, Any]:
    """Serialize a :class:`repro.runner.spec.RunResult`.

    The ``data`` payload must already be JSON-able; backend adapters
    keep it that way by construction.
    """
    return {
        "version": FORMAT_VERSION,
        "spec_hash": result.spec_hash,
        "backend": result.backend,
        "label": result.label,
        "phase": (
            None if result.phase is None
            else simulation_result_to_dict(result.phase)
        ),
        "fluid": {
            name: fluid_scenario_result_to_dict(scenario)
            for name, scenario in sorted(result.fluid.items())
        },
        "data": result.data,
    }


def run_result_from_dict(data: Dict[str, Any]) -> Any:
    """Deserialize a run result."""
    from .runner.spec import RunResult

    _check_version(data)
    return RunResult(
        spec_hash=data["spec_hash"],
        backend=data["backend"],
        label=data.get("label", ""),
        phase=(
            None if data.get("phase") is None
            else simulation_result_from_dict(data["phase"])
        ),
        fluid={
            name: fluid_scenario_result_from_dict(entry)
            for name, entry in data.get("fluid", {}).items()
        },
        data=dict(data.get("data", {})),
    )


def _check_version(data: Dict[str, Any]) -> None:
    version = data.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ConfigError(
            f"unsupported format version {version} (expected "
            f"{FORMAT_VERSION})"
        )

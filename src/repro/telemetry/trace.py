"""Structured simulation-event traces.

A :class:`TraceRecord` captures one simulation event — a job phase
transition, a rate change, a placement decision — as a typed
``(kind, t, fields)`` triple where ``t`` is *simulation* time. Records
deliberately carry no wall-clock data: two runs of the same seeded
scenario must produce byte-identical traces, which is what the
determinism regression tests assert. Wall-clock profiling lives in
:mod:`repro.telemetry.spans` instead.

The trace records events, not result series: a number a run result
already holds is not traced a second time. DES dispatches are only
counted (the ``sim.events`` counter), and fluid rate samples live only
in the result's ``rate_series``. ``rate.change`` stays, for two reasons:

* It is not a copy of ``JobRun.rate_trace``. That step function's
  ``StepFunction.set`` overwrites a value set at the same instant, so
  several allocation decisions at one time leave one point, while the
  trace keeps every decision. In a cold ``run all``, 58 of 145 phase jobs
  have nonzero ``rate.change`` sequences that differ from the nonzero
  points of their ``rate_trace``.
* It backs ``repro-experiments trace <run> --kind rate.change``, and a
  run directory holds no results that view could be rebuilt from.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional

from ..errors import ConfigError

#: Record kinds emitted by the instrumented subsystems. Free-form kinds
#: are allowed (the trace is a transport, not a schema registry), but the
#: built-in instrumentation sticks to this vocabulary.
KIND_PHASE = "job.phase"
KIND_ITERATION = "job.iteration"
KIND_COMM = "job.comm"
KIND_RATE = "rate.change"
KIND_PLACEMENT = "scheduler.place"
KIND_SOLVE = "solve.outcome"
KIND_FAULT = "fault.window"


class TraceRecord:
    """One recorded simulation event."""

    __slots__ = ("kind", "t", "fields")

    def __init__(
        self, kind: str, t: float, fields: Optional[Mapping[str, Any]] = None
    ) -> None:
        if not kind:
            raise ConfigError("trace record needs a non-empty kind")
        self.kind = kind
        self.t = float(t)
        self.fields: Dict[str, Any] = dict(fields) if fields else {}

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form used by the JSONL codec in :mod:`repro.io`."""
        return {"kind": self.kind, "t": self.t, "fields": self.fields}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceRecord":
        """Inverse of :meth:`to_dict`.

        Raises:
            ConfigError: on a malformed record.
        """
        try:
            return cls(data["kind"], float(data["t"]), data.get("fields"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed trace record: {data!r}") from exc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.t == other.t
            and self.fields == other.fields
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"TraceRecord({self.kind!r}, t={self.t:.9f}, {inner})"


class TraceRecorder:
    """Append-only collector of :class:`TraceRecord`."""

    def __init__(self) -> None:
        self._records: List[TraceRecord] = []

    def emit(self, kind: str, t: float, **fields: Any) -> None:
        """Record one event at simulation time ``t``."""
        self._records.append(TraceRecord(kind, t, fields))

    def append(self, record: TraceRecord) -> None:
        """Append an already built record (used by the JSONL loader)."""
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def records(self) -> List[TraceRecord]:
        """The recorded events, in emission order."""
        return list(self._records)

    def counts_by_kind(self) -> Dict[str, int]:
        """Number of records per kind, sorted by kind name."""
        counts: Dict[str, int] = {}
        for record in self._records:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return {kind: counts[kind] for kind in sorted(counts)}

    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All records of one kind, in emission order."""
        return [record for record in self._records if record.kind == kind]

    def clear(self) -> None:
        """Drop every recorded event."""
        self._records.clear()

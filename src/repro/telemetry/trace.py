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

A record's one stored form is its JSONL line (:func:`encode_record`):
:meth:`TraceRecorder.emit` encodes each record once, and the worker
state, the result cache and the run's ``trace.jsonl`` carry that line
as it is. A hot path binds :meth:`TraceRecorder.emitter` once per
record shape and passes the values alone; the emitter fills a template
of the text the encoder writes around the values, so both write the
same bytes.
:class:`TraceRecord` is the decoded view, built only when something
asks for records (:attr:`TraceRecorder.records`, iteration,
:meth:`TraceRecorder.of_kind`, :func:`repro.io.load_trace`); its fields
then hold JSON types (a tuple comes back as a list).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Tuple,
)

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
        """Plain-data form: the object a record's JSONL line holds."""
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


#: The one encoder of trace records: sorted keys, compact separators.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_encode = _ENCODER.encode

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


#: Field values of these exact types are encoded inline, to the text
#: :data:`_ENCODER` gives them; an emitted record holding any other
#: value (subclasses included) goes through :data:`_ENCODER` whole.
_INLINE: Dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _template(
    kind: str, names: Sequence[str]
) -> Tuple[str, Tuple[str, ...]]:
    """The template of a record shape: the record's text with a ``%s``
    for each value (``%`` doubled elsewhere), and the field names in
    sorted order."""
    order = tuple(sorted(names))
    items = ",".join(_literal(name) + ":%s" for name in order)
    text = '{"fields":{' + items + '},"kind":' + _literal(kind) + ',"t":%s}'
    return text, order


def _literal(text: str) -> str:
    """``text`` as a JSON string inside a ``%`` template."""
    return encode_basestring_ascii(text).replace("%", "%%")


def _fill(text: str, values: Iterable[Any], t: float) -> str:
    """A template's line for ``values`` (in its sorted field order) at
    ``t``.

    Raises:
        KeyError: on a value whose type is not written inline.
    """
    return text % (
        *[_INLINE[type(value)](value) for value in values],
        _float_text(t),
    )


def _check_kind(kind: str) -> None:
    if not isinstance(kind, str) or not kind:
        raise ConfigError("trace record needs a non-empty string kind")


def encode_record(kind: str, t: float, fields: Mapping[str, Any]) -> str:
    """The JSONL line of one record: ``{"fields":{...},"kind":...,"t":...}``.

    The line is ``_ENCODER.encode({"fields": fields, "kind": kind,
    "t": t})``, with sorted keys and compact separators and ``t``
    passed through ``float()`` first, so identical records encode to
    identical bytes. The hot record shapes go through bound emitters
    (:meth:`TraceRecorder.emitter`) instead, which write the same bytes.

    Raises:
        ConfigError: on an empty kind, or on a field JSON cannot encode
            (the message names the kind and the field).
    """
    _check_kind(kind)
    t = float(t)
    try:
        return _encode({"fields": fields, "kind": kind, "t": t})
    except (TypeError, ValueError) as exc:
        culprit = next(
            (name for name in fields if not _encodes(fields[name])), None
        )
        raise ConfigError(
            f"trace record {kind!r}: field {culprit!r} cannot be encoded "
            f"as JSON ({exc})"
        ) from exc


def _encodes(value: Any) -> bool:
    try:
        _ENCODER.encode(value)
    except (TypeError, ValueError):
        return False
    return True


def decode_record(line: str) -> TraceRecord:
    """The record one :func:`encode_record` line holds.

    Raises:
        ConfigError: on a line that is not JSON or not a record.
    """
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from exc
    return TraceRecord.from_dict(data)


class TraceRecorder:
    """Append-only collector of encoded trace records.

    Holds each record as its JSONL line plus a count per kind, so the
    record count and :meth:`counts_by_kind` never decode a line.
    """

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._kinds: Dict[str, int] = {}

    def emit(self, kind: str, t: float, **fields: Any) -> None:
        """Record one event at simulation time ``t``.

        Raises:
            ConfigError: see :func:`encode_record`.
        """
        self._lines.append(encode_record(kind, t, fields))
        self._kinds[kind] = self._kinds.get(kind, 0) + 1

    def emitter(self, kind: str, *names: str) -> Callable[..., None]:
        """A bound emitter for one record shape: ``kind`` with the fields
        ``names``.

        ``emitter(kind, *names)(t, *values)`` records what
        ``emit(kind, t, **dict(zip(names, values)))`` records, byte for
        byte, without building the fields. It fills a template of the
        shape's text, built here; a record holding a value the template
        does not write inline, or one JSON cannot encode, takes
        :func:`encode_record`'s path (and its ``ConfigError``).

        Raises:
            ConfigError: on an empty kind, or field names that are not
                distinct strings, and from the emitter, on a value count
                other than ``len(names)``.
        """
        _check_kind(kind)
        if not all(isinstance(name, str) for name in names) or (
            len(set(names)) != len(names)
        ):
            raise ConfigError(
                f"trace record {kind!r}: field names must be distinct "
                f"strings, got {names!r}"
            )
        lines, kinds = self._lines, self._kinds

        def emit_through_encoder(t: float, *values: Any) -> None:
            if len(values) != len(names):
                raise ConfigError(
                    f"trace record {kind!r}: {len(values)} values for "
                    f"the fields {names!r}"
                )
            self.emit(kind, t, **dict(zip(names, values)))

        text, order = _template(kind, names)
        # Values arrive in ``names`` order; the template takes them sorted.
        pick = None if order == names else itemgetter(*map(names.index, order))

        def emit(t: float, *values: Any) -> None:
            if pick is not None and len(values) == len(names):
                ordered = pick(values)
            else:  # names already sorted, or a wrong count the fill refuses
                ordered = values
            try:
                line = _fill(text, ordered, float(t))
            except (KeyError, TypeError, ValueError):
                emit_through_encoder(t, *values)
                return
            lines.append(line)
            kinds[kind] = kinds.get(kind, 0) + 1

        return emit

    def extend(self, lines: Sequence[str], kinds: Mapping[str, int]) -> None:
        """Append another recorder's :attr:`lines` and its
        :meth:`counts_by_kind` (a merged worker's trace).

        Raises:
            ConfigError: when the counts do not sum to the line count.
        """
        total = sum(kinds.values())
        if total != len(lines):
            raise ConfigError(
                f"trace kind counts sum to {total}, not to the "
                f"{len(lines)} lines"
            )
        self._lines.extend(lines)
        for kind, count in kinds.items():
            self._kinds[kind] = self._kinds.get(kind, 0) + count

    def __len__(self) -> int:
        return len(self._lines)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(decode_record, self._lines)

    @property
    def lines(self) -> Sequence[str]:
        """The encoded records, in emission order: the recorder's own
        list, not a copy, so later emits extend it. Read it; copy it to
        keep or ship it."""
        return self._lines

    @property
    def records(self) -> List[TraceRecord]:
        """The recorded events, decoded, in emission order."""
        return list(self)

    def counts_by_kind(self) -> Dict[str, int]:
        """Number of records per kind, sorted by kind name."""
        return {kind: self._kinds[kind] for kind in sorted(self._kinds)}

    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All records of one kind, decoded, in emission order."""
        return [record for record in self if record.kind == kind]

    def clear(self) -> None:
        """Drop every recorded event."""
        self._lines.clear()
        self._kinds.clear()

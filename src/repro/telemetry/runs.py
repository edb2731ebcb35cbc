"""Recorded runs: directories holding a trace plus a manifest.

:class:`RunRecorder` wraps one experiment execution: it installs a fresh
:class:`~repro.telemetry.session.Telemetry` session as the ambient
session, and on exit writes a *run directory*::

    runs/figure1-20260806-143201/
        manifest.json   # machine-readable run summary (see below)
        trace.jsonl     # the deterministic simulation-event trace

The manifest carries everything wall-clock or environment dependent
(span timings, start/finish stamps, counter values); the trace carries
only simulation-time events, so identical seeded runs produce identical
trace files even though their manifests differ.

``repro-experiments stats <run>`` and ``trace <run>`` consume these
directories; :func:`resolve_run` lets both accept either a directory
path or an artifact name (latest run wins).
"""

from __future__ import annotations

import datetime
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..errors import ConfigError
from .session import Telemetry, use
from .trace import KIND_COMM, TraceRecord

#: Default directory (under the working directory) for recorded runs.
DEFAULT_RUNS_DIR = "runs"

#: Manifest file name inside a run directory.
MANIFEST_NAME = "manifest.json"

#: Trace file name inside a run directory.
TRACE_NAME = "trace.jsonl"


class RunRecorder:
    """Record one experiment run into a fresh run directory."""

    def __init__(
        self,
        artifact: str,
        runs_dir: Union[str, Path] = DEFAULT_RUNS_DIR,
    ) -> None:
        if not artifact:
            raise ConfigError("run recorder needs an artifact name")
        self.artifact = artifact
        self.runs_dir = Path(runs_dir)
        self.telemetry = Telemetry(name=artifact)
        self.run_dir: Optional[Path] = None
        self._use = None
        self._started: Optional[datetime.datetime] = None

    def __enter__(self) -> "RunRecorder":
        self._started = datetime.datetime.now()
        self._use = use(self.telemetry)
        self._use.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self._use is not None and self._started is not None
        self._use.__exit__(exc_type, exc, tb)
        # Record even failed runs: a trace of a crashed experiment is
        # exactly what one wants when debugging it.
        finished = datetime.datetime.now()
        self.run_dir = self._fresh_run_dir(self._started)
        self.run_dir.mkdir(parents=True, exist_ok=False)
        self._write(finished, failed=exc_type is not None)
        return False

    def _fresh_run_dir(self, started: datetime.datetime) -> Path:
        stamp = started.strftime("%Y%m%d-%H%M%S")
        candidate = self.runs_dir / f"{self.artifact}-{stamp}"
        suffix = 1
        while candidate.exists():
            suffix += 1
            candidate = self.runs_dir / f"{self.artifact}-{stamp}-{suffix}"
        return candidate

    def _write(self, finished: datetime.datetime, failed: bool) -> None:
        from .. import io

        assert self.run_dir is not None and self._started is not None
        # The session holds each record as its encoded line already.
        io.write_trace_lines(
            self.telemetry.trace.lines, self.run_dir / TRACE_NAME
        )
        manifest = {
            "artifact": self.artifact,
            "started": self._started.isoformat(timespec="seconds"),
            "finished": finished.isoformat(timespec="seconds"),
            "wall_seconds": (finished - self._started).total_seconds(),
            "failed": failed,
            "trace_file": TRACE_NAME,
            **self.telemetry.snapshot(),
        }
        io.save_manifest(manifest, self.run_dir / MANIFEST_NAME)


# ---------------------------------------------------------------------------
# Run lookup and reporting
# ---------------------------------------------------------------------------

def is_run_dir(path: Path) -> bool:
    """Whether ``path`` looks like a recorded run directory."""
    return path.is_dir() and (path / MANIFEST_NAME).is_file()


def resolve_run(
    ref: str, runs_dir: Union[str, Path] = DEFAULT_RUNS_DIR
) -> Path:
    """Resolve a run reference to a run directory.

    ``ref`` may be a run directory path, a run directory name under
    ``runs_dir``, or an artifact name — in which case the latest recorded
    run of that artifact is returned (directory names embed a sortable
    timestamp).

    Raises:
        ConfigError: when nothing matches.
    """
    direct = Path(ref)
    if is_run_dir(direct):
        return direct
    base = Path(runs_dir)
    named = base / ref
    if is_run_dir(named):
        return named
    if base.is_dir():
        matches = sorted(
            path
            for path in base.iterdir()
            if path.name.startswith(f"{ref}-") and is_run_dir(path)
        )
        if matches:
            return matches[-1]
    raise ConfigError(
        f"no recorded run matches {ref!r} (looked in {base}); "
        f"record one with 'repro-experiments run <artifact>'"
    )


def load_run(
    run_dir: Union[str, Path],
) -> tuple[dict, List[TraceRecord]]:
    """Load a run directory's manifest and trace."""
    from .. import io

    run_dir = Path(run_dir)
    manifest = io.load_manifest(run_dir / MANIFEST_NAME)
    trace_file = run_dir / manifest.get("trace_file", TRACE_NAME)
    records = io.load_trace(trace_file) if trace_file.is_file() else []
    return manifest, records


def flow_bytes(records: List[TraceRecord]) -> Dict[str, float]:
    """Total bytes per flow from the trace's ``job.comm`` records."""
    totals: Dict[str, float] = {}
    for record in records:
        if record.kind != KIND_COMM:
            continue
        flow = str(record.fields.get("flow", "?"))
        totals[flow] = totals.get(flow, 0.0) + float(
            record.fields.get("bytes", 0.0)
        )
    return {flow: totals[flow] for flow in sorted(totals)}


def stats_report(run_dir: Union[str, Path]) -> str:
    """Human-readable summary of one recorded run."""
    from ..analysis.report import ascii_table

    manifest, records = load_run(run_dir)
    sections: List[str] = [
        f"run      {Path(run_dir)}",
        f"artifact {manifest.get('artifact', '?')}"
        + ("  (FAILED)" if manifest.get("failed") else ""),
        f"wall     {manifest.get('wall_seconds', 0.0):.3f} s "
        f"({manifest.get('started', '?')} -> "
        f"{manifest.get('finished', '?')})",
        f"events   {manifest.get('events', len(records))}",
    ]

    kinds = manifest.get("event_kinds") or {}
    if kinds:
        sections.append(
            ascii_table(
                ["event kind", "count"],
                [(kind, str(kinds[kind])) for kind in sorted(kinds)],
                title="Trace events",
            )
        )

    totals = flow_bytes(records)
    if totals:
        sections.append(
            ascii_table(
                ["flow", "bytes", "GB"],
                [
                    (flow, f"{total:.0f}", f"{total / 1e9:.2f}")
                    for flow, total in totals.items()
                ],
                title="Per-flow bytes",
            )
        )

    spans = manifest.get("spans") or {}
    if spans:
        sections.append(
            ascii_table(
                ["span", "count", "total", "mean"],
                [
                    (
                        path,
                        str(int(timing["count"])),
                        f"{timing['total_seconds'] * 1e3:.1f} ms",
                        f"{timing['mean_seconds'] * 1e3:.1f} ms",
                    )
                    for path, timing in spans.items()
                ],
                title="Span timings (wall clock)",
            )
        )

    counters = manifest.get("counters") or {}
    if counters:
        sections.append(
            ascii_table(
                ["counter", "value"],
                [
                    (name, f"{value:g}")
                    for name, value in counters.items()
                ],
                title="Counters",
            )
        )
    return "\n\n".join(sections)


def trace_report(
    run_dir: Union[str, Path],
    kind: Optional[str] = None,
    limit: int = 50,
) -> str:
    """Formatted listing of a recorded trace (filtered, truncated)."""
    _, records = load_run(run_dir)
    if kind is not None:
        records = [record for record in records if record.kind == kind]
    total = len(records)
    shown = records if limit <= 0 else records[:limit]
    lines = []
    for record in shown:
        fields = " ".join(
            f"{key}={record.fields[key]}" for key in sorted(record.fields)
        )
        lines.append(f"{record.t:>14.6f}  {record.kind:<16} {fields}")
    if total > len(shown):
        lines.append(f"... {total - len(shown)} more records")
    if not lines:
        lines.append("(no matching records)")
    return "\n".join(lines)

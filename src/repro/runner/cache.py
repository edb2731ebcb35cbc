"""The on-disk result cache, keyed by spec content hash.

Layout: one JSON Lines file per cached run at ``<root>/<content-hash>.json``:
every line is one JSON object, and every line ends with a newline.

* Line 1, the *header*, is one ``json.dumps(..., sort_keys=True)``
  document: ``cache_version``, the serialized spec (for inspection), the
  serialized :class:`~repro.runner.spec.RunResult`, and the worker
  telemetry state captured when the run executed, less its trace: the
  counter ``registry`` and the per-kind ``event_kinds`` counts.
* Each further line is one trace line exactly as
  ``worker_state()["trace"]`` holds it, which is also exactly what the
  run's ``trace.jsonl`` holds, in emission order.

So a cache hit replays the run's metrics and trace into the requesting
session exactly as a fresh execution would. :meth:`ResultCache.put`
joins the trace lines and :meth:`ResultCache.get` splits them: no line
is escaped on write, and none is unescaped or parsed on read.

Everything else round-trips through :mod:`repro.io`; a spec whose
payload the codecs cannot express (ad-hoc gate closures, non-JSON option
values) is simply never cached — the runner executes it every time.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from ..errors import ConfigError, ReproError
from .spec import RunResult, RunSpec

#: Schema version of cache entries; bumped when the layout changes.
#: v2: results carry canonical job timelines instead of per-backend
#: iteration lists; older entries self-heal as misses.
#: v3: specs serialize their ``faults`` injection schedule, so hashes
#: computed before the field existed must not alias faulted runs.
#: v4: fabric runs — sender routes in specs, per-link queue series in
#: fluid results; pre-fabric entries lack the link series and must not
#: be replayed for topology-backed specs.
#: v5: the stored telemetry no longer carries a trace record per DES
#: dispatch or per fluid rate sample (the ``sim.events`` counter and the
#: fluid ``rate_series`` hold those numbers), nor any wall-clock
#: histogram, so two runs of one spec write the same bytes; v4 entries
#: would replay the deleted kinds.
#: v6: the stored trace is the session's encoded JSONL lines (one string
#: per record, exactly the bytes ``trace.jsonl`` holds) plus per-kind
#: counts, passed through undecoded; v5 entries hold record dicts and
#: self-heal as misses.
#: v7: ``job.phase`` and ``job.comm`` trace records lose their
#: ``segment`` field (always 0: an iteration is one burst), so v6
#: entries would replay trace lines a fresh run no longer writes.
#: v8: an entry is JSON Lines: the document less ``telemetry.trace`` on
#: line 1, then the trace lines themselves, one per line, instead of
#: JSON strings inside the document; v7 entries (one JSON document)
#: self-heal as misses.
CACHE_VERSION = 8

#: Staging files are ``<entry>.<pid>.<n>.tmp``, ``n`` counting writes
#: across every cache in the process: unique per write, so writers
#: sharing a cache that miss one spec never rename each other's staging
#: file away (the last rename wins, with the same bytes).
_staging = itertools.count()


@dataclass
class CacheEntry:
    """One cache hit: the stored result plus its telemetry state (the
    shape ``worker_state()`` gives, trace lines included)."""

    result: RunResult
    telemetry: Dict[str, Any]


def _mergeable(telemetry: Any, n_lines: int) -> bool:
    """Whether a header's telemetry block, followed by ``n_lines`` trace
    lines, is what ``worker_state()`` gives less its ``trace``: a
    ``{"counters": {name: number}}`` registry and per-kind counts
    (positive ints under non-empty kinds) that sum to the line count.

    A block that still carries ``trace`` is refused: the lines live
    after the header. The lines themselves are not parsed; entries are
    written whole by one atomic rename, and decoding them is the cost
    the stored form exists to avoid.
    """
    if not isinstance(telemetry, dict) or "trace" in telemetry:
        return False
    registry = telemetry.get("registry", {})
    kinds = telemetry.get("event_kinds", {})
    if not (isinstance(registry, dict) and isinstance(kinds, dict)):
        return False
    counters = registry.get("counters", {})
    return (
        isinstance(counters, dict)
        and all(
            isinstance(value, (int, float)) for value in counters.values()
        )
        and all(
            kind and type(count) is int and count > 0
            for kind, count in kinds.items()
        )
        and sum(kinds.values()) == n_lines
    )


class ResultCache:
    """Content-addressed store of run results under one directory."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def path_for(self, content_hash: str) -> Path:
        """Where a given spec hash lives on disk."""
        return self.root / f"{content_hash}.json"

    def get(self, content_hash: str) -> Optional[CacheEntry]:
        """The stored entry for ``content_hash``, or ``None`` on a miss.

        A corrupt or stale-schema file counts as a miss and is removed,
        so a broken cache heals itself instead of wedging runs. So does
        a stored result that fails to decode, and a telemetry block the
        session could not merge (see :func:`_mergeable`): a header that
        carries the trace, or trace lines one more or fewer than its
        kind counts.
        """
        path = self.path_for(content_hash)
        try:
            with path.open("r", encoding="utf-8", newline="\n") as handle:
                header = json.loads(handle.readline())
                lines = handle.read().split("\n")
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            path.unlink(missing_ok=True)
            return None
        try:
            # Every line ends with a newline, so the split ends with "".
            if lines.pop() or not isinstance(header, dict) or (
                header.get("cache_version") != CACHE_VERSION
            ):
                raise ConfigError("cache schema mismatch")
            from .. import io

            result = io.run_result_from_dict(header["result"])
            telemetry = header.get("telemetry", {})
            if not _mergeable(telemetry, len(lines)):
                raise ConfigError("malformed cached telemetry")
        except (AttributeError, KeyError, TypeError, ValueError, ReproError):
            path.unlink(missing_ok=True)
            return None
        telemetry["trace"] = lines
        return CacheEntry(result=result, telemetry=telemetry)

    def put(
        self,
        spec: RunSpec,
        content_hash: str,
        result: RunResult,
        telemetry: Dict[str, Any],
    ) -> bool:
        """Store one executed run. Returns False when unserializable,
        and when a trace line holds a newline (it would read back as
        two lines)."""
        from .. import io

        try:
            state = dict(telemetry)
            lines = state.pop("trace", [])
            header = json.dumps(
                {
                    "cache_version": CACHE_VERSION,
                    "spec": io.run_spec_to_dict(spec),
                    "result": io.run_result_to_dict(result),
                    "telemetry": state,
                },
                sort_keys=True,
            )
            body = "\n".join(lines)
        except (ConfigError, TypeError, ValueError):
            return False
        if lines and body.count("\n") != len(lines) - 1:
            return False
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(content_hash)
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{next(_staging)}.tmp"
        )
        with tmp.open("w", encoding="utf-8", newline="\n") as handle:
            handle.write(header)
            handle.write("\n")
            if lines:
                handle.write(body)
                handle.write("\n")
        tmp.replace(path)
        return True

    def stats(self) -> Dict[str, Any]:
        """Entry count and total size of the cache directory."""
        entries = 0
        total_bytes = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                entries += 1
                total_bytes += path.stat().st_size
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
        }

    def clear(self) -> int:
        """Delete all entries and staging files; returns the entry count."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
            for path in self.root.glob("*.tmp"):
                path.unlink(missing_ok=True)
        return removed

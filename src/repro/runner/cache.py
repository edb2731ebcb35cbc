"""The on-disk result cache, keyed by spec content hash.

Layout: one JSON document per cached run at
``<root>/<content-hash>.json`` containing the serialized spec (for
inspection), the serialized :class:`~repro.runner.spec.RunResult`, and
the worker telemetry state captured when the run executed — so a cache
hit replays the run's metrics and trace into the requesting session
exactly as a fresh execution would.

Everything round-trips through :mod:`repro.io`; a spec whose payload the
codecs cannot express (ad-hoc gate closures, non-JSON option values) is
simply never cached — the runner executes it every time.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from ..errors import ConfigError
from .spec import RunResult, RunSpec

#: Schema version of cache entries; bumped when the layout changes.
#: v2: results carry canonical job timelines instead of per-backend
#: iteration lists; older entries self-heal as misses.
#: v3: specs serialize their ``faults`` injection schedule, so hashes
#: computed before the field existed must not alias faulted runs.
#: v4: fabric runs — sender routes in specs, per-link queue series in
#: fluid results; pre-fabric entries lack the link series and must not
#: be replayed for topology-backed specs.
CACHE_VERSION = 4

#: Staging files are ``<entry>.<pid>.<n>.tmp``, ``n`` counting writes
#: across every cache in the process: unique per write, so writers
#: sharing a cache that miss one spec never rename each other's staging
#: file away (the last rename wins, with the same bytes).
_staging = itertools.count()


@dataclass
class CacheEntry:
    """One cache hit: the stored result plus its telemetry state."""

    result: RunResult
    telemetry: Dict[str, Any]


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
        so a broken cache heals itself instead of wedging runs.
        """
        path = self.path_for(content_hash)
        try:
            with path.open("r", encoding="utf-8") as handle:
                document = json.load(handle)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError):
            path.unlink(missing_ok=True)
            return None
        try:
            if document.get("cache_version") != CACHE_VERSION:
                raise ConfigError("cache schema mismatch")
            from .. import io

            result = io.run_result_from_dict(document["result"])
            telemetry = document.get("telemetry", {})
        except (ConfigError, KeyError, TypeError, ValueError):
            path.unlink(missing_ok=True)
            return None
        return CacheEntry(result=result, telemetry=telemetry)

    def put(
        self,
        spec: RunSpec,
        content_hash: str,
        result: RunResult,
        telemetry: Dict[str, Any],
    ) -> bool:
        """Store one executed run. Returns False when unserializable."""
        from .. import io

        try:
            document = {
                "cache_version": CACHE_VERSION,
                "spec": io.run_spec_to_dict(spec),
                "result": io.run_result_to_dict(result),
                "telemetry": telemetry,
            }
            payload = json.dumps(document, sort_keys=True)
        except (ConfigError, TypeError, ValueError):
            return False
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(content_hash)
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{next(_staging)}.tmp"
        )
        tmp.write_text(payload, encoding="utf-8")
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

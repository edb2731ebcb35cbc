"""The on-disk result cache, keyed by spec content hash.

Layout: one JSON Lines file per cached run at ``<root>/<content-hash>.json``:
every line is one JSON object, and every line ends with a newline.

* Line 1, the *header*, is one ``json.dumps(..., sort_keys=True)``
  document: ``cache_version``, the serialized spec (for inspection), the
  serialized :class:`~repro.runner.spec.RunResult` less its float
  columns (``result``, ``columns`` and ``floats``, see below), and the
  worker telemetry state captured when the run executed, less its
  trace: the counter ``registry`` and the per-kind ``event_kinds``
  counts.
* Each further line is one trace line exactly as
  ``worker_state()["trace"]`` holds it, which is also exactly what the
  run's ``trace.jsonl`` holds, in emission order.

So a cache hit replays the run's metrics and trace into the requesting
session exactly as a fresh execution would. :meth:`ResultCache.put`
writes the trace lines in pieces and :meth:`ResultCache.get` splits
them: no line is escaped on write, and none is unescaped or parsed on
read.

A *float column* is a non-empty list whose items are all exactly
``float`` (width 1: a series' ``times`` or ``values``), or all two-item
lists of exact floats (width 2: a step function's ``points``). The
header's ``result`` is the serialized result with each column replaced
by ``[]``; ``columns`` lists ``[path, offset, count, width]`` per column
in walk order (``path`` the keys and indices down to it, ``offset`` its
first float, ``count`` its items); ``floats`` is the base64 text of
every column's float64 bytes, little-endian, in that order. A hit puts
the columns back before :func:`repro.io.run_result_from_dict` runs, so
the float bits are the stored ones and the dict codec stays the one
codec; nothing else (ints, bools, strings, mixed lists such as timeline
rows, the spec and telemetry blocks) changes form.

Everything else round-trips through :mod:`repro.io`; a spec whose
payload the codecs cannot express (ad-hoc gate closures, non-JSON option
values) is simply never cached — the runner executes it every time.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..errors import ConfigError, ReproError
from .spec import RunResult, RunSpec

if TYPE_CHECKING:
    from array import array

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
#: v9: the result's float columns are one block of float64 bytes
#: (``columns`` and ``floats`` beside a ``result`` that holds ``[]`` in
#: their place) instead of decimal JSON text; v8 entries self-heal as
#: misses.
CACHE_VERSION = 9

#: Staging files are ``<entry>.<pid>.<n>.tmp``, ``n`` counting writes
#: across every cache in the process: unique per write, so writers
#: sharing a cache that miss one spec never rename each other's staging
#: file away (the last rename wins, with the same bytes).
_staging = itertools.count()


def _strip(node: Any, path: List[Any], columns: List[list],
           floats: array) -> Any:
    """``node`` with every float column under it (see the module
    docstring) replaced by ``[]``, appending each column's row to
    ``columns`` and its floats to ``floats``. Only the containers on
    the way to a column are copied: ``node`` is left as it was, and
    every part without a column is shared, not copied."""
    if type(node) is dict:
        items = iter(node.items())
    elif type(node) is list and node:
        kinds = set(map(type, node))
        flat, flat_kinds, width = node, kinds, 1
        if kinds == {list} and set(map(len, node)) == {2}:
            flat = list(itertools.chain.from_iterable(node))
            flat_kinds, width = set(map(type, flat)), 2
        if flat_kinds == {float}:
            columns.append([list(path), len(floats), len(node), width])
            floats.fromlist(flat)
            return []
        if kinds.isdisjoint((dict, list)):
            return node
        items = enumerate(node)
    else:
        return node
    copy = None
    for key, value in items:
        path.append(key)
        stripped = _strip(value, path, columns, floats)
        path.pop()
        if stripped is not value:
            if copy is None:
                copy = dict(node) if type(node) is dict else list(node)
            copy[key] = stripped
    return node if copy is None else copy


def pack_columns(document: Any) -> Tuple[Any, List[list], bytes]:
    """``(skeleton, columns, floats)`` for a JSON-able ``document``: the
    document with each float column replaced by ``[]``, the columns'
    ``[path, offset, count, width]`` rows in walk order, and the base64
    bytes of their float64 values, little-endian on any host.

    ``document`` itself is not changed.
    """
    # Imported here, as in unpack_columns: a process that never touches
    # a cache entry (the online service) does not load them.
    import base64
    from array import array

    columns: List[list] = []
    floats = array("d")
    skeleton = _strip(document, [], columns, floats)
    if sys.byteorder == "big":
        floats.byteswap()
    return skeleton, columns, base64.b64encode(floats)


def _child(node: Any, step: Any) -> Any:
    """``node[step]`` where ``step`` is a key of a dict or a
    non-negative index of a list; KeyError or IndexError when absent."""
    if type(node) is dict and type(step) is str:
        return node[step]
    if type(node) is list and type(step) is int and step >= 0:
        return node[step]
    raise ConfigError(f"cached column path step {step!r} fits no container")


def unpack_columns(skeleton: Any, columns: Any, floats: Any) -> Any:
    """Inverse of :func:`pack_columns`: ``skeleton`` with every column
    put back in place, the floats' bits as stored.

    Raises:
        ConfigError: when a column has a width other than 1 or 2, no
            items, or an offset that leaves a gap or overlaps the one
            before it; when floats are left over after the last column;
            or when a path does not end at an empty list.
        ValueError: when ``floats`` is not base64 or its bytes are not
            whole float64 values.
        IndexError, KeyError, TypeError: when a path or row does not
            fit the skeleton.
    """
    import base64
    from array import array

    values = array("d")
    values.frombytes(base64.b64decode(floats, validate=True))
    del floats  # the text is not needed while the columns are built
    if sys.byteorder == "big":
        values.byteswap()
    view = memoryview(values)
    position = 0
    for path, offset, count, width in columns:
        if not (
            type(path) is list
            and type(offset) is int and type(count) is int
            and type(width) is int and width in (1, 2)
            and offset == position and count > 0
            and offset + count * width <= len(values)
        ):
            raise ConfigError(
                f"cached column {path!r} does not tile the floats"
            )
        position = offset + count * width
        column = view[offset:position].tolist()
        if width == 2:
            pairs = iter(column)
            column = list(map(list, zip(pairs, pairs)))
        *parents, last = path
        node = skeleton
        for step in parents:
            node = _child(node, step)
        if _child(node, last) != []:
            raise ConfigError(f"cached column {path!r} has no empty slot")
        node[last] = column
    if position != len(values):
        raise ConfigError("cached floats left over after the columns")
    return skeleton


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


def _write_lines(handle: Any, lines: List[str], per_write: int) -> bool:
    """Write ``lines`` to ``handle``, each newline-ended, ``per_write``
    lines per ``write``, so a write holds one piece's text and never
    the whole trace's. False, with the lines before the piece written,
    at a piece holding a line that is not a string or holds a newline.
    """
    for start in range(0, len(lines), per_write):
        piece = lines[start:start + per_write]
        try:
            text = "\n".join(piece)
        except TypeError:
            return False
        if text.count("\n") != len(piece) - 1:
            return False
        handle.write(text)
        handle.write("\n")
    return True


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
        a stored result that fails to decode, float columns that do not
        tile their floats (see :func:`unpack_columns`), and a telemetry
        block the session could not merge (see :func:`_mergeable`): a
        header that carries the trace, or trace lines one more or fewer
        than its kind counts.
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

            result = io.run_result_from_dict(unpack_columns(
                header["result"], header["columns"], header.pop("floats")
            ))
            telemetry = header.get("telemetry", {})
            if not _mergeable(telemetry, len(lines)):
                raise ConfigError("malformed cached telemetry")
        except (AttributeError, IndexError, KeyError, TypeError, ValueError,
                ReproError):
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
            skeleton, columns, floats = pack_columns(
                io.run_result_to_dict(result)
            )
            header = json.dumps(
                {
                    "cache_version": CACHE_VERSION,
                    "columns": columns,
                    "floats": floats.decode("ascii"),
                    "result": skeleton,
                    "spec": io.run_spec_to_dict(spec),
                    "telemetry": state,
                },
                sort_keys=True,
            )
        except (ConfigError, TypeError, ValueError):
            return False
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(content_hash)
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{next(_staging)}.tmp"
        )
        with tmp.open("w", encoding="utf-8", newline="\n") as handle:
            handle.write(header)
            handle.write("\n")
            whole = _write_lines(handle, lines, io.TRACE_WRITE_LINES)
        if not whole:
            tmp.unlink()
            return False
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

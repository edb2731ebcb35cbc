"""Whole-program lint configuration (``[tool.repro-lint]``).

The semantic rules are parameterized by project policy rather than
hard-coded package lists:

* **layers** — the architecture DAG ARCH001 enforces. Each entry is one
  layer (a list of top-level ``repro`` subpackages); a package may import
  its own layer and anything *below* it, never above.
* **cross-cutting** — packages exempt from the layer ordering in both
  directions (telemetry and io are infrastructure every layer touches).
* **rng.shared** — substream name templates deliberately drawn by more
  than one component, mapped to the written contract that justifies the
  sharing (DET004 treats any *undeclared* reuse as a collision).
* **rng.owners** — substream name prefixes mapped to the component that
  owns them; DET004 flags draws of an owned prefix from anywhere else.

Configuration lives in ``pyproject.toml`` under ``[tool.repro-lint]``;
the compiled-in defaults below mirror the repo's own table so the
analyzer behaves identically on interpreters without :mod:`tomllib`
(Python 3.10) and on fixture trees that carry no pyproject at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigError

#: The repo's layer DAG, lowest layer first (see DESIGN.md).
DEFAULT_LAYERS: Tuple[Tuple[str, ...], ...] = (
    ("units", "errors", "floats"),
    ("sim", "net", "core", "faults"),
    ("cc", "mechanisms", "switches"),
    ("workloads", "scheduler"),
    ("runner",),
    ("analysis", "experiments", "cli", "lint"),
)

#: Packages importable from (and into) any layer.
DEFAULT_CROSS_CUTTING: Tuple[str, ...] = ("telemetry", "io")

#: Substream templates shared across components on purpose (none).
DEFAULT_SHARED_STREAMS: Mapping[str, str] = {}

#: Substream name prefixes owned by one component.
DEFAULT_STREAM_OWNERS: Mapping[str, str] = {
    "arrival": "workloads",
    "workload": "workloads",
    "random": "scheduler",
    "sweep": "experiments",
    "large": "experiments",
}


@dataclass(frozen=True)
class LintConfig:
    """Resolved semantic-analysis policy for one lint run."""

    layers: Tuple[Tuple[str, ...], ...] = DEFAULT_LAYERS
    cross_cutting: Tuple[str, ...] = DEFAULT_CROSS_CUTTING
    shared_streams: Mapping[str, str] = field(
        default_factory=lambda: dict(DEFAULT_SHARED_STREAMS)
    )
    stream_owners: Mapping[str, str] = field(
        default_factory=lambda: dict(DEFAULT_STREAM_OWNERS)
    )

    def layer_of(self) -> Dict[str, int]:
        """Map package name -> layer index (0 = foundation)."""
        table: Dict[str, int] = {}
        for index, layer in enumerate(self.layers):
            for package in layer:
                if package in table:
                    raise ConfigError(
                        f"package {package!r} assigned to two layers"
                    )
                table[package] = index
        return table


def _as_str_tuple(value, where: str) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise ConfigError(f"{where} must be a list of strings")
    return tuple(value)


def _as_str_mapping(value, where: str) -> Dict[str, str]:
    if not isinstance(value, dict) or not all(
        isinstance(k, str) and isinstance(v, str)
        for k, v in value.items()
    ):
        raise ConfigError(f"{where} must be a table of string -> string")
    return dict(value)


def config_from_table(table: Mapping) -> LintConfig:
    """Build a :class:`LintConfig` from a ``[tool.repro-lint]`` table."""
    kwargs: dict = {}
    if "layers" in table:
        raw = table["layers"]
        if not isinstance(raw, (list, tuple)):
            raise ConfigError("tool.repro-lint.layers must be a list")
        kwargs["layers"] = tuple(
            _as_str_tuple(layer, "each tool.repro-lint.layers entry")
            for layer in raw
        )
    if "cross-cutting" in table:
        kwargs["cross_cutting"] = _as_str_tuple(
            table["cross-cutting"], "tool.repro-lint.cross-cutting"
        )
    rng = table.get("rng", {})
    if rng and not isinstance(rng, dict):
        raise ConfigError("tool.repro-lint.rng must be a table")
    if "shared" in rng:
        kwargs["shared_streams"] = _as_str_mapping(
            rng["shared"], "tool.repro-lint.rng.shared"
        )
    if "owners" in rng:
        kwargs["stream_owners"] = _as_str_mapping(
            rng["owners"], "tool.repro-lint.rng.owners"
        )
    config = LintConfig(**kwargs)
    config.layer_of()  # validate eagerly: duplicate assignments raise
    return config


def find_pyproject(start: Path) -> Optional[Path]:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    current = start if start.is_dir() else start.parent
    for directory in [current, *current.parents]:
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def load_config(paths: Sequence[str] = ()) -> LintConfig:
    """Resolve the config for a lint run over ``paths``.

    Looks for a ``pyproject.toml`` with a ``[tool.repro-lint]`` table
    upward from the first path (falling back to the working directory).
    Without :mod:`tomllib` (Python 3.10) or without a table, the
    compiled-in defaults apply — they mirror the repo's own pyproject.
    """
    try:
        import tomllib
    except ImportError:  # Python 3.10: defaults mirror the repo table
        return LintConfig()
    start = Path(paths[0]).resolve() if paths else Path.cwd()
    pyproject = find_pyproject(start)
    if pyproject is None:
        return LintConfig()
    try:
        with pyproject.open("rb") as handle:
            document = tomllib.load(handle)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        raise ConfigError(f"unreadable {pyproject}: {exc}")
    table = document.get("tool", {}).get("repro-lint")
    if not table:
        return LintConfig()
    if not isinstance(table, dict):
        raise ConfigError("tool.repro-lint must be a table")
    return config_from_table(table)

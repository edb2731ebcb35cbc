"""Per-module analysis context shared by every rule.

:class:`ModuleContext` parses one file once and offers the services the
domain rules keep needing:

* **dotted-name resolution** — ``np.random.default_rng`` resolves to
  ``numpy.random.default_rng`` through the module's import aliases
  (including relative imports, resolved against the module's position
  inside the ``repro`` package), so rules match canonical names instead
  of guessing at local spellings;
* **package scoping** — ``ctx.package_parts`` locates the module inside
  the ``repro`` package (``("net", "phasesim")``), which is how rules
  restrict themselves to simulation code and exempt e.g. telemetry.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Dict, Optional, Tuple

#: The package the scoping rules anchor on.
ROOT_PACKAGE = "repro"


def _module_parts(path: str) -> Tuple[str, ...]:
    """Dotted-module parts for a file path.

    Anchors on the *last* ``repro`` path segment so both installed
    layouts (``src/repro/net/x.py``) and synthetic test paths
    (``repro/net/x.py``) resolve to ``("repro", "net", "x")``. Paths
    outside a ``repro`` directory fall back to the bare stem.
    """
    pure = PurePosixPath(str(path).replace("\\", "/"))
    parts = list(pure.parts)
    stem = pure.stem
    if parts and parts[-1].endswith(".py"):
        parts[-1] = stem
    if ROOT_PACKAGE in parts[:-1] or parts[-1] == ROOT_PACKAGE:
        anchor = (
            len(parts) - 1 - parts[::-1].index(ROOT_PACKAGE)
        )
        parts = parts[anchor:]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return tuple(parts)


class ModuleContext:
    """One parsed module plus the lookups rules share.

    Attributes:
        path: The path as given (used in findings).
        source: Full source text.
        tree: The parsed :class:`ast.Module`.
        module_parts: Dotted-module parts, e.g. ``("repro", "net",
            "fluid")``.
        aliases: Local name -> canonical dotted path for every import
            in the module (``np`` -> ``numpy``, ``perf_counter`` ->
            ``time.perf_counter``).
    """

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.module_parts = _module_parts(path)
        self.aliases = self._collect_aliases(tree)

    # ------------------------------------------------------------------
    # Scoping
    # ------------------------------------------------------------------

    @property
    def in_root_package(self) -> bool:
        """Whether the module lives inside the ``repro`` package."""
        return bool(self.module_parts) and (
            self.module_parts[0] == ROOT_PACKAGE
        )

    @property
    def package_parts(self) -> Tuple[str, ...]:
        """Parts below the root package (``("net", "fluid")``)."""
        if self.in_root_package:
            return self.module_parts[1:]
        return self.module_parts

    # ------------------------------------------------------------------
    # Import-alias resolution
    # ------------------------------------------------------------------

    def _relative_base(self, level: int) -> Tuple[str, ...]:
        """The package a ``level``-dot relative import resolves against."""
        # module repro.experiments.sweep: level=1 -> repro.experiments,
        # level=2 -> repro. Clamp at the root for malformed inputs.
        parts = self.module_parts
        drop = min(level, len(parts))
        return parts[: len(parts) - drop]

    def _collect_aliases(self, tree: ast.Module) -> Dict[str, str]:
        aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = (
                        alias.name
                        if alias.asname
                        else alias.name.split(".")[0]
                    )
                    aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                base: Tuple[str, ...]
                if node.level:
                    base = self._relative_base(node.level)
                else:
                    base = ()
                module = tuple(node.module.split(".")) if node.module else ()
                prefix = ".".join(base + module)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    aliases[local] = (
                        f"{prefix}.{alias.name}" if prefix else alias.name
                    )
        return aliases

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Canonical dotted name of a ``Name``/``Attribute`` chain.

        Returns ``None`` when the chain does not bottom out in an
        imported name — locals, attributes of ``self`` and computed
        expressions never resolve, which keeps rules free of false
        positives on same-named local variables.
        """
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id)
        if root is None:
            return None
        return ".".join([root, *reversed(chain)])

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleContext":
        """Parse ``source`` (raises ``SyntaxError`` on bad input)."""
        tree = ast.parse(source, filename=path)
        return cls(path, source, tree)

"""The two-pass walker: index the program, then run the rules.

Pass 1 (**index**) parses every file once, runs the per-module rules,
and distills each module into a picklable
:class:`~repro.lint.project.ModuleIndex`. With ``jobs > 1`` this pass
fans out over a process pool; files are processed in sorted order and
results merged in input order, so the output is byte-identical at any
job count.

Pass 2 (**semantic**) joins the summaries into a
:class:`~repro.lint.project.ProjectContext` and runs the project rules
(ARCH001/DET004/UNIT002) with whole-program visibility. Both passes
feed one finding stream through the same suppression and baseline
machinery.

:func:`lint_paths` is the programmatic entry point (the CLI is a thin
shell over it); :func:`lint_source` / :func:`lint_sources` lint
in-memory snippets against virtual paths, which is how the rule tests
build single- and multi-module fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ConfigError
from .baseline import Baseline
from .config import LintConfig, load_config
from .context import ModuleContext
from .findings import Finding, Severity
from .project import (
    ModuleIndex,
    ProjectContext,
    apply_project_suppressions,
    build_module_index,
)
from .rules import Rule, is_project_rule, select_rules
from .suppress import is_suppressed, suppressions

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "runs"}


@dataclass
class Report:
    """Outcome of one lint run.

    Attributes:
        findings: Fresh (non-baselined, non-suppressed) findings,
            sorted by path/line/col/code.
        baselined: Findings matched by the baseline (reported but not
            counted against the exit code).
        files: Number of files scanned.
    """

    findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    files: int = 0

    @property
    def ok(self) -> bool:
        """Whether the run is clean (exit code 0)."""
        return not self.findings

    def counts_by_code(self) -> Dict[str, int]:
        """Fresh findings per rule code, sorted by code."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return {code: counts[code] for code in sorted(counts)}

    def to_dict(self) -> dict:
        """The ``--format json`` document."""
        return {
            "version": 1,
            "files": self.files,
            "findings": [f.to_dict() for f in self.findings],
            "baselined": len(self.baselined),
            "summary": {
                "total": len(self.findings),
                "by_code": self.counts_by_code(),
            },
        }


def _iter_python_files(paths: Sequence[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(
                    part in _SKIP_DIRS for part in candidate.parts
                ):
                    files.append(candidate)
        elif path.is_file():
            files.append(path)
        else:
            raise ConfigError(f"no such file or directory: {raw}")
    # Deterministic regardless of how the caller ordered the inputs.
    unique = sorted(set(files), key=lambda f: f.as_posix())
    return unique


def _module_rules(rules: Sequence[Rule]) -> List[Rule]:
    return [rule for rule in rules if not is_project_rule(rule)]


def _project_rules(rules: Sequence[Rule]) -> List[Rule]:
    return [rule for rule in rules if is_project_rule(rule)]


def lint_module(
    ctx: ModuleContext, rules: Sequence[Rule]
) -> List[Finding]:
    """Run per-module ``rules`` over one parsed module."""
    table = suppressions(ctx.source)
    findings: List[Finding] = []
    for rule in _module_rules(rules):
        if not rule.applies(ctx):
            continue
        for finding in rule.check(ctx):
            if not is_suppressed(table, finding.line, finding.code):
                findings.append(finding)
    return sorted(findings)


def _parse_error_finding(display: str, exc: Exception) -> Finding:
    return Finding(
        path=display,
        line=getattr(exc, "lineno", None) or 1,
        col=getattr(exc, "offset", None) or 0,
        code="PARSE000",
        message=f"could not parse file: {exc}",
        severity=Severity.ERROR,
        hint="fix the syntax error",
    )


def _index_file(
    display: str,
    select: Optional[Tuple[str, ...]],
    ignore: Optional[Tuple[str, ...]],
) -> Tuple[List[Finding], Optional[ModuleIndex]]:
    """Pass-1 unit of work: parse, per-module rules, module summary.

    Module-level (not nested) so it pickles into pool workers; the rule
    registry re-imports inside each worker on first use.
    """
    rules = select_rules(select, ignore)
    try:
        source = Path(display).read_text(encoding="utf-8")
        ctx = ModuleContext.parse(display, source)
    except (OSError, SyntaxError, ValueError) as exc:
        return [_parse_error_finding(display, exc)], None
    return lint_module(ctx, rules), build_module_index(ctx)


def _run_semantic_pass(
    indexes: Sequence[ModuleIndex],
    rules: Sequence[Rule],
    config: LintConfig,
) -> List[Finding]:
    """Pass 2: project rules over the joined index."""
    project_rules = _project_rules(rules)
    if not project_rules:
        return []
    project = ProjectContext(indexes, config=config)
    findings: List[Finding] = []
    for rule in project_rules:
        findings.extend(rule.check_project(project))
    return apply_project_suppressions(findings, project.modules)


def lint_source(
    source: str,
    path: str = "repro/module.py",
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Lint an in-memory snippet as if it lived at ``path``.

    The virtual path drives rule scoping exactly like a real file
    (``"repro/net/x.py"`` is net-scope). The semantic pass runs over
    the one-module project, so intra-module ARCH001/DET004/UNIT002
    findings surface here too.
    """
    return lint_sources(
        {path: source}, select=select, ignore=ignore, config=config
    )


def lint_sources(
    sources: Mapping[str, str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Lint a virtual multi-module tree (path -> source).

    This is how the semantic-rule tests build cross-module fixtures: an
    upward import in one virtual file and its target in another behave
    exactly like two files on disk.
    """
    rules = select_rules(select, ignore)
    findings: List[Finding] = []
    indexes: List[ModuleIndex] = []
    for path in sorted(sources):
        ctx = ModuleContext.parse(path, sources[path])
        findings.extend(lint_module(ctx, rules))
        indexes.append(build_module_index(ctx))
    findings.extend(
        _run_semantic_pass(
            indexes, rules, config if config is not None else LintConfig()
        )
    )
    return sorted(findings)


def lint_paths(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    baseline: Optional[Baseline] = None,
    jobs: int = 1,
    config: Optional[LintConfig] = None,
) -> Report:
    """Lint files/directories and return the filtered :class:`Report`.

    ``jobs > 1`` fans the index pass out over a process pool; results
    are byte-identical to a serial run. Unparseable files surface as
    ``PARSE000`` findings rather than aborting the run — a linter that
    dies on the file it should flag is not much of a linter.
    """
    rules = select_rules(select, ignore)
    select_t = tuple(select) if select else None
    ignore_t = tuple(ignore) if ignore else None
    if config is None:
        config = load_config(paths)
    files = _iter_python_files(paths)
    displays = [file.as_posix() for file in files]

    collected: List[Finding] = []
    indexes: List[ModuleIndex] = []
    if jobs > 1 and len(displays) > 1:
        # Imported only here: it loads multiprocessing, which a serial
        # run (the default) never needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(
                    _index_file,
                    displays,
                    [select_t] * len(displays),
                    [ignore_t] * len(displays),
                    chunksize=8,
                )
            )
    else:
        results = [
            _index_file(display, select_t, ignore_t)
            for display in displays
        ]
    for findings, index in results:
        collected.extend(findings)
        if index is not None:
            indexes.append(index)

    collected.extend(_run_semantic_pass(indexes, rules, config))
    collected.sort()

    report = Report(files=len(displays))
    if baseline is None:
        baseline = Baseline()
    report.findings, report.baselined = baseline.split(collected)
    return report

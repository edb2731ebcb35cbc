"""The linter runs clean on the repo's own source tree.

This is the merge gate the PR establishes: every invariant rule passes
on ``src/repro`` with an *empty* baseline, so any regression — a stray
``time.time()``, an inline ``* 1e-3``, a float ``==`` — fails CI here
and in the workflow's lint job.

Linting the package tree takes seconds, so it happens few times: one
shared serial report (:func:`package_report`) backs the cleanliness and
jobs-parity tests, and the output-format tests run the CLI on a small
clean tree instead.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main as experiments_main
from repro.lint import lint_paths
from repro.lint.baseline import Baseline
from repro.lint.cli import main as lint_main
from repro.lint.suppress import is_suppressed, suppressions

#: The installed package tree (works from any cwd, src layout or not).
PACKAGE_DIR = Path(repro.__file__).resolve().parent


@pytest.fixture(scope="session")
def package_report():
    """One serial lint of the package tree, shared across tests."""
    return lint_paths([str(PACKAGE_DIR)])


@pytest.fixture
def clean_tree(tmp_path):
    """A small lint-clean package for the CLI output-format tests."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        '"""A clean package."""\n', encoding="utf-8"
    )
    (package / "rates.py").write_text(
        "def share(rate, total):\n"
        "    return rate / total if total > 0 else 0.0\n",
        encoding="utf-8",
    )
    return package


def test_package_tree_is_lint_clean(package_report):
    report = package_report
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.ok, f"lint findings on src/repro:\n{rendered}"
    # Sanity: the walk actually visited the tree.
    assert report.files > 50


def test_committed_baseline_is_empty():
    path = Path(__file__).resolve().parents[1] / "lint-baseline.json"
    assert path.exists(), "lint-baseline.json must be committed"
    document = json.loads(path.read_text(encoding="utf-8"))
    assert document == {"version": 1, "findings": []}
    assert len(Baseline.load(path)) == 0


def test_lint_cli_exits_zero_on_package(clean_tree, capsys):
    assert lint_main([str(clean_tree)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_lint_cli_json_mode(clean_tree, capsys):
    assert lint_main([str(clean_tree), "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["summary"]["total"] == 0
    assert document["findings"] == []


def test_experiments_cli_mounts_lint_subcommand(clean_tree, capsys):
    assert experiments_main(["lint", str(clean_tree)]) == 0
    assert "clean" in capsys.readouterr().out


def test_lint_cli_nonzero_on_finding(tmp_path, capsys):
    bad = tmp_path / "mod.py"
    bad.write_text("import time\nstart = time.time()\n", encoding="utf-8")
    assert lint_main([str(bad)]) == 1
    assert "DET002" in capsys.readouterr().out


def test_lint_cli_write_baseline_grandfathers(tmp_path, capsys):
    bad = tmp_path / "mod.py"
    bad.write_text("import time\nstart = time.time()\n", encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    assert lint_main(
        [str(bad), "--write-baseline", "--baseline", str(baseline)]
    ) == 0
    capsys.readouterr()
    # With the baseline the same findings no longer fail the run...
    assert lint_main([str(bad), "--baseline", str(baseline)]) == 0
    assert "baselined" in capsys.readouterr().out
    # ...but a fresh finding still does.
    bad.write_text(
        "import time\nstart = time.time()\nstop = time.time()\n",
        encoding="utf-8",
    )
    assert lint_main([str(bad), "--baseline", str(baseline)]) == 1


def test_semantic_rules_registered():
    from repro.lint import all_rules, is_project_rule

    by_code = {rule.code: rule for rule in all_rules()}
    for code in ("ARCH001", "DET004", "UNIT002"):
        assert code in by_code, f"{code} missing from the registry"
        assert is_project_rule(by_code[code])


def test_semantic_pass_clean_on_package_tree():
    report = lint_paths(
        [str(PACKAGE_DIR)], select=["ARCH001", "DET004", "UNIT002"]
    )
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.ok, f"semantic findings on src/repro:\n{rendered}"


def test_package_tree_waives_no_layer_rule():
    """The layer DAG holds with no exception: no line of the package
    suppresses ARCH001, by code or with a bare ``disable``."""
    waived = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        table = suppressions(path.read_text(encoding="utf-8"))
        waived += [
            f"{path.relative_to(PACKAGE_DIR)}:{line}"
            for line in sorted(table)
            if is_suppressed(table, line, "ARCH001")
        ]
    assert waived == []


def test_jobs_parity_on_package_tree(package_report):
    serial = package_report
    parallel = lint_paths([str(PACKAGE_DIR)], jobs=4)
    assert serial.to_dict() == parallel.to_dict()


def test_lint_cli_sarif_mode(clean_tree, capsys):
    assert lint_main([str(clean_tree), "--format", "sarif"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {"ARCH001", "DET004", "UNIT002"} <= rule_ids
    assert run["results"] == []


def test_lint_cli_sarif_carries_findings(tmp_path, capsys):
    bad = tmp_path / "mod.py"
    bad.write_text("import time\nstart = time.time()\n", encoding="utf-8")
    assert lint_main([str(bad), "--format", "sarif"]) == 1
    document = json.loads(capsys.readouterr().out)
    results = document["runs"][0]["results"]
    assert [r["ruleId"] for r in results] == ["DET002"]
    region = results[0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 2
    assert results[0]["partialFingerprints"]["reproLint/v1"]


def test_lint_cli_github_mode(tmp_path, capsys):
    bad = tmp_path / "mod.py"
    bad.write_text("import time\nstart = time.time()\n", encoding="utf-8")
    assert lint_main([str(bad), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::error file=" in out
    assert "title=DET002" in out


def test_lint_cli_rejects_bad_jobs(capsys):
    assert lint_main([str(PACKAGE_DIR), "--jobs", "0"]) == 2
    assert "jobs" in capsys.readouterr().err

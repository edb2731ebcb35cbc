"""What the CI workflow names exists in the tree.

The workflow only runs on the CI runners, so a deleted test file, an
unknown artifact or a renamed benchmark workload would first fail
there. This reads ``.github/workflows/ci.yml`` as plain text (PyYAML is
not a test dependency) and checks that:

* every ``tests/``, ``benchmarks/``, ``bench/`` and ``examples/`` path
  it names exists; a glob, or a path holding a shell variable, must
  match at least one file;
* every ``repro.cli run <artifact>`` names ``all`` or a key of
  :data:`repro.cli.EXPERIMENTS`;
* every ``--workload`` names a workload of ``BENCHMARK.json``, which is
  only read.
"""

import json
import re
from pathlib import Path

from repro.cli import EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "ci.yml").read_text()

#: A repository path in a command line; not part of a longer path or
#: word (``bench-artifacts/``, ``src/repro/bench/``).
PATH = re.compile(
    r"(?<![\w./$-])(?:tests|benchmarks|bench|examples)/[\w./*${}-]*"
)
#: A shell variable inside a path, matched as a glob wildcard.
VARIABLE = re.compile(r"\$\{?\w+\}?")


def test_every_named_path_exists():
    paths = sorted(set(PATH.findall(WORKFLOW)))
    assert len(paths) > 10, paths
    missing = [
        path for path in paths
        if not list(ROOT.glob(VARIABLE.sub("*", path).rstrip("/")))
    ]
    assert missing == [], "ci.yml names paths the tree does not hold"


def test_every_run_artifact_is_known():
    artifacts = set(re.findall(r"repro\.cli run (\S+)", WORKFLOW))
    assert "all" in artifacts and len(artifacts) > 2, artifacts
    assert artifacts - {"all"} <= set(EXPERIMENTS), sorted(artifacts)


def test_every_workload_is_a_benchmark_workload():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {workload["name"] for workload in declared["workloads"]}
    used = set(re.findall(r"--workload (\S+)", WORKFLOW))
    assert used, "ci.yml names no --workload"
    assert used <= names, sorted(used - names)

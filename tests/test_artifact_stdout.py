"""Exact printed output and solver outcomes of the artifacts that call
the rotation solvers.

``figure4``, ``figure5``, ``extensions``, ``table1``, ``scheduler`` and
``ablations`` call the rotation solvers directly rather than through
``run_many``, so no result digest covers what the solvers found. Each
is run once through ``repro-experiments run <name>``, and two pins
compare that run with files recorded under ``tests/expected/``:

* ``run_<name>.txt`` holds what ``figure4``, ``figure5`` and
  ``extensions`` print, byte for byte. The closing telemetry line
  names a fresh run directory, which is written as ``<runs>/<run>``.
  Its event count stays: it counts the artifact's ``solve`` calls.
* ``solve_outcomes.json`` holds, per artifact, every ``solve.outcome``
  record its ``trace.jsonl`` carries, in order: the method, verdict,
  overlap and node count of each ``solve`` call. ``table1`` and
  ``scheduler`` print only verdicts, so these records are the only
  check on the overlaps they compute.

The expected files were recorded from the code as it stood when each
pin was written. A refactor of the solvers must leave them unchanged;
a deliberate change to an artifact's output updates them alongside it.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from repro.cli import main

EXPECTED = Path(__file__).parent / "expected"

PRINTED = ["figure4", "figure5", "extensions"]
SOLVING = PRINTED + ["table1", "scheduler", "ablations"]

#: The ``solve.outcome`` fields each pin compares.
OUTCOME_FIELDS = ("method", "found", "complete", "overlap", "nodes", "jobs")


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """Each artifact in :data:`SOLVING`, run once into a fresh runs
    directory: ``{name: (stdout, solve.outcome fields)}``."""
    runs_dir = tmp_path_factory.mktemp("artifacts") / "runs"
    runs = {}
    for artifact in SOLVING:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["run", artifact, "--runs-dir", str(runs_dir)]) == 0
        (run_dir,) = runs_dir.glob(f"{artifact}-*")
        outcomes = []
        with open(run_dir / "trace.jsonl") as trace:
            for line in trace:
                record = json.loads(line)
                if record.get("kind") == "solve.outcome":
                    fields = record["fields"]
                    outcomes.append(
                        {name: fields[name] for name in OUTCOME_FIELDS}
                    )
        out = re.sub(
            re.escape(str(runs_dir)) + r"/[\w-]+",
            "<runs>/<run>",
            stdout.getvalue(),
        )
        runs[artifact] = (out, outcomes)
    return runs


@pytest.mark.parametrize("artifact", PRINTED)
def test_run_prints_pinned_output(artifact, recorded):
    expected = (EXPECTED / f"run_{artifact}.txt").read_text()
    assert recorded[artifact][0] == expected


@pytest.mark.parametrize("artifact", SOLVING)
def test_solve_outcomes_pinned(artifact, recorded):
    expected = json.loads((EXPECTED / "solve_outcomes.json").read_text())
    assert recorded[artifact][1] == expected[artifact]

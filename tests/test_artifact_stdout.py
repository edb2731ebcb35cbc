"""Exact printed output of the geometry artifacts.

``figure4``, ``figure5`` and ``extensions`` call the rotation solvers
directly rather than through ``run_many``, so no result digest covers
their verdicts. These pins compare what ``repro-experiments run <name>``
prints, byte for byte, with ``tests/expected/run_<name>.txt``. The
closing telemetry line names a fresh run directory, which is written
as ``<runs>/<run>``. Its event count stays: it counts the artifact's
``solve`` calls.

The expected files were recorded from the code as it stood when this
file was written. A refactor of the solvers must leave them unchanged;
a deliberate change to an artifact's output updates them alongside it.
"""

import re
from pathlib import Path

import pytest

from repro.cli import main

EXPECTED = Path(__file__).parent / "expected"


@pytest.mark.parametrize("artifact", ["figure4", "figure5", "extensions"])
def test_run_prints_pinned_output(artifact, capsys, tmp_path):
    runs_dir = tmp_path / "runs"
    assert main(["run", artifact, "--runs-dir", str(runs_dir)]) == 0
    out = re.sub(
        re.escape(str(runs_dir)) + r"/[\w-]+",
        "<runs>/<run>",
        capsys.readouterr().out,
    )
    expected = (EXPECTED / f"run_{artifact}.txt").read_text()
    assert out == expected

"""What ``import repro.cli`` loads into a fresh interpreter.

Every process pays for the CLI's import closure at start-up: the CLI
itself, each benchmark child and each pool worker. The closure's only
package outside the standard library is numpy, and it leaves out the
process pool (``concurrent.futures`` with ``multiprocessing``), which
only a run with more than one job opens. The linter's engine leaves the
pool out too: only ``--jobs`` above 1 opens one. A new module-level
import of a third-party package, or of the pool, fails here; import it
inside the function that needs it instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Prints the modules importing ``{module}`` adds. Site hooks may load
#: packages before it runs, so only the difference counts.
PROBE = """
import json, sys
before = set(sys.modules)
import {module}
print(json.dumps(sorted(set(sys.modules) - before)))
"""

#: The process pool's packages.
POOL = {"concurrent", "multiprocessing"}


def import_closure(module):
    """Top-level names of the modules ``import <module>`` adds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", PROBE.format(module=module)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return {name.partition(".")[0] for name in json.loads(completed.stdout)}


def test_cli_imports_numpy_and_the_standard_library_only():
    closure = import_closure("repro.cli")
    third_party = {
        name
        for name in closure
        if name not in sys.stdlib_module_names
        and name != "repro"
        and not (name.startswith("__") and name.endswith("__"))
    }
    assert third_party == {"numpy"}
    assert not closure & POOL


def test_lint_engine_leaves_the_pool_out():
    assert not import_closure("repro.lint.engine") & POOL

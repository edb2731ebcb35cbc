"""Benchmark configuration.

Each ``bench_*.py`` regenerates one paper artifact (see DESIGN.md's
per-experiment index): it runs the experiment driver under
``pytest-benchmark`` and prints the same rows/series the paper reports so
the output can be compared side-by-side with the paper.

Run them with::

    pytest benchmarks/ --benchmark-only -s

Every benchmark additionally writes a machine-readable
``BENCH_<name>.json`` artifact (timings plus any ``extra_info`` the
benchmark attached) into ``$BENCH_ARTIFACTS_DIR`` (default
``bench-artifacts/``), which is what CI uploads to track the perf
trajectory over time.
"""

import json
import os
import re

import pytest

from repro.cc.dcqcn import DcqcnFluidSimulator
from repro.cc.link_engine import run_scalar_fabric

#: The two ways to run a DCQCN simulator that the perf guards time
#: against each other (the same map as ``tests/conftest.py``): the
#: scalar oracle and the simulator's own run through the sender bank.
DCQCN_RUNS = {
    "scalar": run_scalar_fabric,
    "vector": DcqcnFluidSimulator.run,
}


def run_dcqcn(sim, engine, duration):
    """Run DCQCN simulator ``sim`` for ``duration`` seconds the
    ``engine`` way (a :data:`DCQCN_RUNS` key)."""
    return DCQCN_RUNS[engine](sim, duration)


def print_report(title: str, body: str) -> None:
    """Print an experiment report block (visible with ``-s``)."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
    print(body)


def _artifact_name(bench_name: str) -> str:
    """``test_adaptive_cc[x]`` -> ``adaptive_cc_x`` (filesystem-safe)."""
    name = bench_name
    if name.startswith("test_"):
        name = name[len("test_"):]
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_")


def pytest_sessionfinish(session, exitstatus):
    """Write one ``BENCH_<name>.json`` per benchmark that ran."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    outdir = os.environ.get("BENCH_ARTIFACTS_DIR", "bench-artifacts")
    os.makedirs(outdir, exist_ok=True)
    for bench in bench_session.benchmarks:
        record = bench.as_dict(include_data=False, flat=True)
        path = os.path.join(
            outdir, f"BENCH_{_artifact_name(bench.name)}.json"
        )
        with open(path, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True, default=str)

"""Run the repository benchmark: one workload, or all four.

    python3 bench/run.py --workload grid-dense --seed 0 --seconds 20
    python3 bench/run.py --seed 0                      # every workload
    python3 bench/run.py --workload reproduce --trace 1

Each repetition runs the workload's cold pass and then its warm
passes, each in a fresh single-threaded child process
(``bench/child.py``), over a fresh temporary cache and runs directory
under ``bench/out/``.
Repetitions continue while the next one is expected to finish within
``--seconds`` (at least one always runs); the end-to-end metrics are
medians over them, with timings normalized for host speed (see
``child.py``). With ``--trace 1`` the run makes one untraced and one
traced repetition and reports the per-layer metrics instead, in plain
host seconds, writing the spans to ``bench/out/trace-<workload>.json``.

Every pass's outputs are digested and checked: warm against cold,
traced against untraced, and — for seeds listed in
``bench/expected.json`` — against the committed digests. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Metric names, units and
bounds live in ``BENCHMARK.json`` at the repository root.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = BENCH / "child.py"
SPEC_FILE = ROOT / "BENCHMARK.json"
EXPECTED_FILE = BENCH / "expected.json"

#: Warm passes per untraced repetition. A warm pass is short on some
#: workloads (0.2 s on onoff-sparse), so two samples per repetition
#: steady its median; the cache is only read after the cold pass.
WARM_PASSES = 2
WORKLOAD_NAMES = ("reproduce", "grid-dense", "onoff-sparse",
                  "online-admission")

#: One invocation must end well inside the 180 s a run may take.
DEADLINE_S = 170.0

#: Child environment: one BLAS/OpenMP thread, fixed string hashing.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong output)."""


# ---------------------------------------------------------------------------
# Parent: repetitions, checks, statistics
# ---------------------------------------------------------------------------

def run_child(workload: str, pass_name: str, seed: int, workdir: Path,
              traced: bool, deadline: float) -> Dict[str, Any]:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time before the {pass_name} "
                         "pass")
    command = [
        sys.executable, str(CHILD), workload, pass_name, str(seed),
        str(workdir),
    ] + (["--traced"] if traced else [])
    env = dict(os.environ, **CHILD_ENV)
    env["TMPDIR"] = str(workdir)
    env["REPRO_RUNS_DIR"] = str(workdir / "runs")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            timeout=remaining, check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {pass_name} pass timed out") from None
    lines = proc.stdout.decode("utf-8").splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload}: {pass_name} pass exited with {proc.returncode}"
        )
    return json.loads(lines[-1])


#: One repetition: its child reports, cold pass first.
Rep = List[Dict[str, Any]]


def run_rep(workload: str, seed: int, traced: bool, deadline: float) -> Rep:
    """The cold pass, then the warm passes (one when traced), sharing
    one fresh working directory (cache, runs, temp files)."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-",
                                    dir=OUT / "tmp"))
    passes = ["cold"] + ["warm"] * (1 if traced else WARM_PASSES)
    try:
        return [
            run_child(workload, pass_name, seed, workdir, traced, deadline)
            for pass_name in passes
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def count_failures(passes: List[Dict[str, Any]],
                   expected: Optional[Dict[str, Any]]) -> int:
    """Failed operations over ``passes`` (the first is the reference
    unless ``expected`` digests exist for this workload and seed).

    An operation fails when it raised, produced no output, or its
    digest differs from the reference. A pass whose overall digest
    differs from an expected workload digest that has no per-operation
    breakdown fails every operation.
    """
    reference = dict(passes[0]["parts"])
    whole = None
    if expected is not None:
        whole = expected["digest"]
        reference = expected.get("parts", reference)
    failed = 0
    for report in passes:
        parts = report["parts"]
        matching = sum(
            1 for name, digest in reference.items()
            if parts.get(name) == digest
        )
        bad = report["ops"] - matching
        if whole is not None and report["digest"] != whole:
            bad = report["ops"] if bad == 0 else bad
        failed += max(bad, 0)
    return failed


def samples(reps: List[Rep], key: str, pass_name: str) -> List[Any]:
    """``key`` of every report of ``pass_name`` (or ``"any"``)."""
    return [
        report[key] for rep in reps for report in rep
        if pass_name in ("any", report["pass"])
    ]


def end_to_end(reps: List[Rep]) -> Dict[str, float]:
    """The end-to-end metrics: medians over the untraced repetitions."""
    return {
        "setup_s": median(samples(reps, "setup_s", "any")),
        "wall_s": median(samples(reps, "seconds", "cold")),
        "replay_s": median(samples(reps, "seconds", "warm")),
        "peak_rss_mb": median([
            max(report["rss_mb"] for report in rep) for rep in reps
        ]),
    }


def latencies(reps: List[Rep]) -> List[float]:
    """Per-arrival decision latencies of the untraced cold passes."""
    return [
        value for extras in samples(reps, "extras", "cold")
        for value in extras.get("latencies_s", [])
    ]


def per_layer(reps: List[Rep], traced: Rep,
              names: List[str]) -> Dict[str, float]:
    """The per-layer metrics from one traced repetition (both passes),
    plus latencies and artifact times from the untraced ones."""
    import tracing

    spans: List[list] = []
    counters: Dict[str, float] = {}
    for report in traced:
        spans += tracing.spans_from_json(report["spans"], len(spans))
        for key, value in report["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    table = tracing.summarize(spans)
    layers = tracing.layer_self_times(table)

    def stat(span: str, key: str) -> float:
        return float(table[span][key]) if span in table else 0.0

    traced_wall, traced_replay = (report["seconds"] for report in traced)
    untraced_s = (median(samples(reps, "raw_seconds", "cold"))
                  + median(samples(reps, "raw_seconds", "warm")))
    batched = counters.get("batched_specs", 0.0)
    executed = batched + stat("runner.execute", "calls")
    cc_busy = stat("cc.fluid_run", "total_s") + stat("cc.grid_run", "total_s")
    place = table.get("scheduler.place", {}).get("durations", [])
    decisions = latencies(reps)
    special = {
        "runner.cache_get.hit_ratio": (
            1.0 - stat("runner.cache_get", "none_frac")
            if "runner.cache_get" in table else 0.0
        ),
        "runner.execute_batched.fallback_ratio":
            stat("runner.execute_batched", "none_frac"),
        "runner.batched_frac": batched / executed if executed else 0.0,
        "telemetry.trace_records": counters.get("trace_records", 0.0),
        "cc.steps_per_s": (
            counters.get("cc.steps", 0.0) / cc_busy if cc_busy else 0.0
        ),
        "scheduler.place.p50_us": tracing.percentile_us(place, 50),
        "scheduler.place.p99_us": tracing.percentile_us(place, 99),
        "service.queued_frac": median([
            extras.get("queued_frac", 0.0)
            for extras in samples(reps, "extras", "cold")
        ]),
        "service.rejected_frac": median([
            extras.get("rejected_frac", 0.0)
            for extras in samples(reps, "extras", "cold")
        ]),
        "service.decision_p50_us": tracing.percentile_us(decisions, 50),
        "service.decision_p99_us": tracing.percentile_us(decisions, 99),
        "layer.untraced.self_s": (
            traced_wall + traced_replay - tracing.root_time(spans)
        ),
        "trace.wall_s": traced_wall,
        "trace.replay_s": traced_replay,
        "trace.overhead": (traced_wall + traced_replay) / untraced_s,
    }
    special.update({key: counters.get(key, 0.0)
                    for key in tracing.MERGED_COUNTERS})

    values: Dict[str, float] = {}
    for name in names:
        prefix, key = name.rsplit(".", 1)
        if name in special:
            values[name] = float(special[name])
        elif prefix.startswith("layer."):
            values[name] = layers.get(prefix.split(".", 1)[1], 0.0)
        elif prefix.startswith("experiments."):
            artifact = prefix.split(".", 1)[1]
            pass_name = {"wall_s": "cold", "replay_s": "warm"}[key]
            values[name] = median([
                seconds.get(artifact, 0.0)
                for seconds in samples(reps, "part_seconds", pass_name)
            ])
        elif key in ("calls", "total_s", "self_s"):
            values[name] = stat(prefix, key)
        else:
            raise BenchError(f"no rule computes per-layer metric {name!r}")
    return values


# ---------------------------------------------------------------------------
# Host context, expected digests, output
# ---------------------------------------------------------------------------

def calibration_s() -> float:
    """Seconds for a 2M-iteration interpreter loop on this host."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i
    return time.perf_counter() - start


def host_context() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": commit,
        "calibration_s": calibration_s(),
    }


def load_json(path: Path) -> Dict[str, Any]:
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: Dict[str, Any]) -> Dict[str, Any]:
    """Repeat ``name`` within the time budget; check and summarize."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    reps: List[Rep] = []
    while True:
        rep_started = time.monotonic()
        reps.append(run_rep(name, seed, False, deadline))
        elapsed = time.monotonic() - started
        if trace or elapsed + (time.monotonic() - rep_started) > seconds:
            break
    traced = run_rep(name, seed, True, deadline) if trace else None

    expected = load_json(EXPECTED_FILE).get(name, {}).get(str(seed))
    passes = [report for rep in reps for report in rep] + (traced or [])
    failed = count_failures(passes, expected)
    disagreeing = count_failures(passes, None)
    attempted = sum(report["ops"] for report in passes)

    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(reps, traced, list(units))
        write_trace(name, seed, traced, values)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(reps)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "reps": len(reps),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": values[metric], "unit": units[metric]}
            for metric in units
        },
        "samples": {
            "setup_s": samples(reps, "setup_s", "any"),
            "wall_s": samples(reps, "seconds", "cold"),
            "replay_s": samples(reps, "seconds", "warm"),
            "raw_setup_s": samples(reps, "raw_setup_s", "any"),
            "raw_wall_s": samples(reps, "raw_seconds", "cold"),
            "raw_replay_s": samples(reps, "raw_seconds", "warm"),
        },
        "digest": reps[0][0]["digest"],
        "parts": reps[0][0]["parts"],
        "disagreeing": disagreeing,
        "decision_samples": len(latencies(reps)),
    }


def write_trace(name: str, seed: int, traced: Rep,
                values: Dict[str, float]) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    document = {
        "workload": name,
        "seed": seed,
        "passes": {
            report["pass"]: {
                "seconds": report["seconds"],
                "counters": report["counters"],
                "spans": report["spans"],
            }
            for report in traced
        },
        "per_layer": values,
    }
    path = OUT / f"trace-{name}.json"
    with path.open("w", encoding="utf-8") as handle:
        json.dump(document, handle)


def print_table(result: Dict[str, Any]) -> None:
    print(f"\n== {result['workload']} (seed {result['seed']}, "
          f"{result['reps']} rep(s){', traced' if result['trace'] else ''})")
    width = max(len(name) for name in result["metrics"])
    for name, metric in result["metrics"].items():
        print(f"  {name.ljust(width)}  {metric['value']:.6g} "
              f"{metric['unit']}")
    metrics = result["metrics"]
    if "trace.wall_s" in metrics:
        layers = sum(metric["value"] for name, metric in metrics.items()
                     if name.startswith("layer."))
        traced = (metrics["trace.wall_s"]["value"]
                  + metrics["trace.replay_s"]["value"])
        print(f"  layer self times sum to {layers:.4f} s of {traced:.4f} s "
              "traced")
    print(f"  ops: {result['attempted']} attempted, {result['failed']} "
          f"failed; digest {result['digest'][:16]}")


def update_expected(result: Dict[str, Any]) -> None:
    expected = load_json(EXPECTED_FILE)
    entry: Dict[str, Any] = {"digest": result["digest"]}
    if result["workload"] != "online-admission":
        entry["parts"] = result["parts"]
    expected.setdefault(result["workload"], {})[str(result["seed"])] = entry
    with EXPECTED_FILE.open("w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


def parse_args(argv: Optional[List[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                        "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append each workload's result as a JSON line")
    parser.add_argument("--update-expected", action="store_true",
                        help="record this seed's digests in expected.json")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    spec = load_json(SPEC_FILE)
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    host = host_context()
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, seconds, bool(args.trace),
                                  spec)
            result["host"] = host
            results.append(result)
            print_table(result)
            if args.update_expected:
                if result["disagreeing"]:
                    raise BenchError(f"{name}: passes disagree; not "
                                     "recording their digests")
                update_expected(result)
            if args.out:
                record = {k: v for k, v in result.items() if k != "parts"}
                with open(args.out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = sum(result["failed"] for result in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{result['workload']}/{name}": metric
            for result in results
            for name, metric in result["metrics"].items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
